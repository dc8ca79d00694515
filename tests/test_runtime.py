"""Runtime helper tests: in-order map, canonical JSON, result cache."""

import json

import pytest

from adicgaps.runtime import (
    SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    content_key,
    pmap,
)


class TestPmap:
    def test_preserves_input_order(self):
        items = list(range(200))
        assert pmap(lambda x: x * x, items) == [x * x for x in items]

    def test_empty_input(self):
        assert pmap(lambda x: x, []) == []

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError(f"item {x}")

        with pytest.raises(RuntimeError, match="item 0"):
            pmap(boom, [0, 1, 2])


class TestCanonicalJson:
    def test_sorted_keys_and_tight_separators(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_content_key_is_stable_and_order_insensitive(self):
        left = content_key({"x": 1, "y": 2})
        right = content_key({"y": 2, "x": 1})
        assert left == right
        assert len(left) == 64
        assert left != content_key({"x": 1, "y": 3})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key({"query": "demo"})
        assert cache.get(key) is None
        path = cache.put(key, {"value": [1, 2, 3]})
        assert path.parent.name == f"v{SCHEMA_VERSION}"
        assert cache.get(key) == {"value": [1, 2, 3]}

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("x")
        cache.put(key, {"ok": True})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="hex"):
            cache.path_for("../escape")

    def test_written_files_are_canonical_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("y")
        cache.put(key, {"b": 1, "a": 2})
        text = cache.path_for(key).read_text(encoding="utf-8")
        assert text == '{"a":2,"b":1}'
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_schema_versions_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("z")
        other = tmp_path / "v999" / f"{key}.json"
        other.parent.mkdir(parents=True)
        other.write_text('"stale"', encoding="utf-8")
        assert cache.get(key) is None
