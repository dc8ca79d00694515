"""Command-surface tests: argument handling, exit codes, output shapes, and
the audit command's plumbing (partial runs, cache flags, determinism)."""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adicgaps
from adicgaps import cli
from adicgaps.cli import (
    AUDIT_CHECKS,
    DISCREPANCY_KNOWN,
    EXIT_OK,
    EXIT_USAGE,
    GAP_STILDE,
    PASS,
    REFERENCE_STRONG_TABLE,
    AuditContext,
    check_strong_three,
    main,
)
from adicgaps.gaps import critical_record_gap, minimal_classes
from adicgaps.breaking import record_three_gap
from adicgaps.runtime import SCHEMA_VERSION
from adicgaps.search import ORDER, budget_json

from helpers import RETIRED_POOL_VARIABLE


@pytest.fixture
def gap_file(tmp_path):
    def write(name, spec):
        path = tmp_path / name
        path.write_text(json.dumps(spec.to_json()))
        return str(path)

    return write


def record_file(tmp_path, sides):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"layer": "record", "n": len(sides), "m": 2, "sides": sides}))
    return str(path)


def assert_one_error_line(capsys, mention):
    """Exit-2 contract: nothing on stdout, one ``error:`` line naming
    ``mention`` on stderr, and no traceback."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert mention in lines[0]


class TestTypesEnum:
    def test_dyadic_listing(self, capsys):
        assert main(["types", "enum", "--n", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "record types over the 2-letter alphabet: 8" in out
        assert "[u1 l0 l1]" in out
        assert out.count("top-comb") == 4

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 8), (3, 61)])
    def test_json_counts(self, capsys, n, count):
        assert main(["types", "enum", "--n", str(n), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["alphabet"] == n
        assert payload["count"] == count
        assert len(payload["types"]) == count
        assert payload["types"][0]["text"] == "[l0]"

    def test_out_of_range_exits_2(self, capsys):
        assert main(["types", "enum", "--n", "9"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_alphabet_exits_2(self, capsys, n):
        assert main(["types", "enum", "--n", n]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["types", "enum"])
        assert exc.value.code == 2


#: sha256 of the ``gaps enum-strong --n N --json`` stdout, per N
ENUM_STRONG_SHA256 = {
    "2": "014aa5f06dfef9836c20674003260518ff310d2e6c77cfef9bfd56db41f4d7f7",
    "3": "29856007c14c77e645ef2e762bd410bf82be1da48bbecd2feebe95f6632ad68a",
}

#: sha256 of the ``breaking check --json`` stdout on ``record_three_gap()``,
#: per side set
BREAKING_THREE_SHA256 = {
    "0": "415dc81fe5279d10e9667ae99c8d1c2bf12cc3044791a3b4b543f7bc63d1c1d8",
    "1": "4116b8b43d139ec91265b845d4a200cd2cca6b7959fa28e42b5232aca0768d5e",
    "2": "9392c664682104694486877afb606bdfc903734c75dfd0081e4543b701e7165e",
    "0,1": "2258c108929016b8fe61b5c64104fef43818a09adfefcf9fb075f9c10a4586ac",
    "0,2": "b8005d0a66c019ec9ffb97aa4f56367d810476bc2b7113d9440f66c18ec4cec1",
    "1,2": "c2e6e90b8e1c865473416867f4ea2b1e5e537fc4357fae917b1cbf4751bf1567",
    "0,1,2": "290e1862964e01f29fff092d1a3396a6de1bdbc2eb485f3225ad642bab824572",
}

def first_move_json(m, sides):
    """A first-move gap file over alphabet m with the given sides."""
    return {"layer": "first_move", "n": len(sides), "m": m, "sides": sides}


RECORD_LEFT = {"layer": "record", "n": 2, "m": 2, "sides": [["[l0]"], ["[l1]"]]}
RECORD_RIGHT = {
    "layer": "record",
    "n": 2,
    "m": 2,
    "sides": [["[l0]", "[u1 l0]"], ["[l1]", "[l0 l1]"]],
}

#: sha256 of the ``gaps order --json`` stdout: 4* <= S-tilde (witnessed,
#: exact), a record pair the bounded search leaves UNKNOWN_bounded, two
#: strong three-sided candidates (one witnessed by a map that is not the
#: identity, one refuted), and first-move pairs from alphabet 2 into 3 and
#: from 3 into 4 whose witnesses sit deep in their map pools
ORDER_SHA256 = {
    "four-star-stilde": (
        REFERENCE_STRONG_TABLE["4*"].to_json(),
        GAP_STILDE.to_json(),
        "2b5a75209646b621a03505f7b5fed22f7f4bf71f72d8c407c59e9fea137fccd2",
    ),
    "record-unknown": (
        RECORD_LEFT,
        RECORD_RIGHT,
        "e8b1489eb7ed0428779f6bfff1224eb18244bf02b099d6234943179967a77cf3",
    ),
    "strong-three-witnessed": (
        first_move_json(3, [["0>0"], ["0>2", "1>0", "1>1", "1>2"], ["0>1", "2>0", "2>1", "2>2"]]),
        first_move_json(3, [["0>0", "0>2"], ["0>1", "1>0", "1>1", "2>1"], ["1>2", "2>0", "2>2"]]),
        "d446149d595cc50d2d954c01ad7ddb9c6fc265a98e9798964779741bbc7769fa",
    ),
    "strong-three-refuted": (
        first_move_json(3, [["0>0", "0>1", "0>2", "1>0", "1>2", "2>0", "2>1"], ["1>1"], ["2>2"]]),
        first_move_json(3, [["0>0", "0>1", "0>2", "1>0", "1>2", "2>0"], ["1>1", "2>1"], ["2>2"]]),
        "8bac659f7eff074c869a83bfb5d637fe23b7c5ce39ed0aa3e1a9c4a2488a08b4",
    ),
    "first-move-2-into-3": (
        first_move_json(2, [["1>0"], ["0>0", "0>1"]]),
        first_move_json(3, [["0>2", "1>0"], ["1>2", "2>0", "2>1"]]),
        "ed829246a215fddff0b0bd1c7800d5508a60c4b3b7b2aef93bf2f45da3046418",
    ),
    "first-move-3-into-4": (
        first_move_json(3, [["0>0", "0>1", "0>2", "1>2"], ["1>0", "2>0", "2>1", "2>2"]]),
        first_move_json(
            4, [["0>1", "1>2", "3>1"], ["0>0", "0>2", "0>3", "2>0", "2>1", "2>2", "2>3", "3>0"]]
        ),
        "ce636200d6e662373d4ca2cde0954e69ed3f6191f9d526c4b2e631beceea89f9",
    ),
}

#: cache entries of the wrong shape: none may be read back as a result
MALFORMED_STRONG_ENTRIES = {
    "empty": {},
    "list": [1],
    "partial": {"candidates": 4096},
    # the shape before the arity key, with the minimal count and the
    # side-only quotient
    "old-shape": {
        "mode": "exact",
        "candidates": 4096,
        "minimal": 31,
        "classes": [],
        "quotients": {"alphabet": 9, "sides_only": 31},
    },
    "other-arity": {"n": 1, "mode": "exact", "candidates": 1, "classes": [], "quotients": {}},
}

#: Entries with the keys and the arity of the value their key names, but
#: values of another form; each is stored under its own arity's key
WRONG_VALUED_STRONG_ENTRIES = {
    "2": {"n": 2, "mode": "exact", "candidates": 9, "classes": 5, "quotients": {}},
    "3": {
        "n": 3,
        "mode": "exact",
        "candidates": 4096,
        "classes": [[1]],
        "quotients": {"alphabet": "x"},
    },
}


class TestEnumStrong:
    def test_dyadic_classes(self, capsys):
        assert main(["gaps", "enum-strong", "--n", "2", "--no-cache"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "strong 2-gap candidates: 9" in out
        assert "minimal classes (mutual order): 6" in out
        assert out.count("class ") == 6

    def test_upto_perm(self, capsys):
        assert (
            main(["gaps", "enum-strong", "--n", "2", "--upto-perm", "--no-cache"])
            == EXIT_OK
        )
        assert capsys.readouterr().out == (
            "strong 2-gap candidates: 9\n"
            "minimal classes (mutual order): 6\n"
            "up to letter-and-side permutation (alphabet convention): 4\n"
        )

    def test_json_shape(self, capsys):
        assert main(["gaps", "enum-strong", "--n", "2", "--json", "--no-cache"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"n", "mode", "candidates", "classes", "quotients"}
        assert payload["n"] == 2
        assert payload["candidates"] == 9
        assert len(payload["classes"]) == 6
        assert payload["quotients"] == {"alphabet": 4}
        assert payload["mode"] == "exact"

    @pytest.mark.parametrize("n", [2, 3])
    def test_json_is_the_report_value(self, capsys, n):
        argv = ["gaps", "enum-strong", "--n", str(n), "--json", "--no-cache"]
        assert main(argv) == EXIT_OK
        expected = json.dumps(minimal_classes(n).as_dict(), indent=2, sort_keys=True)
        assert capsys.readouterr().out == expected + "\n"

    def test_out_of_range_exits_2(self, capsys):
        assert main(["gaps", "enum-strong", "--n", "4"]) == EXIT_USAGE
        assert "desk-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("n,digest", ENUM_STRONG_SHA256.items(), ids=ENUM_STRONG_SHA256)
    def test_json_bytes_pinned(self, capsys, n, digest):
        assert main(["gaps", "enum-strong", "--n", n, "--json", "--no-cache"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_cache_roundtrip_preserves_output(self, capsys, tmp_path):
        argv = ["gaps", "enum-strong", "--n", "2", "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        cold = capsys.readouterr().out
        cached_files = list(tmp_path.rglob("*.json"))
        assert cached_files, "first run should populate the cache"
        assert main(argv) == EXIT_OK
        warm = capsys.readouterr().out
        assert warm == cold

    def test_triadic_cache_roundtrip_prints_the_pinned_bytes(self, capsys, tmp_path, monkeypatch):
        argv = ["gaps", "enum-strong", "--n", "3", "--json", "--cache-dir", str(tmp_path)]
        outputs = []
        assert main(argv) == EXIT_OK  # computes and writes
        outputs.append(capsys.readouterr().out)
        assert len(list(tmp_path.rglob("*.json"))) == 1

        def recomputed(n):
            raise AssertionError("the cached classes were recomputed")

        monkeypatch.setattr(cli, "minimal_classes", recomputed)
        assert main(argv) == EXIT_OK  # reads
        outputs.append(capsys.readouterr().out)
        digests = {hashlib.sha256(out.encode()).hexdigest() for out in outputs}
        assert digests == {ENUM_STRONG_SHA256["3"]}

    @pytest.mark.parametrize(
        "entry", MALFORMED_STRONG_ENTRIES.values(), ids=MALFORMED_STRONG_ENTRIES
    )
    def test_malformed_cache_entry_is_recomputed(self, capsys, tmp_path, entry):
        argv = ["gaps", "enum-strong", "--n", "2", "--json"]
        assert main(argv + ["--no-cache"]) == EXIT_OK
        fresh = capsys.readouterr().out
        assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        [path] = tmp_path.rglob("*.json")
        path.write_text(json.dumps(entry))
        assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == fresh
        assert json.loads(path.read_text()) == json.loads(fresh)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("n", WRONG_VALUED_STRONG_ENTRIES)
    def test_wrong_valued_cache_entry_is_recomputed(self, capsys, tmp_path, n, json_flag):
        argv = ["gaps", "enum-strong", "--n", n] + json_flag
        assert main(argv + ["--no-cache"]) == EXIT_OK
        fresh = capsys.readouterr().out
        assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        [path] = tmp_path.rglob("*.json")
        path.write_text(json.dumps(WRONG_VALUED_STRONG_ENTRIES[n]))
        assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == fresh
        assert json.loads(path.read_text()) == minimal_classes(int(n)).as_dict()

    def test_cache_dir_is_created_when_missing(self, capsys, tmp_path):
        cache_dir = tmp_path / "fresh" / "cache"
        argv = ["gaps", "enum-strong", "--n", "2", "--json", "--cache-dir", str(cache_dir)]
        assert main(argv) == EXIT_OK
        assert list(cache_dir.rglob("*.json"))

    @pytest.mark.parametrize("where", ["file", "below-file"])
    def test_cache_dir_that_is_a_file_exits_2(self, capsys, tmp_path, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache_dir = blocker if where == "file" else blocker / "cache"
        argv = ["gaps", "enum-strong", "--n", "2", "--cache-dir", str(cache_dir)]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys, str(cache_dir))

    def test_entry_dir_that_is_a_file_exits_2(self, capsys, tmp_path):
        # entries go under the versioned directory, not the root
        (tmp_path / f"v{SCHEMA_VERSION}").write_text("")
        argv = ["gaps", "enum-strong", "--n", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys, str(tmp_path / f"v{SCHEMA_VERSION}"))

    def test_unwritable_cache_dir_exits_2(self, capsys, tmp_path, monkeypatch):
        # a superuser may write anywhere, so the permission answer is stubbed
        locked = tmp_path / "locked"
        locked.mkdir()
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: str(path) != str(locked) and real_access(path, mode)
        )
        argv = ["gaps", "enum-strong", "--n", "2", "--cache-dir", str(locked)]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys, str(locked))

    def test_no_cache_builds_no_key(self, monkeypatch):
        # the key is small (the arity and what the classes are decided
        # by), but without a cache nothing reads it, so it is not built
        def no_key(obj):
            raise AssertionError("content_key called without a cache")

        monkeypatch.setattr(cli, "content_key", no_key)
        *_, status = check_strong_three(AuditContext(seed=0, cache=None))
        assert status == PASS


class TestGapsOrder:
    def test_witnessed_relation(self, capsys, gap_file):
        left = gap_file("left.json", REFERENCE_STRONG_TABLE["4*"])
        right = gap_file("right.json", GAP_STILDE)
        assert main(["gaps", "order", "--left", left, "--right", right]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: LE_witnessed" in out
        assert "witness: efamily" in out
        assert "revalidated: True" in out

    def test_exact_refutation(self, capsys, gap_file):
        left = gap_file("left.json", REFERENCE_STRONG_TABLE["3"])
        right = gap_file("right.json", REFERENCE_STRONG_TABLE["4"])
        assert main(["gaps", "order", "--left", left, "--right", right]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: NOT_LE_refuted_exact" in out
        assert "(exact)" in out

    def test_record_order_from_alphabet_four_exits_2(self, capsys, tmp_path):
        # substitutions out of alphabet 4 reach the same-type probes, which
        # have no pool there: the query is refused, not answered
        left = tmp_path / "left4.json"
        left.write_text(json.dumps({"layer": "record", "n": 2, "m": 4, "sides": [["[l0]"], ["[l3]"]]}))
        right = record_file(tmp_path, [["[l0]"], ["[l1]"]])
        assert main(["gaps", "order", "--left", str(left), "--right", right]) == EXIT_USAGE
        assert_one_error_line(capsys, "alphabet 4")

    def test_record_order_between_two_alphabet_four_gaps_exits_2(self, tmp_path):
        # both sides over alphabet 4: refused at the first probed candidate,
        # not after a walk through its 84**4 substitution block tuples
        path = tmp_path / "four.json"
        sides = [["[l0]"], ["[l3]"]]
        path.write_text(json.dumps({"layer": "record", "n": 2, "m": 4, "sides": sides}))
        refused = _run_cli(["gaps", "order", "--left", str(path), "--right", str(path)], timeout=60)
        assert refused.returncode == EXIT_USAGE
        assert refused.stdout == ""
        assert refused.stderr.splitlines() == ["error: no same-type pool over alphabet 4"]

    def test_json_shape(self, capsys, gap_file):
        left = gap_file("left.json", REFERENCE_STRONG_TABLE["4*"])
        right = gap_file("right.json", GAP_STILDE)
        assert (
            main(["gaps", "order", "--left", left, "--right", right, "--json"])
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "LE_witnessed"
        assert payload["revalidated"] is True
        assert payload["witness"]["kind"] == "efamily"
        assert payload["searched"] == 20

    @pytest.mark.parametrize("layer", ["first_move", "record"])
    def test_budget_states_the_search_extent(self, capsys, gap_file, layer):
        # the first-move search is exact, so it has no extent to state; the
        # record search states its extent as breaking reports do
        if layer == "first_move":
            left, right = REFERENCE_STRONG_TABLE["4*"], GAP_STILDE
            budget, note = None, "(exact)"
        else:
            left = right = critical_record_gap(2)
            budget, note = budget_json(ORDER), "(bounded)"
        argv = ["gaps", "order", "--left", gap_file("l.json", left)]
        argv += ["--right", gap_file("r.json", right)]
        assert main(argv + ["--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "LE_witnessed" and payload["revalidated"] is True
        assert payload["budget"] == budget
        assert set(payload["witness"]) == {"kind", "label", "domain_alphabet", "action", "embedding"}
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1].endswith(note)

    @pytest.mark.parametrize("pair", ORDER_SHA256, ids=ORDER_SHA256)
    def test_json_bytes_pinned(self, capsys, tmp_path, pair):
        left, right, digest = ORDER_SHA256[pair]
        paths = []
        for name, spec in (("left.json", left), ("right.json", right)):
            (tmp_path / name).write_text(json.dumps(spec))
            paths.append(str(tmp_path / name))
        argv = ["gaps", "order", "--left", paths[0], "--right", paths[1], "--json"]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_malformed_file_exits_2(self, capsys, tmp_path, gap_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        right = gap_file("right.json", GAP_STILDE)
        assert (
            main(["gaps", "order", "--left", str(bad), "--right", right])
            == EXIT_USAGE
        )
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 200_000], ids=["utf16-bom", "nested-too-deep"]
    )
    def test_undecodable_file_exits_2(self, capsys, tmp_path, gap_file, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        right = gap_file("right.json", GAP_STILDE)
        for argv in (["gaps", "order", "--left", str(bad), "--right", right],
                     ["breaking", "check", "--gap", str(bad), "--set", "0"]):
            assert main(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "content,message",
        [
            ([1, 2], "a gap file must hold a JSON object"),
            ("gap", "a gap file must hold a JSON object"),
            (
                {"layer": "record", "n": 2, "m": 2, "sides": [[1], ["[l1]"]]},
                "a gap side must list symbols as strings",
            ),
            (
                {"layer": "first_move", "n": 2, "m": 2, "sides": [[1], ["1>1"]]},
                "a gap side must list symbols as strings",
            ),
            (
                {"layer": "first_move", "n": 2, "m": float("inf"), "sides": [["0>0"], ["1>1"]]},
                "n and m must be integers",
            ),
            (
                {"layer": "first_move", "n": 2, "m": 2.7, "sides": [["0>0"], ["1>1"]]},
                "n and m must be integers",
            ),
            (
                {"layer": "record", "n": True, "m": 2, "sides": [["[l0]"]]},
                "n and m must be integers",
            ),
            (
                {"layer": "first_move", "n": 0, "m": 2, "sides": []},
                "a gap needs at least one side",
            ),
            (
                {"layer": "record", "n": 0, "m": 2, "sides": []},
                "a gap needs at least one side",
            ),
            (
                {"layer": "record", "n": 2, "m": 2, "sides": [["[l0]"], "[l1]"]},
                "sides must be a list of lists",
            ),
            (
                {"layer": "record", "n": 2, "m": 2, "sides": [["[l0]"], {"[l1]": 1}]},
                "sides must be a list of lists",
            ),
            (
                {"layer": "record", "n": 1, "m": 2, "sides": "[l0]"},
                "sides must be a list of lists",
            ),
        ],
        ids=["list", "string", "record-number", "first-move-number", "m-infinite", "m-float",
             "n-boolean", "first-move-no-sides", "record-no-sides", "string-side", "dict-side",
             "string-sides"],
    )
    def test_ill_typed_file_exits_2(self, capsys, tmp_path, gap_file, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        right = gap_file("right.json", GAP_STILDE)
        assert main(["gaps", "order", "--left", str(bad), "--right", right]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_missing_file_exits_2(self, capsys, gap_file):
        right = gap_file("right.json", GAP_STILDE)
        assert (
            main(["gaps", "order", "--left", "/nonexistent.json", "--right", right])
            == EXIT_USAGE
        )
        assert "cannot read" in capsys.readouterr().err

    def test_family_enumeration_beyond_alphabet_four_exits_2(self, capsys, tmp_path):
        # from alphabet 5 into 2 the order reaches the e-family enumeration,
        # whose refusal names both alphabets
        left = tmp_path / "left.json"
        left.write_text(json.dumps(
            {"layer": "first_move", "n": 2, "m": 5, "sides": [["0>0"], ["1>1"]]}
        ))
        right = tmp_path / "right.json"
        right.write_text(json.dumps(
            {"layer": "first_move", "n": 2, "m": 2, "sides": [["0>0"], ["1>1"]]}
        ))
        assert main(["gaps", "order", "--left", str(left), "--right", str(right)]) == EXIT_USAGE
        assert_one_error_line(capsys, "alphabet 5")

    def test_layer_mismatch_exits_2(self, capsys, gap_file):
        left = gap_file("left.json", REFERENCE_STRONG_TABLE["4*"])
        right = gap_file("right.json", record_three_gap())
        assert (
            main(["gaps", "order", "--left", left, "--right", right]) == EXIT_USAGE
        )
        assert "layer mismatch" in capsys.readouterr().err


class TestBreakingCheck:
    def test_broken_side_pair(self, capsys, gap_file):
        gap = gap_file("c3.json", critical_record_gap(3))
        assert main(["breaking", "check", "--gap", gap, "--set", "0,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: BROKEN_witnessed" in out
        assert "subalphabet iota=0,1" in out
        assert "revalidated: True" in out

    def test_bounded_negative_is_not_an_error(self, capsys, gap_file):
        gap = gap_file("three.json", record_three_gap())
        assert main(["breaking", "check", "--gap", gap, "--set", "0,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: NOT_BROKEN_bounded" in out
        assert "searched: 86" in out

    def test_json_shape(self, capsys, gap_file):
        gap = gap_file("three.json", record_three_gap())
        assert (
            main(["breaking", "check", "--gap", gap, "--set", "0,2", "--json"])
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "BROKEN_witnessed"
        assert payload["witness"]["label"] == "blocks=00,010"
        assert payload["broken_sides"] == [0, 2]
        assert payload["revalidated"] is True

    def test_budget_json_pinned(self, capsys, gap_file):
        # one probe size serves combs and types; the budget still names it
        # under both keys, byte for byte as before
        gap = gap_file("three.json", record_three_gap())
        assert main(["breaking", "check", "--gap", gap, "--set", "0,2", "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        start = out.index('  "budget"')
        assert out[start:out.index("\n  },\n", start) + 6] == (
            '  "budget": {\n'
            '    "efamily_letters": 12,\n'
            '    "probe": {\n'
            '      "comb_blocks": 4,\n'
            '      "domain_depth": 40,\n'
            '      "replay_depth": 6,\n'
            '      "replay_samples": 20,\n'
            '      "run_limit": 20000,\n'
            '      "type_blocks": 4\n'
            '    },\n'
            '    "substitution_blocks": 3\n'
            '  },\n'
        )

    @pytest.mark.parametrize("sides,digest", BREAKING_THREE_SHA256.items(), ids=BREAKING_THREE_SHA256)
    def test_json_bytes_pinned(self, capsys, gap_file, sides, digest):
        gap = gap_file("three.json", record_three_gap())
        assert main(["breaking", "check", "--gap", gap, "--set", sides, "--json"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_domination_witness_revalidates(self, capsys, tmp_path):
        others = ["[l1]", "[l0 l1]", "[u1 l0]", "[l0 u1 l1]", "[u0 u1 l1]", "[u1 l0 l1]"]
        gap = record_file(tmp_path, [["[l0]"], ["[u0 l1]"], others])
        argv = ["breaking", "check", "--gap", gap, "--set", "0,1", "--json"]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"]["kind"] == "domination"
        assert payload["revalidated"] is True

    def test_upper_row_domination_witness_is_revalidated(self, capsys, tmp_path):
        # the dominated type [u1 l0 l1] has an upper row: its 0-chains close
        # with the upper-row block, so the witness rebuilds and revalidates
        sides = [
            ["[u1 l0 l1]"],
            ["[l1]", "[l0 l1]", "[u0 l1]", "[u1 l0]", "[l0 u1 l1]"],
            ["[l0]", "[u0 u1 l1]"],
        ]
        gap = record_file(tmp_path, sides)
        argv = ["breaking", "check", "--gap", gap, "--set", "0,1", "--json"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["witness"]["label"] == "tau0=[u1 l0 l1],tau1=[u1 l0]"
        assert payload["revalidated"] is True
        assert "Traceback" not in captured.err

    def test_out_of_scale_gap_exits_2(self, tmp_path):
        # the type catalogue ends at alphabet 4; a refusal must come before
        # any search, which at m = 20 would build thousands of inclusions
        for m in (5, 20):
            path = tmp_path / f"m{m}.json"
            sides = [["[l0]"], ["[l1]"]]
            path.write_text(json.dumps({"layer": "record", "n": 2, "m": m, "sides": sides}))
            refused = _run_cli(["breaking", "check", "--gap", str(path), "--set", "0"], timeout=60)
            assert refused.returncode == EXIT_USAGE
            assert refused.stdout == ""
            lines = refused.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), refused.stderr
            assert "alphabet" in lines[0]

    def test_side_out_of_range_exits_2(self, capsys, gap_file):
        gap = gap_file("c3.json", critical_record_gap(3))
        assert main(["breaking", "check", "--gap", gap, "--set", "5"]) == EXIT_USAGE
        assert "not a subset" in capsys.readouterr().err

    def test_garbage_set_exits_2(self, capsys, gap_file):
        gap = gap_file("c3.json", critical_record_gap(3))
        assert main(["breaking", "check", "--gap", gap, "--set", "a,b"]) == EXIT_USAGE

    def test_strong_gap_rejected(self, capsys, gap_file):
        gap = gap_file("strong.json", REFERENCE_STRONG_TABLE["2"])
        assert main(["breaking", "check", "--gap", gap, "--set", "0"]) == EXIT_USAGE
        assert "record-layer" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "gap,sides,message",
        [
            ("three", "3", "error: broken_sides [3] not a subset of side indices 0..2"),
            ("first-move", "0", "error: breaking analysis applies to record-layer gaps"),
        ],
        ids=["side-3", "first-move"],
    )
    def test_refusal_is_one_error_line(self, capsys, gap_file, gap, sides, message):
        spec = record_three_gap() if gap == "three" else REFERENCE_STRONG_TABLE["4*"]
        path = gap_file("gap.json", spec)
        assert main(["breaking", "check", "--gap", path, "--set", sides, "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


#: the keys of every ``--json`` answer, and of its witness when it has one
ANSWER_KEYS = {"verdict", "witness", "searched", "budget", "revalidated"}
WITNESS_KEYS = {"kind", "label", "domain_alphabet", "action", "embedding"}


def test_order_and_breaking_answer_in_one_shape(capsys, gap_file):
    """``gaps order`` and ``breaking check`` print one answer shape;
    breaking adds exactly the question it answers, ``gap`` and
    ``broken_sides``.  A witness has the same keys on both layers."""
    order_pairs = [
        (REFERENCE_STRONG_TABLE["4*"], GAP_STILDE, "LE_witnessed"),
        (REFERENCE_STRONG_TABLE["3"], REFERENCE_STRONG_TABLE["4"], "NOT_LE_refuted_exact"),
        (critical_record_gap(2), critical_record_gap(2), "LE_witnessed"),
    ]
    answers = []
    for left, right, verdict in order_pairs:
        argv = ["gaps", "order", "--left", gap_file("l.json", left)]
        argv += ["--right", gap_file("r.json", right), "--json"]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == ANSWER_KEYS and payload["verdict"] == verdict
        answers.append(payload)
    three = gap_file("three.json", record_three_gap())
    for sides, verdict in (("0,2", "BROKEN_witnessed"), ("0,1", "NOT_BROKEN_bounded")):
        assert main(["breaking", "check", "--gap", three, "--set", sides, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == ANSWER_KEYS | {"gap", "broken_sides"}
        assert payload["verdict"] == verdict
        answers.append(payload)
    for payload in answers:
        if payload["witness"] is None:
            assert payload["revalidated"] is None
        else:
            assert set(payload["witness"]) == WITNESS_KEYS
            assert payload["revalidated"] is True


class TestAuditCommand:
    def test_check_names_are_unique_and_ordered(self):
        names = [name for name, _ in AUDIT_CHECKS]
        assert len(names) == len(set(names)) == 11
        assert names[-2:] == [
            "known-discrepancy-worked-family-print",
            "known-discrepancy-dominating-teeth",
        ]

    def test_partial_run_writes_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "paper-tables",
                "--only",
                "type-catalogue,strong-two-gap-table",
                "--json-out",
                str(out),
                "--no-cache",
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "[PASS] type-catalogue" in stdout
        assert "audit: 2 pass, 0 fail, 0 known discrepancies" in stdout
        report = json.loads(out.read_text())
        assert report["partial"] is True
        assert [e["check"] for e in report["entries"]] == [
            "type-catalogue",
            "strong-two-gap-table",
        ]
        assert all(e["status"] == PASS for e in report["entries"])
        assert len(report["content_hash"]) == 64
        assert report["seed"] == 0

    def test_partial_run_deterministic(self, capsys, tmp_path):
        def run(name):
            out = tmp_path / name
            assert (
                main(
                    [
                        "audit",
                        "paper-tables",
                        "--only",
                        "type-catalogue",
                        "--json-out",
                        str(out),
                        "--no-cache",
                    ]
                )
                == EXIT_OK
            )
            capsys.readouterr()
            report = json.loads(out.read_text())
            report.pop("generated_at")
            return json.dumps(report, sort_keys=True)

        assert run("a.json") == run("b.json")

    def test_known_discrepancy_does_not_fail(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "paper-tables",
                "--only",
                "known-discrepancy-dominating-teeth",
                "--json-out",
                str(out),
                "--no-cache",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["summary"] == {"pass": 0, "fail": 0, "discrepancy_known": 1}
        assert report["entries"][0]["status"] == DISCREPANCY_KNOWN

    def test_unknown_check_exits_2(self, capsys):
        assert (
            main(["audit", "paper-tables", "--only", "bogus", "--no-cache"])
            == EXIT_USAGE
        )
        err = capsys.readouterr().err
        assert "unknown audit check" in err
        assert "type-catalogue" in err

    @pytest.mark.parametrize("only", [",", " ", ""])
    def test_empty_selection_exits_2(self, capsys, tmp_path, only):
        out = tmp_path / "report.json"
        argv = ["audit", "paper-tables", "--only", only, "--json-out", str(out), "--no-cache"]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys, "--only")
        assert not out.exists()

    def test_entry_dir_that_is_a_file_exits_2_before_any_check(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"v{SCHEMA_VERSION}").write_text("")
        out = tmp_path / "report.json"
        argv = ["audit", "paper-tables", "--only", "strong-three-gap-classes"]
        assert main(argv + ["--cache-dir", str(cache), "--json-out", str(out)]) == EXIT_USAGE
        assert_one_error_line(capsys, str(cache / f"v{SCHEMA_VERSION}"))
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry", MALFORMED_STRONG_ENTRIES.values(), ids=MALFORMED_STRONG_ENTRIES
    )
    def test_malformed_cache_entry_is_recomputed(self, capsys, tmp_path, entry):
        # the strong-three check reads the entry enum-strong writes; a
        # crash there would exit 1, which reads as a FAIL
        out = tmp_path / "report.json"
        argv = ["audit", "paper-tables", "--only", "strong-three-gap-classes"]
        argv += ["--json-out", str(out)]
        assert main(argv + ["--no-cache"]) == EXIT_OK
        fresh = capsys.readouterr().out, json.loads(out.read_text())["content_hash"]
        cache = tmp_path / "cache"
        assert main(argv + ["--cache-dir", str(cache)]) == EXIT_OK
        capsys.readouterr()
        [path] = cache.rglob("*.json")
        path.write_text(json.dumps(entry))
        assert main(argv + ["--cache-dir", str(cache)]) == EXIT_OK
        assert (capsys.readouterr().out, json.loads(out.read_text())["content_hash"]) == fresh
        assert json.loads(path.read_text()) == minimal_classes(3).as_dict()

    def test_wrong_valued_cache_entry_is_recomputed(self, capsys, tmp_path):
        # a value of the right keys and arity but the wrong form used to
        # make the check FAIL, so the verdict hung on the cache's state
        out = tmp_path / "report.json"
        argv = ["audit", "paper-tables", "--only", "strong-three-gap-classes"]
        argv += ["--json-out", str(out)]
        assert main(argv + ["--no-cache"]) == EXIT_OK
        fresh = capsys.readouterr().out, json.loads(out.read_text())["content_hash"]
        cache = tmp_path / "cache"
        assert main(argv + ["--cache-dir", str(cache)]) == EXIT_OK
        capsys.readouterr()
        [path] = cache.rglob("*.json")
        path.write_text(json.dumps(WRONG_VALUED_STRONG_ENTRIES["3"]))
        assert main(argv + ["--cache-dir", str(cache)]) == EXIT_OK
        assert (capsys.readouterr().out, json.loads(out.read_text())["content_hash"]) == fresh
        assert json.loads(path.read_text()) == minimal_classes(3).as_dict()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_retired_pool_variable_is_ignored(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv(RETIRED_POOL_VARIABLE, value)
        out = tmp_path / "report.json"
        argv = ["audit", "paper-tables", "--only", "type-catalogue"]
        assert main(argv + ["--json-out", str(out), "--no-cache"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["summary"]["pass"] == 1

    @pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
    def test_unusable_report_path_exits_2_before_any_check(self, capsys, tmp_path, where):
        out = tmp_path / "missing_dir" / "x.json" if where == "missing-dir" else tmp_path
        argv = ["audit", "paper-tables", "--json-out", str(out), "--no-cache"]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys, str(out.parent if where == "missing-dir" else out))

    def test_report_metadata(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        main(
            [
                "audit",
                "paper-tables",
                "--only",
                "type-catalogue",
                "--seed",
                "7",
                "--json-out",
                str(out),
                "--no-cache",
            ]
        )
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["seed"] == 7
        assert report["schema"] == 2
        assert report["package"].startswith("adicgaps ")
        assert set(report["toolchain"]) == {"python", "platform"}
        probe = {
            "comb_blocks": 4,
            "domain_depth": 64,
            "replay_depth": 6,
            "replay_samples": 20,
            "run_limit": 20000,
            "type_blocks": 4,
        }
        assert report["budgets"] == {
            "breaking": {
                "efamily_letters": 12,
                "probe": {**probe, "domain_depth": 40},
                "substitution_blocks": 3,
            },
            "order": {"efamily_letters": 12, "probe": probe, "substitution_blocks": 3},
            "probe": probe,
        }
        assert report["generated_at"].endswith("+00:00")


def _run_cli(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "adicgaps.cli", *argv],
        env=env, capture_output=True, text=True, **kwargs,
    )


def test_output_closed_early_exits_2_with_one_error_line():
    # the reader takes one line and closes; a one-page pipe cannot hold the
    # rest of the 480-type listing, so a later write always meets the closed end
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "adicgaps.cli", "types", "enum", "--n", "4"],
        stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
    )
    os.close(write_end)
    first = b""
    while not first.endswith(b"\n"):
        chunk = os.read(read_end, 1)
        if not chunk:
            break
        first += chunk
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert first == b"record types over the 4-letter alphabet: 480\n"
    assert proc.returncode == EXIT_USAGE
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_no_command_loads_numpy(tmp_path, gap_file):
    # the package depends on the standard library alone (numpy is a test
    # oracle): importing it, record order, breaking checks, the strong
    # classes and first-move order all leave numpy unloaded
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"layer": "record", "n": 1, "m": 1, "sides": [["[l0]"]]}))
    two = record_file(tmp_path, [["[l0]"], ["[l1]"]])
    four_star = gap_file("four_star.json", REFERENCE_STRONG_TABLE["4*"])
    stilde = gap_file("stilde.json", GAP_STILDE)
    code = (
        "import sys, adicgaps, adicgaps.cli; "
        "from adicgaps.cli import main; "
        f"assert main(['gaps', 'order', '--left', {str(one)!r}, '--right', {str(one)!r}]) == 0; "
        f"assert main(['breaking', 'check', '--gap', {two!r}, '--set', '0']) == 0; "
        "assert main(['gaps', 'enum-strong', '--n', '2', '--no-cache', '--json']) == 0; "
        f"assert main(['gaps', 'order', '--left', {four_star!r}, '--right', {stilde!r}]) == 0; "
        "sys.exit('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def chain_file(tmp_path, m):
    """A one-sided first-move gap over alphabet m holding the 0-chain."""
    path = tmp_path / f"chain{m}.json"
    path.write_text(json.dumps({"layer": "first_move", "n": 1, "m": m, "sides": [["0>0"]]}))
    return str(path)


def test_first_move_order_from_alphabet_four_exits_2(tmp_path):
    refused = _run_cli(
        ["gaps", "order", "--left", chain_file(tmp_path, 4), "--right", chain_file(tmp_path, 3)],
        timeout=60,
    )
    assert refused.returncode == EXIT_USAGE
    assert refused.stdout == ""
    lines = refused.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "alphabet 4" in lines[0]

    answered = _run_cli(
        ["gaps", "order", "--left", chain_file(tmp_path, 4), "--right", chain_file(tmp_path, 2),
         "--json"],
        timeout=60,
    )
    assert answered.returncode == EXIT_OK
    assert json.loads(answered.stdout)["verdict"] == "LE_witnessed"


def test_first_move_order_from_alphabet_three_into_four_answers(tmp_path):
    # the (3, 4) map pool is read off 38,736 family shapes
    answered = _run_cli(
        ["gaps", "order", "--left", chain_file(tmp_path, 3), "--right", chain_file(tmp_path, 4),
         "--json"],
        timeout=120,
    )
    assert answered.returncode == EXIT_OK
    report = json.loads(answered.stdout)
    assert report["verdict"] == "LE_witnessed" and report["revalidated"]


# --------------------------------------------------------------------------
# the option census: every knob a user can turn


def _flags_by_command(parser, path=()):
    """``{"group command": {flags}}`` for every parser that takes flags or
    has no subcommands; ``-h``/``--help`` are left out."""
    out = {}
    flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if flags or not subparsers:
        out[" ".join(path)] = flags
    for action in subparsers:
        for name, sub in action.choices.items():
            out.update(_flags_by_command(sub, path + (name,)))
    return out


def _is_os_attr(node, attr):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environment_reads():
    """The variables the package reads: the key of each ``os.environ.get``,
    ``os.environ[...]`` and ``os.getenv``, a module-level string constant
    resolved to its value.  Any other use of ``os.environ`` (iterating it,
    copying it, a computed key) is counted as ``"?"``."""
    names = set()
    for path in sorted(Path(adicgaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: stmt.value.value
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        uses = sum(
            _is_os_attr(node, "environ") or _is_os_attr(node, "getenv")
            for node in ast.walk(tree)
        )
        keys = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args and (
                _is_os_attr(node.func, "getenv")
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _is_os_attr(node.func.value, "environ")
            ):
                keys.append(node.args[0])
            elif isinstance(node, ast.Subscript) and _is_os_attr(node.value, "environ"):
                keys.append(node.slice)
        for key in keys:
            if isinstance(key, ast.Constant):
                names.add(key.value)
            else:
                names.add(constants.get(getattr(key, "id", None), "?"))
        if uses != len(keys):
            names.add("?")
    return names


def test_option_census():
    # a new flag or environment variable must be added here, so that the
    # number of knobs shows up in review
    assert _flags_by_command(cli.build_parser()) == {
        "types enum": {"--n", "--json"},
        "gaps enum-strong": {"--n", "--upto-perm", "--json", "--cache-dir", "--no-cache"},
        "gaps order": {"--left", "--right", "--json"},
        "breaking check": {"--gap", "--set", "--json"},
        "audit paper-tables": {"--seed", "--json-out", "--only", "--cache-dir", "--no-cache"},
    }
    assert _environment_reads() == {"ADICGAPS_CACHE_DIR", "XDG_CACHE_HOME"}
