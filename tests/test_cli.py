"""Command-surface tests: argument handling, exit codes, output shapes, and
the audit command's plumbing (partial runs, cache flags, determinism)."""

import json
import os
import subprocess
import sys

import pytest

from adicgaps.cli import (
    AUDIT_CHECKS,
    DISCREPANCY_KNOWN,
    EXIT_OK,
    EXIT_USAGE,
    GAP_STILDE,
    PASS,
    REFERENCE_STRONG_TABLE,
    main,
)
from adicgaps.gaps import critical_record_gap
from adicgaps.breaking import record_three_gap

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
        out = capsys.readouterr().out
        assert "alphabet convention): 4" in out
        assert "side permutation only: 6" in out

    def test_json_shape(self, capsys):
        assert main(["gaps", "enum-strong", "--n", "2", "--json", "--no-cache"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidates"] == 9
        assert len(payload["classes"]) == 6
        assert payload["quotients"] == {"alphabet": 4, "sides_only": 6}
        assert payload["mode"] == "exact"

    def test_out_of_range_exits_2(self, capsys):
        assert main(["gaps", "enum-strong", "--n", "4"]) == EXIT_USAGE
        assert "desk-scale" in capsys.readouterr().err

    def test_cache_roundtrip_preserves_output(self, capsys, tmp_path):
        argv = ["gaps", "enum-strong", "--n", "2", "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        cold = capsys.readouterr().out
        cached_files = list(tmp_path.rglob("*.json"))
        assert cached_files, "first run should populate the cache"
        assert main(argv) == EXIT_OK
        warm = capsys.readouterr().out
        assert warm == cold


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
        ],
        ids=["list", "string", "record-number", "first-move-number"],
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

    @pytest.mark.parametrize(
        "flag,value", [("--substitution-blocks", "0"), ("--efamily-letters", "-1")]
    )
    def test_invalid_budget_exits_2(self, capsys, gap_file, flag, value):
        gap = gap_file("three.json", record_three_gap())
        argv = ["gaps", "order", "--left", gap, "--right", gap, flag, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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

    def test_out_of_scale_gap_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m5.json"
        path.write_text(json.dumps({"layer": "record", "n": 2, "m": 5, "sides": [["[l0]"], ["[l1]"]]}))
        assert main(["breaking", "check", "--gap", str(path), "--set", "0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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
        assert report["schema"] == 1
        assert report["package"].startswith("adicgaps ")
        assert set(report["toolchain"]) == {"python", "platform"}
        assert set(report["budgets"]) == {"order", "breaking", "probe"}
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


def test_importing_the_package_leaves_numpy_unloaded(tmp_path):
    # numpy serves only the strong layer (the order matrix and first-move
    # order); importing the package, record order and breaking checks leave
    # it unloaded
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"layer": "record", "n": 1, "m": 1, "sides": [["[l0]"]]}))
    two = record_file(tmp_path, [["[l0]"], ["[l1]"]])
    code = (
        "import sys, adicgaps, adicgaps.cli; "
        "from adicgaps.cli import main; "
        f"assert main(['gaps', 'order', '--left', {str(one)!r}, '--right', {str(one)!r}]) == 0; "
        f"assert main(['breaking', 'check', '--gap', {two!r}, '--set', '0']) == 0; "
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
