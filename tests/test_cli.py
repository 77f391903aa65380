"""End-to-end tests for the command-line interface: modes, formats,
exit codes, the disk cache, and input handling."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from artifact import cli
from artifact.cli import main
from artifact.selftest import SelfTestReport

REPO_ROOT = Path(__file__).resolve().parent.parent

TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
KINK_PD = "X(1,2,2,1)"
FIGURE_EIGHT_PD = "X(7,5,1,2) X(2,3,4,8) X(3,1,5,6) X(6,7,8,4)"
TREFOIL_KINKED_PD = "X(8,4,2,5) X(3,6,4,1) X(5,2,6,3) X(1,7,7,8)"

TREFOIL_BRACKET = "-q^-14 - q^-12 + q^-8 + 2*q^-6 + q^-4 + q^-2"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# bracket mode
# --------------------------------------------------------------------------


def test_bracket_trefoil_text(capsys):
    code, out, _err = run_cli(capsys, ["--pd", TREFOIL_PD, "--mode", "bracket"])
    assert code == 0
    assert out == TREFOIL_BRACKET + "\n"


def test_bracket_empty_diagram(capsys):
    code, out, _err = run_cli(capsys, ["--pd", "", "--mode", "bracket"])
    assert code == 0
    assert out == "1\n"


def test_bracket_json(capsys):
    code, out, _err = run_cli(
        capsys, ["--pd", TREFOIL_PD, "--mode", "bracket", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bracket"] == TREFOIL_BRACKET
    assert payload["diagram"]["crossings"] == [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]


def test_bracket_from_pd_file(capsys, tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(TREFOIL_PD, encoding="utf-8")
    code, out, _err = run_cli(capsys, ["--input", str(path), "--mode", "bracket"])
    assert code == 0
    assert out == TREFOIL_BRACKET + "\n"


def test_bracket_from_json_file(capsys, tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(
        json.dumps({"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}),
        encoding="utf-8",
    )
    code, out, _err = run_cli(capsys, ["--input", str(path), "--mode", "bracket"])
    assert code == 0
    assert out == TREFOIL_BRACKET + "\n"


# --------------------------------------------------------------------------
# webs mode
# --------------------------------------------------------------------------


def test_webs_text_lists_all_flattenings(capsys):
    code, out, _err = run_cli(capsys, ["--pd", KINK_PD, "--mode", "webs"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("resolution 0:")
    assert lines[1].startswith("resolution 1:")


def test_webs_json_with_dumps(capsys):
    code, out, _err = run_cli(
        capsys,
        [
            "--pd",
            KINK_PD,
            "--mode",
            "webs",
            "--format",
            "json",
            "--dump-webs",
            "--dump-foams",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["webs"]) == 2
    for entry in payload["webs"]:
        assert "web" in entry
        assert "darts" in entry["web"] or entry["web"]
    assert len(payload["edges"]) == 1
    movie = payload["edges"][0]["movie"]
    assert "frames" in movie or "moves" in movie
    assert "frame_checksums" in movie


def test_webs_dump_matches_golden(capsys):
    # pins the --dump-webs / --dump-foams format byte for byte; the
    # figure-eight has zips and unzips, and the kinked trefoil has zips
    # that route nested items and name a ceiling side
    for pd, name in [
        (TREFOIL_PD, "trefoil_webs.json"),
        (FIGURE_EIGHT_PD, "figure_eight_webs.json"),
        (TREFOIL_KINKED_PD, "trefoil_kinked_webs.json"),
    ]:
        code, out, _err = run_cli(
            capsys,
            [
                "--pd",
                pd,
                "--mode",
                "webs",
                "--format",
                "json",
                "--dump-webs",
                "--dump-foams",
            ],
        )
        assert code == 0
        golden = REPO_ROOT / "tests" / "golden" / name
        assert out.encode("utf-8") == golden.read_bytes(), name


def test_webs_json_without_dumps_is_lean(capsys):
    code, out, _err = run_cli(
        capsys, ["--pd", KINK_PD, "--mode", "webs", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert all("web" not in entry for entry in payload["webs"])
    assert "edges" not in payload


def test_webs_empty_diagram(capsys):
    code, out, _err = run_cli(capsys, ["--pd", "", "--mode", "webs"])
    assert code == 0
    assert out == "resolution -: 1\n"


# --------------------------------------------------------------------------
# homology mode
# --------------------------------------------------------------------------


def test_homology_empty_diagram(capsys):
    code, out, _err = run_cli(
        capsys, ["--pd", "", "--mode", "homology", "--no-cache"]
    )
    assert code == 0
    assert "i=0 j=0 rank=1" in out
    assert "euler check: ok" in out


def test_homology_trefoil_shows_torsion(capsys):
    code, out, _err = run_cli(
        capsys, ["--pd", TREFOIL_PD, "--mode", "homology", "--no-cache"]
    )
    assert code == 0
    assert "i=3 j=-10 rank=0 torsion=3" in out


def test_homology_json_deterministic(capsys):
    argv = ["--pd", KINK_PD, "--mode", "homology", "--format", "json", "--no-cache"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["euler_check"] is True
    assert {(row["i"], row["j"], row["rank"]) for row in payload["homology"]} == {
        (0, -2, 1),
        (0, 0, 1),
        (0, 2, 1),
    }


def test_homology_cache_round_trip(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "--pd",
        KINK_PD,
        "--mode",
        "homology",
        "--format",
        "json",
        "--cache-dir",
        cache_dir,
    ]
    code1, out1, _ = run_cli(capsys, argv)
    assert code1 == 0
    files = os.listdir(cache_dir)
    assert len(files) == 1 and files[0].endswith(".json")
    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0
    assert out2 == out1


def test_homology_cache_env_var(capsys, tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "envcache")
    monkeypatch.setenv(cli.CACHE_ENV, cache_dir)
    code, _out, _err = run_cli(
        capsys, ["--pd", KINK_PD, "--mode", "homology", "--format", "json"]
    )
    assert code == 0
    assert len(os.listdir(cache_dir)) == 1


def test_homology_cache_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_dir = str(tmp_path / "envcache")
    flag_dir = str(tmp_path / "flagcache")
    monkeypatch.setenv(cli.CACHE_ENV, env_dir)
    code, _out, _err = run_cli(
        capsys,
        [
            "--pd",
            KINK_PD,
            "--mode",
            "homology",
            "--format",
            "json",
            "--cache-dir",
            flag_dir,
        ],
    )
    assert code == 0
    assert len(os.listdir(flag_dir)) == 1
    assert not os.path.exists(env_dir)


def test_homology_no_cache_writes_nothing(capsys, tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "unused")
    monkeypatch.setenv(cli.CACHE_ENV, cache_dir)
    code, _out, _err = run_cli(
        capsys, ["--pd", KINK_PD, "--mode", "homology", "--no-cache"]
    )
    assert code == 0
    assert not os.path.exists(cache_dir)


def test_homology_empty_cache_env_var_means_the_default_directory(
    capsys, tmp_path, monkeypatch
):
    # an empty SL3WEB_CACHE_DIR is unset: entries go to the default
    # directory, never to or from the current one
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv(cli.CACHE_ENV, "")
    monkeypatch.chdir(work)
    argv = ["--pd", KINK_PD, "--mode", "homology", "--format", "json"]
    first = run_cli(capsys, argv)
    assert first[0] == 0
    assert list(work.iterdir()) == []
    (entry,) = (home / ".cache" / "sl3web").iterdir()
    # a stale entry of the same name in the current directory is not read
    (work / entry.name).write_text('{"stale": true}', encoding="utf-8")
    assert run_cli(capsys, argv) == first
    assert (home / ".cache" / "sl3web" / entry.name).read_text(
        encoding="utf-8"
    ) == entry.read_text(encoding="utf-8")


def test_homology_with_a_failed_euler_check_is_never_cached(
    capsys, tmp_path, monkeypatch
):
    cache_dir = tmp_path / "cache"
    argv = ["--pd", KINK_PD, "--mode", "homology", "--format", "json"]
    argv += ["--cache-dir", str(cache_dir)]
    real = cli.homology_json
    calls = []

    def failing(d):
        calls.append(d)
        return {**real(d), "euler_check": False}

    monkeypatch.setattr(cli, "homology_json", failing)
    for n in (1, 2):
        code, out, _err = run_cli(capsys, argv)
        assert code == 2 and json.loads(out)["euler_check"] is False
        assert len(calls) == n
        assert not cache_dir.exists() or list(cache_dir.iterdir()) == []
    # an entry that says the check failed, written by an older version,
    # is a miss: recomputed, and replaced once the check passes
    monkeypatch.setattr(cli, "homology_json", real)
    good = run_cli(capsys, argv)
    assert good[0] == 0
    (entry,) = cache_dir.iterdir()
    kept = entry.read_text(encoding="utf-8")
    entry.write_text(
        json.dumps({**json.loads(kept), "euler_check": False}), encoding="utf-8"
    )
    assert run_cli(capsys, argv) == good
    assert entry.read_text(encoding="utf-8") == kept


@pytest.mark.parametrize(
    "damage",
    [b"{not json", b"\xff\xfe\x00\x00{}", b"[" * 200000],
    ids=["not-json", "not-utf8", "deeply-nested"],
)
def test_homology_corrupt_cache_entry_is_recomputed(capsys, tmp_path, damage):
    cache_dir = tmp_path / "cache"
    argv = [
        "--pd",
        KINK_PD,
        "--mode",
        "homology",
        "--format",
        "json",
        "--cache-dir",
        str(cache_dir),
    ]
    code1, out1, _ = run_cli(capsys, argv)
    assert code1 == 0
    (entry,) = cache_dir.iterdir()
    entry.write_bytes(damage)
    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0
    assert out2 == out1


@pytest.mark.parametrize("entry_kind", ["empty-object", "json-list", "other-diagram"])
def test_homology_malformed_cache_entry_is_recomputed(capsys, tmp_path, entry_kind):
    cache_dir = tmp_path / "cache"
    argv = ["--pd", TREFOIL_PD, "--mode", "homology", "--cache-dir", str(cache_dir)]
    code1, out1, _ = run_cli(capsys, argv)
    assert code1 == 0
    (entry,) = cache_dir.iterdir()
    good = entry.read_text(encoding="utf-8")
    if entry_kind == "other-diagram":
        other_dir = tmp_path / "other"
        run_cli(capsys, ["--pd", KINK_PD, "--mode", "homology", "--cache-dir", str(other_dir)])
        (other,) = other_dir.iterdir()
        bad = other.read_text(encoding="utf-8")
    else:
        bad = {"empty-object": "{}", "json-list": "[1, 2, 3]"}[entry_kind]
    entry.write_text(bad, encoding="utf-8")
    code2, out2, err2 = run_cli(capsys, argv)
    assert (code2, out2, err2) == (0, out1, "")
    # the bad entry is overwritten with the recomputed report
    assert entry.read_text(encoding="utf-8") == good


_DAMAGED_VALUES = {
    "homology-not-a-list": {"homology": 5},
    "row-with-bad-values": {
        "homology": [{"i": 0, "j": "x", "rank": -4, "torsion": []}]
    },
    "row-with-extra-key": {
        "homology": [{"i": 0, "j": 0, "rank": 1, "torsion": [], "x": 1}]
    },
    "bool-rank": {"homology": [{"i": 0, "j": 0, "rank": True, "torsion": []}]},
    "torsion-of-one": {"homology": [{"i": 0, "j": 0, "rank": 0, "torsion": [1]}]},
    "bracket-not-a-string": {"bracket": 3},
    "euler-check-not-a-bool": {"euler_check": 1},
    "extra-report-key": {"note": "stale"},
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("damage", sorted(_DAMAGED_VALUES))
def test_homology_cache_entry_with_damaged_values_is_recomputed(
    capsys, tmp_path, fmt, damage
):
    cache_dir = tmp_path / "cache"
    argv = ["--pd", KINK_PD, "--mode", "homology", "--format", fmt]
    clean = run_cli(capsys, [*argv, "--no-cache"])
    assert clean[0] == 0
    argv += ["--cache-dir", str(cache_dir)]
    assert run_cli(capsys, argv) == clean
    (entry,) = cache_dir.iterdir()
    good = entry.read_text(encoding="utf-8")
    damaged = {**json.loads(good), **_DAMAGED_VALUES[damage]}
    entry.write_text(json.dumps(damaged), encoding="utf-8")
    assert run_cli(capsys, argv) == clean
    # the damaged entry is overwritten with the recomputed report
    assert entry.read_text(encoding="utf-8") == good


def _tampered_rank(payload):
    rows = [dict(row) for row in payload["homology"]]
    rows[0]["rank"] += 5
    return {**payload, "homology": rows}


def _tampered_parity(payload):
    rows = [dict(row) for row in payload["homology"]]
    rows[0]["i"] += 1
    return {**payload, "homology": rows}


_CONTRADICTIONS = {
    "rank-plus-five": _tampered_rank,
    "row-moved-to-odd-i": _tampered_parity,
    "bracket-replaced": lambda payload: {**payload, "bracket": "q^2 + 1 + q^-2"},
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("tamper", sorted(_CONTRADICTIONS))
def test_homology_cache_entry_contradicting_its_bracket_is_recomputed(
    capsys, tmp_path, fmt, tamper
):
    # a well-formed entry whose rows' graded Euler characteristic is not
    # its bracket is a miss: never printed, recomputed and rewritten
    cache_dir = tmp_path / "cache"
    argv = ["--pd", TREFOIL_PD, "--mode", "homology", "--format", fmt]
    clean = run_cli(capsys, [*argv, "--no-cache"])
    assert clean[0] == 0
    argv += ["--cache-dir", str(cache_dir)]
    assert run_cli(capsys, argv) == clean
    (entry,) = cache_dir.iterdir()
    good = entry.read_text(encoding="utf-8")
    tampered = _CONTRADICTIONS[tamper](json.loads(good))
    assert tampered["euler_check"] is True
    entry.write_text(json.dumps(tampered), encoding="utf-8")
    assert run_cli(capsys, argv) == clean
    assert entry.read_text(encoding="utf-8") == good


def _rows_swapped(rows):
    return [rows[1], rows[0], *rows[2:]]


def _bidegree_repeated(rows):
    # the torsion of a second (0, 0) row leaves the Euler characteristic
    return [*rows, {"i": 0, "j": 0, "rank": 0, "torsion": [3]}]


def _zero_row_added(rows):
    return [*rows, {"i": 5, "j": 9, "rank": 0, "torsion": []}]


def _torsion_not_a_chain(rows):
    return [{**rows[0], "torsion": [2, 3]}, *rows[1:]]


_SHAPE_VIOLATIONS = {
    "rows-out-of-order": _rows_swapped,
    "bidegree-repeated": _bidegree_repeated,
    "zero-row": _zero_row_added,
    "torsion-not-a-divisor-chain": _torsion_not_a_chain,
}


@pytest.mark.parametrize("violation", sorted(_SHAPE_VIOLATIONS))
def test_homology_cache_entry_not_shaped_as_the_engine_writes_is_recomputed(
    capsys, tmp_path, violation
):
    """An entry whose rows keep their Euler characteristic, so that it
    still prints as the bracket, but are not as ``block_homology`` emits
    them is a miss: recomputed and rewritten.  The engine writes nonzero
    rows, strictly increasing by ``(i, j)``, with torsion orders that each
    divide the next.  An edit of the ranks that keeps that shape and the
    Euler characteristic is not caught by this check; only recomputing
    the table can catch it (ROADMAP item 6)."""
    cache_dir = tmp_path / "cache"
    argv = ["--pd", KINK_PD, "--mode", "homology", "--format", "json"]
    clean = run_cli(capsys, [*argv, "--no-cache"])
    assert clean[0] == 0
    argv += ["--cache-dir", str(cache_dir)]
    assert run_cli(capsys, argv) == clean
    (entry,) = cache_dir.iterdir()
    good = entry.read_text(encoding="utf-8")
    payload = json.loads(good)
    payload["homology"] = _SHAPE_VIOLATIONS[violation](payload["homology"])
    entry.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(capsys, argv) == clean
    assert entry.read_text(encoding="utf-8") == good


@pytest.mark.parametrize("failing", ["replace", "write"])
def test_homology_failed_cache_write_leaves_no_temp_file(
    capsys, tmp_path, monkeypatch, failing
):
    argv = ["--pd", TREFOIL_PD, "--mode", "homology"]
    clean = run_cli(capsys, [*argv, "--no-cache"])
    assert clean[0] == 0

    def fail(*_args, **_kwargs):
        raise OSError("disk full")

    if failing == "replace":
        monkeypatch.setattr(cli.os, "replace", fail)
    else:
        real_dump = json.dump

        def dump(obj, fh, **kwargs):
            if ".tmp." in getattr(fh, "name", ""):
                fail()
            real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(cli.json, "dump", dump)
    cache_dir = tmp_path / "cache"
    assert run_cli(capsys, [*argv, "--cache-dir", str(cache_dir)]) == clean
    assert "i=3 j=-10 rank=0 torsion=3" in clean[1]
    assert list(cache_dir.glob("*.tmp.*")) == []
    assert list(cache_dir.iterdir()) == []


# --------------------------------------------------------------------------
# invariance mode
# --------------------------------------------------------------------------


def test_invariance_pair_file_pass(capsys, tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "kink-vs-unknot",
                    "first": KINK_PD,
                    "second": {"crossings": [], "free_loops": 1},
                }
            ]
        ),
        encoding="utf-8",
    )
    code, out, _err = run_cli(
        capsys, ["--mode", "invariance", "--input", str(path)]
    )
    assert code == 0
    assert "kink-vs-unknot: pass" in out
    assert "1/1 pairs agree" in out


def test_invariance_pair_file_fail_exits_3(capsys, tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "trefoil-vs-unknot",
                    "first": TREFOIL_PD,
                    "second": {"crossings": [], "free_loops": 1},
                }
            ]
        ),
        encoding="utf-8",
    )
    code, out, _err = run_cli(
        capsys, ["--mode", "invariance", "--input", str(path), "--format", "json"]
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["pairs"][0]["differences"]


def test_invariance_default_uses_builtin_corpus():
    from artifact import corpus

    assert len(corpus.INVARIANCE_PAIRS) >= 10


def test_invariance_bad_pair_file(capsys, tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"first": KINK_PD}]), encoding="utf-8")
    code, _out, err = run_cli(capsys, ["--mode", "invariance", "--input", str(path)])
    assert code == 1
    assert "second" in err


# --------------------------------------------------------------------------
# selftest mode
# --------------------------------------------------------------------------


def test_selftest_real_run(capsys):
    code, out, _err = run_cli(capsys, ["--mode", "selftest", "--closures", "2"])
    assert code == 0
    assert out.startswith("selftest passed: ")
    checks = int(out.split(":")[1].split()[0])
    assert checks > 100


def test_selftest_json_wiring(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_selftest", lambda closures, seed: SelfTestReport(checks=7, failures=())
    )
    code, out, _err = run_cli(
        capsys, ["--mode", "selftest", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {"passed": True, "checks": 7, "failures": []}


def test_selftest_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "run_selftest",
        lambda closures, seed: SelfTestReport(checks=7, failures=("bad thing",)),
    )
    code, out, _err = run_cli(capsys, ["--mode", "selftest"])
    assert code == 2
    assert "FAIL: bad thing" in out


# --------------------------------------------------------------------------
# error handling and exit codes
# --------------------------------------------------------------------------


def test_bad_pd_exits_1(capsys):
    code, _out, err = run_cli(capsys, ["--pd", "garbage", "--mode", "bracket"])
    assert code == 1
    assert "error" in err


def test_missing_input_exits_1(capsys):
    code, _out, err = run_cli(capsys, ["--mode", "bracket"])
    assert code == 1
    assert "needs --pd or --input" in err


def test_unknown_mode_exits_1(capsys):
    code, _out, _err = run_cli(capsys, ["--mode", "nonsense"])
    assert code == 1


def test_unreadable_input_exits_1(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, ["--mode", "bracket", "--input", str(tmp_path / "missing.txt")]
    )
    assert code == 1
    assert "cannot read" in err


def test_bad_json_input_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    code, _out, _err = run_cli(capsys, ["--mode", "bracket", "--input", str(path)])
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"crossings": 5}',
        '{"crossings": [5]}',
        '{"crossings": [], "free_loops": true}',
        '{"crossings": [[1, 2, 2, 1]], "over_in": [true]}',
    ],
)
def test_malformed_diagram_json_exits_1(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for mode in ("bracket", "homology"):
        code, out, err = run_cli(
            capsys, ["--mode", mode, "--input", str(path), "--no-cache"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("sl3web: error: ")


@pytest.mark.parametrize("pd", ["X(1,2,1,2)", "X(1,2,3,4) X(1,4,3,2)"])
def test_nonplanar_or_misoriented_pd_exits_1(capsys, pd):
    for mode in ("bracket", "homology"):
        code, out, err = run_cli(capsys, ["--mode", mode, "--pd", pd, "--no-cache"])
        assert (code, out) == (1, "")
        assert err.startswith("sl3web: error: ")


def test_threads_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, ["--pd", "", "--mode", "homology", "--threads", "2", "--no-cache"]
    )
    assert code == 1
    assert out == ""
    assert "--threads" in err


def test_pd_and_input_are_exclusive(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text(KINK_PD, encoding="utf-8")
    code, _out, _err = run_cli(
        capsys, ["--pd", KINK_PD, "--input", str(path), "--mode", "bracket"]
    )
    assert code == 1


def test_internal_error_exits_2(capsys, monkeypatch):
    from artifact.cube import ComplexError

    def boom(d):
        raise ComplexError("synthetic failure")

    monkeypatch.setattr(cli, "homology_json", boom)
    code, _out, err = run_cli(
        capsys, ["--pd", "", "--mode", "homology", "--no-cache"]
    )
    assert code == 2
    assert "internal assertion" in err


def test_console_script_entry_point(tmp_path, monkeypatch):
    """`pyproject.toml` declares `sl3web = artifact.cli:main`, and that
    target resolves to the real `main`.

    The metadata is built from the checkout by the declared build backend
    into `tmp_path`, so the test needs no install and writes nothing into
    the checkout. When the package is installed, its metadata is checked
    too, so a stale install is caught."""
    import importlib.metadata

    setuptools = pytest.importorskip("setuptools")
    monkeypatch.chdir(REPO_ROOT)
    setuptools.setup(script_args=["-q", "egg_info", "--egg-base", str(tmp_path)])
    built = importlib.metadata.PathDistribution(tmp_path / "artifact.egg-info")
    eps = built.entry_points.select(group="console_scripts", name="sl3web")
    assert [ep.value for ep in eps] == ["artifact.cli:main"]
    (ep,) = eps
    assert ep.load() is cli.main

    try:
        importlib.metadata.distribution("artifact")
    except importlib.metadata.PackageNotFoundError:
        return
    eps = importlib.metadata.entry_points(group="console_scripts")
    names = {ep.name: ep.value for ep in eps}
    assert names.get("sl3web") == "artifact.cli:main"


# --------------------------------------------------------------------------
# start-up
# --------------------------------------------------------------------------

#: Modules that ``import artifact.cli`` must not load: ``dataclasses``
#: pulls in ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), and
#: ``hashlib`` loads OpenSSL through ``_hashlib``.  Only the cache key
#: and the ``--dump-foams`` checksums hash, and they import ``hashlib``
#: when they run.
HEAVY_AT_IMPORT = {"dataclasses", "inspect", "hashlib", "_hashlib"}

_NEW_MODULES = """
import sys
bare = set(sys.modules)
import artifact.cli
artifact.cli.build_parser()
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def test_cli_import_loads_no_heavy_module():
    done = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    added = set(done.stdout.split())
    assert "artifact.cli" in added
    assert not added & HEAVY_AT_IMPORT, sorted(added & HEAVY_AT_IMPORT)


# --------------------------------------------------------------------------
# the README examples
# --------------------------------------------------------------------------


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README's ``## heading``."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_examples(capsys, monkeypatch, tmp_path):
    """Every ``sl3web`` line of the README runs through ``main`` and
    prints each output line the README shows right under it."""
    monkeypatch.setenv("SL3WEB_CACHE_DIR", str(tmp_path))
    runs: list = []
    current = None
    for line in _readme_block("Command line", "sh").splitlines():
        if line.startswith("sl3web "):
            current = (shlex.split(line)[1:], [])
            runs.append(current)
        elif current is not None and line.startswith("# "):
            if line != "# ...":
                current[1].append(line[2:])
        else:
            current = None
    shown = {line for _argv, lines in runs for line in lines}
    assert {
        TREFOIL_BRACKET,
        "i=3 j=-10 rank=0 torsion=3",
        "euler check: ok",
        "selftest passed: 2761 checks",
    } <= shown
    for argv, lines in runs:
        code, out, _err = run_cli(capsys, argv)
        assert code == 0, argv
        for line in lines:
            assert line in out.splitlines(), (argv, line)


def test_readme_library_snippet(capsys):
    """The README's Library snippet prints what its comments show (up to
    a `` — `` remark)."""
    snippet = _readme_block("Library", "python")
    shown = [
        line.split("# ", 1)[1].split(" — ")[0]
        for line in snippet.splitlines()
        if line.startswith("print(")
    ]
    assert shown == [TREFOIL_BRACKET, "1", "(3,)", "False"]
    namespace: dict = {}
    exec(snippet, namespace)
    assert capsys.readouterr().out.splitlines() == shown
    assert namespace["h"].rank(3, -12) == 1
    assert namespace["h"].torsion(3, -10) == (3,)
    assert namespace["report"].passed is False
