"""Smoke test of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

It checks that the metric names the benchmark prints are exactly those
in BENCHMARK.json, and that an output differing from a corrupted
expected table is counted as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _bench(*args: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_metric_names_match_benchmark_json():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result = _bench("--workload", "torus-5_1", "--seed", "3",
                          "--seconds", "1", "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == _declared(kind)


def test_corrupted_expected_table_counts_as_failed(monkeypatch, capsys):
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    expected["tables"]["5_1"]["homology"][0]["rank"] += 1
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        corrupted = os.path.join(work, "expected.json")
        with open(corrupted, "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
        monkeypatch.setattr(run, "EXPECTED", corrupted)
        code = run.main(["--workload", "torus-5_1", "--seed", "3", "--seconds", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 1
    assert "failed_ratio 1 ratio (1 of 1 operations)" in lines
