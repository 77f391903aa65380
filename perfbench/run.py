"""The sl3web benchmark: one workload, one seed, a fixed measuring time.

Usage, from the repository root:

    python3 perfbench/run.py --workload torus-5_1 --seed 1 --seconds 48 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* ``torus-5_1``   -- ``homology_json`` on the torus knot 5_1, cold;
* ``cli-warm``    -- in-process ``cli.main`` calls, homology answered
  from a disk cache filled during set-up, alternating with brackets.

One caller, one thread, default configuration: a closed loop.  Every
pass runs in a fresh interpreter (``worker.py``), so memo tables start
empty by construction; the caller waits for each pass and starts
another while one more fits in ``--seconds`` (at least one).  The seed
relabels and permutes every diagram and orders the calls; the expected
tables do not depend on it.

A "call" in ``call_p50_ms`` and ``call_p99_ms`` is one request the
caller waits for: one ``cli.main`` call in ``cli-warm``, one whole cold
pass in ``torus-5_1``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics of the
traced ones (``spans.py``), with the tracing overhead.  Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

from inputs import timed_passes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
GOLDEN_TREFOIL = os.path.join(ROOT, "tests", "golden", "trefoil_homology.json")

WORKLOADS = ("torus-5_1", "cli-warm")
#: Set-up-only interpreters started per untraced run, besides the passes,
#: half before the passes and half after, since the machine's speed
#: changes within a run.
SETUP_SAMPLES = 12
#: Rounds over the 19 cli-warm diagrams per pass; each round makes one
#: homology and one bracket call per diagram (2,280 calls a pass).
CLI_ROUNDS = 60
#: Seconds any one interpreter may take before the run is abandoned.
WORKER_TIMEOUT = 150
#: 5_1 carries 3-torsion in these bidegrees.
TORUS_TORSION = ((3, -14), (5, -18))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --------------------------------------------------------------------------
# fresh interpreters
# --------------------------------------------------------------------------


class Workers:
    """Starts ``worker.py`` interpreters, one at a time, and waits for each."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.count = 0
        # A fixed hash seed makes the program's own work, and so the
        # per-module counts, repeat exactly for a given workload seed.
        # Bytecode caches are written next to the sources, as an installed
        # package has them, whatever the caller's environment says, so
        # that setup_s never includes compiling the program.
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("PYTHONPYCACHEPREFIX", None)

    def run(self, job: dict) -> dict:
        self.count += 1
        job_path = os.path.join(self.work, f"job{self.count}.json")
        result_path = os.path.join(self.work, f"result{self.count}.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, job_path, result_path],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=WORKER_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['kind']} worker timed out") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"{job['kind']} worker exited {proc.returncode}: {tail[0]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


def make_inputs(seed: int) -> dict:
    """Relabeled diagrams by name, from the seed."""

    from artifact import corpus
    from artifact.diagram import parse_pd
    from inputs import TORUS_5_1, relabel

    rng = random.Random(seed)
    fixtures = corpus.fixture_diagrams()
    diagrams = {name: relabel(d.to_json_dict(), rng) for name, d in fixtures.items()}
    diagrams["5_1"] = relabel(parse_pd(TORUS_5_1).to_json_dict(), rng)
    return diagrams


def pd_text(diagram: dict):
    """The diagram as PD text when that text alone parses back to it."""

    from artifact.diagram import MalformedDiagram, parse_pd

    if not diagram.get("crossings") or diagram.get("free_loops"):
        return None
    text = " ".join("X(%d,%d,%d,%d)" % tuple(x) for x in diagram["crossings"])
    try:
        return text if parse_pd(text).to_json_dict() == diagram else None
    except MalformedDiagram:
        return None


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


def parse_bracket(text: str) -> dict:
    """Exponent -> coefficient of a printed Laurent polynomial."""

    coeffs: dict = {}
    if text.strip() == "0":
        return coeffs
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coef, _, power = term.rpartition("q") if "q" in term else (term, "", None)
        if power is None:
            exp, c = 0, int(coef)
        else:
            exp = int(power[1:]) if power.startswith("^") else 1
            c = int(coef.rstrip("*")) if coef else 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * c
    return coeffs


def euler_of(rows) -> dict:
    coeffs: dict = {}
    for row in rows:
        sign = -1 if row["i"] % 2 else 1
        coeffs[row["j"]] = coeffs.get(row["j"], 0) + sign * row["rank"]
    return {j: c for j, c in coeffs.items() if c}


class Checker:
    """Checks program outputs against the expected tables and invariants."""

    def __init__(self, diagrams: dict) -> None:
        with open(EXPECTED, encoding="utf-8") as fh:
            self.tables = json.load(fh)["tables"]
        self.diagrams = diagrams
        if not os.path.exists(GOLDEN_TREFOIL):
            raise BenchError(f"no trefoil golden file at {GOLDEN_TREFOIL}")
        with open(GOLDEN_TREFOIL, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.problems: list[str] = []

    def note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def homology(self, name: str, payload) -> bool:
        """One ``homology_json`` payload: expected table and bracket,
        Euler characteristic equal to the bracket, the trefoil golden
        file, the 5_1 torsion."""

        exp = self.tables.get(name)
        bad = []
        if not isinstance(payload, dict) or "homology" not in payload:
            bad.append(f"no table ({payload!r:.80})")
        else:
            rows = payload["homology"]
            if exp is None or rows != exp["homology"]:
                bad.append("table differs from expected")
            if exp is None or payload.get("bracket") != exp["bracket"]:
                bad.append("bracket differs from expected")
            if payload.get("diagram") != self.diagrams[name]:
                bad.append("diagram differs from input")
            if payload.get("euler_check") is not True:
                bad.append("program's Euler check failed")
            try:
                if euler_of(rows) != parse_bracket(payload.get("bracket", "")):
                    bad.append("Euler characteristic differs from bracket")
            except (KeyError, TypeError, ValueError):
                bad.append("malformed table or bracket")
            if name == "trefoil" and rows != self.golden:
                bad.append("differs from tests/golden/trefoil_homology.json")
            if name == "5_1":
                for i, j in TORUS_TORSION:
                    if not any(r["i"] == i and r["j"] == j and r["torsion"] == [3] for r in rows):
                        bad.append(f"missing 3-torsion at ({i}, {j})")
        for b in bad:
            self.note(f"{name}: {b}")
        return not bad

    def bracket(self, name: str, text: str) -> bool:
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        want = {"diagram": self.diagrams[name], "bracket": self.tables[name]["bracket"]}
        if payload != want:
            self.note(f"{name}: bracket output {text!r:.80} differs from expected")
            return False
        return True


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def prepare_torus(ctx) -> None:
    ctx.job = {"kind": "homology", "items": [("5_1", ctx.diagrams["5_1"])]}


def check_tables(ctx, result) -> tuple:
    items = ctx.job["items"]
    failed = sum(not ctx.checker.homology(name, out)
                 for (name, _d), out in zip(items, result["outputs"]))
    return len(items), failed


def prepare_cli(ctx) -> None:
    cache = os.path.join(ctx.work, "cache")
    argvs, calls = [], []
    for name, diagram in ctx.diagrams.items():
        text = pd_text(diagram)
        if text is not None:
            source = ["--pd", text]
        else:
            path = os.path.join(ctx.work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(diagram, fh)
            source = ["--input", path]
        for mode in ("homology", "bracket"):
            argv = ["--mode", mode, "--format", "json"] + source
            if mode == "homology":
                argv += ["--cache-dir", cache]
            calls.append((name, mode))
            argvs.append(argv)
    order = []
    names = list(ctx.diagrams)
    for _round in range(CLI_ROUNDS):
        ctx.rng.shuffle(names)
        for name in names:
            order += [calls.index((name, "homology")), calls.index((name, "bracket"))]
    hom = [k for k, (_n, mode) in enumerate(calls) if mode == "homology"]
    fill = ctx.workers.run({"kind": "cli-fill", "argvs": [argvs[k] for k in hom]})
    ctx.cold = {}
    for k, (code, text) in zip(hom, fill["outputs"]):
        name = calls[k][0]
        try:
            valid = code == 0 and ctx.checker.homology(name, json.loads(text))
        except ValueError:
            valid = False
        ctx.cold[name] = text if valid else None
    check_pairs(ctx)
    ctx.calls = calls
    ctx.job = {"kind": "cli-warm", "argvs": argvs, "order": order,
               "seconds": 0 if ctx.trace else ctx.seconds}


def check_pairs(ctx) -> None:
    """Both sides of every ``corpus.INVARIANCE_PAIRS`` entry must have
    equal cold tables; a pair that disagrees fails every call of both."""

    from artifact import corpus

    names = {id(d): name for name, d in corpus.fixture_diagrams().items()}
    for _label, a, b in corpus.INVARIANCE_PAIRS:
        a, b = names[id(a)], names[id(b)]
        if ctx.cold[a] is None or ctx.cold[b] is None:
            continue
        if json.loads(ctx.cold[a])["homology"] != json.loads(ctx.cold[b])["homology"]:
            ctx.checker.note(f"invariance pair {a} / {b} disagrees")
            ctx.cold[a] = ctx.cold[b] = None


def check_cli(ctx, result) -> tuple:
    verdict = {}
    failed = 0
    texts = result["texts"]
    for k, code, tid in result["calls"]:
        key = (k, code, tid)
        if key not in verdict:
            name, mode = ctx.calls[k]
            text = texts[tid]
            if code != 0:
                ctx.checker.note(f"{name} {mode}: exit code {code}")
                verdict[key] = False
            elif mode == "homology":
                verdict[key] = ctx.cold[name] is not None and text == ctx.cold[name]
                if not verdict[key]:
                    ctx.checker.note(f"{name}: cached homology output differs from cold output")
            else:
                verdict[key] = ctx.checker.bracket(name, text)
        failed += not verdict[key]
    return len(result["calls"]), failed


WORKLOAD_SPECS = {
    "torus-5_1": (prepare_torus, check_tables),
    "cli-warm": (prepare_cli, check_cli),
}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""

    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


class Context:
    def __init__(self, args, work: str) -> None:
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.rng = random.Random(args.seed)
        self.workers = Workers(work)
        self.diagrams = make_inputs(args.seed)
        self.checker = Checker(self.diagrams)
        self.job: dict = {}


def run(args, work: str) -> tuple:
    ctx = Context(args, work)
    prepare, check = WORKLOAD_SPECS[args.workload]
    ctx.workers.run({"kind": "setup"})  # writes bytecode caches; not counted
    prepare(ctx)
    attempted = failed = 0
    results = []

    def one_pass(trace: bool):
        nonlocal attempted, failed
        result = ctx.workers.run(dict(ctx.job, trace=trace))
        n, bad = check(ctx, result)
        attempted += n
        failed += bad
        results.append((trace, result))

    lines = []
    if not ctx.trace:
        def setup_samples(n: int) -> list:
            return [ctx.workers.run({"kind": "setup"})["setup_s"] for _ in range(n)]

        setups = setup_samples(SETUP_SAMPLES // 2)
        timed_passes(ctx.seconds, lambda: one_pass(False))
        setups += [r["setup_s"] for _t, r in results]
        setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        walls = [w for _t, r in results for w in r["walls"]]
        # Latencies by pass; a torus pass is one call.  The tail of a
        # cli-warm pass is one diagram's calls, so a pass's 99th
        # percentile jumps with the machine's speed; the mean over passes,
        # unlike a median or a pooled percentile, moves in proportion.
        by_pass = [lat for _t, r in results
                   for lat in r.get("latencies", [[w] for w in r["walls"]])]
        lats = [x for lat in by_pass for x in lat]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for _t, r in results), "MB"),
            "call_p50_ms": (statistics.median(lats) * 1e3, "ms"),
            "call_p99_ms": (statistics.fmean(percentile(lat, 0.99) for lat in by_pass) * 1e3, "ms"),
        }
        lines.append(f"passes {len(walls)}, setup samples {len(setups)}, calls timed {len(lats)}")
    else:
        timed_passes(ctx.seconds, lambda: (one_pass(False), one_pass(True)))
        plain = [r for t, r in results if not t]
        traced = [r for t, r in results if t]
        metrics = {}
        for key in traced[0]["trace"]:
            values = [r["trace"][key][0] for r in traced]
            metrics[key] = (statistics.median(values), traced[0]["trace"][key][1])
        metrics["trace.wall_s"] = (statistics.median(w for r in traced for w in r["walls"]), "s")
        # Each traced pass is paired with the untraced pass just before
        # it, so slow drift in machine speed cancels within a pair.
        diffs = [statistics.median(t["walls"]) - statistics.median(u["walls"])
                 for u, t in zip(plain, traced)]
        metrics["trace.overhead_s"] = (statistics.median(diffs), "s")
        absent = traced[0]["absent"]
        lines.append(f"overhead pairs {len(diffs)} (traced minus untraced pass)")
        lines.append("absent: " + (", ".join(absent) if absent else "none"))
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"failed_ratio {ratio:.6g} ratio ({failed} of {attempted} operations)")
    lines += [f"problem: {p}" for p in ctx.checker.problems]
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "artifact")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        metrics, attempted, failed, lines = run(args, work)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
