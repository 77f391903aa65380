"""One fresh-interpreter pass of a benchmark workload.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The first statements time the set-up every CLI invocation pays: from a
fresh interpreter to ``artifact.cli`` imported and its parser built.
Nothing else is imported before that, so the clock covers the program's
own imports.  The job then runs in this same process, so memo tables
start empty by construction, and the process reports its own peak
resident memory.  Outputs go back to the caller unverified; ``run.py``
checks them.
"""

import time

_T0 = time.perf_counter()

import artifact.cli  # noqa: E402

artifact.cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (Linux
    ``VmHWM``); ``ru_maxrss`` would also count the caller's peak, which
    the kernel carries across ``exec``."""

    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_homology(job) -> dict:
    """``homology_json`` on each diagram, in the given order."""

    from artifact.cube import homology_json
    from artifact.diagram import diagram_from_json

    outputs = []
    start = time.perf_counter()
    for _name, diagram in job["items"]:
        try:
            outputs.append(homology_json(diagram_from_json(diagram)))
        except Exception as exc:  # counted as a failed operation
            outputs.append({"error": repr(exc)})
    return {"walls": [time.perf_counter() - start], "outputs": outputs}


def _cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = artifact.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            code = repr(exc)
        dt = time.perf_counter() - t0
    return dt, code, buf.getvalue()


def run_cli_fill(job) -> dict:
    """Cold ``--mode homology`` calls that fill the disk cache (untimed)."""

    outputs = []
    for argv in job["argvs"]:
        _dt, code, text = _cli_call(argv)
        outputs.append([code, text])
    return {"outputs": outputs}


def run_cli_warm(job) -> dict:
    """Passes of in-process ``cli.main`` calls until the time is up.

    Each pass makes the calls listed in ``job["order"]`` (indices into
    ``job["argvs"]``); passes repeat by the rule of ``timed_passes`` over
    ``job["seconds"]``.  Outputs are recorded once per distinct text."""

    from inputs import timed_passes

    argvs = job["argvs"]
    order = job["order"]
    texts: dict = {}
    walls, latencies, seen = [], [], []
    clock = time.perf_counter

    def one_pass():
        t_pass = clock()
        latencies.append([])
        for k in order:
            dt, code, text = _cli_call(argvs[k])
            latencies[-1].append(dt)
            seen.append([k, code, texts.setdefault(text, len(texts))])
        walls.append(clock() - t_pass)

    timed_passes(job["seconds"], one_pass)
    return {"walls": walls, "latencies": latencies, "calls": seen,
            "texts": sorted(texts, key=texts.get)}


RUNNERS = {
    "setup": lambda job: {},
    "homology": run_homology,
    "cli-fill": run_cli_fill,
    "cli-warm": run_cli_warm,
}


def main() -> None:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = RUNNERS[job["kind"]](job)
    result["setup_s"] = SETUP_S
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["absent"] = tracer.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
