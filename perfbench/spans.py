"""Per-module spans installed from outside the program.

Each traced function is replaced, in every ``artifact`` module that binds
it, by a wrapper that records one span per call.  Spans are kept only as
running sums per function: call count, self time (span duration minus
the time covered by the spans of traced functions it called) and total
time (duration of the outermost call when the function recurses).  A
function that no longer exists is reported as absent, not as an error.

``algebra`` is not wrapped: its calls are too small for a wrapper not to
dominate them, and their cost shows up in the self time of ``web`` and
``foam``.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute path) of every traced function, in report order.
TRACED = (
    ("diagram", "parse_pd"),
    ("diagram", "LinkDiagram.flatten"),
    ("diagram", "resolution_edge_movie"),
    ("web", "link_bracket"),
    ("web", "kuperberg_bracket"),
    ("foam", "evaluate_closed"),
    ("foam", "extract_prefoam"),
    ("foam", "evaluate"),
    ("webhom", "state_space"),
    ("webhom", "pair_movies"),
    ("webhom", "induced_matrix"),
    ("cube", "build_complex"),
    ("cube", "homology"),
    ("cube", "smith_diagonal"),
    ("cli", "main"),
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


SPANS = tuple(span_name(m, p) for m, p in TRACED)


class Tracer:
    """Installs the wrappers and accumulates their spans."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.total_s = dict.fromkeys(SPANS, 0.0)
        self.absent: list[str] = []
        self.dim_max = 0
        self.snf_max_cells = 0
        self.snf_max_entry = 0
        self.cli_homology_json_calls = 0
        self.cli_homology_mode_calls = 0
        self._stack: list[list[float]] = []
        self._depth = dict.fromkeys(SPANS, 0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, path in TRACED:
            name = span_name(module, path)
            owner, attr, fn = _resolve(module, path)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn)
            if owner is not None:
                setattr(owner, attr, wrapped)
            _rebind(fn, wrapped)
        cli = sys.modules.get("artifact.cli")
        if cli is not None and callable(getattr(cli, "homology_json", None)):
            cli.homology_json = self._count_cli_homology(cli.homology_json)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        observe = self._observer(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if not depth[name]:
                    total_s[name] += dur
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                observe(args, result)
            return result

        return span

    def _observer(self, name: str):
        if name == "webhom.state_space":
            return self._observe_space
        if name == "cube.smith_diagonal":
            return self._observe_snf
        if name == "cli.main":
            return self._observe_cli
        return None

    def wrapper_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one span adds to a call, timed on a wrapped no-op
        (the least of ``repeats`` timings of ``calls`` calls each)."""

        name = "trace.calibrate"
        for table in (self.calls, self.self_s, self.total_s, self._depth):
            table[name] = 0

        def noop():
            return None

        wrapped = self._wrap(name, noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            costs.append((clock() - t1) - (t1 - t0))
        for table in (self.calls, self.self_s, self.total_s, self._depth):
            del table[name]
        return max(min(costs), 0.0) / calls

    def _observe_space(self, args, space) -> None:
        self.dim_max = max(self.dim_max, space.dim)

    def _observe_snf(self, args, _diagonal) -> None:
        mat = args[0]
        self.snf_max_cells = max(self.snf_max_cells, sum(len(row) for row in mat))
        entry = max((abs(x) for row in mat for x in row), default=0)
        self.snf_max_entry = max(self.snf_max_entry, entry)

    def _observe_cli(self, args, _code) -> None:
        argv = list(args[0]) if args and args[0] is not None else []
        if "--mode" in argv and argv[argv.index("--mode") + 1:][:1] == ["homology"]:
            self.cli_homology_mode_calls += 1

    def _count_cli_homology(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.cli_homology_json_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-module values, each as ``(value, unit)``."""

        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        pairs = self.calls["webhom.pair_movies"]
        closed = self.calls["foam.evaluate_closed"]
        out["webhom.state_space.dim_max"] = (self.dim_max, "count")
        out["webhom.pair_eval_ratio"] = (closed / pairs if pairs else 0.0, "ratio")
        out["cube.smith_diagonal.max_cells"] = (self.snf_max_cells, "count")
        out["cube.smith_diagonal.max_entry"] = (self.snf_max_entry, "count")
        hom = self.cli_homology_mode_calls
        hit = 1 - self.cli_homology_json_calls / hom if hom else 0.0
        out["cli.cache_hit_ratio"] = (hit, "ratio")
        out["trace.absent"] = (len(self.absent), "count")
        spans = sum(self.calls.values())
        out["trace.overhead_est_s"] = (spans * self.wrapper_cost(), "s")
        return out


def _resolve(module: str, path: str):
    """(owner class or None, attribute, function or None)."""

    obj = sys.modules.get(f"artifact.{module}")
    owner, attr = None, path
    if "." in path:
        cls_name, attr = path.split(".", 1)
        owner = getattr(obj, cls_name, None)
        obj = owner
    fn = getattr(obj, attr, None) if obj is not None else None
    return owner, attr, fn if callable(fn) else None


def _rebind(fn, wrapped) -> None:
    """Point every ``artifact`` module global bound to ``fn`` at ``wrapped``."""

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "artifact" or mod_name.startswith("artifact.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)
