"""Command-line surface for brackets, web dumps, homology tables,
invariance runs and the identity selftest.

One mode per invocation:

* ``bracket``   — the quantum invariant of a diagram;
* ``webs``      — every flattening of a diagram with its bracket
  (``--dump-webs`` adds full web serializations, ``--dump-foams`` the
  single-switch cobordism movies between flattenings);
* ``homology``  — the bigraded integer homology table, with the Euler
  cross-check;
* ``invariance``— pairwise homology comparison over a list of diagram
  pairs (a built-in Reidemeister corpus by default);
* ``selftest``  — the full identity suite with a check count.

Diagrams come from ``--pd`` (inline PD code, empty string for the empty
diagram) or ``--input`` (a file holding PD text or diagram JSON).
Output is ``text`` or deterministic one-line ``json``.  Homology
results are cached on disk, content-addressed by the canonical diagram
serialization; the directory comes from ``--cache-dir``, the
``SL3WEB_CACHE_DIR`` environment variable, or a per-user default, and
``--no-cache`` disables the cache entirely.

Exit codes: 0 success, 1 parse/usage error, 2 internal assertion
failure, 3 invariance-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from . import corpus
from .cube import ComplexError, check_invariance, euler_characteristic, homology_json
from .diagram import (
    LinkDiagram,
    MalformedDiagram,
    diagram_from_json,
    parse_pd,
    resolution_edge_movie,
    resolutions,
)
from .foam import MalformedMovie, MoveError
from .selftest import run_selftest
from .web import MalformedWeb, kuperberg_bracket, link_bracket
from .webhom import StateSpaceError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INTERNAL = 2
EXIT_INVARIANCE = 3

CACHE_ENV = "SL3WEB_CACHE_DIR"


class _UsageError(Exception):
    """Bad command line or unreadable/unparsable input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sl3web", description=__doc__.splitlines()[0])
    p.add_argument(
        "--mode",
        required=True,
        choices=("bracket", "webs", "homology", "invariance", "selftest"),
        help="what to compute",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--pd", default=None, help="inline PD code ('' = empty diagram)")
    src.add_argument("--input", default=None, help="file with PD text or diagram JSON")
    p.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format (json output is byte-deterministic)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help=f"homology cache directory (default: ${CACHE_ENV} or ~/.cache/sl3web)",
    )
    p.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    p.add_argument(
        "--dump-webs",
        action="store_true",
        help="webs mode: include full web serializations",
    )
    p.add_argument(
        "--dump-foams",
        action="store_true",
        help="webs mode: include single-switch movies between flattenings",
    )
    p.add_argument(
        "--closures",
        type=int,
        default=120,
        help="selftest mode: random closures per local relation",
    )
    p.add_argument("--seed", type=int, default=0, help="selftest mode: random seed")
    return p


# --------------------------------------------------------------------------
# input handling
# --------------------------------------------------------------------------


def _diagram_from_text(text: str) -> LinkDiagram:
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedDiagram(f"invalid JSON diagram: {exc}") from exc
        return diagram_from_json(data)
    return parse_pd(text)


def _load_diagram(args: argparse.Namespace) -> LinkDiagram:
    if args.pd is not None:
        return parse_pd(args.pd)
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return _diagram_from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read {args.input}: {exc}") from exc
    raise _UsageError("this mode needs --pd or --input")


def _pair_entry_diagram(obj) -> LinkDiagram:
    if isinstance(obj, str):
        return parse_pd(obj)
    return diagram_from_json(obj)


def _load_pairs(args: argparse.Namespace) -> List[Tuple[str, LinkDiagram, LinkDiagram]]:
    if args.input is None and args.pd is None:
        return [(name, d1, d2) for name, d1, d2 in corpus.INVARIANCE_PAIRS]
    if args.input is None:
        raise _UsageError("invariance mode takes --input with a JSON list of pairs")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {args.input}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedDiagram(f"invalid JSON pair list: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedDiagram("pair list must be a JSON array")
    pairs = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "first" not in entry or "second" not in entry:
            raise MalformedDiagram(
                f"pair {k} must be an object with 'first' and 'second'"
            )
        name = str(entry.get("name", f"pair-{k}"))
        pairs.append(
            (
                name,
                _pair_entry_diagram(entry["first"]),
                _pair_entry_diagram(entry["second"]),
            )
        )
    return pairs


# --------------------------------------------------------------------------
# disk cache
# --------------------------------------------------------------------------


class _Cache:
    def __init__(self, directory: Optional[str]) -> None:
        self.directory = directory

    def _path(self, key: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str):
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError, RecursionError):
            # an unreadable, undecodable or too deeply nested entry is a miss
            return None

    def put(self, key: str, payload) -> None:
        path = self._path(key)
        if path is None:
            return
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            # a failed write leaves no partial file behind
            try:
                os.remove(tmp)
            except OSError:
                pass


def _resolve_cache(args: argparse.Namespace) -> _Cache:
    if args.no_cache:
        return _Cache(None)
    # an empty flag or variable is unset, not the current directory
    directory = args.cache_dir or os.environ.get(CACHE_ENV)
    if not directory:
        directory = os.path.join(os.path.expanduser("~"), ".cache", "sl3web")
    return _Cache(directory)


def _homology_key(diagram: dict) -> str:
    import hashlib  # here, not at import: it loads OpenSSL

    canonical = json.dumps(diagram, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"homology|v1|{canonical}".encode()).hexdigest()


_HOMOLOGY_FIELDS = {"diagram", "bracket", "homology", "euler_check"}
_ROW_FIELDS = {"i", "j", "rank", "torsion"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_homology_row(row) -> bool:
    """Whether ``row`` is a row as ``block_homology`` writes it: integer
    ``i`` and ``j``, a rank ``>= 0``, torsion orders ``> 1`` each
    dividing the next, and a positive rank or some torsion."""
    return (
        isinstance(row, dict)
        and row.keys() == _ROW_FIELDS
        and _is_int(row["i"])
        and _is_int(row["j"])
        and _is_int(row["rank"])
        and row["rank"] >= 0
        and isinstance(row["torsion"], list)
        and all(_is_int(t) and t > 1 for t in row["torsion"])
        and (row["rank"] > 0 or bool(row["torsion"]))
        and all(b % a == 0 for a, b in zip(row["torsion"], row["torsion"][1:]))
    )


def _is_homology_payload(payload, diagram: dict) -> bool:
    """Whether a cache entry is a homology report of ``diagram`` in the
    shape the engine writes: the four report keys and no other, a
    bracket string, a boolean Euler check, and nonzero
    ``i``/``j``/``rank``/``torsion`` rows, strictly increasing by
    ``(i, j)``, whose graded Euler characteristic prints as that
    bracket.  Any other entry (damaged, or another diagram's) is a miss.

    Each row is checked once, as it is read.  An edit of the ranks that
    keeps this shape and the Euler characteristic (say one more rank at
    ``(0, 0)`` and a new rank-1 row at ``(1, 0)``) is still served: only
    a recomputation can catch it."""
    if not (
        isinstance(payload, dict)
        and payload.keys() == _HOMOLOGY_FIELDS
        and payload["diagram"] == diagram
        and isinstance(payload["bracket"], str)
        and isinstance(payload["euler_check"], bool)
        and isinstance(payload["homology"], list)
    ):
        return False
    entries = []
    for row in payload["homology"]:
        if not _is_homology_row(row):
            return False
        entry = (row["i"], row["j"], row["rank"], row["torsion"])
        if entries and entry[:2] <= entries[-1][:2]:
            return False
        entries.append(entry)
    return str(euler_characteristic(entries)) == payload["bracket"]


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _emit_json(payload, out) -> None:
    out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _homology_text(payload, out) -> None:
    out.write(f"bracket: {payload['bracket']}\n")
    if not payload["homology"]:
        out.write("homology: trivial\n")
    for row in payload["homology"]:
        line = f"i={row['i']} j={row['j']} rank={row['rank']}"
        if row["torsion"]:
            line += " torsion=" + ",".join(str(t) for t in row["torsion"])
        out.write(line + "\n")
    out.write(f"euler check: {'ok' if payload['euler_check'] else 'FAILED'}\n")


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------


def _mode_bracket(args, out) -> int:
    d = _load_diagram(args)
    poly = link_bracket(d)
    if args.format == "json":
        _emit_json({"diagram": d.to_json_dict(), "bracket": str(poly)}, out)
    else:
        out.write(str(poly) + "\n")
    return EXIT_OK


def _mode_webs(args, out) -> int:
    d = _load_diagram(args)
    n = d.n_crossings
    entries = []
    for bits in resolutions(n):
        web = d.flatten(bits)
        entry = {
            "resolution": list(bits),
            "bracket": str(kuperberg_bracket(web)),
        }
        if args.dump_webs:
            entry["web"] = web.to_json_dict()
        entries.append(entry)
    payload = {"diagram": d.to_json_dict(), "webs": entries}
    if args.dump_foams:
        edges = []
        for bits in resolutions(n):
            for c in range(n):
                if bits[c] == 0:
                    movie = resolution_edge_movie(d, bits, c)
                    edges.append(
                        {
                            "from": list(bits),
                            "crossing": c,
                            "movie": movie.to_json_dict(),
                        }
                    )
        payload["edges"] = edges
    if args.format == "json":
        _emit_json(payload, out)
    else:
        for entry in entries:
            bits_text = "".join(str(b) for b in entry["resolution"])
            out.write(f"resolution {bits_text or '-'}: {entry['bracket']}\n")
    return EXIT_OK


def _mode_homology(args, out) -> int:
    d = _load_diagram(args)
    cache = _resolve_cache(args)
    diagram = d.to_json_dict()
    key = _homology_key(diagram)
    payload = cache.get(key)
    # a report whose Euler check failed is never kept, and one found is
    # recomputed
    if not _is_homology_payload(payload, diagram) or not payload["euler_check"]:
        payload = homology_json(d)
        if payload["euler_check"]:
            cache.put(key, payload)
    if args.format == "json":
        _emit_json(payload, out)
    else:
        _homology_text(payload, out)
    return EXIT_OK if payload["euler_check"] else EXIT_INTERNAL


def _mode_invariance(args, out) -> int:
    pairs = _load_pairs(args)
    results = []
    all_passed = True
    for name, d1, d2 in pairs:
        report = check_invariance(d1, d2)
        all_passed = all_passed and report.passed
        results.append((name, report))
    if args.format == "json":
        _emit_json(
            {
                "passed": all_passed,
                "pairs": [
                    {"name": name, **report.to_json_dict()}
                    for name, report in results
                ],
            },
            out,
        )
    else:
        for name, report in results:
            out.write(f"{name}: {'pass' if report.passed else 'FAIL'}\n")
        out.write(
            f"{sum(1 for _n, r in results if r.passed)}/{len(results)} pairs agree\n"
        )
    return EXIT_OK if all_passed else EXIT_INVARIANCE


def _mode_selftest(args, out) -> int:
    report = run_selftest(closures=args.closures, seed=args.seed)
    if args.format == "json":
        _emit_json(
            {
                "passed": report.passed,
                "checks": report.checks,
                "failures": list(report.failures),
            },
            out,
        )
    else:
        if report.passed:
            out.write(f"selftest passed: {report.checks} checks\n")
        else:
            for failure in report.failures:
                out.write(f"FAIL: {failure}\n")
            out.write(
                f"selftest FAILED: {len(report.failures)} of {report.checks} checks\n"
            )
    return EXIT_OK if report.passed else EXIT_INTERNAL


_MODES = {
    "bracket": _mode_bracket,
    "webs": _mode_webs,
    "homology": _mode_homology,
    "invariance": _mode_invariance,
    "selftest": _mode_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    out = sys.stdout
    try:
        args = build_parser().parse_args(argv)
        if args.closures < 1:
            raise _UsageError("--closures must be at least 1")
        return _MODES[args.mode](args, out)
    except (_UsageError, MalformedDiagram) as exc:
        print(f"sl3web: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        StateSpaceError,
        ComplexError,
        MoveError,
        MalformedMovie,
        MalformedWeb,
    ) as exc:
        print(f"sl3web: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
