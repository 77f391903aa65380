"""Seeded workload inputs, and the rule for how many passes a run makes.

Every diagram reaches the program in its JSON form, relabeled by the
workload seed: the crossings are permuted, the arcs renamed by a random
bijection, and the per-crossing ``over_in`` hints carried along so that
every crossing keeps its sign.  The homology table of a relabeled
diagram must equal the table of the original; the benchmark checks it.
"""

from __future__ import annotations

import random
import time

TORUS_5_1 = "X(1,6,2,7) X(3,8,4,9) X(5,10,6,1) X(7,2,8,3) X(9,4,10,5)"


def relabel(diagram: dict, rng: random.Random) -> dict:
    """A relabeled copy of a diagram given as ``LinkDiagram.to_json_dict()``."""

    crossings = [list(x) for x in diagram.get("crossings", [])]
    over_in = list(diagram.get("over_in") or [None] * len(crossings))
    order = list(range(len(crossings)))
    rng.shuffle(order)
    arcs = sorted({a for x in crossings for a in x})
    names = rng.sample(range(1, 4 * len(arcs) + 1), len(arcs))
    rename = dict(zip(arcs, names))
    out: dict = {"crossings": [[rename[a] for a in crossings[c]] for c in order]}
    if crossings:
        out["over_in"] = [over_in[c] for c in order]
    if diagram.get("free_loops"):
        out["free_loops"] = diagram["free_loops"]
    return out


def timed_passes(seconds: float, one_pass) -> None:
    """Call ``one_pass`` at least once, and again while another pass of
    average length still fits in ``seconds``."""

    start = time.perf_counter()
    done = 0
    while True:
        one_pass()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return
