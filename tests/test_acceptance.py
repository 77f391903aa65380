"""Acceptance gate: ten criteria, one test each, with wall-clock budgets.

Every test prints a single ``criterion NN PASS (T s)`` line on success and
fails loudly otherwise.  All values are exact integers or integer Laurent
polynomials; there is no tolerance anywhere.
"""

import json
import os
import time

import pytest

from artifact.algebra import theta_symbol, closed_surface_value
from artifact.corpus import (
    FIGURE_EIGHT,
    HOPF,
    INVARIANCE_PAIRS,
    TREFOIL,
    TREFOIL_MIRROR,
    UNKNOT_0,
    UNKNOT_CURL_OVER,
    UNKNOT_DOUBLE_KINK,
    UNKNOT_KINK_NEG,
    UNKNOT_KINK_POS,
    UNKNOT_OPPOSITE_KINKS,
    fixture_diagrams,
)
from artifact.cube import (
    check_invariance,
    euler_characteristic,
    link_homology,
    smith_diagonal,
)
from artifact.foam import PreFoam, evaluate
from artifact.selftest import (
    _Collector,
    check_bubble_bursting,
    check_circle_dot_relations,
    check_digon_identities,
    check_disc_removal,
    check_genus_reduction,
    check_square_identities,
    check_surgery,
    check_edge_rings,
)
from artifact.web import kuperberg_bracket, link_bracket
from artifact.webhom import state_space

from .helpers import cube_data, fixture_webs, graded_dimension
from .oracles import d_squared_is_zero, gram, squares_anticommute

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class _Budget:
    """Context manager asserting a wall-clock budget and printing the line."""

    def __init__(self, number: int, label: str, seconds: float) -> None:
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"criterion {self.number:02d} PASS ({elapsed:.2f}s): {self.label}")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded budget: "
                f"{elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_criterion_01_triple_disc_table():
    with _Budget(1, "triple-disc evaluation table", 1.0):
        checked = 0
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    value = evaluate(
                        PreFoam(facets=((0, a), (0, b), (0, c)), circles=((0, 1, 2),))
                    )
                    if a + b + c != 3:
                        assert value == 0, (a, b, c, value)
                    else:
                        assert value == theta_symbol(a, b, c), (a, b, c, value)
                    checked += 1
        assert checked == 64
        assert theta_symbol(0, 1, 2) == 1
        assert theta_symbol(0, 2, 1) == -1
        assert theta_symbol(1, 1, 1) == 0


def test_criterion_02_closed_surfaces():
    with _Budget(2, "closed surface values", 1.0):
        for dots in range(6):
            sphere = evaluate(PreFoam(facets=((0, dots),), circles=()))
            assert sphere == (-1 if dots == 2 else 0), (dots, sphere)
        torus = evaluate(PreFoam(facets=((1, 0),), circles=()))
        assert torus == 3
        for genus in range(2, 6):
            for dots in range(4):
                value = evaluate(PreFoam(facets=((genus, dots),), circles=()))
                assert value == 0, (genus, dots, value)
                assert closed_surface_value(genus, dots) == 0
        assert closed_surface_value(0, 2) == -1
        assert closed_surface_value(1, 0) == 3


def test_criterion_03_local_relations_on_random_closures():
    with _Budget(3, "surgery/genus/dot/bubble/disc relations on closures", 60.0):
        col = _Collector()
        check_surgery(closures=100, seed=10, col=col)
        check_genus_reduction(closures=100, seed=11, col=col)
        check_circle_dot_relations(closures=100, seed=12, col=col)
        check_bubble_bursting(closures=100, seed=13, col=col)
        check_disc_removal(closures=100, seed=14, col=col)
        report = col.report()
        assert report.passed, report.failures[:5]
        assert report.checks >= 500


def test_criterion_04_digon_and_square_identities():
    with _Budget(4, "digon and square matrix identities", 60.0):
        col = _Collector()
        check_digon_identities(col=col)
        check_square_identities(col=col)
        report = col.report()
        assert report.passed, report.failures[:5]
        assert report.checks >= 10


def test_criterion_05_graded_ranks_and_gram_unimodularity():
    with _Budget(5, "graded ranks match brackets; Gram forms unimodular", 300.0):
        webs = fixture_webs()
        assert webs
        for label, web in webs:
            sp = state_space(web)
            assert graded_dimension(sp) == kuperberg_bracket(web), label
            if sp.dim:
                diag = smith_diagonal([list(row) for row in gram(sp)])
                assert len(diag) == sp.dim, (label, diag)
                assert all(entry == 1 for entry in diag), (label, diag)


def test_criterion_06_edge_ring_relations():
    with _Budget(6, "edge ring relations at vertices and loops", 120.0):
        webs = [web for _label, web in fixture_webs()]
        col = _Collector()
        check_edge_rings(webs=webs, col=col)
        report = col.report()
        assert report.passed, report.failures[:5]
        assert report.checks >= len(webs)


def test_criterion_07_cube_differential_consistency():
    with _Budget(7, "d^2 = 0 and square anticommutativity", 120.0):
        for name, d in sorted(fixture_diagrams().items()):
            q_degrees, edge_maps = cube_data(d)
            assert squares_anticommute(edge_maps), name
            assert d_squared_is_zero(q_degrees, edge_maps), name


def test_criterion_08_euler_characteristic_matches_bracket():
    with _Budget(8, "graded Euler characteristic equals bracket", 300.0):
        diagrams = {
            "unknot-0": UNKNOT_0,
            "unknot-kink-positive": UNKNOT_KINK_POS,
            "unknot-kink-negative": UNKNOT_KINK_NEG,
            "hopf": HOPF,
            "trefoil": TREFOIL,
            "trefoil-mirror": TREFOIL_MIRROR,
            "figure-eight": FIGURE_EIGHT,
        }
        for name, d in diagrams.items():
            h = link_homology(d)
            assert euler_characteristic(h.entries) == link_bracket(d), name


def test_criterion_09_unknot_homology_all_presentations():
    with _Budget(9, "unknot homology from 0-, 1-, 2-crossing diagrams", 60.0):
        expected = {(0, -2): (1, ()), (0, 0): (1, ()), (0, 2): (1, ())}
        presentations = {
            "unknot-0": UNKNOT_0,
            "unknot-kink-positive": UNKNOT_KINK_POS,
            "unknot-kink-negative": UNKNOT_KINK_NEG,
            "unknot-opposite-kinks": UNKNOT_OPPOSITE_KINKS,
            "unknot-double-kink": UNKNOT_DOUBLE_KINK,
            "unknot-curl-over": UNKNOT_CURL_OVER,
        }
        crossing_counts = {d.n_crossings for d in presentations.values()}
        assert {0, 1, 2} <= crossing_counts
        for name, d in presentations.items():
            h = link_homology(d)
            table = {
                (i, j): (rank, torsion)
                for i, j, rank, torsion in h.entries
                if rank or torsion
            }
            assert table == expected, (name, table)


def test_criterion_10_reidemeister_invariance_and_golden_trefoil():
    with _Budget(10, "invariance pairs and frozen trefoil table", 540.0):
        assert len(INVARIANCE_PAIRS) >= 10
        names = {name for name, _d1, _d2 in INVARIANCE_PAIRS}
        assert "kink-positive-vs-unknot" in names
        assert "kink-negative-vs-unknot" in names
        assert "push-through-parallel-vs-unlink" in names
        assert "push-through-antiparallel-vs-unlink" in names
        assert "slide-side-a-vs-side-b" in names
        for name, d1, d2 in INVARIANCE_PAIRS:
            report = check_invariance(d1, d2)
            assert report.passed, (name, report.differences)
        with open(
            os.path.join(GOLDEN_DIR, "trefoil_homology.json"), encoding="utf-8"
        ) as fh:
            golden = json.load(fh)
        assert link_homology(TREFOIL).to_json_list() == golden
