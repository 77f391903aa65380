"""The signed resolution cube of a link diagram and its integer homology.

Every choice vector over the crossings names a flattening web; its state
space, with quantum degrees shifted by ``3*p_minus - 2*p_plus - |J|``
(``|J|`` = number of choice-1 crossings), sits at homological degree
``|J| - p_minus``.  Switching one crossing from choice 0 to choice 1
induces the matrix of the corresponding zip/unzip cobordism; multiplying
the edge from ``J`` by ``(-1)**#{a in J : a < b}`` (``b`` the switched
crossing, crossings totally ordered by index) makes every square face of
the cube anticommute, so the column sums form a differential with
``d*d = 0`` that preserves the shifted quantum degree.

Homology is computed exactly over the integers.  ``differential_blocks``
walks the cube once, from the diagram to the differential: every vertex
state space, then every edge's sparse matrix (``webhom.SparseColumns``),
written straight into the block of its quantum degree (a
``{row: value}`` dict per column) with a check that every entry
preserves the shifted degree; ``d*d = 0`` is checked on every block and
every column as a sparse product.  Either failure is a hard error.
Each quantum degree is then reduced as one complex by the Gaussian
elimination of Bar-Natan's "Fast Khovanov homology computations"
(arXiv math/0606318): a unit entry of ``d_i`` is cancelled by its
Schur complement in ``d_i`` alone (sweeping the columns in order, each
column's unit on the shortest row), and its two generators simply drop
out of ``d_{i-1}`` and ``d_{i+1}``.  Only the small remainders go
through ``smith_diagonal``, which reduces their rows and columns in
turn by the package's one exact elimination (``algebra.row_reduce``)
and yields the ranks and torsion orders.  The graded Euler
characteristic of the result must reproduce the diagram's bracket
polynomial; tables of bigraded groups are invariant under the
Reidemeister moves, which ``check_invariance`` verifies pairwise on
diagrams.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .algebra import VALUE_EQUALITY, LaurentPoly, row_reduce
from .diagram import LinkDiagram, resolution_edge_movie, resolutions
from .web import link_bracket
from .webhom import induced_matrix, state_space


class ComplexError(Exception):
    """Raised when assembled cube data violates a structural invariant."""


# --------------------------------------------------------------------------
# integer Smith normal form
# --------------------------------------------------------------------------


def smith_diagonal(mat: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero diagonal of the Smith normal form of an integer
    matrix: positive entries, each dividing the next, as many as the
    rank.

    The rows and then the columns are reduced in turn
    (``algebra.row_reduce``), each round keeping only the pivot rows of
    the last, until every pivot is alone in its row and column.  The
    pivots are then merged into a divisor chain pair by pair, as
    ``Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b)``.
    """

    rows = [{c: x for c, x in enumerate(row) if x} for row in mat]
    while True:
        rows = [rows[r] for r, _ in row_reduce(rows)]
        if all(len(row) == 1 for row in rows):
            break
        cols = sorted({c for row in rows for c in row})
        rows = [{r: row[c] for r, row in enumerate(rows) if c in row} for c in cols]
    diag = [abs(x) for row in rows for x in row.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


#: A sparse integer column: its nonzero entries by row index.
SparseColumn = Dict[int, int]


def eliminate_units(
    cols: Dict[int, SparseColumn],
) -> Tuple[Dict[int, int], Dict[int, SparseColumn]]:
    """Cancel unit entries of the matrix whose nonzero columns are
    ``cols`` (``{col: {row: value}}``, consumed) until none is left.

    The columns are swept in increasing order, and in each the unit
    entry on the shortest row is cancelled: the pivot's row and column
    are removed and every other row of its column takes the exact
    integer row operation that clears it (the Schur complement
    ``D - a u b`` with ``u = u**-1 = +-1``).  An update can make a unit
    in a column already passed, so the sweep repeats until one cancels
    nothing.  Returns the pivots, each row to its column, and the
    nonzero rows of what is left (``{row: {col: value}}``): the matrix
    has the Smith diagonal of that remainder with one 1 put in front
    per pivot.
    """

    rows: Dict[int, SparseColumn] = {}
    for c, col in cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    pivots: Dict[int, int] = {}
    swept = -1
    while len(pivots) > swept:
        swept = len(pivots)
        for pc in sorted(cols):
            pcol = cols.get(pc)
            if pcol is None:
                continue
            pr = min(
                (r for r, v in pcol.items() if v == 1 or v == -1),
                key=lambda r: len(rows[r]),
                default=None,
            )
            if pr is None:
                continue
            pivots[pr] = pc
            del cols[pc]
            prow = rows.pop(pr)
            u = prow.pop(pc)
            del pcol[pr]
            for c in prow:
                del cols[c][pr]
            for r, a in pcol.items():
                row = rows[r]
                del row[pc]
                f = a * u
                for c, b in prow.items():
                    col = cols[c]
                    x = row.get(c, 0) - f * b
                    if x:
                        row[c] = col[r] = x
                    else:
                        del row[c], col[r]
                if not row:
                    del rows[r]
            for c in prow:
                if not cols[c]:
                    del cols[c]
    return pivots, rows


def dense_rows(rows: Mapping[int, SparseColumn]) -> List[List[int]]:
    """The matrix with the given sparse rows (``{row: {col: value}}``)
    as a dense list of rows, over the columns that some row reaches."""

    cols = sorted({c for row in rows.values() for c in row})
    return [[row.get(c, 0) for c in cols] for row in rows.values()]


# --------------------------------------------------------------------------
# the cube
# --------------------------------------------------------------------------


def differential_blocks(
    d: LinkDiagram,
) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[int, int], List[SparseColumn]]]:
    """The signed resolution cube of a diagram as its per-quantum-degree
    differentials, sparse.

    Every vertex state space is computed first, by weight, then every
    edge matrix, its vertices by weight and then by crossing.
    Generators of bidegree ``(i, j)`` are numbered ``0, 1, ...`` by
    ``bits``, then basis index.  Returns the number of generators of
    each bidegree and, for each, the columns of ``d_i`` restricted to
    quantum degree ``j``: column ``c`` maps the rows (generators of
    ``(i + 1, j)``) it reaches to their signed edge-map entries.  Each
    edge matrix is written straight into its blocks, which raises
    ``ComplexError`` if an entry joins generators of different shifted
    quantum degree (splitting by degree would lose it).
    """

    n = d.n_crossings
    # each vertex: its homological degree and its basis's shifted q-degrees
    vertices: Dict[Tuple[int, ...], Tuple[int, Tuple[int, ...]]] = {}
    for bits in sorted(resolutions(n), key=sum):
        weight = sum(bits)
        shift = 3 * d.negative_count - 2 * d.positive_count - weight
        space = state_space(d.flatten(bits))
        vertices[bits] = (
            weight - d.negative_count,
            tuple(q + shift for q in space.degrees),
        )
    dims: Dict[Tuple[int, int], int] = {}
    number: Dict[Tuple[int, ...], List[int]] = {}
    for bits in sorted(vertices):
        i, q_degrees = vertices[bits]
        local = number[bits] = []
        for q in q_degrees:
            local.append(dims.get((i, q), 0))
            dims[(i, q)] = local[-1] + 1
    blocks = {key: [{} for _ in range(k)] for key, k in dims.items()}
    for bits, (i, q_degrees) in vertices.items():
        for c in range(n):
            if bits[c]:
                continue
            mat = induced_matrix(resolution_edge_movie(d, bits, c))
            sign = -1 if sum(bits[:c]) % 2 else 1
            target = bits[:c] + (1,) + bits[c + 1 :]
            dst = number[target]
            dst_q = vertices[target][1]
            # each (source, target) generator pair lies on exactly one
            # edge, so every entry is written once
            for q, k, col in zip(q_degrees, number[bits], mat):
                out = blocks[(i, q)][k]
                for r, entry in col:
                    if dst_q[r] != q:
                        raise ComplexError(
                            "edge map does not preserve shifted degree at "
                            f"bits={bits}, crossing={c}"
                        )
                    out[dst[r]] = sign * entry
    return dims, blocks


# --------------------------------------------------------------------------
# homology
# --------------------------------------------------------------------------


class BigradedHomology(NamedTuple):
    """Integer homology groups by (homological, quantum) bidegree:
    ``entries`` lists ``(i, j, free_rank, torsion_orders)`` for the
    nonzero groups, sorted by bidegree."""

    entries: Tuple[Tuple[int, int, int, Tuple[int, ...]], ...]

    __eq__, __ne__, __hash__ = VALUE_EQUALITY

    def rank(self, i: int, j: int) -> int:
        for ei, ej, r, _t in self.entries:
            if (ei, ej) == (i, j):
                return r
        return 0

    def torsion(self, i: int, j: int) -> Tuple[int, ...]:
        for ei, ej, _r, t in self.entries:
            if (ei, ej) == (i, j):
                return t
        return ()

    def to_json_list(self) -> list:
        return [
            {"i": i, "j": j, "rank": r, "torsion": list(t)}
            for i, j, r, t in self.entries
        ]


def block_homology(
    dims: Mapping[Tuple[int, int], int],
    blocks: Mapping[Tuple[int, int], Sequence[Mapping[int, int]]],
) -> BigradedHomology:
    """Exact integer homology of a complex split by quantum degree, given
    as ``differential_blocks`` returns it (not modified): the number of
    generators of each bidegree ``(i, j)``, and the sparse columns of
    ``d_i`` restricted to quantum degree ``j``.

    ``d_{i+1} d_i = 0`` is checked on every block and every column, as
    a sparse product, before anything else reads them; a nonzero entry
    raises ``ComplexError``.  Each quantum degree is then walked as one
    complex, from low to high ``i``:

    1. the columns of ``d_i`` cancelled as rows of ``d_{i-1}`` drop out;
    2. the unit entries of what is left are cancelled
       (``eliminate_units``);
    3. the columns cancelled there drop out of the remainder rows of
       ``d_{i-1}``, which is then final and goes densely to
       ``smith_diagonal``.

    With ``d*d = 0`` a dropped column or row is a unit combination of
    the others, so keeping it would change no table; dropping it keeps
    the remainders small.

    The free rank at ``i`` is the number of generators no pivot took,
    less the ranks of the remainders of ``d_i`` and ``d_{i-1}``; the
    torsion is read off the remainder of ``d_{i-1}``.  A negative free
    rank raises ``ComplexError``.
    """

    for i, j in sorted(blocks, key=lambda key: (key[1], key[0])):
        after = blocks.get((i + 1, j))
        if after is None:
            continue
        for col in blocks[(i, j)]:
            acc: Dict[int, int] = {}
            for r, a in col.items():
                for r2, b in after[r].items():
                    acc[r2] = acc.get(r2, 0) + a * b
            if any(acc.values()):
                raise ComplexError(
                    f"differential does not square to zero at (i={i}, j={j})"
                )
    spans: Dict[int, List[int]] = {}
    for i, j in dims:
        spans.setdefault(j, []).append(i)
    survivors: Dict[Tuple[int, int], int] = {}
    snf: Dict[Tuple[int, int], List[int]] = {}
    for j, degrees in spans.items():
        # generators of degree i cancelled as rows of d_{i-1}, and the
        # remainder rows of d_{i-1}
        dropped: Dict[int, int] = {}
        rest: Dict[int, SparseColumn] = {}
        for i in range(min(degrees), max(degrees) + 2):
            cols = {
                c: dict(col)
                for c, col in enumerate(blocks.get((i, j), ()))
                if col and c not in dropped
            }
            pivots, rows = eliminate_units(cols)
            for c in pivots.values():
                rest.pop(c, None)
            snf[(i - 1, j)] = smith_diagonal(dense_rows(rest)) if rest else []
            if (i, j) in dims:
                survivors[(i, j)] = dims[(i, j)] - len(dropped) - len(pivots)
            dropped, rest = pivots, rows
    entries: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    for (i, j), n in sorted(survivors.items()):
        incoming = snf[(i - 1, j)]
        free = n - len(snf[(i, j)]) - len(incoming)
        if free < 0:
            raise ComplexError(
                f"negative free rank at (i={i}, j={j}): check d*d = 0"
            )
        torsion = tuple(x for x in incoming if x > 1)
        if free or torsion:
            entries.append((i, j, free, torsion))
    return BigradedHomology(entries=tuple(entries))


def link_homology(d: LinkDiagram) -> BigradedHomology:
    return block_homology(*differential_blocks(d))


def euler_characteristic(entries: Iterable[Tuple[int, int, int, object]]) -> LaurentPoly:
    """The alternating graded-rank sum of homology entries
    ``(i, j, rank, torsion)``, such as ``BigradedHomology.entries``;
    equals the diagram's bracket."""

    return LaurentPoly((j, -r if i % 2 else r) for i, j, r, _t in entries)


# --------------------------------------------------------------------------
# invariance checking
# --------------------------------------------------------------------------


class InvarianceReport(NamedTuple):
    """Pairwise comparison of two diagrams' homology tables."""

    passed: bool
    differences: Tuple[Tuple[Tuple[int, int], Tuple[int, Tuple[int, ...]], Tuple[int, Tuple[int, ...]]], ...]

    __eq__, __ne__, __hash__ = VALUE_EQUALITY

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "differences": [
                {
                    "i": ij[0],
                    "j": ij[1],
                    "first": {"rank": a[0], "torsion": list(a[1])},
                    "second": {"rank": b[0], "torsion": list(b[1])},
                }
                for ij, a, b in self.differences
            ],
        }


def check_invariance(d1: LinkDiagram, d2: LinkDiagram) -> InvarianceReport:
    """Compare the bigraded homology tables of two diagrams; they agree
    exactly (ranks and torsion per bidegree) when the diagrams present
    the same link."""

    h1 = link_homology(d1)
    h2 = link_homology(d2)
    keys = {(i, j) for i, j, _r, _t in h1.entries}
    keys |= {(i, j) for i, j, _r, _t in h2.entries}
    diffs = []
    for ij in sorted(keys):
        a = (h1.rank(*ij), h1.torsion(*ij))
        b = (h2.rank(*ij), h2.torsion(*ij))
        if a != b:
            diffs.append((ij, a, b))
    return InvarianceReport(passed=not diffs, differences=tuple(diffs))


def homology_json(d: LinkDiagram) -> dict:
    """The diagram's homology report in the interchange shape:
    diagram, bracket text, homology table, and the Euler-characteristic
    cross-check flag."""

    h = link_homology(d)
    bracket = link_bracket(d)
    return {
        "diagram": d.to_json_dict(),
        "bracket": str(bracket),
        "homology": h.to_json_list(),
        "euler_check": euler_characteristic(h.entries) == bracket,
    }
