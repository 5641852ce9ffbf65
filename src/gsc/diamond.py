"""The diamond insertion on triangular tensors, parameterized by a grid.

Inserting y (triangle of size n-1, arity n) into x (size m-1, arity m)
at slot i, bridged by an (m-1) x (n-1) grid A, produces a triangle of
size m+n-2.  On monomials the result is assembled from four blocks; with
the index maps

    x-index a  ->  a            if a < i,
    x-index a  ->  a + (n-1)    if a >= i,
    y-index b  ->  i - 1 + b,

the blocks are: x entries at mapped position pairs, y entries on the
inserted interval, grid rows above the insertion bridging x-to-y, and
the transposed grid rows at and below the insertion bridging y-to-x.
The map extends trilinearly.
"""

from __future__ import annotations

import random
from .bioperad import random_rect_element, row_compose, col_compose, transpose
from .classical import LawReport, random_terms
from .errors import BadPosition, ShapeMismatch
from .elements import RectElement, RectMonomial, TriElement, _merge_terms
from .tensor import TriMonomial, triangle_positions


def diamond_monomial(
    x: TriMonomial, i: int, y: TriMonomial, a: RectMonomial
) -> TriMonomial:
    """The monomial case of the diamond insertion."""
    m = x.size + 1
    n = y.size + 1
    if not 1 <= i <= m:
        raise BadPosition(f"slot {i} not in 1..{m}")
    if (a.rows, a.cols) != (m - 1, n - 1):
        raise ShapeMismatch(
            f"grid must be {m - 1}x{n - 1} for arities ({m},{n}), got {a.rows}x{a.cols}"
        )
    size = x.size + y.size
    entries: dict[tuple[int, int], int] = {}

    def xmap(t: int) -> int:
        return t if t < i else t + n - 1

    for (a1, a2), v in zip(triangle_positions(x.size), x.entries):
        entries[(xmap(a1), xmap(a2))] = v
    for (b1, b2), v in zip(triangle_positions(y.size), y.entries):
        entries[(i - 1 + b1, i - 1 + b2)] = v
    for k in range(1, a.rows + 1):
        for l in range(1, a.cols + 1):
            v = a.entry(k, l)
            if k < i:
                entries[(k, i - 1 + l)] = v
            else:
                entries[(i - 1 + l, k + n - 1)] = v
    return TriMonomial.from_dict(size, entries)


def diamond(x: TriElement, i: int, y: TriElement, a: RectElement) -> TriElement:
    """Trilinear extension of the monomial insertion."""
    m = x.size + 1
    n = y.size + 1
    if (a.rows, a.cols) != (m - 1, n - 1):
        raise ShapeMismatch(
            f"grid must be {m - 1}x{n - 1} for arities ({m},{n}), got {a.rows}x{a.cols}"
        )
    if not 1 <= i <= m:
        raise BadPosition(f"slot {i} not in 1..{m}")
    out: dict[TriMonomial, object] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            cxy = cx * cy
            for ma, ca in a.terms.items():
                _merge_terms(out, [(diamond_monomial(mx, i, my, ma), cxy * ca)])
    return TriElement(x.size + y.size, out)


def unit_element() -> TriElement:
    """The distinguished arity-1 element."""
    return TriElement.monomial(TriMonomial.unit())


def generator_element() -> TriElement:
    """The arity-2 generator (size-1 triangle, no entries)."""
    return TriElement.monomial(TriMonomial.generator())


def random_tri_element(
    rng: random.Random, size: int, d: int = 3
) -> TriElement:
    n_pos = size * (size - 1) // 2

    def draw() -> TriMonomial:
        return TriMonomial(size, tuple(rng.randint(1, d) for _ in range(n_pos)))

    return TriElement(size, random_terms(rng, draw))


def check_gsc_axioms(
    trials: int,
    seed: int,
    d: int = 3,
    transpose_fn=transpose,
) -> LawReport:
    """Exact randomized check of the two coherence identities and units.

    Samples x, y, z of sizes <= 3 with compatible bridging grids.  With
    x, y, z of arities m, n, p and grids A in B(m,n), B in B(m,p),
    C in B(n,p):

      (I)  <<x,B,<>_j,z>, A o_j C^tr, <>_i, y>
              == <<x,A,<>_i,y>, B o_i C, <>_{j+n-1}, z>     for 1<=i<j<=m
      (II) <<x,A,<>_i,y>, B o_i C, <>_{j+i-1}, z>
              == <x, A .bullet_j B, <>_i, <y,C,<>_j,z>>     for 1<=i<=m, 1<=j<=n

    The composite in (I)'s right side uses the pre-shift slot i exactly
    as written; the suite passing is what validates that reading.  The
    transpose map is injectable for mutation tests.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    rep = LawReport(name="gsc-diamond", trials=trials)
    for _ in range(trials):
        sx, sy, sz = (rng.randint(0, 3) for _ in range(3))
        m, n, p = sx + 1, sy + 1, sz + 1
        x = random_tri_element(rng, sx, d)
        y = random_tri_element(rng, sy, d)
        z = random_tri_element(rng, sz, d)
        a = random_rect_element(rng, m - 1, n - 1, d)
        b = random_rect_element(rng, m - 1, p - 1, d)
        c = random_rect_element(rng, n - 1, p - 1, d)

        if m >= 2:
            j = rng.randint(2, m)
            i = rng.randint(1, j - 1)
            lhs = diamond(diamond(x, j, z, b), i, y, row_compose(a, j, transpose_fn(c)))
            rhs = diamond(diamond(x, i, y, a), j + n - 1, z, row_compose(b, i, c))
            rep.check("coherence-I", lhs == rhs, f"i={i}, j={j}", (m, n, p))

        i = rng.randint(1, m)
        j = rng.randint(1, n)
        lhs = diamond(diamond(x, i, y, a), j + i - 1, z, row_compose(b, i, c))
        rhs = diamond(x, i, diamond(y, j, z, c), col_compose(a, j, b))
        rep.check("coherence-II", lhs == rhs, f"i={i}, j={j}", (m, n, p))

        # unit laws: x <>_i 1 with the tall empty grid, 1 <>_1 x with the wide one
        i = rng.randint(1, m)
        right = diamond(x, i, unit_element(), RectElement.unit(m - 1, 0))
        rep.check("right-unit", right == x, f"i={i}", (m,))
        left = diamond(unit_element(), 1, x, RectElement.unit(0, m - 1))
        rep.check("left-unit", left == x, "", (m,))
    return rep
