"""Brute-force ideal saturation: an oracle independent of the row model.

Seeds the arity-4 generator expansions (one repeated vector over the
whole triangle, polarized over small-coordinate vectors) and closes the
span under diamond insertions against every monomial context on either
side, until the dimension in every tracked arity stabilizes.  The
resulting graded ranks are compared against the triangle-placement
relation model, which this module deliberately never imports.

The three arity-4 generator families of the ideal live here too, built
the same way; criterion 9 compares each one's span with the model's
arity-4 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .diamond import diamond
from .errors import ResourceLimit
from .elements import RectElement, RectMonomial, TriElement, expand_multilinear
from .tensor import (
    MultiDegree,
    TriMonomial,
    multidegree_of,
    n_triangle_entries,
    triangle_positions,
)

MAX_DIM = 2
MAX_ARITY = 5

# Coordinates used to polarize the generator families.  0/1 vectors are
# not enough: for dim 2 the cubic components of the four nonzero 0/1
# expansions span only 3 of the 4 graded pieces in arity 4; adding a
# coordinate value 2 separates them over the rationals.
_SEED_COORDS = (0, 1, 2)


class _Span:
    """Incremental row space over Q keyed by monomial, echelon by pivot."""

    def __init__(self):
        self.pivots: dict[TriMonomial, dict[TriMonomial, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, element: TriElement) -> bool:
        """Reduce and absorb; True if the rank grew."""
        vec = {m: Fraction(c) for m, c in element.terms.items()}
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                inv = 1 / vec[lead]
                self.pivots[lead] = {m: c * inv for m, c in vec.items()}
                return True
            coeff = vec[lead]
            for m, c in row.items():
                nv = vec.get(m, Fraction(0)) - coeff * c
                if nv:
                    vec[m] = nv
                else:
                    vec.pop(m, None)
        return False

    def basis_elements(self, size: int) -> list[TriElement]:
        return [
            TriElement(size, dict(row)) for _, row in sorted(self.pivots.items())
        ]


def _all_tri_monomials(size: int, d: int):
    for word in product(range(1, d + 1), repeat=n_triangle_entries(size)):
        yield TriMonomial(size, word)


def _all_grids(rows: int, cols: int, d: int):
    for word in product(range(1, d + 1), repeat=rows * cols):
        yield RectMonomial(rows, cols, word)


def _seed_vectors(d: int, coords=_SEED_COORDS) -> list[tuple[int, ...]]:
    return [v for v in product(coords, repeat=d) if any(v)]


def _triangle_sum(placements, d: int) -> TriElement:
    """Sum of the expansions of several (v12, v13, v23) placements."""
    pos = triangle_positions(3)
    out = TriElement.zero(3)
    for vectors in placements:
        out = out + expand_multilinear(3, dict(zip(pos, vectors)), d)
    return out


def _seed_elements(d: int, coords=_SEED_COORDS) -> list[TriElement]:
    """The cubic family v (x) v (x) v over the nonzero seed vectors."""
    return [_triangle_sum([(v, v, v)], d) for v in _seed_vectors(d, coords)]


def three_term_elements(d: int) -> list[TriElement]:
    """The family u(x)v(x)v + v(x)u(x)v + v(x)v(x)u over seed vector pairs."""
    vectors = _seed_vectors(d)
    return [
        _triangle_sum([(u, v, v), (v, u, v), (v, v, u)], d)
        for u in vectors
        for v in vectors
    ]


def six_term_elements(d: int) -> list[TriElement]:
    """The symmetrized family, sum over sigma of a_s1 (x) a_s2 (x) a_s3.

    Unit vectors suffice: the family is multilinear in (a1, a2, a3).
    """
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    return [
        _triangle_sum(permutations(triple), d)
        for triple in combinations_with_replacement(units, 3)
    ]


# The generating sets of the arity-4 ideal, by name.
GENERATOR_FAMILIES = {
    "cubic": _seed_elements,
    "three-term": three_term_elements,
    "six-term": six_term_elements,
}


@dataclass(frozen=True)
class OracleArity:
    arity: int
    n_monomials: int
    relation_rank: int
    quotient_dim: int
    block_ranks: tuple[tuple[MultiDegree, int], ...]


@dataclass(frozen=True)
class OracleReport:
    d: int
    max_arity: int
    arities: tuple[OracleArity, ...]

    def arity(self, m: int) -> OracleArity:
        for a in self.arities:
            if a.arity == m:
                return a
        raise KeyError(m)


def saturation_oracle(d: int, max_arity: int) -> OracleReport:
    """Graded dimensions of the diamond-closed span of the generators.

    Enforced guards: d <= 2 and max_arity <= 5 (the context enumeration
    is exponential beyond that).  Runs over the rationals.
    """
    if d > MAX_DIM or max_arity > MAX_ARITY:
        raise ResourceLimit(
            f"saturation oracle restricted to d <= {MAX_DIM}, arity <= {MAX_ARITY}"
        )
    spans: dict[int, _Span] = {m: _Span() for m in range(1, max_arity + 1)}
    pending: list[tuple[int, TriElement]] = []

    def absorb(arity: int, elt: TriElement) -> None:
        if elt.is_zero():
            return
        if spans[arity].insert(elt):
            pending.append((arity, elt))

    if max_arity >= 4:
        for seed in _seed_elements(d):
            absorb(4, seed)

    while pending:
        p_arity, r = pending.pop()
        # r in the second slot: <x, A, <>_i, r> for every monomial context
        for m in range(1, max_arity + 2 - p_arity):
            out_arity = m + p_arity - 1
            if out_arity > max_arity or m == 1:
                continue
            for xm in _all_tri_monomials(m - 1, d):
                x = TriElement.monomial(xm)
                for grid in _all_grids(m - 1, p_arity - 1, d):
                    a = RectElement.monomial(grid)
                    for i in range(1, m + 1):
                        absorb(out_arity, diamond(x, i, r, a))
        # r in the first slot: <r, A, <>_i, y>
        for n in range(2, max_arity + 2 - p_arity):
            out_arity = n + p_arity - 1
            if out_arity > max_arity:
                continue
            for ym in _all_tri_monomials(n - 1, d):
                y = TriElement.monomial(ym)
                for grid in _all_grids(p_arity - 1, n - 1, d):
                    a = RectElement.monomial(grid)
                    for i in range(1, p_arity + 1):
                        absorb(out_arity, diamond(r, i, y, a))

    arities = []
    for m in range(1, max_arity + 1):
        size = m - 1
        span = spans[m]
        n_mono = d ** n_triangle_entries(size)
        # graded split: project basis rows per multidegree, eliminate each
        per_block: dict[MultiDegree, _Span] = {}
        for elt in span.basis_elements(size):
            parts: dict[MultiDegree, dict] = {}
            for mono, c in elt.terms.items():
                parts.setdefault(multidegree_of(mono, d), {})[mono] = c
            for k, terms in parts.items():
                per_block.setdefault(k, _Span()).insert(TriElement(size, terms))
        block_ranks = tuple(
            (k, per_block[k].rank) for k in sorted(per_block, reverse=True)
        )
        graded_total = sum(r for _, r in block_ranks)
        if graded_total != span.rank:
            raise AssertionError(
                f"arity {m}: span is not graded ({graded_total} != {span.rank})"
            )
        arities.append(
            OracleArity(
                arity=m,
                n_monomials=n_mono,
                relation_rank=span.rank,
                quotient_dim=n_mono - span.rank,
                block_ranks=block_ranks,
            )
        )
    return OracleReport(d=d, max_arity=max_arity, arities=tuple(arities))
