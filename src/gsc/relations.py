"""Relation rows spanning the ideal that generalizes the exterior algebra.

The ideal is generated in arity 4 by triangles carrying one vector in
all three positions; closing under diamond insertions places such a
triangle on an arbitrary index triple i < j < k with arbitrary monomial
fill around it.  The degree-n component is therefore modeled as the span
of rows indexed by (triple, occupant multiset, fill): each row sums, with
coefficient 1, the distinct arrangements of the occupant multiset over
the three triangle positions, all other positions frozen to the fill.
This explicit model is a design commitment; the closure property test
and the saturation oracle justify it rather than assume it.

The cubic, three-term and six-term generator families all span these
rows in arity 4 (criterion 9 checks it by rank over Q and GF(5)).  The
row of a multiset with a repeated letter is a generator divided by 2 or
6, so the model equals the ideal only when 2 and 3 are invertible.  The
rows themselves are integer data, the same for every field; the refusal
of characteristic 2 and 3 lives in :meth:`FieldSpec.prime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, repeat
from typing import Collection, Iterator

import numpy as np

from .errors import DegreeMismatch
from .fields import FieldSpec
from .sparse import SparseMatrix
from .tensor import (
    MultiDegree,
    TriMonomial,
    _triangle_offset,
    _words_with_counts,
    check_multidegree,
    enumerate_block_monomials,
    multidegrees,
    n_triangle_entries,
    rank_words_in_block,
    triangle_positions,
    word_array,
)

Row = tuple[int, ...]  # sorted column indices, all coefficients 1


@dataclass(frozen=True)
class TriangleRelation:
    """One relation row before flattening: where, what, and the context.

    ``triple`` is the strictly increasing index triple carrying the
    occupants; ``occupants`` the multiset (sorted 3-tuple) of basis
    indices placed on its three positions; ``fill`` assigns a basis index
    to every position outside the triple's triangle.
    """

    size: int
    triple: tuple[int, int, int]
    occupants: tuple[int, int, int]
    fill: tuple[tuple[tuple[int, int], int], ...]

    def triangle_slots(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        i, j, k = self.triple
        return ((i, j), (i, k), (j, k))

    def monomials(self) -> tuple[TriMonomial, ...]:
        """The distinct arrangements (1, 3, or 6 of them), sorted."""
        base = dict(self.fill)
        slots = self.triangle_slots()
        out = set()
        for arrangement in set(permutations(self.occupants)):
            entries = dict(base)
            for slot, v in zip(slots, arrangement):
                entries[slot] = v
            out.add(TriMonomial.from_dict(self.size, entries))
        return tuple(sorted(out))


def _occupant_multisets(d: int) -> list[tuple[int, int, int]]:
    """Every occupant multiset of the triangle, lexicographically."""
    return list(combinations_with_replacement(range(1, d + 1), 3))


def _fill_counts(k: MultiDegree, occ: tuple[int, int, int]) -> list[int] | None:
    """Letter counts left for the fill once ``occ`` is placed, or None."""
    remaining = list(k)
    for v in occ:
        remaining[v - 1] -= 1
        if remaining[v - 1] < 0:
            return None
    return remaining


def _triangle_relations(size: int, k: MultiDegree, d: int) -> Iterator[TriangleRelation]:
    """Every relation of one valid block as an object: the reference model.

    Order: triples lexicographically, occupant multisets lexicographically,
    fills lexicographically.
    """
    all_pos = triangle_positions(size)
    for triple in combinations(range(1, size + 1), 3):
        i, j, kk = triple
        tri_slots = {(i, j), (i, kk), (j, kk)}
        rest = [p for p in all_pos if p not in tri_slots]
        for occ in _occupant_multisets(d):
            remaining = _fill_counts(k, occ)
            if remaining is None:
                continue
            for fill_word in _words_with_counts(remaining):
                yield TriangleRelation(
                    size, triple, occ, tuple(zip(rest, fill_word))
                )


def _check_block(size: int, k: MultiDegree, d: int) -> None:
    if len(k) != d:
        raise DegreeMismatch(f"multidegree {k} has {len(k)} letters, not d = {d}")
    check_multidegree(size, k)


def iter_block_relations(
    size: int,
    k: MultiDegree,
    d: int,
    occupants: Collection[tuple[int, int, int]] | None = None,
    dead: np.ndarray | None = None,
) -> Iterator[Row]:
    """All relation rows of one multidegree block, deterministically.

    Each row is the sorted tuple of its column indices, a column being a
    monomial's rank in the block's canonical (lex) order.  Order:
    triples lexicographically, occupant multisets lexicographically,
    fills lexicographically -- the order of the :class:`TriangleRelation`
    model, whose ``monomials()`` ranked and sorted give the same rows.

    Per (triple, multiset) the fill words are scattered into one integer
    array with each arrangement of the occupants and ranked in a single
    vectorized call; the fill words depend only on the letters left, so
    they are built once per multiset.

    ``occupants``, a collection of occupant multisets, restricts the rows
    to those multisets, in the same order.  ``dead``, a ``uint8`` array
    over the block's columns, drops every row whose columns are all
    marked; it is read at each (triple, multiset) batch, so marks set
    while earlier rows are consumed take effect at the next batch.
    """
    _check_block(size, k, d)
    if size < 3:
        return
    k = tuple(k)
    n_pos = n_triangle_entries(size)
    fills = {}  # occupant multiset -> its fill words, one per array row
    for occ in _occupant_multisets(d):
        remaining = _fill_counts(k, occ)
        if remaining is not None and (occupants is None or occ in occupants):
            fills[occ] = word_array(remaining)
    for i, j, kk in combinations(range(1, size + 1), 3):
        slots = [_triangle_offset(size, *p) for p in ((i, j), (i, kk), (j, kk))]
        rest = [t for t in range(n_pos) if t not in slots]
        for occ, fill in fills.items():
            words = np.empty((len(fill), n_pos), dtype=np.int64)
            words[:, rest] = fill
            columns = []
            for arrangement in set(permutations(occ)):
                words[:, slots] = arrangement
                columns.append(rank_words_in_block(words, k))
            # one array row per arrangement; sorting down each column
            # sorts each relation's column indices
            rows = np.sort(np.stack(columns), axis=0)
            if dead is not None:
                rows = rows[:, ~dead[rows].all(axis=0)]
            rows = rows.tolist()
            del words, columns  # free the batch while its rows are consumed
            yield from zip(*rows)


def relation_generators(n: int, d: int) -> list[TriangleRelation]:
    """Every triangle relation of size n, across all multidegree blocks."""
    out: list[TriangleRelation] = []
    if n < 3:
        return out
    for k in multidegrees(n_triangle_entries(n), d):
        out.extend(_triangle_relations(n, k, d))
    return out


@dataclass(frozen=True)
class RelationBlock:
    """One multidegree block's relation matrix, columns in monomial order."""

    n: int
    k: MultiDegree
    d: int
    monomials: tuple[TriMonomial, ...]
    matrix: SparseMatrix

    @property
    def n_rows(self) -> int:
        return self.matrix.n_rows

    @property
    def n_monomials(self) -> int:
        return self.matrix.n_cols


def block_rows(size: int, k: MultiDegree, d: int) -> list[Row]:
    """Deduplicated relation rows of one block, in first-seen order."""
    return list(dict.fromkeys(iter_block_relations(size, k, d)))


def assemble_relation_block(n: int, k: MultiDegree, d: int, field: FieldSpec) -> RelationBlock:
    """Build the block's sparse matrix over ``field``.

    Rows are deduplicated; columns follow the canonical monomial order;
    the construction is deterministic for fixed inputs.
    """
    monomials = enumerate_block_monomials(n, tuple(k))
    rows = block_rows(n, tuple(k), d)
    # rows are sorted and duplicate-free, as SparseMatrix requires; every
    # entry is the int 1, the unit of every field (over Q too)
    matrix = SparseMatrix(
        len(rows), len(monomials), field, tuple(tuple(zip(row, repeat(1))) for row in rows)
    )
    return RelationBlock(
        n=n,
        k=tuple(k),
        d=d,
        monomials=tuple(monomials),
        matrix=matrix,
    )


def block_row_count(size: int, k: MultiDegree, d: int) -> int:
    """Number of raw (pre-dedup) relations in a block, by counting fills."""
    _check_block(size, k, d)
    if size < 3:
        return 0
    import math

    n_pos = n_triangle_entries(size)
    n_triples = math.comb(size, 3)
    total = 0
    for occ in _occupant_multisets(d):
        remaining = _fill_counts(k, occ)
        if remaining is None:
            continue
        fills = math.factorial(n_pos - 3)
        for x in remaining:
            fills //= math.factorial(x)
        total += fills
    return total * n_triples
