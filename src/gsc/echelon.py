"""The echelon route: forward echelon forms and the normal forms they give.

:func:`echelon_sparse` is Markowitz elimination of the whole matrix in
leftmost-column order.  It shares no code with the union-find peel that
:func:`gsc.sparse.rank_sparse` runs first, so it is an independent route
to every rank.  Its forms give the quotient's normal forms and bases,
and the blocks' echelon forms are cached on disk next to their reports;
the functional lifts through the quotient live here too.  A rank run
needs none of this and never loads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .elements import TriElement
from .errors import NotTwoAlternating, ResourceLimit, ShapeMismatch
from .fields import FieldSpec
from .quotient import _MEM_CACHE, QuotientConfig, block_dimension, block_pruned
from .relations import assemble_relation_block, block_rows
from .sparse import SparseMatrix, _check_limits, _sparse_eliminate, check_columns
from .tensor import (
    MultiDegree,
    TriMonomial,
    count_block_monomials,
    enumerate_block_monomials,
    multidegree_of,
    multidegrees,
    n_triangle_entries,
)


@dataclass(frozen=True)
class EchelonForm:
    """Row-echelon data: rank, pivot columns, and one row per pivot.

    Pivot columns are strictly increasing and each row, stored sparse
    and aligned with ``pivot_cols``, begins at its pivot column, so it
    has no entry in any earlier pivot column.  Elimination gives integer
    rows over Q and rows with pivot 1 over GF(p); a reduced echelon form
    is an echelon form too, and gives the same normal forms.
    """

    n_cols: int
    field: FieldSpec
    pivot_cols: tuple[int, ...]
    rows: tuple[tuple[tuple[int, object], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def non_pivot_cols(self) -> list[int]:
        pivots = set(self.pivot_cols)
        return [c for c in range(self.n_cols) if c not in pivots]

    def reduce_vector(self, vec: dict[int, object]) -> dict[int, object]:
        """Residual of ``vec`` modulo the row space; exact.

        The pivots are walked in order, clearing each pivot column in
        turn; a row touches no earlier pivot column, so one pass leaves
        the unique vector on the non-pivot columns that is congruent to
        ``vec``.
        """
        f = self.field
        p = f.p
        out = {c: f.convert(v) for c, v in vec.items() if v != 0}
        for c, row in zip(self.pivot_cols, self.rows):
            a = out.get(c)
            if not a:
                continue
            v = row[0][1]
            t = a * pow(v, p - 2, p) % p if p else a / v
            for cc, vv in row:
                newv = f.sub(out.get(cc, 0), f.mul(t, vv))
                if newv:
                    out[cc] = newv
                else:
                    out.pop(cc, None)
        return {c: v for c, v in out.items() if v}


def echelon_sparse(m: SparseMatrix) -> EchelonForm:
    """Forward echelon form of ``m``; row space preserved."""
    _check_limits(m)
    pivot_cols, pivot_rows = _sparse_eliminate(m.rows, m.field.p)
    return EchelonForm(
        n_cols=m.n_cols,
        field=m.field,
        pivot_cols=tuple(pivot_cols),
        rows=tuple(tuple(sorted(r.items())) for r in pivot_rows),
    )


# ---------------------------------------------------------------------------
# Block echelon forms and normal forms


def block_echelon(
    n: int,
    k: MultiDegree,
    d: int,
    field: FieldSpec,
    config: QuotientConfig | None = None,
) -> EchelonForm:
    """Echelon form of a block's relation matrix (cached).

    A block too wide to eliminate is refused before it is assembled.
    """
    cfg = config or QuotientConfig()
    k = tuple(k)
    key = ("echelon", d, n, k, field)
    hit = _MEM_CACHE.get(key)
    if hit is not None:
        return hit
    cache = cfg.cache()
    ech = cache.load_echelon(d, n, k, field)
    if ech is None:
        try:
            check_columns(count_block_monomials(n, k))
            block = assemble_relation_block(n, k, d, field)
            ech = echelon_sparse(block.matrix)
        except ResourceLimit as exc:
            raise ResourceLimit(f"block n={n} k={k} over {field}: {exc}") from exc
        cache.store_echelon(d, n, k, field, ech)
    _MEM_CACHE.setdefault(key, ech)
    return ech


@dataclass(frozen=True)
class BlockReduction:
    k: MultiDegree
    coordinates: tuple[tuple[TriMonomial, object], ...]  # over non-pivot monomials
    pruned: bool

    @property
    def is_zero(self) -> bool:
        return not self.coordinates


@dataclass(frozen=True)
class ReduceResult:
    size: int
    blocks: tuple[BlockReduction, ...]

    @property
    def is_zero(self) -> bool:
        return all(b.is_zero for b in self.blocks)


def quotient_reduce(
    x: TriElement,
    d: int,
    field: FieldSpec,
    config: QuotientConfig | None = None,
) -> ReduceResult:
    """Normal form of x: per-block coordinates over non-pivot monomials.

    Splits x by multidegree; each component is reduced against the
    block's echelon form.  Blocks with a letter count >= size are zero
    outright (quotient dimension 0) unless shortcuts are disabled.
    """
    cfg = config or QuotientConfig()
    parts: dict[MultiDegree, dict[TriMonomial, object]] = {}
    for mono, coeff in x.terms.items():
        k = multidegree_of(mono, d)
        parts.setdefault(k, {})[mono] = coeff
    reductions = []
    for k in sorted(parts, reverse=True):
        component = parts[k]
        if block_pruned(x.size, k):
            if not cfg.no_shortcut:
                reductions.append(BlockReduction(k=k, coordinates=(), pruned=True))
                continue
            # verify rather than assume: a full-column-rank block reduces
            # everything to zero, established by elimination (rank only,
            # cheaper than materializing the echelon form)
            rep = block_dimension(x.size, k, d, field, config=cfg)
            if rep.dimension == 0:
                reductions.append(BlockReduction(k=k, coordinates=(), pruned=False))
                continue
        ech = block_echelon(x.size, k, d, field, cfg)
        monomials = enumerate_block_monomials(x.size, k)
        index = {m: c for c, m in enumerate(monomials)}
        vec = {index[m]: field.convert(c) for m, c in component.items()}
        residual = ech.reduce_vector(vec)
        coords = tuple(
            (monomials[c], residual[c]) for c in sorted(residual)
        )
        reductions.append(BlockReduction(k=k, coordinates=coords, pruned=False))
    return ReduceResult(size=x.size, blocks=tuple(reductions))


def quotient_basis(
    n: int,
    k: MultiDegree,
    d: int,
    field: FieldSpec,
    config: QuotientConfig | None = None,
) -> list[TriMonomial]:
    """The non-pivot monomials of a block, in canonical order."""
    ech = block_echelon(n, k, d, field, config)
    monomials = enumerate_block_monomials(n, k)
    return [monomials[c] for c in ech.non_pivot_cols()]


# ---------------------------------------------------------------------------
# Vanishing sampling


@dataclass(frozen=True)
class VanishingReport:
    n: int
    d: int
    samples: int
    failures: tuple[TriMonomial, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def repeated_letter_vanishing_check(
    n: int,
    d: int,
    samples: int,
    seed: int,
    field: FieldSpec | None = None,
    config: QuotientConfig | None = None,
) -> VanishingReport:
    """Monomials with some letter repeated >= n times reduce to zero.

    Samples such monomials of size n uniformly-ish and asserts the
    quotient normal form vanishes for each.
    """
    if n < 3:
        raise ValueError("size must be >= 3")
    field = field or FieldSpec.rational()
    cfg = config or QuotientConfig()
    rng = random.Random(seed)
    n_pos = n_triangle_entries(n)
    failures = []
    for _ in range(samples):
        letter = rng.randint(1, d)
        count = rng.randint(n, n_pos)
        slots = rng.sample(range(n_pos), count)
        entries = [0] * n_pos
        for s in slots:
            entries[s] = letter
        others = [v for v in range(1, d + 1) if v != letter]
        for t in range(n_pos):
            if entries[t] == 0:
                entries[t] = rng.choice(others) if others else letter
        mono = TriMonomial(n, tuple(entries))
        res = quotient_reduce(TriElement.monomial(mono), d, field, cfg)
        if not res.is_zero:
            failures.append(mono)
    return VanishingReport(n=n, d=d, samples=samples, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Universal-property lift


class LiftedFunctional:
    """A functional on quotient coordinates, induced by a functional on
    monomials that annihilates every relation row."""

    def __init__(self, phi, n, d, field):
        self._phi = phi
        self.n = n
        self.d = d
        self.field = field

    def value_on_monomial(self, m: TriMonomial):
        return self.field.convert(self._phi(m))

    def evaluate(self, x: TriElement):
        """Well-defined on the quotient: the lift composed with the
        projection agrees with the original functional."""
        if x.size != self.n:
            raise ShapeMismatch(f"element size {x.size} != functional size {self.n}")
        total = self.field.zero()
        for mono, coeff in x.terms.items():
            total = self.field.add(
                total,
                self.field.mul(self.field.convert(coeff), self.value_on_monomial(mono)),
            )
        return total


def lift_two_alternating(
    phi,
    n: int,
    d: int,
    field: FieldSpec,
) -> LiftedFunctional:
    """Lift a monomial functional through the quotient projection.

    ``phi`` maps size-n monomials to scalars.  Verifies that phi
    annihilates every relation row of every block; raises
    :class:`NotTwoAlternating` with the violating row otherwise.
    """
    for k in multidegrees(n_triangle_entries(n), d):
        monomials = enumerate_block_monomials(n, k)
        values = [field.convert(phi(m)) for m in monomials]
        for row in block_rows(n, k, d):
            total = field.zero()
            for c in row:
                total = field.add(total, values[c])
            if total != field.zero():
                raise NotTwoAlternating(
                    f"functional does not annihilate a relation row in block {k}",
                    row=tuple((monomials[c], 1) for c in row),
                )
    return LiftedFunctional(phi, n, d, field)
