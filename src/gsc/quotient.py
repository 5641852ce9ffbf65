"""Quotient dimensions, normal forms, and functional lifts.

The quotient of the arity-(n+1) triangular space by the relation span
decomposes over multidegree blocks; each block's dimension is the
monomial count minus the rank of its relation matrix.  Blocks where some
letter count reaches the triangle side are dimension 0 outright (a
monomial with a letter repeated size-many times already lies in the
span); the shortcut can be disabled to verify the zeros by elimination.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .cache import BlockCache, warn_ignored
from .errors import ResourceLimit, ShapeMismatch
from .fields import FieldSpec
from .relations import assemble_relation_block, block_rows
from .sparse import EchelonForm, check_columns, echelon_sparse, rank_sparse
from .tensor import (
    MultiDegree,
    TriElement,
    TriMonomial,
    count_block_monomials,
    enumerate_block_monomials,
    multidegree_of,
    multidegrees,
    n_triangle_entries,
)


@dataclass(frozen=True)
class BlockReport:
    """The unit of output: one multidegree block's dimension data.

    ``certified`` records how the number is known: "exact" (elimination
    over the requested field) or "pruned" (letter count reaches the size).
    """

    d: int
    n: int
    k: MultiDegree
    n_monomials: int
    n_rows: int
    rank: int
    dimension: int
    field: FieldSpec
    millis: int
    pruned: bool = False
    certified: str = "exact"

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "k": list(self.k),
            "monomials": self.n_monomials,
            "rows": self.n_rows,
            "rank": self.rank,
            "dimension": self.dimension,
            "field": self.field.short_name(),
            "millis": self.millis,
            "pruned": self.pruned,
            "certified": self.certified,
        }

    @staticmethod
    def from_json(obj: dict) -> "BlockReport":
        return BlockReport(
            d=obj["d"],
            n=obj["n"],
            k=tuple(obj["k"]),
            n_monomials=obj["monomials"],
            n_rows=obj["rows"],
            rank=obj["rank"],
            dimension=obj["dimension"],
            field=FieldSpec.parse(obj["field"]),
            millis=obj["millis"],
            pruned=obj["pruned"],
            certified=obj["certified"],
        )


@dataclass
class QuotientConfig:
    """Shared read-only configuration for block computations.

    Every block is eliminated over the requested field; blocks too wide
    to eliminate (``sparse.check_columns``) are refused before they are
    assembled.
    """

    cache_dir: object = None
    no_shortcut: bool = False

    def cache(self) -> BlockCache:
        return BlockCache(self.cache_dir)


_MEM_CACHE: dict = {}


def clear_memory_cache() -> None:
    _MEM_CACHE.clear()


def block_pruned(n: int, k: MultiDegree) -> bool:
    """Dimension is 0 whenever some letter count reaches the side length."""
    return n >= 3 and max(k) >= n if k else False


def _cached_report(cache: BlockCache, d, n, k, field, n_monomials) -> BlockReport | None:
    """The block's cached report if there is one, it is whole and it is this block's.

    A report that lacks a key, belongs to another block or field, or
    whose dimension is not its monomial count minus its rank is ignored
    with a message, so the block is computed again.
    """
    obj = cache.load_report(d, n, k, field)
    if obj is None:
        return None
    try:
        rep = BlockReport.from_json(obj)
        if (rep.d, rep.n, rep.k, rep.field, rep.n_monomials) != (d, n, k, field, n_monomials):
            reason = "the report of another block or field"
        elif rep.dimension != n_monomials - rep.rank:
            reason = "dimension is not monomials minus rank"
        else:
            return rep
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"malformed report ({type(exc).__name__}: {exc})"
    warn_ignored(cache.report_path(d, n, k, field), reason)
    return None


def block_dimension(
    n: int,
    k: MultiDegree,
    d: int,
    field: FieldSpec,
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> BlockReport:
    """Dimension of one multidegree block; cached by (d, n, k, field).

    ``variant`` is unused and must be 1, 2 or 3.  It stays only for
    callers that pass the retired generating-set number positionally
    before ``config``, as the benchmark's ``tables`` pass does.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    cfg = config or QuotientConfig()
    k = tuple(k)
    shortcut = not cfg.no_shortcut
    n_monomials = count_block_monomials(n, k)
    key = ("report", d, n, k, field, shortcut)
    hit = _MEM_CACHE.get(key)
    if hit is not None:
        return hit
    cache = cfg.cache()
    if shortcut:
        rep = _cached_report(cache, d, n, k, field, n_monomials)
        if rep is not None:
            _MEM_CACHE.setdefault(key, rep)
            return rep
    if shortcut and block_pruned(n, k):
        rep = BlockReport(
            d=d,
            n=n,
            k=k,
            n_monomials=n_monomials,
            n_rows=0,
            rank=n_monomials,
            dimension=0,
            field=field,
            millis=0,
            pruned=True,
            certified="pruned",
        )
    else:
        t0 = time.monotonic()
        try:
            check_columns(n_monomials)
            block = assemble_relation_block(n, k, d, field)
            rank = rank_sparse(block.matrix)
        except ResourceLimit as exc:
            raise ResourceLimit(f"block n={n} k={k} over {field}: {exc}") from exc
        millis = int((time.monotonic() - t0) * 1000)
        rep = BlockReport(
            d=d,
            n=n,
            k=k,
            n_monomials=n_monomials,
            n_rows=block.n_rows,
            rank=rank,
            dimension=n_monomials - rank,
            field=field,
            millis=millis,
        )
    _MEM_CACHE.setdefault(key, rep)
    if shortcut:
        cache.store_report(d, n, k, field, rep.to_json())
    return rep


@dataclass(frozen=True)
class ArityDimension:
    arity: int
    total: int
    blocks: tuple[BlockReport, ...]
    shortcut_zero: bool = False


def total_dimension(
    m: int,
    d: int,
    field: FieldSpec,
    config: QuotientConfig | None = None,
) -> ArityDimension:
    """Quotient dimension at arity m, with the per-block breakdown.

    Arity above 2d+1 returns 0 without computing unless the config
    disables shortcuts, in which case every block is eliminated and the
    zeros verified.
    """
    if m < 1:
        raise ValueError("arity must be >= 1")
    cfg = config or QuotientConfig()
    n = m - 1
    if m > 2 * d + 1 and not cfg.no_shortcut:
        return ArityDimension(arity=m, total=0, blocks=(), shortcut_zero=True)
    blocks = [
        block_dimension(n, k, d, field, config=cfg)
        for k in multidegrees(n_triangle_entries(n), d)
    ]
    return ArityDimension(
        arity=m, total=sum(b.dimension for b in blocks), blocks=tuple(blocks)
    )


# ---------------------------------------------------------------------------
# Echelon data and normal forms


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
    from .errors import NotTwoAlternating

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
