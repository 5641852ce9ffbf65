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
import threading
import time
from dataclasses import dataclass, field as dc_field

from .cache import BlockCache
from .errors import CharacteristicUnsupported, ResourceLimit, ShapeMismatch
from .fields import FieldSpec
from .relations import assemble_relation_block, block_rows
from .sparse import (
    DEFAULT_LIMITS,
    EchelonForm,
    RunLimits,
    check_columns,
    rank_sparse,
    rref_sparse,
)
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
    variant: int
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
            "variant": self.variant,
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
            variant=obj["variant"],
            millis=obj["millis"],
            pruned=obj.get("pruned", False),
            certified=obj.get("certified", "exact"),
        )


@dataclass
class QuotientConfig:
    """Shared read-only configuration for block computations.

    Every block is eliminated over the requested field; ``limits``
    refuses blocks too wide for that field before they are assembled.
    """

    variant: int = 3
    cache_dir: object = None
    limits: RunLimits = dc_field(default_factory=lambda: DEFAULT_LIMITS)
    no_shortcut: bool = False

    def cache(self) -> BlockCache:
        return BlockCache(self.cache_dir)


_MEM_CACHE: dict = {}
_MEM_LOCK = threading.Lock()


def _mem_get(key):
    with _MEM_LOCK:
        return _MEM_CACHE.get(key)


def _mem_put(key, value):
    with _MEM_LOCK:
        _MEM_CACHE.setdefault(key, value)


def clear_memory_cache() -> None:
    with _MEM_LOCK:
        _MEM_CACHE.clear()


def block_pruned(n: int, k: MultiDegree) -> bool:
    """Dimension is 0 whenever some letter count reaches the side length."""
    return n >= 3 and max(k) >= n if k else False


def block_dimension(
    n: int,
    k: MultiDegree,
    d: int,
    field: FieldSpec,
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> BlockReport:
    """Dimension of one multidegree block; cached by (d,n,k,field,variant)."""
    cfg = config or QuotientConfig(variant=variant)
    k = tuple(k)
    shortcut = not cfg.no_shortcut
    n_monomials = count_block_monomials(n, k)
    key = ("report", d, n, k, field, variant, shortcut)
    hit = _mem_get(key)
    if hit is not None:
        return hit
    cache = cfg.cache()
    if shortcut:
        obj = cache.load_report(d, n, k, field, variant)
        if obj is not None:
            rep = BlockReport.from_json(obj)
            _mem_put(key, rep)
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
            variant=variant,
            millis=0,
            pruned=True,
            certified="pruned",
        )
    else:
        t0 = time.monotonic()
        try:
            check_columns(n_monomials, field, cfg.limits)
            block = assemble_relation_block(n, k, d, field, variant)
            rank = rank_sparse(block.matrix, cfg.limits)
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
            variant=variant,
            millis=millis,
        )
    _mem_put(key, rep)
    if shortcut:
        cache.store_report(d, n, k, field, variant, rep.to_json())
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
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> ArityDimension:
    """Quotient dimension at arity m, with the per-block breakdown.

    Arity above 2d+1 returns 0 without computing unless the config
    disables shortcuts, in which case every block is eliminated and the
    zeros verified.
    """
    if m < 1:
        raise ValueError("arity must be >= 1")
    cfg = config or QuotientConfig(variant=variant)
    n = m - 1
    if m > 2 * d + 1 and not cfg.no_shortcut:
        return ArityDimension(arity=m, total=0, blocks=(), shortcut_zero=True)
    blocks = [
        block_dimension(n, k, d, field, variant, cfg)
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
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> EchelonForm:
    """Reduced echelon form of a block's relation matrix (cached)."""
    cfg = config or QuotientConfig(variant=variant)
    k = tuple(k)
    key = ("echelon", d, n, k, field, variant)
    hit = _mem_get(key)
    if hit is not None:
        return hit
    cache = cfg.cache()
    ech = cache.load_echelon(d, n, k, field, variant)
    if ech is None:
        block = assemble_relation_block(n, k, d, field, variant)
        ech = rref_sparse(block.matrix, cfg.limits)
        cache.store_echelon(d, n, k, field, variant, ech)
    _mem_put(key, ech)
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
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> ReduceResult:
    """Normal form of x: per-block coordinates over non-pivot monomials.

    Splits x by multidegree; each component is reduced against the
    block's echelon form.  Blocks with a letter count >= size are zero
    outright (quotient dimension 0) unless shortcuts are disabled.
    """
    cfg = config or QuotientConfig(variant=variant)
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
            rep = block_dimension(x.size, k, d, field, variant, cfg)
            if rep.dimension == 0:
                reductions.append(BlockReduction(k=k, coordinates=(), pruned=False))
                continue
        ech = block_echelon(x.size, k, d, field, variant, cfg)
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
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> list[TriMonomial]:
    """The non-pivot monomials of a block, in canonical order."""
    ech = block_echelon(n, k, d, field, variant, config)
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
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> VanishingReport:
    """Monomials with some letter repeated >= n times reduce to zero.

    Samples such monomials of size n uniformly-ish and asserts the
    quotient normal form vanishes for each.
    """
    if n < 3:
        raise ValueError("size must be >= 3")
    field = field or FieldSpec.rational()
    cfg = config or QuotientConfig(variant=variant)
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
        res = quotient_reduce(TriElement.monomial(mono), d, field, variant, cfg)
        if not res.is_zero:
            failures.append(mono)
    return VanishingReport(n=n, d=d, samples=samples, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Variant comparison


@dataclass(frozen=True)
class VariantComparison:
    n: int
    d: int
    field: FieldSpec
    per_block: tuple[tuple[MultiDegree, bool, tuple[int, int, int] | None], ...]
    # (k, identical_row_sets, ranks per variant when sets differ)

    @property
    def all_equal(self) -> bool:
        return all(
            identical or (ranks is not None and ranks[0] == ranks[1] == ranks[2])
            for _, identical, ranks in self.per_block
        )


def variant_span_equal(
    n: int,
    d: int,
    field: FieldSpec,
    config: QuotientConfig | None = None,
) -> VariantComparison:
    """Compare the three generating variants' row spaces per block.

    The polarized variants coincide row-for-row (see relations); a block
    whose deduplicated row sets are literally equal has equal ranks over
    any field with no elimination needed.  If the sets ever differ, each
    variant is eliminated and the ranks compared.  Refused over
    characteristic 2 and 3.
    """
    if field.characteristic in (2, 3):
        raise CharacteristicUnsupported(
            f"variant comparison needs characteristic not 2 or 3, got {field}"
        )
    cfg = config or QuotientConfig()
    results = []
    for k in multidegrees(n_triangle_entries(n), d):
        row_sets = [set(block_rows(n, k, d, v, field)) for v in (1, 2, 3)]
        identical = row_sets[0] == row_sets[1] == row_sets[2]
        if identical:
            ranks = None
        else:
            ranks = tuple(
                rank_sparse(
                    assemble_relation_block(n, k, d, field, v).matrix, cfg.limits
                )
                for v in (1, 2, 3)
            )
        results.append((k, identical, ranks))
    return VariantComparison(n=n, d=d, field=field, per_block=tuple(results))


# ---------------------------------------------------------------------------
# Universal-property lift


class LiftedFunctional:
    """A functional on quotient coordinates, induced by a functional on
    monomials that annihilates every relation row."""

    def __init__(self, phi, n, d, field, variant, config):
        self._phi = phi
        self.n = n
        self.d = d
        self.field = field
        self._variant = variant
        self._config = config

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

    def basis_values(self, k: MultiDegree):
        """Values on the block's quotient basis (non-pivot monomials)."""
        basis = quotient_basis(self.n, k, self.d, self.field, self._variant, self._config)
        return [(m, self.value_on_monomial(m)) for m in basis]


def lift_two_alternating(
    phi,
    n: int,
    d: int,
    field: FieldSpec,
    variant: int = 3,
    config: QuotientConfig | None = None,
) -> LiftedFunctional:
    """Lift a monomial functional through the quotient projection.

    ``phi`` maps size-n monomials to scalars.  Verifies that phi
    annihilates every relation row of every block; raises
    :class:`NotTwoAlternating` with the violating row otherwise.
    """
    from .errors import NotTwoAlternating

    cfg = config or QuotientConfig(variant=variant)
    for k in multidegrees(n_triangle_entries(n), d):
        monomials = enumerate_block_monomials(n, k)
        values = [field.convert(phi(m)) for m in monomials]
        for row in block_rows(n, k, d, variant, field):
            total = field.zero()
            for c in row:
                total = field.add(total, values[c])
            if total != field.zero():
                raise NotTwoAlternating(
                    f"functional does not annihilate a relation row in block {k}",
                    row=tuple((monomials[c], 1) for c in row),
                )
    return LiftedFunctional(phi, n, d, field, variant, cfg)
