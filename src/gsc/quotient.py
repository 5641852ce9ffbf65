"""Quotient dimensions, block by block.

The quotient of the arity-(n+1) triangular space by the relation span
decomposes over multidegree blocks; each block's dimension is the
monomial count minus the rank of its relation matrix.  Blocks where some
letter count reaches the triangle side are dimension 0 outright (a
monomial with a letter repeated size-many times already lies in the
span); the shortcut can be disabled to verify the zeros by elimination.
Normal forms, bases and functional lifts are in :mod:`gsc.echelon`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cache import BlockCache, warn_ignored
from .errors import ResourceLimit
from .fields import FieldSpec
from .relations import assemble_relation_block
from .sparse import check_columns, rank_sparse
from .tensor import MultiDegree, count_block_monomials, multidegrees, n_triangle_entries
from .tensor import enumerate_block_monomials  # noqa: F401  unused here; perfbench/spans.py wraps this name


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
    certified: str = "exact"

    @property
    def pruned(self) -> bool:
        return self.certified == "pruned"

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
    """The quotient dimension at one arity and the blocks that sum to it."""

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
