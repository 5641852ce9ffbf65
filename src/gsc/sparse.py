"""Sparse matrices over Q or GF(p): exact rank and echelon forms.

The rank engine runs in two stages.  A signed union-find first peels
the rows, shortest first, to a fixed point: a row with one surviving
term kills its column class and a row with two identifies two classes
up to a scale.  These are the unit and binomial pivots of structured
Gaussian elimination, and they cause no fill-in at all.  The rows that
survive, over the live classes, form a core, whose rank comes from
pure-Python sparse elimination with a Markowitz-style least-fill pivot
chosen within the leftmost eligible column.  The open block's stretch
run streams its rows through the same union-find and ranks its core
through the same helper.

The forward echelon form, which gives the normal forms, lives in
:mod:`gsc.echelon`: pure Markowitz elimination of the whole matrix,
which shares no code with the peel and is an independent route to the
same rank, so a rank run never loads it.  Elimination is
exact over every field and deterministic, and one loop serves Q and
GF(p).  Over Q it is fraction-free (Bareiss): rows enter as primitive
integer rows (relation rows arrive as the int 1, the unit of every
field, and enter unchanged) and a unit pivot costs one int subtraction
per entry.  Over GF(p) every pivot row is scaled to 1, so every pivot
takes that unit path, and new and updated entries are reduced mod p.
Relation blocks pivot almost only on units, ±1 over Q, so ``divmod``
and rescaling are left to the rare other pivot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import ResourceLimit, ShapeMismatch
from .fields import FieldSpec

# Matrices wider than this are refused over every field (elimination
# over Q is fraction-free and costs what GF(p) does); the streaming
# stretch path is the way to attack such blocks.
MAX_COLUMNS = 50_000
# Memory budget of the dict-row engine, which stores roughly 100 bytes
# per nonzero: a matrix (or a stretch core) with more entries is refused
# before elimination, since fill-in only adds to it.
MAX_ENTRIES = 120_000_000


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix; rows are sorted adjacency lists.

    ``rows[i]`` is a tuple of (col, value) pairs with strictly increasing
    col and nonzero value.  Duplicate (row, col) insertions are an error,
    not a sum: relation assembly controls its own accumulation.  Values
    are field scalars (``Fraction`` over Q, ints in ``range(p)`` over
    GF(p)) or the int 1, the unit of every field, which relation assembly
    stores over Q too; elimination takes int rows over Q as they are.
    """

    n_rows: int
    n_cols: int
    field: FieldSpec
    rows: tuple[tuple[tuple[int, object], ...], ...]

    @staticmethod
    def from_entries(
        n_rows: int,
        n_cols: int,
        field: FieldSpec,
        entries: Iterable[tuple[int, int, object]],
    ) -> "SparseMatrix":
        buckets: list[dict[int, object]] = [dict() for _ in range(n_rows)]
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ShapeMismatch(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
            row = buckets[r]
            if c in row:
                raise ValueError(f"duplicate entry at ({r},{c})")
            v = field.convert(v)
            if v != 0:
                row[c] = v
        return SparseMatrix(
            n_rows,
            n_cols,
            field,
            tuple(tuple(sorted(row.items())) for row in buckets),
        )

    @staticmethod
    def from_dense(data: list[list], field: FieldSpec) -> "SparseMatrix":
        n_rows = len(data)
        n_cols = len(data[0]) if data else 0
        entries = [
            (i, j, v)
            for i, row in enumerate(data)
            for j, v in enumerate(row)
            if v != 0
        ]
        return SparseMatrix.from_entries(n_rows, n_cols, field, entries)

    @property
    def n_entries(self) -> int:
        return sum(len(r) for r in self.rows)

    def iter_entries(self) -> Iterator[tuple[int, int, object]]:
        for i, row in enumerate(self.rows):
            for c, v in row:
                yield i, c, v


def check_columns(n_cols: int) -> None:
    """Refuse elimination on ``n_cols`` columns if too wide."""
    if n_cols > MAX_COLUMNS:
        raise ResourceLimit(
            f"elimination refused on {n_cols} columns "
            f"(limit {MAX_COLUMNS}); use the streaming stretch path"
        )


def _check_limits(m: SparseMatrix) -> None:
    check_columns(m.n_cols)
    if m.n_entries > MAX_ENTRIES:
        raise ResourceLimit(f"{m.n_entries} stored entries exceed budget {MAX_ENTRIES}")


def _primitive_row(row) -> dict[int, int]:
    """A row over Q as a primitive integer row spanning the same line.

    A row of ints is only divided by its content; a row holding a
    ``Fraction`` is first scaled by the lcm of its denominators.  A row
    of unit entries, such as every relation row, is unchanged.
    """
    ints = dict(row)
    try:
        g = gcd(*ints.values())
    except TypeError:  # a Fraction entry: clear the denominators first
        den = 1
        for v in ints.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        ints = {c: v.numerator * (den // v.denominator) for c, v in ints.items()}
        g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()} if g > 1 else ints


def _sparse_eliminate(rows, p: int | None) -> tuple[list[int], list[dict[int, object]]]:
    """Forward elimination of ``rows`` over Q (``p`` None) or GF(p).

    ``rows`` holds rows of (column, value) pairs; returns (pivot_cols,
    pivot_rows as dicts).  Pivot choice: leftmost nonempty column, then
    the row of least fill (fewest nonzeros), ties broken by row index.

    One loop serves both fields.  Over Q every row enters as a primitive
    integer row and elimination is fraction-free: against pivot value
    ``v``, a row with entry ``a`` becomes ``(v/g)*row - (a/g)*prow`` for
    ``g = gcd(a, v)``, a plain subtraction when ``v`` divides ``a``, and a
    row that was scaled is divided by its content.  Each row stays a
    nonzero multiple of its rational counterpart, so the fill, the pivots
    and the rank are those of rational elimination.  Over GF(p) the pivot
    row is scaled to pivot 1 and every new or updated entry is reduced
    mod p.

    Relation rows are all 1, so nearly every pivot is a unit: ±1 over Q,
    and always 1 over GF(p).  A unit pivot needs no ``divmod`` and no
    rescaling: a row with entry ``a`` subtracts ``(a*v)*prow``.  The pivot
    column is taken out of the pivot row once, and each row below drops
    its entry there before the rest is subtracted.
    """
    rows = [_primitive_row(r) for r in rows] if p is None else [dict(r) for r in rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    heap = list(col_rows.keys())
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    pivot_cols: list[int] = []
    pivot_rows: list[dict[int, object]] = []

    while heap:
        c = heappop(heap)
        live = col_rows[c]
        if not live:
            continue
        if len(live) == 1:
            pid = next(iter(live))
        else:  # the least index among the shortest live rows
            lens = list(map(len, map(rows.__getitem__, live)))
            pid = min(compress(live, map(min(lens).__eq__, lens)))
        prow = rows[pid]
        rows[pid] = None
        for cc in prow:
            col_rows[cc].discard(pid)
        v = prow[c]
        if p and v != 1:
            inv = pow(v, p - 2, p)
            prow = {cc: inv * vv % p for cc, vv in prow.items()}
            v = 1
        pivot_cols.append(c)
        pivot_rows.append(prow)
        # the rest of the pivot row, with each column's live row set
        rest = [(cc, vv, col_rows[cc]) for cc, vv in prow.items() if cc != c]
        unit = v == 1 or v == -1
        for i in live:
            row = rows[i]
            a = row.pop(c)
            if unit:
                t, r = a * v, 0
            else:
                t, r = divmod(a, v)
                if r:  # v does not divide a: scale the row first
                    g = gcd(a, v)
                    scale, t = abs(v) // g, (a if v > 0 else -a) // g
                    for cc in row:
                        row[cc] *= scale
            for cc, vv, s in rest:
                cur = row.get(cc)
                if cur is None:
                    row[cc] = -t * vv % p if p else -t * vv
                    if not s:  # an emptied column is queued again
                        heappush(heap, cc)
                    s.add(i)
                else:
                    nv = (cur - t * vv) % p if p else cur - t * vv
                    if nv:
                        row[cc] = nv
                    else:
                        del row[cc]
                        s.discard(i)
            if r:
                g = gcd(*row.values())
                if g > 1:
                    for cc in row:
                        row[cc] //= g
        live.clear()

    return pivot_cols, pivot_rows


class _SignedUnionFind:
    """Column classes with unit multipliers: value(c) = scale(c) * value(root).

    ``scale[c]`` is relative to ``parent[c]``; path compression rewrites
    it to be relative to the root.  ``p`` of None runs the same structure
    over the rationals, exactly: a scale is an int when the division that
    makes it is exact and a ``Fraction`` only when it is not.  On every
    block the tests run all scales are +-1, so the stash and the core
    hold ints and the core goes straight into the integer engine.

    ``dead[c]`` is set only on a root (:meth:`kill`), and :meth:`merge`
    joins only live roots, so a dead column stays a dead root: a row of
    dead columns reduces to nothing and changes no class, which lets
    the stretch drop such rows unread.
    """

    __slots__ = ("p", "parent", "scale", "dead", "merges", "deaths")

    def __init__(self, p: int | None, n: int):
        self.p = p
        self.parent = list(range(n))
        self.scale = [1] * n
        self.dead = bytearray(n)
        self.merges = 0
        self.deaths = 0

    def find(self, c: int) -> tuple[int, object]:
        parent = self.parent
        scale = self.scale
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        root = c
        # compress from the shallow end: after the loop every path node
        # points at the root with its cumulative multiplier
        p_mod = self.p
        cum = 1
        for node in reversed(path):
            cum = scale[node] * cum if p_mod is None else scale[node] * cum % p_mod
            parent[node] = root
            scale[node] = cum
        return root, cum

    def kill(self, root: int) -> None:
        if not self.dead[root]:
            self.dead[root] = 1
            self.deaths += 1

    def merge(self, r1: int, v1, r2: int, v2) -> None:
        """Impose v1*x1 + v2*x2 = 0 on live roots r1 != r2."""
        p = self.p
        # attach r1 under r2: x1 = (-v2/v1) x2
        self.parent[r1] = r2
        if p is None:
            q, r = divmod(-v2, v1)
            self.scale[r1] = Fraction(-v2, v1) if r else q
        else:
            self.scale[r1] = -v2 * pow(v1, p - 2, p) % p
        self.merges += 1

    # The two reducers read a column's class in at most two list reads: a
    # root is its own class with scale 1 (a root's scale is never
    # rewritten), and a column whose parent is a root already holds its
    # scale relative to that root, exactly what find would write back.
    # Only a deeper chain pays for find and its compression.

    def reduce_row_items(self, items) -> list[tuple[int, object]]:
        """Map (column, coeff) pairs through classes; drop dead, combine."""
        p, parent, scale, dead, find = self.p, self.parent, self.scale, self.dead, self.find
        acc: dict[int, object] = {}
        for c, coeff in items:
            root = parent[c]
            if root == c:
                s = 1
            elif parent[root] == root:
                s = scale[c]
            else:
                root, s = find(c)
            if dead[root]:
                continue
            v = acc.get(root, 0) + coeff * s
            acc[root] = v if p is None else v % p
        return [t for t in sorted(acc.items()) if t[1]]

    def reduce_row(self, cols) -> list[tuple[int, object]]:
        """Unit-coefficient column tuple, mapped through the classes."""
        p, parent, scale, dead, find = self.p, self.parent, self.scale, self.dead, self.find
        acc: dict[int, object] = {}
        for c in cols:
            root = parent[c]
            if root == c:
                s = 1
            elif parent[root] == root:
                s = scale[c]
            else:
                root, s = find(c)
            if dead[root]:
                continue
            v = acc.get(root, 0) + s
            acc[root] = v if p is None else v % p
        return [t for t in sorted(acc.items()) if t[1]]

    def absorb(self, items) -> bool:
        """Use a reduced row as a unit/binomial pivot if short enough.

        Returns True if consumed (length 0, 1 or 2), False if it belongs
        in the core.
        """
        n = len(items)
        if n == 2:
            (r1, v1), (r2, v2) = items
            self.merge(r1, v1, r2, v2)
        elif n == 1:
            self.kill(items[0][0])
        return n <= 2

    def sweep(self, rows, reduce, progress=None) -> tuple[set, int]:
        """Reduce each row with ``reduce`` and absorb it, or stash it.

        Returns the stashed rows and the number of rows read; with
        ``progress`` a line is reported every million rows.
        """
        stash: set = set()
        absorb, stash_add = self.absorb, stash.add
        count = 0
        for count, row in enumerate(rows, 1):
            items = reduce(row)
            if not absorb(items):
                stash_add(tuple(items))
            if progress and not count % 1_000_000:
                progress(
                    f"stream: {count} rows, merges {self.merges}, "
                    f"deaths {self.deaths}, stash {len(stash)}"
                )
        return stash, count


def _peel(uf: _SignedUnionFind, stash: list, progress=None) -> None:
    """Re-peel ``stash`` through ``uf`` to a fixed point, in place.

    Each sweep reduces every stashed row over the current classes and
    absorbs it or stashes it again, and the sorted rows left replace
    the list's contents, so the rows of the sweep before are freed;
    sweeps repeat until one adds no pivot, with a line through
    ``progress`` after each.
    """
    sweep = 0
    while True:
        sweep += 1
        before = uf.merges + uf.deaths
        stash_set, _ = uf.sweep(stash, uf.reduce_row_items)
        stash[:] = sorted(stash_set)
        changed = uf.merges + uf.deaths - before
        if progress:
            progress(f"peel sweep {sweep}: +{changed} pivots, stash {len(stash)}")
        if not changed:
            return


def _core_rank(stash: list, field: FieldSpec, progress=None) -> int:
    """Rank of what the peel left: the rows of ``stash`` over the live roots.

    The peel's last sweep adds no pivot, so every row it stashed is
    already reduced over the final classes, and the core is eliminated in
    one call to :func:`_sparse_eliminate`, on the roots as its columns.
    A core of more than ``MAX_ENTRIES`` entries is refused before
    elimination.
    """
    entries = sum(map(len, stash))
    if entries > MAX_ENTRIES:
        raise ResourceLimit(f"core exceeds the memory budget ({entries} entries, limit {MAX_ENTRIES})")
    rank = len(_sparse_eliminate(stash, field.p)[0])
    if progress:
        roots = {c for row in stash for c, _ in row}
        progress(f"core: {len(stash)} rows on {len(roots)} classes, rank {rank}")
    return rank


def rank_sparse(m: SparseMatrix) -> int:
    """Exact rank of ``m`` over its field; deterministic elimination.

    The rows, shortest first, are peeled to a fixed point by the signed
    union-find, and only the core that survives goes through Markowitz
    elimination: rank = merges + deaths + core rank.  Relation rows are
    short unit rows, so most pivots are taken with no fill at all.
    """
    _check_limits(m)
    uf = _SignedUnionFind(m.field.p, m.n_cols)
    stash = sorted(uf.sweep(sorted(m.rows, key=len), uf.reduce_row_items)[0])
    _peel(uf, stash)
    return uf.merges + uf.deaths + _core_rank(stash, m.field)
