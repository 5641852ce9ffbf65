"""Sparse matrices over Q or GF(p): exact rank, reduced echelon forms.

One engine lives here: pure-Python sparse elimination with a
Markowitz-style least-fill pivot chosen within the leftmost eligible
column.  Relation blocks have at most 6 nonzeros per row, so fill-in
dominates cost and least-fill pivoting keeps it small.  Elimination is
exact over every field and deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ResourceLimit, ShapeMismatch
from .fields import FieldSpec

# Prime-field matrices wider than this are refused; the streaming
# stretch path is the way to attack such blocks.
MAX_PRIME_COLUMNS = 50_000


@dataclass(frozen=True)
class RunLimits:
    """Resource guards for elimination.

    ``max_rational_cols``: rational elimination on wider matrices is
    refused; callers use a prime field instead, whose dimension
    upper-bounds the rational one.
    ``max_entries``: crude memory budget on stored nonzeros.
    """

    max_rational_cols: int = 10_000
    max_entries: int = 200_000_000


DEFAULT_LIMITS = RunLimits()


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix; rows are sorted adjacency lists.

    ``rows[i]`` is a tuple of (col, value) pairs with strictly increasing
    col and nonzero value.  Duplicate (row, col) insertions are an error,
    not a sum: relation assembly controls its own accumulation.
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


@dataclass(frozen=True)
class EchelonForm:
    """Reduced row-echelon data: rank, pivot columns, and the RREF rows.

    Pivot columns are strictly increasing; each pivot entry is 1 and is
    the only nonzero in its column among the reduced rows.  Rows are
    stored sparse, aligned with ``pivot_cols``.
    """

    n_cols: int
    field: FieldSpec
    pivot_cols: tuple[int, ...]
    reduced_rows: tuple[tuple[tuple[int, object], ...], ...]
    _pivot_index: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._pivot_index.update(
            {c: i for i, c in enumerate(self.pivot_cols)}
        )

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def non_pivot_cols(self) -> list[int]:
        pivots = set(self.pivot_cols)
        return [c for c in range(self.n_cols) if c not in pivots]

    def reduce_vector(self, vec: dict[int, object]) -> dict[int, object]:
        """Residual of ``vec`` modulo the row space; exact."""
        f = self.field
        out = {c: f.convert(v) for c, v in vec.items() if v != 0}
        for c in sorted(out):
            i = self._pivot_index.get(c)
            if i is None:
                continue
            coeff = out.get(c)
            if not coeff:
                continue
            for cc, vv in self.reduced_rows[i]:
                newv = f.sub(out.get(cc, f.zero()), f.mul(coeff, vv))
                if newv:
                    out[cc] = newv
                else:
                    out.pop(cc, None)
        return {c: v for c, v in out.items() if v}


def check_columns(n_cols: int, field: FieldSpec, limits: RunLimits) -> None:
    """Refuse elimination on ``n_cols`` columns over ``field`` if too wide."""
    if field.is_rational and n_cols > limits.max_rational_cols:
        raise ResourceLimit(
            f"rational elimination refused on {n_cols} columns "
            f"(limit {limits.max_rational_cols}); use prime fields"
        )
    if not field.is_rational and n_cols > MAX_PRIME_COLUMNS:
        raise ResourceLimit(
            f"prime-field elimination refused on {n_cols} columns "
            f"(limit {MAX_PRIME_COLUMNS}); use the streaming stretch path"
        )


def _check_limits(m: SparseMatrix, limits: RunLimits) -> None:
    check_columns(m.n_cols, m.field, limits)
    if m.n_entries > limits.max_entries:
        raise ResourceLimit(
            f"{m.n_entries} stored entries exceed budget {limits.max_entries}"
        )


def _sparse_eliminate(
    m: SparseMatrix, want_reduced: bool
) -> tuple[list[int], list[dict[int, object]]]:
    """Forward elimination; returns (pivot_cols, pivot_rows as dicts).

    Pivot choice: leftmost nonempty column, then the row of least fill
    (fewest nonzeros), ties broken by insertion order.  If
    ``want_reduced`` the pivot rows are fully back-substituted to RREF.
    """
    f = m.field
    rows: list[dict[int, object] | None] = [dict(r) for r in m.rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    heap = list(col_rows.keys())
    heapq.heapify(heap)

    pivot_cols: list[int] = []
    pivot_rows: list[dict[int, object]] = []

    while heap:
        c = heapq.heappop(heap)
        live = col_rows.get(c)
        if not live:
            continue
        pid = min(live, key=lambda i: (len(rows[i]), i))
        prow = rows[pid]
        rows[pid] = None
        for cc in prow:
            col_rows[cc].discard(pid)
        inv = f.inv(prow[c])
        if inv != f.one():
            prow = {cc: f.mul(inv, vv) for cc, vv in prow.items()}
        others = list(col_rows.get(c, ()))
        for i in others:
            row = rows[i]
            coeff = row[c]
            for cc, vv in prow.items():
                cur = row.get(cc)
                if cur is None:
                    nv = f.neg(f.mul(coeff, vv))
                    if nv:
                        row[cc] = nv
                        col_rows.setdefault(cc, set()).add(i)
                        if len(col_rows[cc]) == 1:
                            heapq.heappush(heap, cc)
                else:
                    nv = f.sub(cur, f.mul(coeff, vv))
                    if nv:
                        row[cc] = nv
                    else:
                        del row[cc]
                        col_rows[cc].discard(i)
        pivot_cols.append(c)
        pivot_rows.append(prow)

    if want_reduced:
        # Back-substitute: pivots were produced in increasing column order.
        pivot_of = {c: i for i, c in enumerate(pivot_cols)}
        for i in range(len(pivot_rows) - 1, -1, -1):
            row = pivot_rows[i]
            for c in sorted(cc for cc in row if cc in pivot_of and cc != pivot_cols[i]):
                j = pivot_of[c]
                if j <= i:
                    continue
                coeff = row.get(c)
                if not coeff:
                    continue
                for cc, vv in pivot_rows[j].items():
                    cur = row.get(cc, f.zero())
                    nv = f.sub(cur, f.mul(coeff, vv))
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
    return pivot_cols, pivot_rows


def rank_sparse(m: SparseMatrix, limits: RunLimits = DEFAULT_LIMITS) -> int:
    """Exact rank of ``m`` over its field; deterministic elimination."""
    _check_limits(m, limits)
    pivot_cols, _ = _sparse_eliminate(m, want_reduced=False)
    return len(pivot_cols)


def rref_sparse(m: SparseMatrix, limits: RunLimits = DEFAULT_LIMITS) -> EchelonForm:
    """Reduced row-echelon form of ``m``; row space preserved."""
    _check_limits(m, limits)
    pivot_cols, pivot_rows = _sparse_eliminate(m, want_reduced=True)
    return EchelonForm(
        n_cols=m.n_cols,
        field=m.field,
        pivot_cols=tuple(pivot_cols),
        reduced_rows=tuple(tuple(sorted(r.items())) for r in pivot_rows),
    )


# ---------------------------------------------------------------------------
# Text interchange format
#
# Header "R C M" (M = 0 means rational), one line "r c v" per entry with
# 1-based indices, terminator "0 0 0".  LF line endings, single spaces.


def _scalar_to_text(v) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def _scalar_from_text(s: str):
    if "/" in s:
        a, b = s.split("/")
        return Fraction(int(a), int(b))
    return int(s)


def write_matrix_text(m: SparseMatrix) -> str:
    modulus = 0 if m.field.is_rational else m.field.p
    lines = [f"{m.n_rows} {m.n_cols} {modulus}"]
    for r, c, v in m.iter_entries():
        lines.append(f"{r + 1} {c + 1} {_scalar_to_text(v)}")
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def read_matrix_text(text: str) -> SparseMatrix:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix file")
    n_rows, n_cols, modulus = (int(x) for x in lines[0].split())
    field = FieldSpec.rational() if modulus == 0 else FieldSpec.prime(modulus, allow_small=True)
    entries = []
    terminated = False
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln:
            continue
        r, c, v = ln.split()
        if r == "0" and c == "0" and v == "0":
            terminated = True
            break
        entries.append((int(r) - 1, int(c) - 1, _scalar_from_text(v)))
    if not terminated:
        raise ValueError("missing '0 0 0' terminator")
    return SparseMatrix.from_entries(n_rows, n_cols, field, entries)
