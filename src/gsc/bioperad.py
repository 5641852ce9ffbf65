"""The grid bioperad: row insertion, column insertion, transpose.

Components are spanned by (m-1) x (n-1) grids of basis indices.  Row
insertion splices the second grid's rows in before row i of the first
(both grids must agree on column count); column insertion is the mirror
image; transpose exchanges the two structures.  The law checker verifies
both operad structures, the interchange law, and the transpose laws, all
by exact element equality.
"""

from __future__ import annotations

import random
from .classical import LawReport, OperadModel, check_operad_axioms, random_terms
from .errors import BadPosition, ShapeMismatch
from .elements import RectElement, RectMonomial, _merge_terms


def _splice_rows(a: RectMonomial, i: int, c: RectMonomial) -> RectMonomial:
    w = a.cols
    rows_a = [a.entries[r * w : (r + 1) * w] for r in range(a.rows)]
    rows_c = [c.entries[r * w : (r + 1) * w] for r in range(c.rows)]
    spliced = rows_a[: i - 1] + rows_c + rows_a[i - 1 :]
    return RectMonomial(a.rows + c.rows, w, tuple(v for row in spliced for v in row))


def row_compose(a: RectElement, i: int, c: RectElement) -> RectElement:
    """Splice c's rows between rows i-1 and i of a; bilinear."""
    if a.cols != c.cols:
        raise ShapeMismatch(f"column counts differ: {a.cols} vs {c.cols}")
    if not 1 <= i <= a.rows + 1:
        raise BadPosition(f"row slot {i} not in 1..{a.rows + 1}")
    out = {}
    for ma, ca in a.terms.items():
        for mc, cc in c.terms.items():
            _merge_terms(out, [(_splice_rows(ma, i, mc), ca * cc)])
    return RectElement(a.rows + c.rows, a.cols, out)


def _splice_cols(a: RectMonomial, i: int, b: RectMonomial) -> RectMonomial:
    cols = a.cols + b.cols
    entries = []
    for r in range(a.rows):
        row_a = a.entries[r * a.cols : (r + 1) * a.cols]
        row_b = b.entries[r * b.cols : (r + 1) * b.cols]
        entries.extend(row_a[: i - 1] + row_b + row_a[i - 1 :])
    return RectMonomial(a.rows, cols, tuple(entries))


def col_compose(a: RectElement, i: int, b: RectElement) -> RectElement:
    """Splice b's columns in before column i of a; bilinear.

    Inserted columns occupy positions i..i+q-2, mirroring row_compose.
    """
    if a.rows != b.rows:
        raise ShapeMismatch(f"row counts differ: {a.rows} vs {b.rows}")
    if not 1 <= i <= a.cols + 1:
        raise BadPosition(f"column slot {i} not in 1..{a.cols + 1}")
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            _merge_terms(out, [(_splice_cols(ma, i, mb), ca * cb)])
    return RectElement(a.rows, a.cols + b.cols, out)


def transpose_monomial(m: RectMonomial) -> RectMonomial:
    entries = tuple(
        m.entries[r * m.cols + c] for c in range(m.cols) for r in range(m.rows)
    )
    return RectMonomial(m.cols, m.rows, entries)


def transpose(a: RectElement) -> RectElement:
    """Entry (k,l) goes to (l,k) on every monomial; linear."""
    return RectElement(
        a.cols, a.rows, {transpose_monomial(m): c for m, c in a.terms.items()}
    )


# ---------------------------------------------------------------------------
# Law checking


def random_rect_element(
    rng: random.Random, rows: int, cols: int, d: int = 3
) -> RectElement:
    def draw() -> RectMonomial:
        return RectMonomial(rows, cols, tuple(rng.randint(1, d) for _ in range(rows * cols)))

    return RectElement(rows, cols, random_terms(rng, draw))


def _row_operad_model(cols: int) -> OperadModel:
    """The fixed-column-count operad (B(., n), row insertion)."""
    return OperadModel(
        name=f"rows@cols={cols}",
        compose=row_compose,
        unit=lambda: RectElement.unit(0, cols),
        sample=lambda rng, arity: random_rect_element(rng, arity - 1, cols),
        max_arity=4,
    )


def _col_operad_model(rows: int) -> OperadModel:
    """The fixed-row-count operad (B(m, .), column insertion)."""
    return OperadModel(
        name=f"cols@rows={rows}",
        compose=col_compose,
        unit=lambda: RectElement.unit(rows, 0),
        sample=lambda rng, arity: random_rect_element(rng, rows, arity - 1),
        max_arity=4,
    )


def check_bioperad_laws(
    trials: int,
    seed: int,
    d: int = 3,
    row_compose_fn=row_compose,
    transpose_fn=transpose,
) -> LawReport:
    """Exact randomized check of all bioperad law families.

    Per trial: one operad-axiom round for a random fixed column count and
    a random fixed row count, the interchange law on random compatible
    shapes with gradings m, n, p, q <= 4, the transpose involution, and
    the transpose exchange law.  The row compose and transpose maps are
    injectable so tests can verify the checker catches mutations.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    rep = LawReport(name="bioperad", trials=trials)
    for _ in range(trials):
        # operad structure in each index (one inner trial each)
        for model in (
            _row_operad_model(rng.randint(0, 3)),
            _col_operad_model(rng.randint(0, 3)),
        ):
            sub = check_operad_axioms(model, 1, rng.randrange(2**30))
            rep.checked += sub.checked
            rep.failures.extend(sub.failures)

        m, n, p, q = (rng.randint(1, 4) for _ in range(4))
        a = random_rect_element(rng, m - 1, n - 1, d)
        b = random_rect_element(rng, m - 1, q - 1, d)
        c = random_rect_element(rng, p - 1, n - 1, d)
        dd = random_rect_element(rng, p - 1, q - 1, d)
        i = rng.randint(1, m)
        j = rng.randint(1, n)

        # (A o_i C) .bullet_j (B o_i D) == (A .bullet_j B) o_i (C .bullet_j D)
        lhs = col_compose(row_compose_fn(a, i, c), j, row_compose_fn(b, i, dd))
        rhs = row_compose_fn(col_compose(a, j, b), i, col_compose(c, j, dd))
        rep.check("interchange", lhs == rhs, f"i={i}, j={j}", (m, n, p, q))

        # transpose involution and exchange
        rep.check("transpose-involution", transpose_fn(transpose_fn(a)) == a, "", (m, n))
        lhs = transpose_fn(row_compose_fn(a, i, c))
        rhs = col_compose(transpose_fn(a), i, transpose_fn(c))
        rep.check("transpose-exchange", lhs == rhs, f"i={i}", (m, n, p))
    return rep
