"""The text interchange format of sparse matrices, and block export.

Header "R C M" (M = 0 means rational), one line "r c v" per entry with
1-based indices, terminator "0 0 0".  LF line endings, single spaces.
``gsc export`` writes relation blocks in it and the disk cache stores
echelon forms in it; a rank run reads and writes neither.
"""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import repeat
from typing import TextIO

from .fields import FieldSpec
from .relations import _check_block, block_rows
from .sparse import SparseMatrix
from .tensor import MultiDegree, count_block_monomials


def _scalar_to_text(v) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def _scalar_from_text(s: str):
    if "/" in s:
        a, b = s.split("/")
        return Fraction(int(a), int(b))
    return int(s)


def write_matrix_rows(out: TextIO, n_rows: int, n_cols: int, field: FieldSpec, rows) -> None:
    """Stream a matrix to the text file ``out``, one row of pairs at a time.

    ``rows`` yields ``n_rows`` rows of (col, value) pairs, in order.
    """
    modulus = 0 if field.is_rational else field.p
    out.write(f"{n_rows} {n_cols} {modulus}\n")
    last = text = None  # formatting is the slow part: reuse it for a repeated value
    for r, row in enumerate(rows, 1):
        for c, v in row:
            if v is not last:
                last, text = v, _scalar_to_text(v)
            out.write(f"{r} {c + 1} {text}\n")
    out.write("0 0 0\n")


def write_matrix_text(m: SparseMatrix) -> str:
    out = io.StringIO()
    write_matrix_rows(out, m.n_rows, m.n_cols, m.field, m.rows)
    return out.getvalue()


def read_matrix_text(text: str) -> SparseMatrix:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix file")
    n_rows, n_cols, modulus = (int(x) for x in lines[0].split())
    field = FieldSpec.rational() if modulus == 0 else FieldSpec.prime(modulus)
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


def write_block_matrix_text(
    n: int,
    k: MultiDegree,
    d: int,
    field: FieldSpec,
    path,
) -> tuple[int, int]:
    """Write one block's relation matrix to ``path`` in the text format.

    Returns (rows, cols).  Unlike :func:`gsc.relations.assemble_relation_block`
    this never materializes the monomial list or the matrix: columns come
    from the combinatorial ranking and rows from :func:`block_rows`.
    The output is byte-identical to ``write_matrix_text`` of the
    assembled block; ``gsc export`` writes every block this way.
    """
    k = tuple(k)
    _check_block(n, k, d)
    n_cols = count_block_monomials(n, k)
    # opened before the rows are built, so a bad path fails fast
    with open(path, "w", newline="") as out:
        rows = block_rows(n, k, d)
        # every entry is 1, whose text is the same in every field
        write_matrix_rows(out, len(rows), n_cols, field, (zip(row, repeat(1)) for row in rows))
    return len(rows), n_cols
