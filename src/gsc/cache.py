"""Disk cache for block reports and echelon forms.

Layout: one directory per (schema-version, d, n, k, field) key under
the cache root (argument > GSC_CACHE_DIR > ./.gsc-cache), holding
``report.json`` and optionally ``echelon.json`` + ``echelon.mtx`` (the
sparse-matrix text format).  Writes are atomic (temp file + rename), so
concurrent insert-if-absent from several processes is safe: last writer
wins with identical content.  A missing entry is a silent miss; an entry
that is present but unreadable or invalid is ignored with one line on
stderr naming it and the reason, and the block is recomputed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ShapeMismatch
from .fields import FieldSpec
from .sparse import SparseMatrix
from .tensor import count_block_monomials

if TYPE_CHECKING:
    from .echelon import EchelonForm

# Older schemas live under v1/ and v2/ and are never read: schema 1
# reports could hold a multi-prime upper bound for a rational request,
# schema 2 keys and reports carried a generating-set number that no
# longer exists.
SCHEMA_VERSION = 3
ENV_VAR = "GSC_CACHE_DIR"
DEFAULT_DIR = ".gsc-cache"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_DIR)


def _key_dir(root: Path, d: int, n: int, k, field: FieldSpec) -> Path:
    ktag = "-".join(str(x) for x in k)
    ftag = "q" if field.is_rational else f"p{field.p}"
    return root / f"v{SCHEMA_VERSION}" / f"d{d}" / f"n{n}" / f"k{ktag}" / ftag


def warn_ignored(what: Path, reason: str) -> None:
    """Say on stderr which cached entry is not used and why."""
    print(f"ignoring cached {what}: {reason}; recomputing", file=sys.stderr)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class BlockCache:
    """Reports and echelon forms keyed by (d, n, k, field)."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = resolve_cache_dir(root)

    def report_path(self, d, n, k, field) -> Path:
        return _key_dir(self.root, d, n, k, field) / "report.json"

    def load_report(self, d, n, k, field) -> dict | None:
        path = self.report_path(d, n, k, field)
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            warn_ignored(path, f"unreadable ({type(exc).__name__}: {exc})")
            return None
        if not isinstance(obj, dict) or obj.get("schema") != SCHEMA_VERSION:
            warn_ignored(path, f"not a schema-{SCHEMA_VERSION} report")
            return None
        return obj

    def store_report(self, d, n, k, field, report: dict) -> None:
        report = dict(report)
        report["schema"] = SCHEMA_VERSION
        path = self.report_path(d, n, k, field)
        _atomic_write(path, json.dumps(report, sort_keys=True, indent=1) + "\n")

    # The echelon methods import the echelon route and the text format
    # when called: only normal forms use them, and a rank run never does.

    def load_echelon(self, d, n, k, field) -> EchelonForm | None:
        """The cached echelon form of the block, or None on a miss.

        Files that do not hold an echelon form of this block (another
        field or width, a row count that is not the pivot count, pivots
        out of order, a row that does not begin at its pivot) are ignored
        with a message, so the block is eliminated again.  Over Q the
        text reader gives Fractions; integer entries come back as ints,
        as elimination gives them.
        """
        from .echelon import EchelonForm
        from .matrix_text import read_matrix_text

        base = _key_dir(self.root, d, n, k, field)
        meta_path = base / "echelon.json"
        mtx_path = base / "echelon.mtx"
        if not (meta_path.exists() and mtx_path.exists()):
            return None
        try:
            meta = json.loads(meta_path.read_text())
            matrix = read_matrix_text(mtx_path.read_text())
            pivots = tuple(meta["pivot_cols"])
            schema = meta["schema"]
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, ShapeMismatch) as exc:
            warn_ignored(mtx_path, f"unreadable ({type(exc).__name__}: {exc})")
            return None
        if not (
            schema == SCHEMA_VERSION
            and matrix.field == field
            and matrix.n_cols == count_block_monomials(n, k)
            and matrix.n_rows == len(pivots)
            and all(type(c) is int for c in pivots)
            and all(a < b for a, b in zip(pivots, pivots[1:]))
            and all(row and row[0][0] == c for c, row in zip(pivots, matrix.rows))
        ):
            warn_ignored(mtx_path, f"not an echelon form of this block over {field}")
            return None
        rows = matrix.rows
        if field.is_rational:
            rows = tuple(
                tuple((c, int(v) if v.denominator == 1 else v) for c, v in row) for row in rows
            )
        return EchelonForm(n_cols=matrix.n_cols, field=field, pivot_cols=pivots, rows=rows)

    def store_echelon(self, d, n, k, field, ech: EchelonForm) -> None:
        from .matrix_text import write_matrix_text

        base = _key_dir(self.root, d, n, k, field)
        matrix = SparseMatrix(
            n_rows=ech.rank, n_cols=ech.n_cols, field=ech.field, rows=ech.rows
        )
        _atomic_write(base / "echelon.mtx", write_matrix_text(matrix))
        meta = {"schema": SCHEMA_VERSION, "pivot_cols": list(ech.pivot_cols)}
        _atomic_write(base / "echelon.json", json.dumps(meta, sort_keys=True) + "\n")
