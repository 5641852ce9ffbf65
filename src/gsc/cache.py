"""Disk cache for block reports and echelon forms.

Layout: one directory per (schema-version, d, n, k, field, variant) key
under the cache root (argument > GSC_CACHE_DIR > ./.gsc-cache), holding
``report.json`` and optionally ``echelon.json`` + ``echelon.mtx`` (the
sparse-matrix text format).  Writes are atomic (temp file + rename), so
concurrent insert-if-absent from several threads is safe: last writer
wins with identical content.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .fields import FieldSpec
from .sparse import EchelonForm, SparseMatrix, read_matrix_text, write_matrix_text

# Schema 1 reports could hold a multi-prime upper bound for a rational
# request; they live under v1/ and are never read.
SCHEMA_VERSION = 2
ENV_VAR = "GSC_CACHE_DIR"
DEFAULT_DIR = ".gsc-cache"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_DIR)


def _key_dir(root: Path, d: int, n: int, k, field: FieldSpec, variant: int) -> Path:
    ktag = "-".join(str(x) for x in k)
    ftag = "q" if field.is_rational else f"p{field.p}"
    return root / f"v{SCHEMA_VERSION}" / f"d{d}" / f"n{n}" / f"k{ktag}" / f"{ftag}-var{variant}"


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
    """Reports and echelon forms keyed by (d, n, k, field, variant)."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = resolve_cache_dir(root)

    def load_report(self, d, n, k, field, variant) -> dict | None:
        path = _key_dir(self.root, d, n, k, field, variant) / "report.json"
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if obj.get("schema") != SCHEMA_VERSION:
            return None
        return obj

    def store_report(self, d, n, k, field, variant, report: dict) -> None:
        report = dict(report)
        report["schema"] = SCHEMA_VERSION
        path = _key_dir(self.root, d, n, k, field, variant) / "report.json"
        _atomic_write(path, json.dumps(report, sort_keys=True, indent=1) + "\n")

    def load_echelon(self, d, n, k, field, variant) -> EchelonForm | None:
        base = _key_dir(self.root, d, n, k, field, variant)
        meta_path = base / "echelon.json"
        mtx_path = base / "echelon.mtx"
        if not (meta_path.exists() and mtx_path.exists()):
            return None
        try:
            meta = json.loads(meta_path.read_text())
            matrix = read_matrix_text(mtx_path.read_text())
        except (OSError, ValueError, json.JSONDecodeError):
            return None
        if meta.get("schema") != SCHEMA_VERSION:
            return None
        return EchelonForm(
            n_cols=matrix.n_cols,
            field=matrix.field,
            pivot_cols=tuple(meta["pivot_cols"]),
            reduced_rows=matrix.rows,
        )

    def store_echelon(self, d, n, k, field, variant, ech: EchelonForm) -> None:
        base = _key_dir(self.root, d, n, k, field, variant)
        matrix = SparseMatrix(
            n_rows=ech.rank, n_cols=ech.n_cols, field=ech.field, rows=ech.reduced_rows
        )
        _atomic_write(base / "echelon.mtx", write_matrix_text(matrix))
        meta = {"schema": SCHEMA_VERSION, "pivot_cols": list(ech.pivot_cols)}
        _atomic_write(base / "echelon.json", json.dumps(meta, sort_keys=True) + "\n")
