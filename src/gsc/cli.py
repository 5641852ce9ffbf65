"""Command-line surface: dimension tables, verification, law suites,
normal forms, and matrix export for external cross-checks.

Each command imports what it runs when it runs, so a command loads
neither the acceptance criteria nor the law suites unless it needs them.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import __version__
from .errors import GscError, ResourceLimit
from .fields import FieldSpec

CSV_COLUMNS = (
    "d",
    "arity",
    "multidegree",
    "monomials",
    "rows",
    "rank",
    "dimension",
    "field",
)


def _parse_field(text: str) -> FieldSpec:
    """The field of a ``--field`` option; GF(2) and GF(3) are usage errors."""
    try:
        return FieldSpec.parse(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad multidegree {text!r}; want comma-separated ints")


def _block_record(d: int, rep) -> dict:
    return {
        "d": d,
        "arity": rep.n + 1,
        "multidegree": ",".join(str(x) for x in rep.k),
        "monomials": rep.n_monomials,
        "rows": rep.n_rows,
        "rank": rep.rank,
        "dimension": rep.dimension,
        "field": rep.field.short_name(),
        "millis": rep.millis,
        "certified": rep.certified,
    }


def _emit_records(records: list[dict], totals: list[dict], fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps({"totals": totals, "blocks": records}, sort_keys=True, indent=1))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=CSV_COLUMNS, lineterminator="\n", extrasaction="ignore"
        )
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        click.echo(buf.getvalue(), nl=False)
        for t in totals:
            click.echo(f"# total arity {t['arity']}: {t['dimension']}")
    else:
        for t in totals:
            click.echo(f"arity {t['arity']}: dimension {t['dimension']}")
        for rec in records:
            note = "" if rec["certified"] == "exact" else f" ({rec['certified']})"
            click.echo(
                "  arity {arity} k=({multidegree}) monomials={monomials} "
                "rows={rows} rank={rank} dim={dimension} "
                "[{field}]".format(**rec) + note
            )


field_option = click.option(
    "--field",
    default="rational",
    show_default=True,
    help="Scalars: 'rational' or 'prime:P'.",
)
cache_option = click.option(
    "--cache-dir", default=None, help="Block cache directory (default $GSC_CACHE_DIR or ./.gsc-cache)."
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)


@click.group()
@click.version_option(version=__version__, prog_name="gsc")
def main() -> None:
    """Exact dimension tables for the triangular-tensor quotient."""


@main.command("dims")
@click.option("--d", "d", type=int, required=True, help="Dimension of the coefficient space.")
@click.option("--max-arity", type=int, default=None, help="Largest arity to report (default 2d+1).")
@field_option
@click.option("--per-block", is_flag=True, help="Also list every multidegree block.")
@click.option("--no-shortcut", is_flag=True, help="Disable pruning; verify zeros by elimination.")
@format_option
@cache_option
def cmd_dims(d, max_arity, field, per_block, no_shortcut, fmt, cache_dir):
    """Total and per-block quotient dimensions for arities 1..max."""
    from .quotient import QuotientConfig, total_dimension

    if d < 1:
        raise click.UsageError("--d must be >= 1")
    if max_arity is not None and max_arity < 1:
        raise click.UsageError("--max-arity must be >= 1")
    fieldspec = _parse_field(field)
    max_arity = max_arity if max_arity is not None else 2 * d + 1
    cfg = QuotientConfig(cache_dir=cache_dir, no_shortcut=no_shortcut)
    records, totals = [], []
    try:
        for m in range(1, max_arity + 1):
            res = total_dimension(m, d, fieldspec, cfg)
            totals.append({"arity": m, "dimension": res.total})
            if per_block:
                records.extend(_block_record(d, rep) for rep in res.blocks)
    except ResourceLimit as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(2)
    _emit_records(records, totals, fmt)
    if fmt == "text" and not fieldspec.is_rational:
        click.echo(
            f"# note: dimensions over {fieldspec} upper-bound the rational dimensions"
        )


@main.command("verify-paper")
@click.option("--seed", type=int, default=20240, show_default=True)
@click.option("--trials", type=int, default=500, show_default=True, help="Law-suite trials.")
@click.option("--stretch", is_flag=True, help="Also run the long conjecture-block computation.")
@cache_option
def cmd_verify_paper(seed, trials, stretch, cache_dir):
    """Recompute every published value over Q and print pass/fail per claim."""
    from .criteria import AcceptanceContext, run_criteria

    ctx = AcceptanceContext(
        cache_dir=cache_dir, trials=trials, seed=seed, include_stretch=stretch
    )
    try:
        results = run_criteria(ctx, reporter=click.echo)
    except ResourceLimit as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(2)
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} claims pass")
    sys.exit(1 if failed else 0)


@main.command("axioms")
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
def cmd_axioms(trials, seed):
    """Randomized law suites for every algebraic structure built here."""
    from .bioperad import check_bioperad_laws
    from .classical import EXTERIOR_MODEL, SYMMETRIC_MODEL, TENSOR_MODEL, check_operad_axioms
    from .diamond import check_gsc_axioms

    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    reports = [
        check_operad_axioms(TENSOR_MODEL, trials, seed),
        check_operad_axioms(EXTERIOR_MODEL, trials, seed),
        check_operad_axioms(SYMMETRIC_MODEL, trials, seed),
        check_bioperad_laws(trials, seed),
        check_gsc_axioms(trials, seed),
    ]
    ok = True
    for rep in reports:
        click.echo(rep.summary())
        ok = ok and rep.passed
    sys.exit(0 if ok else 1)


@main.command("reduce")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--d", "d", type=int, required=True)
@field_option
@click.option("--no-shortcut", is_flag=True)
@format_option
@cache_option
def cmd_reduce(input_path, d, field, no_shortcut, fmt, cache_dir):
    """Normal form of a triangular element given as a JSON document."""
    from .echelon import quotient_reduce
    from .elements import element_from_json_text
    from .quotient import QuotientConfig

    fieldspec = _parse_field(field)
    try:
        with open(input_path) as fh:
            text = fh.read()
        element = element_from_json_text(text)
    except OSError as exc:
        click.echo(f"cannot read {input_path}: {exc}", err=True)
        sys.exit(2)
    except (GscError, ValueError, KeyError, TypeError) as exc:
        click.echo(f"malformed element document {input_path}: {exc}", err=True)
        sys.exit(2)
    for mono in element.terms:
        for e in mono.entries:
            if not 1 <= e <= d:
                click.echo(
                    f"entry {e} outside 1..{d} in monomial {mono.entries}", err=True
                )
                sys.exit(2)
    cfg = QuotientConfig(cache_dir=cache_dir, no_shortcut=no_shortcut)
    try:
        result = quotient_reduce(element, d, fieldspec, cfg)
    except ResourceLimit as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(2)
    if fmt == "json":
        payload = {
            "size": result.size,
            "is_zero": result.is_zero,
            "blocks": [
                {
                    "multidegree": list(b.k),
                    "pruned": b.pruned,
                    "coordinates": [
                        {"monomial": list(m.entries), "coeff": str(c)}
                        for m, c in b.coordinates
                    ],
                }
                for b in result.blocks
            ],
        }
        click.echo(json.dumps(payload, sort_keys=True, indent=1))
    else:
        click.echo("zero" if result.is_zero else "nonzero")
        for b in result.blocks:
            tag = " (pruned)" if b.pruned else ""
            click.echo(f"  block {b.k}{tag}:")
            for m, c in b.coordinates:
                click.echo(f"    {c} * {m.entries}")
    sys.exit(0)


@main.command("export")
@click.option("--n", "n", type=int, required=True, help="Triangle size (arity minus 1).")
@click.option("--k", "k", required=True, help="Multidegree, comma-separated.")
@click.option("--d", "d", type=int, required=True)
@field_option
@click.option("--output", "-o", "output_path", required=True, type=click.Path(dir_okay=False))
def cmd_export(n, k, d, field, output_path):
    """Write one block's relation matrix in the text interchange format."""
    from .matrix_text import write_block_matrix_text

    fieldspec = _parse_field(field)
    kk = _parse_multidegree(k)
    try:
        rows, cols = write_block_matrix_text(n, kk, d, fieldspec, output_path)
    except GscError as exc:
        click.echo(f"cannot assemble block: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"cannot write {output_path}: {exc}", err=True)
        sys.exit(2)
    click.echo(f"wrote {rows}x{cols} relation matrix to {output_path}")


if __name__ == "__main__":
    main()
