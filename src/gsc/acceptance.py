"""Executable claim checks behind the verify-paper command.

Each criterion function recomputes a family of published or derived
values and compares exactly.  Results stream through a reporter as one
pass/fail line per claim; the pytest acceptance module runs the same
functions with the stated time bounds pinned.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field as dc_field
from importlib import resources
from itertools import permutations

from .bioperad import check_bioperad_laws, row_compose, transpose
from .classical import (
    EXTERIOR_MODEL,
    SYMMETRIC_MODEL,
    TENSOR_MODEL,
    OperadModel,
    SignedWordElement,
    check_operad_axioms,
    random_signed_element,
    sort_with_sign,
)
from .diamond import check_gsc_axioms
from .dets2 import (
    NORMALIZATION_INPUT,
    check_two_alternating,
    det3,
    det_s2_raw,
    induced_map_scalar,
)
from .errors import BadPosition
from .fields import FieldSpec, multi_prime_fields
from .quotient import (
    QuotientConfig,
    block_dimension,
    repeated_letter_vanishing_check,
    total_dimension,
    variant_span_equal,
)
from .saturation import saturation_oracle
from .tensor import _merge_terms, n_triangle_entries

Word = tuple


def reference_values() -> dict:
    with resources.files("gsc.data").joinpath("reference_values.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class ClaimResult:
    criterion: int
    claim: str
    expected: str
    computed: str
    passed: bool
    millis: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  [{self.criterion:>2}] {self.claim}: "
            f"expected {self.expected}, computed {self.computed} ({self.millis} ms)"
        )


@dataclass
class AcceptanceContext:
    table_field: FieldSpec = dc_field(default_factory=FieldSpec.rational)
    cache_dir: object = None
    variant: int = 3
    trials: int = 500
    alternating_samples: int = 200
    vanishing_samples: int = 100
    functoriality_samples: int = 50
    seed: int = 20240
    include_stretch: bool = False
    stretch_budget: float | None = None

    def config(self, no_shortcut: bool = False) -> QuotientConfig:
        return QuotientConfig(
            variant=self.variant,
            cache_dir=self.cache_dir,
            no_shortcut=no_shortcut,
        )


def _claim(criterion, claim, expected, computed, t0) -> ClaimResult:
    return ClaimResult(
        criterion=criterion,
        claim=claim,
        expected=str(expected),
        computed=str(computed),
        passed=str(expected) == str(computed),
        millis=int((time.monotonic() - t0) * 1000),
    )


def criterion_1(ctx: AcceptanceContext) -> list[ClaimResult]:
    """dim-2 totals over the table field, arities 1..6."""
    ref = reference_values()["totals"]["2"]
    t0 = time.monotonic()
    dims = [
        total_dimension(m, 2, ctx.table_field, ctx.variant, ctx.config()).total
        for m in ref["arities"]
    ]
    return [_claim(1, "dim V=2 totals m=1..6", ref["dims"], dims, t0)]


def criterion_2(ctx: AcceptanceContext) -> list[ClaimResult]:
    """dim-3 per-block table; three distinct primes must agree at n=5.

    The n=5 blocks cross-check the one elimination engine over three
    fields; criterion 3 eliminates the same blocks over the table field.
    """
    out = []
    cfg = ctx.config()
    for entry in reference_values()["blocks"]["3"]:
        n, k, expected = entry["n"], tuple(entry["k"]), entry["dim"]
        t0 = time.monotonic()
        if n <= 4:
            got = block_dimension(n, k, 3, ctx.table_field, ctx.variant, cfg).dimension
            out.append(
                _claim(2, f"E_{n}^{k} over {ctx.table_field}", expected, got, t0)
            )
        else:
            fields = multi_prime_fields(preferred=ctx.table_field)
            got = [
                block_dimension(n, k, 3, f, ctx.variant, cfg).dimension
                for f in fields
            ]
            agree = got[0] if len(set(got)) == 1 else f"disagree {got}"
            out.append(
                _claim(
                    2,
                    f"E_{n}^{k} over three primes "
                    f"({', '.join(str(f.p) for f in fields)})",
                    expected,
                    agree,
                    t0,
                )
            )
    return out


def _sorted_types(total: int, d: int):
    """Descending multidegree types (sorted representatives)."""
    out = []

    def rec(prefix, remaining, slots, bound):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for v in range(min(remaining, bound), -1, -1):
            rec(prefix + [v], remaining - v, slots - 1, v)

    rec([], total, d, total)
    return out


def _n_permutations(k) -> int:
    import math

    out = math.factorial(len(k))
    counts = {}
    for x in k:
        counts[x] = counts.get(x, 0) + 1
    for c in counts.values():
        out //= math.factorial(c)
    return out


def criterion_3(ctx: AcceptanceContext) -> list[ClaimResult]:
    """dim-3 totals rebuilt from sorted-type blocks and multiplicities."""
    ref = reference_values()
    expected_totals = ref["totals"]["3"]["dims"]
    breakdowns = ref["breakdowns"]["3"]
    cfg = ctx.config()
    out = []
    t0 = time.monotonic()
    totals = []
    contribs: dict[int, list[int]] = {}
    for m in ref["totals"]["3"]["arities"]:
        n = m - 1
        total = 0
        nonzero = []
        for ktype in _sorted_types(n_triangle_entries(n), 3):
            dim = block_dimension(n, ktype, 3, ctx.table_field, ctx.variant, cfg).dimension
            part = dim * _n_permutations(ktype)
            total += part
            if part:
                nonzero.append(part)
        totals.append(total)
        contribs[m] = nonzero
    out.append(
        _claim(3, "dim V=3 totals from blocks x multiplicities", expected_totals, totals, t0)
    )
    for m_str, expected in breakdowns.items():
        t0 = time.monotonic()
        out.append(
            _claim(3, f"arity-{m_str} breakdown", expected, contribs[int(m_str)], t0)
        )
    # permutation invariance spot checks
    t0 = time.monotonic()
    perms_equal = all(
        block_dimension(4, p, 3, ctx.table_field, ctx.variant, cfg).dimension == 9
        for p in sorted(set(permutations((3, 2, 1))))
    )
    out.append(_claim(3, "E_4 invariant under permutations of (3,2,1)", True, perms_equal, t0))
    t0 = time.monotonic()
    same = (
        block_dimension(5, (2, 4, 4), 3, ctx.table_field, ctx.variant, cfg).dimension
        == block_dimension(5, (4, 4, 2), 3, ctx.table_field, ctx.variant, cfg).dimension
    )
    out.append(_claim(3, "E_5^(2,4,4) = E_5^(4,4,2)", True, same, t0))
    return out


def criterion_4(ctx: AcceptanceContext) -> list[ClaimResult]:
    """Vanishing beyond the bound, verified by elimination (no shortcut).

    Zero dimension over a prime field certifies the rational zero, since
    rank can only drop modulo p.
    """
    cfg = ctx.config(no_shortcut=True)
    field = multi_prime_fields(ctx.table_field)[0]
    out = []
    for d, arities in ((2, (6, 7)), (1, (4, 5))):
        for m in arities:
            t0 = time.monotonic()
            res = total_dimension(m, d, field, ctx.variant, cfg)
            worst = max((b.dimension for b in res.blocks), default=0)
            out.append(
                _claim(
                    4,
                    f"no-shortcut dim V={d}, arity {m}: total and max block",
                    "(0, 0)",
                    (res.total, worst),
                    t0,
                )
            )
    return out


def criterion_5(ctx: AcceptanceContext) -> list[ClaimResult]:
    out = []
    t0 = time.monotonic()
    out.append(
        _claim(
            5,
            "determinant normalization input",
            reference_values()["det_normalization"],
            det_s2_raw(NORMALIZATION_INPUT),
            t0,
        )
    )
    t0 = time.monotonic()
    rep = check_two_alternating(ctx.alternating_samples, ctx.seed)
    out.append(
        _claim(
            5,
            f"{ctx.alternating_samples} triangle-coincidence and linearity samples",
            "(0, 0)",
            (rep.coincidence_failures, rep.linearity_failures),
            t0,
        )
    )
    return out


def criterion_6(ctx: AcceptanceContext) -> list[ClaimResult]:
    rng = random.Random(ctx.seed + 6)
    cfg = ctx.config()
    t0 = time.monotonic()
    bad = 0
    for _ in range(ctx.functoriality_samples):
        t = [
            [rng.randint(-5, 5), rng.randint(-5, 5)],
            [rng.randint(-5, 5), rng.randint(-5, 5)],
        ]
        if induced_map_scalar(t, cfg) != det3(t):
            bad += 1
    return [
        _claim(
            6,
            f"entrywise map multiplies the functional by det**3 "
            f"({ctx.functoriality_samples} random matrices)",
            0,
            bad,
            t0,
        )
    ]


def _mutated_exterior(x, i, y):
    """The insertion sign dropped entirely: parallel associativity breaks."""
    if not 1 <= i <= x.arity:
        raise BadPosition(f"position {i} not in 1..{x.arity}")
    m, n = x.arity, y.arity
    out = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            canon = sort_with_sign(wx + wy)
            if canon is None:
                continue
            word, s = canon
            _merge_terms(out, [(word, s * cx * cy)])
    return SignedWordElement(m + n - 1, out)


MUTATED_EXTERIOR_MODEL = OperadModel(
    name="exterior-words-sign-mutated",
    compose=_mutated_exterior,
    unit=SignedWordElement.unit,
    sample=random_signed_element,
    arity_of=lambda x: x.arity,
)


def _mutated_row_compose(a, i, c):
    """Row splice shifted down one slot: breaks the interchange law."""
    return row_compose(a, max(1, i - 1), c)


def _mutated_transpose(a):
    """Transpose followed by a row reversal: breaks coherence-I."""
    t = transpose(a)
    from .tensor import RectElement, RectMonomial

    def rev(m: RectMonomial) -> RectMonomial:
        rows = [m.entries[r * m.cols : (r + 1) * m.cols] for r in range(m.rows)]
        return RectMonomial(m.rows, m.cols, tuple(v for row in reversed(rows) for v in row))

    return RectElement(t.rows, t.cols, {rev(m): c for m, c in t.terms.items()})


def criterion_7(ctx: AcceptanceContext) -> list[ClaimResult]:
    out = []
    for model in (TENSOR_MODEL, EXTERIOR_MODEL, SYMMETRIC_MODEL):
        t0 = time.monotonic()
        rep = check_operad_axioms(model, ctx.trials, ctx.seed)
        out.append(
            _claim(7, f"operad laws, {model.name}, {ctx.trials} trials", 0, len(rep.failures), t0)
        )
    t0 = time.monotonic()
    rep = check_bioperad_laws(ctx.trials, ctx.seed)
    out.append(_claim(7, f"bioperad laws, {ctx.trials} trials", 0, len(rep.failures), t0))
    t0 = time.monotonic()
    rep = check_gsc_axioms(ctx.trials, ctx.seed)
    out.append(_claim(7, f"diamond coherence laws, {ctx.trials} trials", 0, len(rep.failures), t0))

    # checker sensitivity: every mutation must be caught
    t0 = time.monotonic()
    caught = (
        not check_operad_axioms(MUTATED_EXTERIOR_MODEL, 200, ctx.seed).passed,
        not check_bioperad_laws(200, ctx.seed, row_compose_fn=_mutated_row_compose).passed,
        not check_gsc_axioms(200, ctx.seed, transpose_fn=_mutated_transpose).passed,
    )
    out.append(
        _claim(7, "mutation controls caught (sign, splice, transpose)", (True,) * 3, caught, t0)
    )
    return out


def criterion_8(ctx: AcceptanceContext) -> list[ClaimResult]:
    """The saturation oracle agrees with the relation model per block."""
    out = []
    rational = FieldSpec.rational()
    cfg = ctx.config(no_shortcut=True)
    for d, max_arity in ((1, 4), (2, 5)):
        t0 = time.monotonic()
        report = saturation_oracle(d, max_arity)
        mismatches = []
        for arity_report in report.arities:
            n = arity_report.arity - 1
            for k, oracle_rank in arity_report.block_ranks:
                model_rank = block_dimension(n, k, d, rational, ctx.variant, cfg).rank
                if model_rank != oracle_rank:
                    mismatches.append((arity_report.arity, k, oracle_rank, model_rank))
            # blocks the oracle never saw must carry no relations
            seen = {k for k, _ in arity_report.block_ranks}
            from .tensor import multidegrees

            for k in multidegrees(n_triangle_entries(n), d):
                if k not in seen:
                    model_rank = block_dimension(n, k, d, rational, ctx.variant, cfg).rank
                    if model_rank != 0:
                        mismatches.append((arity_report.arity, k, 0, model_rank))
        out.append(
            _claim(
                8,
                f"oracle ranks match relation blocks, dim V={d}, arities <= {max_arity}",
                "[]",
                mismatches,
                t0,
            )
        )
    t0 = time.monotonic()
    oracle_dim = saturation_oracle(2, 5).arity(5).quotient_dim
    model_dim = total_dimension(5, 2, rational, ctx.variant, ctx.config()).total
    out.append(
        _claim(8, "arity-5 quotient dimension (dim V=2) by both routes", "(1, 1)", (oracle_dim, model_dim), t0)
    )
    return out


def criterion_9(ctx: AcceptanceContext) -> list[ClaimResult]:
    out = []
    for field in (FieldSpec.rational(), FieldSpec.prime(5)):
        t0 = time.monotonic()
        bad = []
        for d in (1, 2, 3):
            for n in range(3, 6):
                cmp = variant_span_equal(n, d, field, ctx.config())
                if not cmp.all_equal:
                    bad.append((d, n))
        out.append(
            _claim(9, f"generating variants 1,2,3 agree per block over {field}", "[]", bad, t0)
        )
    return out


def criterion_10(ctx: AcceptanceContext) -> list[ClaimResult]:
    out = []
    cases = (
        (4, 2, FieldSpec.rational()),
        (5, 2, FieldSpec.rational()),
        (5, 3, multi_prime_fields(ctx.table_field)[0]),
    )
    for n, d, field in cases:
        t0 = time.monotonic()
        rep = repeated_letter_vanishing_check(
            n, d, ctx.vanishing_samples, ctx.seed + n + d,
            field=field, variant=ctx.variant, config=ctx.config(no_shortcut=True),
        )
        out.append(
            _claim(
                10,
                f"{ctx.vanishing_samples} repeated-letter monomials vanish "
                f"(size {n}, dim V={d}, {field})",
                0,
                len(rep.failures),
                t0,
            )
        )
    return out


def criterion_11(ctx: AcceptanceContext) -> list[ClaimResult]:
    """Stretch: the conjecture block.  No expected value is asserted."""
    from .stretch import stretch_column_count, stretch_rank

    ref = reference_values()["conjecture_block"]
    out = []
    t0 = time.monotonic()
    out.append(
        _claim(11, "conjecture block column count", ref["columns"], stretch_column_count(), t0)
    )
    if not ctx.include_stretch:
        return out
    for f in multi_prime_fields(ctx.table_field):
        t0 = time.monotonic()
        rep = stretch_rank(
            f, cache_dir=ctx.cache_dir, variant=ctx.variant,
            progress=None, time_budget=ctx.stretch_budget,
        )
        status = (
            f"dimension {rep.dimension} (rank {rep.rank} = peel {rep.peel_rank} "
            f"+ core {rep.core_rank}, "
            f"{'finished' if rep.finished else 'checkpointed'}, {rep.seconds:.0f}s)"
        )
        out.append(
            ClaimResult(
                criterion=11,
                claim=f"conjecture block over GF({f.p}); "
                "upper bound on the rational dimension, equals 1 iff the conjecture holds here",
                expected="(reported, not asserted)",
                computed=status,
                passed=rep.finished,
                millis=int((time.monotonic() - t0) * 1000),
            )
        )
    return out


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_criteria(
    ctx: AcceptanceContext,
    numbers=None,
    reporter=None,
) -> list[ClaimResult]:
    if numbers is None:
        numbers = [n for n in sorted(CRITERIA) if n != 11]
        if ctx.include_stretch:
            numbers.append(11)
    results: list[ClaimResult] = []
    for n in numbers:
        for res in CRITERIA[n](ctx):
            results.append(res)
            if reporter:
                reporter(res.line())
    return results
