"""Executable claim checks behind the verify-paper command.

Each criterion function recomputes a family of published or derived
values and compares exactly.  Results stream through a reporter as one
pass/fail line per claim; the pytest acceptance module runs the same
functions with the stated time bounds pinned.  The published values
come from :mod:`gsc.acceptance`.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from .acceptance import reference_values
from .bioperad import check_bioperad_laws, row_compose, transpose
from .classical import (
    EXTERIOR_MODEL,
    SYMMETRIC_MODEL,
    TENSOR_MODEL,
    OperadModel,
    SignedWordElement,
    check_operad_axioms,
    exterior_circ,
    random_signed_element,
)
from .dets2 import (
    NORMALIZATION_INPUT,
    check_two_alternating,
    det3,
    det_s2_raw,
    induced_map_scalar,
)
from .diamond import check_gsc_axioms
from .echelon import repeated_letter_vanishing_check
from .elements import RectElement, RectMonomial
from .errors import BadPosition
from .fields import MULTI_PRIME_SET, FieldSpec
from .quotient import QuotientConfig, block_dimension, total_dimension
from .relations import block_rows
from .saturation import GENERATOR_FAMILIES, saturation_oracle
from .sparse import SparseMatrix, rank_sparse
from .tensor import (
    _multinomial,
    count_block_monomials,
    multidegree_of,
    multidegrees,
    n_triangle_entries,
    rank_in_block,
)

# Random samples per claim: criterion 5 (two-alternating checks),
# criterion 6 (functoriality matrices), criterion 10 (repeated-letter
# monomials per block).
ALTERNATING_SAMPLES = 200
VANISHING_SAMPLES = 100
FUNCTORIALITY_SAMPLES = 50

# Every published value is checked over Q itself.
Q = FieldSpec.rational()


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
    cache_dir: object = None
    trials: int = 500
    seed: int = 20240
    include_stretch: bool = False

    def config(self, no_shortcut: bool = False) -> QuotientConfig:
        return QuotientConfig(cache_dir=self.cache_dir, no_shortcut=no_shortcut)


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
    """dim-2 totals over Q, arities 1..6."""
    ref = reference_values()["totals"]["2"]
    t0 = time.monotonic()
    dims = [
        total_dimension(m, 2, Q, ctx.config()).total
        for m in ref["arities"]
    ]
    return [_claim(1, "dim V=2 totals m=1..6", ref["dims"], dims, t0)]


def criterion_2(ctx: AcceptanceContext) -> list[ClaimResult]:
    """dim-3 per-block table over Q, the n=5 blocks included."""
    out = []
    cfg = ctx.config()
    for entry in reference_values()["blocks"]["3"]:
        n, k, expected = entry["n"], tuple(entry["k"]), entry["dim"]
        t0 = time.monotonic()
        got = block_dimension(n, k, 3, Q, config=cfg).dimension
        out.append(_claim(2, f"E_{n}^{k} over Q", expected, got, t0))
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
        for ktype in multidegrees(n_triangle_entries(n), 3):
            if list(ktype) != sorted(ktype, reverse=True):
                continue  # one non-increasing representative per type
            dim = block_dimension(n, ktype, 3, Q, config=cfg).dimension
            part = dim * _multinomial(list(Counter(ktype).values()))
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
        block_dimension(4, p, 3, Q, config=cfg).dimension == 9
        for p in sorted(set(permutations((3, 2, 1))))
    )
    out.append(_claim(3, "E_4 invariant under permutations of (3,2,1)", True, perms_equal, t0))
    t0 = time.monotonic()
    same = (
        block_dimension(5, (2, 4, 4), 3, Q, config=cfg).dimension
        == block_dimension(5, (4, 4, 2), 3, Q, config=cfg).dimension
    )
    out.append(_claim(3, "E_5^(2,4,4) = E_5^(4,4,2)", True, same, t0))
    return out


def criterion_4(ctx: AcceptanceContext) -> list[ClaimResult]:
    """Vanishing beyond the bound, verified by elimination over Q (no
    shortcut)."""
    cfg = ctx.config(no_shortcut=True)
    out = []
    for d, arities in ((2, (6, 7)), (1, (4, 5))):
        for m in arities:
            t0 = time.monotonic()
            res = total_dimension(m, d, Q, cfg)
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
    rep = check_two_alternating(ALTERNATING_SAMPLES, ctx.seed)
    out.append(
        _claim(
            5,
            f"{ALTERNATING_SAMPLES} triangle-coincidence and linearity samples",
            "(0, 0)",
            (rep.coincidence_failures, rep.linearity_failures),
            t0,
        )
    )
    return out


def criterion_6(ctx: AcceptanceContext) -> list[ClaimResult]:
    rng = random.Random(ctx.seed + 6)
    t0 = time.monotonic()
    bad = 0
    for _ in range(FUNCTORIALITY_SAMPLES):
        t = [
            [rng.randint(-5, 5), rng.randint(-5, 5)],
            [rng.randint(-5, 5), rng.randint(-5, 5)],
        ]
        if induced_map_scalar(t) != det3(t):
            bad += 1
    return [
        _claim(
            6,
            f"entrywise map multiplies the functional by det**3 "
            f"({FUNCTORIALITY_SAMPLES} random matrices)",
            0,
            bad,
            t0,
        )
    ]


def _mutated_exterior(x, i, y):
    """The insertion sign dropped entirely: parallel associativity breaks."""
    if not 1 <= i <= x.arity:
        raise BadPosition(f"position {i} not in 1..{x.arity}")
    return exterior_circ(x, x.arity, y)  # the last slot carries sign +1


MUTATED_EXTERIOR_MODEL = OperadModel(
    name="exterior-words-sign-mutated",
    compose=_mutated_exterior,
    unit=SignedWordElement.unit,
    sample=random_signed_element,
)


def _mutated_row_compose(a, i, c):
    """Row splice shifted down one slot: breaks the interchange law."""
    return row_compose(a, max(1, i - 1), c)


def _mutated_transpose(a):
    """Transpose followed by a row reversal: breaks coherence-I."""
    t = transpose(a)

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
    cfg = ctx.config(no_shortcut=True)
    for d, max_arity in ((1, 4), (2, 5)):
        t0 = time.monotonic()
        report = saturation_oracle(d, max_arity)  # the d = 2 report is reused below
        mismatches = []
        for arity_report in report.arities:
            n = arity_report.arity - 1
            for k, oracle_rank in arity_report.block_ranks:
                model_rank = block_dimension(n, k, d, Q, config=cfg).rank
                if model_rank != oracle_rank:
                    mismatches.append((arity_report.arity, k, oracle_rank, model_rank))
            # blocks the oracle never saw must carry no relations
            seen = {k for k, _ in arity_report.block_ranks}
            for k in multidegrees(n_triangle_entries(n), d):
                if k not in seen:
                    model_rank = block_dimension(n, k, d, Q, config=cfg).rank
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
    oracle_dim = report.arity(5).quotient_dim
    model_dim = total_dimension(5, 2, Q, ctx.config()).total
    out.append(
        _claim(8, "arity-5 quotient dimension (dim V=2) by both routes", "(1, 1)", (oracle_dim, model_dim), t0)
    )
    return out


def _rank(rows: list[dict], n_cols: int, field: FieldSpec) -> int:
    entries = [(i, c, v) for i, row in enumerate(rows) for c, v in row.items()]
    return rank_sparse(SparseMatrix.from_entries(len(rows), n_cols, field, entries))


def family_span_mismatches(family, d: int, field: FieldSpec) -> list[tuple]:
    """Where an arity-4 generator family's span differs from the model's.

    The span must be graded: its rank equals the sum of its per-block
    ranks.  In each block, rank(family) == rank(model rows) ==
    rank(family and model rows together).  Returns ("graded", rank,
    per-block sum) and (k, three ranks) entries; empty when they agree.
    """
    cols: dict = {}
    whole = [{cols.setdefault(m, len(cols)): c for m, c in x.terms.items()} for x in family]
    blocks: dict = {}
    for x in family:
        parts: dict = {}
        for m, c in x.terms.items():
            k = multidegree_of(m, d)
            parts.setdefault(k, {})[rank_in_block(m.entries, k)] = c
        for k, row in parts.items():
            blocks.setdefault(k, []).append(row)
    out, split = [], 0
    for k in multidegrees(3, d):
        fam = blocks.get(k, [])
        model = [dict.fromkeys(row, 1) for row in block_rows(3, k, d)]
        n_cols = count_block_monomials(3, k)
        ranks = [_rank(rows, n_cols, field) for rows in (fam, model, fam + model)]
        split += ranks[0]
        if len(set(ranks)) > 1:
            out.append((k, *ranks))
    total = _rank(whole, len(cols), field)
    return ([("graded", total, split)] if total != split else []) + out


def criterion_9(ctx: AcceptanceContext) -> list[ClaimResult]:
    """The cubic, three-term and six-term generator families each span
    the model's arity-4 rows, block by block.

    Arity 4 is enough: an ideal depends only on the span of its
    generators, so equal arity-4 spans give equal ideals in every arity.
    """
    out = []
    for field in (Q, FieldSpec.prime(5)):
        t0 = time.monotonic()
        bad = [
            (name, d, *mismatch)
            for d in (1, 2, 3)
            for name, build in GENERATOR_FAMILIES.items()
            for mismatch in family_span_mismatches(build(d), d, field)
        ]
        out.append(
            _claim(
                9,
                f"cubic, three-term and six-term generators span the model's "
                f"arity-4 rows per block, d = 1..3, over {field}",
                "[]",
                bad,
                t0,
            )
        )
    return out


def criterion_10(ctx: AcceptanceContext) -> list[ClaimResult]:
    out = []
    for n, d in ((4, 2), (5, 2), (5, 3)):
        t0 = time.monotonic()
        rep = repeated_letter_vanishing_check(
            n, d, VANISHING_SAMPLES, ctx.seed + n + d,
            field=Q, config=ctx.config(no_shortcut=True),
        )
        out.append(
            _claim(
                10,
                f"{VANISHING_SAMPLES} repeated-letter monomials vanish "
                f"(size {n}, dim V={d}, Q)",
                0,
                len(rep.failures),
                t0,
            )
        )
    return out


def criterion_11(ctx: AcceptanceContext) -> list[ClaimResult]:
    """Stretch: the conjecture block.  No expected value is asserted.

    The run over Q comes first and is exact; a run over GF(p) can only
    lose rank, so each prime's claim fails if its dimension is below
    the rational one.
    """
    from .stretch import stretch_column_count, stretch_rank

    ref = reference_values()["conjecture_block"]
    out = []
    t0 = time.monotonic()
    out.append(
        _claim(11, "conjecture block column count", ref["columns"], stretch_column_count(), t0)
    )
    if not ctx.include_stretch:
        return out
    q_dim = None
    for f in [Q, *map(FieldSpec.prime, MULTI_PRIME_SET)]:
        t0 = time.monotonic()
        rep = stretch_rank(f, cache_dir=ctx.cache_dir, progress=None)
        if f.is_rational:
            q_dim = rep.dimension
        status = (
            f"dimension {rep.dimension} (rank {rep.rank} = peel {rep.peel_rank} "
            f"+ core {rep.core_rank}, {rep.seconds:.0f}s)"
        )
        out.append(
            ClaimResult(
                criterion=11,
                claim=f"conjecture block over {f}; "
                + ("exact over Q" if f.is_rational else "upper bound on the rational dimension")
                + ", equals 1 iff the conjecture holds here",
                expected="(reported, not asserted)" if f.is_rational else f">= {q_dim}",
                computed=status,
                passed=rep.dimension >= q_dim,
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
