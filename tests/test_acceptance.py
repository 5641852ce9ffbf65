"""The acceptance gate: every published-value criterion at its stated
tolerance (exact equality everywhere) and time bound, one line printed
per claim.  Run with ``pytest -s tests/test_acceptance.py`` to see the
claim lines; the verify-paper command prints the same lines.
"""

import os
import time

import pytest

from gsc import criteria
from gsc.criteria import CRITERIA, AcceptanceContext
from gsc.fields import MULTI_PRIME_SET
from gsc.relations import block_rows
from gsc.saturation import GENERATOR_FAMILIES, _seed_elements, six_term_elements
from gsc.elements import TriElement

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return AcceptanceContext(cache_dir=tmp_path_factory.mktemp("acceptance-cache"))


def _run(ctx, number, bound_seconds=None):
    t0 = time.monotonic()
    results = CRITERIA[number](ctx)
    elapsed = time.monotonic() - t0
    for res in results:
        print(res.line())
    for res in results:
        assert res.passed, res.line()
    if bound_seconds is not None:
        assert elapsed < bound_seconds, (
            f"criterion {number} took {elapsed:.1f}s, bound {bound_seconds}s"
        )
    return results


def test_criterion_01_dim2_totals(ctx):
    _run(ctx, 1, bound_seconds=5)


def test_criterion_02_dim3_blocks_over_q(ctx):
    _run(ctx, 2, bound_seconds=600)


def test_criterion_03_dim3_totals_and_breakdowns(ctx):
    _run(ctx, 3)


def test_criterion_04_vanishing_no_shortcut(ctx):
    _run(ctx, 4, bound_seconds=60)


def test_criterion_05_determinant_identities(ctx):
    _run(ctx, 5)


def test_criterion_06_functoriality(ctx):
    _run(ctx, 6, bound_seconds=10)


def test_criterion_07_law_suites_and_mutations(ctx):
    _run(ctx, 7, bound_seconds=120)


def test_criterion_08_oracle_equivalence(ctx):
    _run(ctx, 8, bound_seconds=300)


def test_criterion_09_generator_families_span_model_rows(ctx):
    _run(ctx, 9, bound_seconds=4)


def _criterion_09_failures(ctx):
    return [res.computed for res in CRITERIA[9](ctx) if not res.passed]


def test_criterion_09_fails_on_dropped_model_row(ctx, monkeypatch):
    def drop_pair_row(size, k, d):
        return [] if (k, d) == ((2, 1), 2) else block_rows(size, k, d)

    # criterion 9 reads the model rows through gsc.criteria's name
    monkeypatch.setattr(criteria, "block_rows", drop_pair_row)
    failures = _criterion_09_failures(ctx)
    assert len(failures) == 2  # over Q and over GF(5)
    assert all("(2, 1)" in f for f in failures), failures


def test_criterion_09_fails_on_zero_one_cubic_coordinates(ctx, monkeypatch):
    # at d = 2, 0/1 vectors leave the cubic family's span ungraded
    def cubic(d):
        return _seed_elements(d, coords=(0, 1) if d == 2 else (0, 1, 2))

    monkeypatch.setitem(GENERATOR_FAMILIES, "cubic", cubic)
    failures = _criterion_09_failures(ctx)
    assert len(failures) == 2
    assert all("('cubic', 2, 'graded', 3, 4)" in f for f in failures), failures


def test_criterion_09_fails_on_flipped_coefficient_sign(ctx, monkeypatch):
    def flipped(d):
        family = six_term_elements(d)
        i = max(range(len(family)), key=lambda i: len(family[i].terms))
        terms = dict(family[i].terms)
        m = min(terms)
        terms[m] = -terms[m]
        family[i] = TriElement(3, terms)
        return family

    monkeypatch.setitem(GENERATOR_FAMILIES, "six-term", flipped)
    failures = _criterion_09_failures(ctx)
    assert len(failures) == 2
    assert all("('six-term', 3, (1, 1, 1), 1, 1, 2)" in f for f in failures), failures


def test_criterion_10_repeated_letter_sampling(ctx):
    _run(ctx, 10)


def test_criterion_11_conjecture_block_assembly(ctx):
    # the non-stretch part: the column count of the open block
    results = CRITERIA[11](ctx)
    for res in results:
        print(res.line())
        assert res.passed


def test_criterion_11_runs_rational_field_first(tmp_path, monkeypatch):
    # the opt-in stretch path, pointed at a 20-column block
    from functools import partial

    from gsc import stretch

    small = stretch.StretchBlock(n=4, k=(3, 3), d=2)
    monkeypatch.setattr(stretch, "stretch_rank", partial(stretch.stretch_rank, block=small))
    results = CRITERIA[11](AcceptanceContext(cache_dir=tmp_path, include_stretch=True))
    runs = results[1:]
    assert [r.claim.split(";")[0] for r in runs] == [
        "conjecture block over Q",
        *(f"conjecture block over GF({p})" for p in MULTI_PRIME_SET),
    ]
    assert "exact over Q" in runs[0].claim
    assert all("upper bound on the rational dimension" in r.claim for r in runs[1:])
    assert all(r.passed and r.computed.startswith("dimension 1 ") for r in runs)


def test_criterion_11_fails_when_a_prime_loses_dimension(tmp_path, monkeypatch):
    # a run over GF(p) can only lose rank: a prime whose dimension is
    # below the rational one fails its claim, and only that one
    from dataclasses import replace

    from gsc import stretch

    small = stretch.StretchBlock(n=4, k=(3, 3), d=2)
    bad_p = MULTI_PRIME_SET[1]
    run = stretch.stretch_rank

    def low_prime(field, **kwargs):
        rep = run(field, block=small, **kwargs)
        return replace(rep, dimension=rep.dimension - 1) if field.p == bad_p else rep

    monkeypatch.setattr(stretch, "stretch_rank", low_prime)
    results = CRITERIA[11](AcceptanceContext(cache_dir=tmp_path, include_stretch=True))
    assert [r.passed for r in results] == [True, True, True, False, True]
    failed = results[3]
    assert f"GF({bad_p})" in failed.claim
    assert (failed.expected, failed.computed.split(" (")[0]) == (">= 1", "dimension 0")


@pytest.mark.skipif(
    not os.environ.get("GSC_STRETCH"),
    reason="long conjecture-block run (about 15-20 s per field); set GSC_STRETCH=1 to run",
)
def test_criterion_11_stretch_full(ctx):
    results = CRITERIA[11](AcceptanceContext(cache_dir=ctx.cache_dir, include_stretch=True))
    for res in results:
        print(res.line())
    for res in results:
        assert res.passed, res.line()
