"""The 12-term determinant-like functional for dimension-2 coefficients.

A size-4 triangle over a 2-dimensional space has six vector entries;
the functional below is multilinear in all six and vanishes whenever the
three positions of any index triangle carry equal vectors, so it factors
through the arity-5 quotient, where it spans the dual of the
1-dimensional space.  Applying a linear map entrywise multiplies it by
the cube of the determinant.

The 12 monomials are kept as a data table of sign and alpha/beta
selectors, transcribed once from the defining polynomial and never
hand-simplified: fidelity is testable through the normalization value
and the four vanishing families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .echelon import LiftedFunctional, lift_two_alternating
from .elements import expand_multilinear
from .errors import ShapeMismatch
from .fields import FieldSpec
from .tensor import TriMonomial

# Positions of the six entries, in canonical order.
PAIR_POSITIONS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# The four index triangles whose coincidence kills the functional.
COINCIDENCE_TRIANGLES = (
    ((1, 2), (1, 3), (2, 3)),
    ((1, 2), (1, 4), (2, 4)),
    ((1, 3), (1, 4), (3, 4)),
    ((2, 3), (2, 4), (3, 4)),
)

# Each term: (sign, selector per position in PAIR_POSITIONS order),
# selector 0 picking the first coordinate (alpha), 1 the second (beta).
# Term layout follows the defining display, products written over
# positions (1,2),(2,3),(3,4),(1,3),(2,4),(1,4) and re-keyed here.
_A, _B = 0, 1


def _term(sign: int, p12: int, p23: int, p34: int, p13: int, p24: int, p14: int):
    return (sign, {(1, 2): p12, (2, 3): p23, (3, 4): p34, (1, 3): p13, (2, 4): p24, (1, 4): p14})


DET_TERMS = (
    _term(+1, _A, _A, _A, _B, _B, _B),
    _term(+1, _A, _B, _A, _B, _B, _A),
    _term(+1, _A, _B, _B, _A, _A, _B),
    _term(+1, _B, _B, _A, _A, _A, _B),
    _term(+1, _B, _A, _B, _B, _A, _A),
    _term(+1, _B, _A, _B, _A, _B, _A),
    _term(-1, _B, _B, _B, _A, _A, _A),
    _term(-1, _B, _A, _B, _A, _A, _B),
    _term(-1, _B, _A, _A, _B, _B, _A),
    _term(-1, _A, _A, _B, _B, _B, _A),
    _term(-1, _A, _B, _A, _A, _B, _B),
    _term(-1, _A, _B, _A, _B, _A, _B),
)


PairMatrix = dict[tuple[int, int], Sequence]


def _as_pairs(x) -> PairMatrix:
    if isinstance(x, dict):
        pairs = x
    else:
        if len(x) != 6:
            raise ShapeMismatch("need six coordinate pairs")
        pairs = dict(zip(PAIR_POSITIONS, x))
    if set(pairs) != set(PAIR_POSITIONS):
        raise ShapeMismatch("positions must be exactly the six (i,j), 1<=i<j<=4")
    for v in pairs.values():
        if len(v) != 2:
            raise ShapeMismatch("coordinate pairs must have length 2")
    return pairs


def det_s2_raw(pairs) -> object:
    """Evaluate the 12-term polynomial on six coordinate pairs.

    ``pairs`` is either a dict position -> (alpha, beta) or a sequence of
    six pairs in PAIR_POSITIONS order.  Exact over ints/Fractions.
    """
    pm = _as_pairs(pairs)
    total = 0
    for sign, selectors in DET_TERMS:
        prod = sign
        for pos, which in selectors.items():
            prod *= pm[pos][which]
            if prod == 0:
                break
        total += prod
    return total


NORMALIZATION_INPUT = ((1, 0), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0))

# The monomial whose image spans the arity-5 quotient for d=2:
# entries (a,b,b,a,b,a) over positions (1,2),(1,3),(1,4),(2,3),(2,4),(3,4).
SPANNING_MONOMIAL = TriMonomial(4, (1, 2, 2, 1, 2, 1))


def _basis_pair(index: int) -> tuple[int, int]:
    return (1, 0) if index == 1 else (0, 1)


def monomial_functional(m: TriMonomial) -> object:
    """det_s2_raw restricted to basis-vector entries."""
    if m.size != 4:
        raise ShapeMismatch("functional lives on size-4 triangles")
    pairs = {pos: _basis_pair(b) for pos, b in m.as_dict().items()}
    return det_s2_raw(pairs)


@dataclass
class TwoAlternatingReport:
    samples: int
    coincidence_failures: int
    linearity_failures: int
    nonzero_witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.coincidence_failures == 0 and self.linearity_failures == 0


def check_two_alternating(samples: int, seed: int) -> TwoAlternatingReport:
    """Exact randomized verification of the defining properties.

    For each of the four coincidence triangles, a common random vector on
    the triangle (others random) must evaluate to zero; multilinearity is
    checked slotwise; and one non-triangle coincidence is recorded as a
    generically nonzero sanity witness.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)

    def rvec():
        return (rng.randint(-9, 9), rng.randint(-9, 9))

    coincidence_failures = 0
    linearity_failures = 0
    for _ in range(samples):
        tri = COINCIDENCE_TRIANGLES[rng.randrange(4)]
        common = rvec()
        pairs = {pos: (common if pos in tri else rvec()) for pos in PAIR_POSITIONS}
        if det_s2_raw(pairs) != 0:
            coincidence_failures += 1

        # linearity in a random slot: f(.., lam*u + mu*w, ..) decomposes
        slot = PAIR_POSITIONS[rng.randrange(6)]
        base = {pos: rvec() for pos in PAIR_POSITIONS}
        lam, mu = rng.randint(-3, 3), rng.randint(-3, 3)
        u, w = rvec(), rvec()
        combo = dict(base)
        combo[slot] = (lam * u[0] + mu * w[0], lam * u[1] + mu * w[1])
        with_u = dict(base)
        with_u[slot] = u
        with_w = dict(base)
        with_w[slot] = w
        if det_s2_raw(combo) != lam * det_s2_raw(with_u) + mu * det_s2_raw(with_w):
            linearity_failures += 1

    # a random coincidence off the triangle list is generically nonzero
    witness = None
    for _ in range(1000):
        v = rvec()
        pairs = {pos: rvec() for pos in PAIR_POSITIONS}
        pairs[(1, 2)] = v
        pairs[(3, 4)] = v
        val = det_s2_raw(pairs)
        if val != 0:
            witness = (dict(pairs), val)
            break
    return TwoAlternatingReport(
        samples=samples,
        coincidence_failures=coincidence_failures,
        linearity_failures=linearity_failures,
        nonzero_witness=witness,
    )


@cache
def det_s2_functional() -> LiftedFunctional:
    """The induced functional on the arity-5 quotient (d = 2), over Q.

    Lifts the monomial restriction through the two-alternating check;
    failure there would indicate a transcription error in the term table.
    The lift is built once and shared.
    """
    return lift_two_alternating(monomial_functional, 4, 2, FieldSpec.rational())


def induced_map_scalar(t: Sequence[Sequence]) -> object:
    """Value of the functional on the entrywise image of the spanning
    monomial under a 2x2 matrix; contractually equals det(t)**3.

    Columns of ``t`` are the images of the two basis vectors.
    """
    if len(t) != 2 or any(len(row) != 2 for row in t):
        raise ShapeMismatch("need a 2x2 matrix")
    cols = {1: (t[0][0], t[1][0]), 2: (t[0][1], t[1][1])}
    entries = {
        pos: cols[b] for pos, b in SPANNING_MONOMIAL.as_dict().items()
    }
    image = expand_multilinear(4, entries, 2)
    functional = det_s2_functional()
    return functional.evaluate(image)


def det3(t: Sequence[Sequence]) -> object:
    """det(t)**3 for a 2x2 matrix, the contract's right-hand side."""
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    return det**3
