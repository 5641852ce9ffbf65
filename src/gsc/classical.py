"""Insertion operads on tensor words, with the signed exterior variant.

The arity-m component is spanned by words of m-1 basis indices.  The
plain insertion splices the second word in before position i of the
first; the symmetric and exterior variants canonicalize the word by
sorting, with sign +1 respectively the sign of the sorting permutation
(and repeated letters killed).

Also home to the randomized law checker reused by the bioperad and
diamond modules: it samples small elements, evaluates both sides of
each axiom exactly, and reports the smallest counterexample found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import BadPosition, ShapeMismatch
from .tensor import _Element, _merge_terms

Word = tuple[int, ...]


class WordElement(_Element):
    """Sparse combination of length-(arity-1) index words."""

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        super().__init__(terms)
        for w in self.terms:
            if len(w) != arity - 1:
                raise ShapeMismatch(f"word {w} in arity-{arity} element")

    def _shape(self):
        return self.arity

    def _like(self, terms):
        return WordElement(self.arity, terms)

    @staticmethod
    def word(w: Sequence[int], coeff=1) -> "WordElement":
        w = tuple(w)
        return WordElement(len(w) + 1, {w: coeff})

    @staticmethod
    def unit() -> "WordElement":
        return WordElement(1, {(): 1})


def tensor_circ(x: WordElement, i: int, y: WordElement) -> WordElement:
    """Insert y's word between positions i-1 and i of x's word; bilinear."""
    if not 1 <= i <= x.arity:
        raise BadPosition(f"position {i} not in 1..{x.arity}")
    out: dict[Word, object] = {}
    for wx, cx in x.terms.items():
        left, right = wx[: i - 1], wx[i - 1 :]
        for wy, cy in y.terms.items():
            _merge_terms(out, [(left + wy + right, cx * cy)])
    return WordElement(x.arity + y.arity - 1, out)


def sort_with_sign(w: Word) -> tuple[Word, int] | None:
    """Sort a word, tracking the permutation sign; None if letters repeat."""
    w = list(w)
    sign = 1
    for a in range(1, len(w)):
        b = a
        while b > 0 and w[b - 1] > w[b]:
            w[b - 1], w[b] = w[b], w[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and w[b - 1] == w[b]:
            return None
    return tuple(w), sign


class SignedWordElement(_Element):
    """Wedge monomials in canonical strictly-increasing form."""

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        super().__init__(terms)
        for w in self.terms:
            if len(w) != arity - 1:
                raise ShapeMismatch(f"word {w} in arity-{arity} element")
            if any(w[t] >= w[t + 1] for t in range(len(w) - 1)):
                raise ShapeMismatch(f"wedge word {w} not strictly increasing")

    def _shape(self):
        return self.arity

    def _like(self, terms):
        return SignedWordElement(self.arity, terms)

    @staticmethod
    def unit() -> "SignedWordElement":
        return SignedWordElement(1, {(): 1})

    @staticmethod
    def canonicalize(x: WordElement) -> "SignedWordElement":
        out: dict[Word, object] = {}
        for w, c in x.terms.items():
            canon = sort_with_sign(w)
            if canon is None:
                continue
            word, sign = canon
            _merge_terms(out, [(word, sign * c)])
        return SignedWordElement(x.arity, out)


class SortedWordElement(_Element):
    """Sorted-with-repeats words: the commutative-product model."""

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        super().__init__(terms)
        for w in self.terms:
            if len(w) != arity - 1:
                raise ShapeMismatch(f"word {w} in arity-{arity} element")
            if any(w[t] > w[t + 1] for t in range(len(w) - 1)):
                raise ShapeMismatch(f"word {w} not sorted")

    def _shape(self):
        return self.arity

    def _like(self, terms):
        return SortedWordElement(self.arity, terms)

    @staticmethod
    def unit() -> "SortedWordElement":
        return SortedWordElement(1, {(): 1})

    @staticmethod
    def canonicalize(x: WordElement) -> "SortedWordElement":
        out: dict[Word, object] = {}
        for w, c in x.terms.items():
            _merge_terms(out, [(tuple(sorted(w)), c)])
        return SortedWordElement(x.arity, out)


def exterior_circ(x: SignedWordElement, i: int, y: SignedWordElement) -> SignedWordElement:
    """Concatenate wedge words with sign (-1)**((n-1)*(m-i)), then sort."""
    if not 1 <= i <= x.arity:
        raise BadPosition(f"position {i} not in 1..{x.arity}")
    m, n = x.arity, y.arity
    sign = -1 if ((n - 1) * (m - i)) % 2 else 1
    out: dict[Word, object] = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            canon = sort_with_sign(wx + wy)
            if canon is None:
                continue
            word, s = canon
            _merge_terms(out, [(word, sign * s * cx * cy)])
    return SignedWordElement(m + n - 1, out)


def symmetric_circ(x: SortedWordElement, i: int, y: SortedWordElement) -> SortedWordElement:
    """The commutative-product insertion: merge-sort the words, sign +1."""
    if not 1 <= i <= x.arity:
        raise BadPosition(f"position {i} not in 1..{x.arity}")
    out: dict[Word, object] = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            _merge_terms(out, [(tuple(sorted(wx + wy)), cx * cy)])
    return SortedWordElement(x.arity + y.arity - 1, out)


# ---------------------------------------------------------------------------
# Randomized law checking


@dataclass(frozen=True)
class OperadModel:
    """Everything the axiom checker needs to exercise one composition."""

    name: str
    compose: Callable  # (x, i, y) -> element
    unit: Callable[[], object]
    sample: Callable[[random.Random, int], object]  # (rng, arity) -> element
    max_arity: int = 5


@dataclass
class LawFailure:
    law: str
    detail: str
    arities: tuple[int, ...]


@dataclass
class LawReport:
    name: str
    trials: int
    checked: int = 0
    failures: list[LawFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def witness(self) -> LawFailure | None:
        """The failure with smallest total arity, if any."""
        if not self.failures:
            return None
        return min(self.failures, key=lambda f: (sum(f.arities), f.law))

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{self.name}: {status} ({self.checked} checks over {self.trials} trials)"
        w = self.witness()
        if w is not None:
            out += f"\n  smallest witness: {w.law} at arities {w.arities}: {w.detail}"
        return out


def _random_coeff(rng: random.Random) -> int:
    return rng.choice((-2, -1, 1, 2))


def random_word_element(rng: random.Random, arity: int, d: int = 3) -> WordElement:
    terms: dict[Word, int] = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(1, d) for _ in range(arity - 1))
        terms[w] = terms.get(w, 0) + _random_coeff(rng)
    return WordElement(arity, terms)


def random_signed_element(rng: random.Random, arity: int, d: int = 6) -> SignedWordElement:
    # wedge words need room for distinct letters, so a larger alphabet
    return SignedWordElement.canonicalize(random_word_element(rng, arity, d))


TENSOR_MODEL = OperadModel(
    name="tensor-words",
    compose=tensor_circ,
    unit=WordElement.unit,
    sample=random_word_element,
)

EXTERIOR_MODEL = OperadModel(
    name="exterior-words",
    compose=exterior_circ,
    unit=SignedWordElement.unit,
    sample=random_signed_element,
)

def random_sorted_element(rng: random.Random, arity: int, d: int = 3) -> SortedWordElement:
    return SortedWordElement.canonicalize(random_word_element(rng, arity, d))


SYMMETRIC_MODEL = OperadModel(
    name="symmetric-words",
    compose=symmetric_circ,
    unit=SortedWordElement.unit,
    sample=random_sorted_element,
)


def check_operad_axioms(model: OperadModel, trials: int, seed: int) -> LawReport:
    """Exactly check both associativity laws and both unit laws.

    Samples random elements with arities <= model.max_arity; failures are
    collected (not raised) and the smallest witness reported.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    rep = LawReport(name=model.name, trials=trials)
    compose, unit = model.compose, model.unit()
    for _ in range(trials):
        m = rng.randint(1, model.max_arity)
        n = rng.randint(1, model.max_arity)
        p = rng.randint(1, model.max_arity)
        x = model.sample(rng, m)
        y = model.sample(rng, n)
        z = model.sample(rng, p)

        # (x o_j z) o_i y == (x o_i y) o_{n+j-1} z   for 1 <= i < j <= m
        if m >= 2:
            j = rng.randint(2, m)
            i = rng.randint(1, j - 1)
            lhs = compose(compose(x, j, z), i, y)
            rhs = compose(compose(x, i, y), n + j - 1, z)
            rep.checked += 1
            if lhs != rhs:
                rep.failures.append(
                    LawFailure("parallel-associativity", f"i={i}, j={j}", (m, n, p))
                )

        # (x o_i y) o_{i+j-1} z == x o_i (y o_j z)   for 1<=i<=m, 1<=j<=n
        i = rng.randint(1, m)
        j = rng.randint(1, n)
        lhs = compose(compose(x, i, y), i + j - 1, z)
        rhs = compose(x, i, compose(y, j, z))
        rep.checked += 1
        if lhs != rhs:
            rep.failures.append(
                LawFailure("nested-associativity", f"i={i}, j={j}", (m, n, p))
            )

        # unit laws
        i = rng.randint(1, m)
        rep.checked += 2
        if compose(x, i, unit) != x:
            rep.failures.append(LawFailure("right-unit", f"i={i}", (m,)))
        if compose(unit, 1, x) != x:
            rep.failures.append(LawFailure("left-unit", "", (m,)))
    return rep
