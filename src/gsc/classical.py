"""Insertion operads on tensor words, with the signed exterior variant.

The arity-m component is spanned by words of m-1 basis indices.  The
plain insertion splices the second word in before position i of the
first; the symmetric and exterior variants canonicalize the word by
sorting, with sign +1 respectively the sign of the sorting permutation
(and repeated letters killed).

Also home to the randomized law checker whose sampler (random_terms)
and recorder (LawReport.check) the bioperad and diamond modules reuse:
it samples small elements, evaluates both sides of each axiom exactly,
and reports the smallest counterexample found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import BadPosition, ShapeMismatch
from .elements import _Element, _merge_terms

Word = tuple[int, ...]


class WordElement(_Element):
    """Sparse combination of length-(arity-1) index words.

    Each stored word is its own canonical form under :meth:`canonical`;
    for plain tensor words every word is.
    """

    __slots__ = ("arity",)

    @staticmethod
    def canonical(w: Word) -> tuple[Word, int] | None:
        """The canonical word and sign of a tensor word; None if it vanishes."""
        return w, 1

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        super().__init__(terms)
        for w in self.terms:
            if len(w) != arity - 1:
                raise ShapeMismatch(f"word {w} in arity-{arity} element")
            if self.canonical(w) != (w, 1):
                raise ShapeMismatch(f"word {w} not canonical for {type(self).__name__}")

    def _shape(self):
        return self.arity

    def _like(self, terms):
        return type(self)(self.arity, terms)

    @staticmethod
    def word(w: Sequence[int], coeff=1) -> "WordElement":
        w = tuple(w)
        return WordElement(len(w) + 1, {w: coeff})

    @classmethod
    def unit(cls) -> "WordElement":
        return cls(1, {(): 1})

    @classmethod
    def canonicalize(cls, x: "WordElement") -> "WordElement":
        """The image of a tensor-word element: each word canonicalized."""
        out: dict[Word, object] = {}
        for w, c in x.terms.items():
            canon = cls.canonical(w)
            if canon is not None:
                word, sign = canon
                _merge_terms(out, [(word, sign * c)])
        return cls(x.arity, out)


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


class SignedWordElement(WordElement):
    """Wedge monomials in canonical strictly-increasing form."""

    __slots__ = ()
    canonical = staticmethod(sort_with_sign)


class SortedWordElement(WordElement):
    """Sorted-with-repeats words: the commutative-product model."""

    __slots__ = ()

    @staticmethod
    def canonical(w: Word) -> tuple[Word, int]:
        return tuple(sorted(w)), 1


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
    """The commutative-product insertion: the sorted tensor insertion, sign +1."""
    return SortedWordElement.canonicalize(tensor_circ(x, i, y))


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

    def check(self, law: str, holds: bool, detail: str, arities: tuple[int, ...]) -> None:
        """Count one check of ``law`` and record a failure unless it holds."""
        self.checked += 1
        if not holds:
            self.failures.append(LawFailure(law, detail, arities))

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


def random_terms(rng: random.Random, draw: Callable[[], object]) -> dict:
    """One to three monomials from ``draw()``, each with a coefficient in +-1, +-2.

    Each monomial is drawn before its coefficient; repeats add up.
    """
    terms: dict = {}
    for _ in range(rng.randint(1, 3)):
        _merge_terms(terms, [(draw(), rng.choice((-2, -1, 1, 2)))])
    return terms


def random_word_element(rng: random.Random, arity: int, d: int = 3) -> WordElement:
    terms = random_terms(rng, lambda: tuple(rng.randint(1, d) for _ in range(arity - 1)))
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
            rep.check("parallel-associativity", lhs == rhs, f"i={i}, j={j}", (m, n, p))

        # (x o_i y) o_{i+j-1} z == x o_i (y o_j z)   for 1<=i<=m, 1<=j<=n
        i = rng.randint(1, m)
        j = rng.randint(1, n)
        lhs = compose(compose(x, i, y), i + j - 1, z)
        rhs = compose(x, i, compose(y, j, z))
        rep.check("nested-associativity", lhs == rhs, f"i={i}, j={j}", (m, n, p))

        # unit laws
        i = rng.randint(1, m)
        rep.check("right-unit", compose(x, i, unit) == x, f"i={i}", (m,))
        rep.check("left-unit", compose(unit, 1, x) == x, "", (m,))
    return rep
