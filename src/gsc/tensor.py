"""Monomials and elements of the triangular and rectangular tensor spaces.

Triangular monomials fill the strict upper triangle of an n x n matrix
with basis-vector indices; they are the monomial basis of the arity-
(n+1) triangular space.  Rectangular monomials fill an r x c grid; they
are the monomial basis of the bioperad component with r+1 rows-arity and
c+1 columns-arity.  Elements are sparse integer/rational combinations.

Entry tuples are kept in a fixed position order, lexicographic on
(i, j): (1,2) < (1,3) < ... < (1,n) < (2,3) < ... < (n-1,n).  Monomials
compare lexicographically on the induced entry tuple, which makes matrix
columns and pivots reproducible across runs and machines.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DegreeMismatch, ShapeMismatch

Position = tuple[int, int]
MultiDegree = tuple[int, ...]


@lru_cache(maxsize=None)
def triangle_positions(size: int) -> tuple[Position, ...]:
    """Strict upper-triangular positions of an n x n matrix, in order."""
    return tuple(
        (i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)
    )


def n_triangle_entries(size: int) -> int:
    return size * (size - 1) // 2


@dataclass(frozen=True, order=True)
class TriMonomial:
    """Entries of the strict upper triangle, flattened in position order.

    ``size`` is the matrix side length; sizes 0 and 1 both carry no
    entries and are the two distinct units (the operadic unit and the
    arity-2 generator), distinguished by the size field.
    """

    size: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != n_triangle_entries(self.size):
            raise ShapeMismatch(
                f"size {self.size} needs {n_triangle_entries(self.size)} entries, "
                f"got {len(self.entries)}"
            )

    @property
    def arity(self) -> int:
        return self.size + 1

    def entry(self, i: int, j: int) -> int:
        return self.entries[_triangle_offset(self.size, i, j)]

    def as_dict(self) -> dict[Position, int]:
        return dict(zip(triangle_positions(self.size), self.entries))

    @staticmethod
    def from_dict(size: int, entries: Mapping[Position, int]) -> "TriMonomial":
        pos = triangle_positions(size)
        if set(entries) != set(pos):
            raise ShapeMismatch(f"entries must cover exactly the triangle of size {size}")
        return TriMonomial(size, tuple(entries[p] for p in pos))

    @staticmethod
    def unit() -> "TriMonomial":
        return TriMonomial(0, ())

    @staticmethod
    def generator() -> "TriMonomial":
        return TriMonomial(1, ())


@lru_cache(maxsize=None)
def _triangle_offsets(size: int) -> dict[Position, int]:
    return {p: k for k, p in enumerate(triangle_positions(size))}


def _triangle_offset(size: int, i: int, j: int) -> int:
    try:
        return _triangle_offsets(size)[(i, j)]
    except KeyError:
        raise ShapeMismatch(f"({i},{j}) is not an upper-triangle position of size {size}")


@dataclass(frozen=True, order=True)
class RectMonomial:
    """A fully populated rows x cols grid of basis indices, row-major.

    A grid with 0 rows or 0 columns is the scalar unit of the
    corresponding bioperad edge component.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} grid needs {self.rows * self.cols} entries"
            )

    def entry(self, r: int, c: int) -> int:
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise ShapeMismatch(f"({r},{c}) outside {self.rows}x{self.cols} grid")
        return self.entries[(r - 1) * self.cols + (c - 1)]

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[int]]) -> "RectMonomial":
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        if any(len(row) != c for row in rows_data):
            raise ShapeMismatch("ragged grid")
        return RectMonomial(r, c, tuple(v for row in rows_data for v in row))

    @staticmethod
    def empty(rows: int, cols: int) -> "RectMonomial":
        if rows and cols:
            raise ShapeMismatch("empty grid needs 0 rows or 0 cols")
        return RectMonomial(rows, cols, ())


# ---------------------------------------------------------------------------
# Linear combinations

def _merge_terms(into: dict, terms: Iterable[tuple[object, object]], scale=1) -> None:
    for mono, coeff in terms:
        c = into.get(mono, 0) + scale * coeff
        if c:
            into[mono] = c
        else:
            into.pop(mono, None)


class _Element:
    """Shared machinery for sparse linear combinations of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __eq__(self, other):
        return type(self) is type(other) and self._shape() == other._shape() and self.terms == other.terms

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def _shape(self):
        raise NotImplementedError

    def _like(self, terms):
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self._shape() != other._shape():
            raise ShapeMismatch(f"cannot add {self._shape()} and {other._shape()}")
        out = dict(self.terms)
        _merge_terms(out, other.terms.items())
        return self._like(out)

    def __sub__(self, other):
        if self._shape() != other._shape():
            raise ShapeMismatch(f"cannot subtract {self._shape()} and {other._shape()}")
        out = dict(self.terms)
        _merge_terms(out, other.terms.items(), scale=-1)
        return self._like(out)

    def __rmul__(self, scalar):
        if scalar == 0:
            return self._like({})
        return self._like({m: scalar * c for m, c in self.terms.items()})

    __mul__ = __rmul__

    def __neg__(self):
        return (-1) * self

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{m}" for m, c in sorted(self.terms.items(), key=lambda t: t[0]))
        return f"{type(self).__name__}({body})"


class TriElement(_Element):
    """Sparse combination of same-size triangular monomials."""

    __slots__ = ("size",)

    def __init__(self, size: int, terms: Mapping[TriMonomial, object] | None = None):
        self.size = size
        super().__init__(terms)
        for m in self.terms:
            if m.size != size:
                raise ShapeMismatch(f"monomial of size {m.size} in element of size {size}")

    def _shape(self):
        return self.size

    def _like(self, terms):
        return TriElement(self.size, terms)

    @staticmethod
    def monomial(m: TriMonomial, coeff=1) -> "TriElement":
        return TriElement(m.size, {m: coeff})

    @staticmethod
    def zero(size: int) -> "TriElement":
        return TriElement(size, {})

    @property
    def arity(self) -> int:
        return self.size + 1


class RectElement(_Element):
    """Sparse combination of same-shape rectangular monomials."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int, terms: Mapping[RectMonomial, object] | None = None):
        self.rows = rows
        self.cols = cols
        super().__init__(terms)
        for m in self.terms:
            if (m.rows, m.cols) != (rows, cols):
                raise ShapeMismatch(
                    f"{m.rows}x{m.cols} monomial in {rows}x{cols} element"
                )

    def _shape(self):
        return (self.rows, self.cols)

    def _like(self, terms):
        return RectElement(self.rows, self.cols, terms)

    @staticmethod
    def monomial(m: RectMonomial, coeff=1) -> "RectElement":
        return RectElement(m.rows, m.cols, {m: coeff})

    @staticmethod
    def unit(rows: int, cols: int) -> "RectElement":
        return RectElement.monomial(RectMonomial.empty(rows, cols))


# ---------------------------------------------------------------------------
# Multidegrees and block enumeration

def multidegree_of(m: TriMonomial, d: int) -> MultiDegree:
    """counts[i] = number of positions carrying basis index i+1."""
    counts = [0] * d
    for e in m.entries:
        if not (1 <= e <= d):
            raise ShapeMismatch(f"entry {e} outside 1..{d}")
        counts[e - 1] += 1
    return tuple(counts)


def multidegrees(total: int, d: int) -> Iterator[MultiDegree]:
    """All length-d compositions of ``total``, first component descending."""
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in multidegrees(total - first, d - 1):
            yield (first,) + rest


def _multinomial(counts: Sequence[int]) -> int:
    """Number of words with the given letter counts."""
    out = math.factorial(sum(counts))
    for x in counts:
        out //= math.factorial(x)
    return out


def count_block_monomials(size: int, k: MultiDegree) -> int:
    """Multinomial count of monomials with letter multiplicities k."""
    n = n_triangle_entries(size)
    if sum(k) != n or any(x < 0 for x in k):
        raise DegreeMismatch(f"multidegree {k} does not sum to {n}")
    return _multinomial(k)


def _words_with_counts(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """All words with the given letter counts, in lexicographic order.

    One tuple at a time: the route of the reference relation model, kept
    apart from :func:`word_array`, which the row generator uses.
    """
    total = sum(counts)
    if total == 0:
        yield ()
        return
    word: list[int] = []

    def rec(remaining: int):
        if remaining == 0:
            yield tuple(word)
            return
        for letter in range(len(counts)):
            if counts[letter]:
                counts[letter] -= 1
                word.append(letter + 1)
                yield from rec(remaining - 1)
                word.pop()
                counts[letter] += 1

    yield from rec(total)


def word_array(counts: Sequence[int]) -> np.ndarray:
    """:func:`_words_with_counts` as one int64 array, one word per row.

    The words starting with a letter are that letter followed by the
    words of the counts left, so each block of rows is built once from
    the memoized array of the shorter words.
    """
    memo: dict[tuple[int, ...], np.ndarray] = {}

    def rec(counts: tuple[int, ...]) -> np.ndarray:
        if counts in memo:
            return memo[counts]
        total = sum(counts)
        if not total:
            words = np.zeros((1, 0), dtype=np.int64)
        else:
            parts = []
            for letter, c in enumerate(counts):
                if c:
                    rest = rec(counts[:letter] + (c - 1,) + counts[letter + 1:])
                    part = np.empty((len(rest), total), dtype=np.int64)
                    part[:, 0] = letter + 1
                    part[:, 1:] = rest
                    parts.append(part)
            words = np.concatenate(parts)
        memo[counts] = words
        return words

    return rec(tuple(counts))


def enumerate_block_monomials(size: int, k: MultiDegree) -> list[TriMonomial]:
    """All monomials of one multidegree block, in canonical (lex) order."""
    count_block_monomials(size, k)  # validates the degree sum
    return [TriMonomial(size, w) for w in map(tuple, word_array(k).tolist())]


def rank_in_block(entries: tuple[int, ...], k: MultiDegree) -> int:
    """Lexicographic index of an entry word among its multidegree block.

    The inverse of :func:`unrank_in_block`; used instead of materialized
    dictionaries when blocks are too large to hold.
    """
    counts = list(k)
    n = len(entries)
    slots = math.factorial(n)
    for x in counts:
        slots //= math.factorial(x)
    rank = 0
    remaining = n
    for e in entries:
        for letter in range(e - 1):
            if counts[letter]:
                rank += slots * counts[letter] // remaining
        slots = slots * counts[e - 1] // remaining
        counts[e - 1] -= 1
        remaining -= 1
    return rank


@lru_cache(maxsize=64)
def _rank_table(k: MultiDegree) -> tuple[np.ndarray, np.ndarray, int]:
    """Lookup tables for :func:`rank_words_in_block`.

    A remaining-count vector c <= k is coded in mixed radix,
    code(c) = sum c[l] * stride[l].  ``below[code(c), e - 1]`` is the
    number of words with counts c that start with a letter below e.
    Returns (below, stride, code(k)).
    """
    stride = [1] * len(k)
    for l in range(len(k) - 2, -1, -1):
        stride[l] = stride[l + 1] * (k[l + 1] + 1)
    n_codes = stride[0] * (k[0] + 1)
    # counts shrink as letters are placed, so the block's own word count
    # bounds every table entry and every rank
    dtype = np.int64 if _multinomial(k) < 2**63 else object
    below = np.zeros((n_codes, len(k)), dtype=dtype)
    for counts in itertools.product(*(range(x + 1) for x in k)):
        remaining = sum(counts)
        if not remaining:
            continue
        words = _multinomial(counts)
        code = sum(c * s for c, s in zip(counts, stride))
        acc = 0
        for letter, c in enumerate(counts):
            below[code, letter] = acc
            acc += words * c // remaining
    below.flags.writeable = False  # shared by every caller through the cache
    return below, np.array(stride, dtype=np.int64), sum(x * s for x, s in zip(k, stride))


def rank_words_in_block(words: np.ndarray, k: MultiDegree) -> np.ndarray:
    """:func:`rank_in_block` of every row of an integer array at once.

    ``words`` has one entry word (letters 1..len(k), multidegree k) per
    row.  The rank is the sum, over positions, of the words that branch
    off below the letter placed there, read from a table indexed by the
    counts still to place.
    """
    below, stride, full = _rank_table(tuple(k))
    letters = np.asarray(words, dtype=np.int64) - 1
    steps = stride[letters]
    # code of the counts left before each position: full minus the
    # letters already placed
    before = full - (np.cumsum(steps, axis=1) - steps)
    return below[before, letters].sum(axis=1)


def unrank_in_block(rank: int, size: int, k: MultiDegree) -> TriMonomial:
    counts = list(k)
    n = n_triangle_entries(size)
    slots = count_block_monomials(size, k)
    if not (0 <= rank < slots):
        raise IndexError(f"rank {rank} out of range for block of {slots}")
    word = []
    remaining = n
    for _ in range(n):
        for letter in range(len(counts)):
            if not counts[letter]:
                continue
            here = slots * counts[letter] // remaining
            if rank < here:
                word.append(letter + 1)
                slots = here
                counts[letter] -= 1
                remaining -= 1
                break
            rank -= here
        else:
            raise AssertionError("unrank ran out of letters")
    return TriMonomial(size, tuple(word))


# ---------------------------------------------------------------------------
# Multilinear expansion

def expand_multilinear(size: int, entries: Mapping[Position, Sequence], d: int) -> TriElement:
    """Distribute general vectors over every triangle position.

    Each position maps to a coordinate vector in the chosen basis; the
    result is the full product expansion, with zero coordinates dropping
    terms.
    """
    pos = triangle_positions(size)
    if set(entries) != set(pos):
        raise ShapeMismatch(f"entries must cover exactly the triangle of size {size}")
    vectors = [entries[p] for p in pos]
    for v in vectors:
        if len(v) != d:
            raise ShapeMismatch(f"coordinate vector length {len(v)} != dim {d}")
    terms: dict[TriMonomial, object] = {}
    stack: list[tuple[int, tuple[int, ...], object]] = [(0, (), 1)]
    while stack:
        depth, word, coeff = stack.pop()
        if depth == len(pos):
            _merge_terms(terms, [(TriMonomial(size, word), coeff)])
            continue
        vec = vectors[depth]
        for idx in range(d):
            c = vec[idx]
            if c:
                stack.append((depth + 1, word + (idx + 1,), coeff * c))
    return TriElement(size, terms)


# ---------------------------------------------------------------------------
# JSON schemas
#
# Monomial: {"size": n, "entries": {"i,j": b, ...}} with 1-based i < j.
# Element:  {"size": n, "terms": [{"monomial": ..., "coeff": "a/b" | int}, ...]}.

def monomial_to_json(m: TriMonomial) -> dict:
    return {
        "size": m.size,
        "entries": {f"{i},{j}": b for (i, j), b in m.as_dict().items()},
    }


def monomial_from_json(obj: Mapping) -> TriMonomial:
    size = int(obj["size"])
    entries = {}
    for key, b in obj.get("entries", {}).items():
        i, j = (int(x) for x in key.split(","))
        if not (1 <= i < j <= size):
            raise ShapeMismatch(f"bad position {key!r} for size {size}")
        entries[(i, j)] = int(b)
    return TriMonomial.from_dict(size, entries)


def _coeff_to_json(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return f"{c.numerator}/{c.denominator}"
    return int(c)


def _coeff_from_json(obj):
    if isinstance(obj, str):
        num, den = obj.split("/")
        return Fraction(int(num), int(den))
    return int(obj)


def element_to_json(x: TriElement) -> dict:
    return {
        "size": x.size,
        "terms": [
            {"monomial": monomial_to_json(m), "coeff": _coeff_to_json(c)}
            for m, c in sorted(x.terms.items(), key=lambda t: t[0])
        ],
    }


def element_from_json(obj: Mapping) -> TriElement:
    size = int(obj["size"])
    terms: dict[TriMonomial, object] = {}
    for t in obj.get("terms", []):
        m = monomial_from_json(t["monomial"])
        if m.size != size:
            raise ShapeMismatch("term size differs from element size")
        c = _coeff_from_json(t["coeff"])
        if m in terms:
            raise ValueError(f"duplicate monomial {m} in element document")
        if c:
            terms[m] = c
    return TriElement(size, terms)


def element_to_json_text(x: TriElement) -> str:
    return json.dumps(element_to_json(x), indent=2, sort_keys=True) + "\n"


def element_from_json_text(text: str) -> TriElement:
    return element_from_json(json.loads(text))
