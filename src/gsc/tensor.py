"""Triangular monomials and the multidegree blocks they fall into.

Triangular monomials fill the strict upper triangle of an n x n matrix
with basis-vector indices; they are the monomial basis of the arity-
(n+1) triangular space.  A block's monomials are counted, listed and
ranked here, which is all a rank run needs; elements, rectangular
monomials and their JSON documents live in :mod:`gsc.elements`.

Entry tuples are kept in a fixed position order, lexicographic on
(i, j): (1,2) < (1,3) < ... < (1,n) < (2,3) < ... < (n-1,n).  Monomials
compare lexicographically on the induced entry tuple, which makes matrix
columns and pivots reproducible across runs and machines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

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


def check_multidegree(size: int, k: MultiDegree) -> None:
    """Refuse a negative size, and letter counts that are negative or do not fill the triangle.

    Size 0, the operadic unit, is valid.
    """
    if size < 0:
        raise DegreeMismatch(f"triangle size {size} is negative")
    for x in k:
        if x < 0:
            raise DegreeMismatch(f"multidegree {k} has a negative letter count {x}")
    n = n_triangle_entries(size)
    if sum(k) != n:
        raise DegreeMismatch(f"multidegree {k} does not sum to {n}")


def count_block_monomials(size: int, k: MultiDegree) -> int:
    """Multinomial count of monomials with letter multiplicities k."""
    check_multidegree(size, k)
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
