"""Elements of the triangular and rectangular tensor spaces.

Rectangular monomials fill an r x c grid; they are the monomial basis of
the bioperad component with r+1 rows-arity and c+1 columns-arity.
Elements are sparse integer/rational combinations of triangular or
rectangular monomials.  This is the algebra of the law suites, the
normal forms and the element documents of ``gsc reduce``; a rank run
needs only the monomials of :mod:`gsc.tensor`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ShapeMismatch
from .tensor import Position, TriMonomial, triangle_positions


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
