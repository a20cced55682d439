"""Exact integral linear algebra for finite-basis chain complexes.

Formal Z-linear combinations over arbitrary hashable bases, their linear
and bilinear extensions from structure-constant tables, graded chain
complexes with integer boundary matrices, Smith normal form over Python's
arbitrary-precision integers, and homology with torsion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Iterable

__all__ = [
    "LinComb",
    "linear",
    "bilinear",
    "ChainComplex",
    "InvalidComplex",
    "build_complex",
    "smith_normal_form",
    "homology",
    "mat_mul",
    "mat_identity",
]


class LinComb:
    """A finite Z-linear combination of basis elements (no zero terms kept).

    Built from a dict or from (basis, coefficient) pairs: repeated basis
    elements are summed and zero sums dropped.  Terms keep the order of
    their first appearance; a term that cancels and appears again goes to
    the end.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Hashable, int] | Iterable = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for basis, coeff in items:
            if coeff:
                total = data.get(basis, 0) + coeff
                if total:
                    data[basis] = total
                else:
                    del data[basis]
        self.terms = data

    @classmethod
    def unit(cls, basis, coeff: int = 1) -> "LinComb":
        return cls({basis: coeff})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return LinComb(
            chain(self.terms.items(), ((b, -c) for b, c in other.terms.items()))
        )

    def __rmul__(self, scalar: int) -> "LinComb":
        return LinComb({b: scalar * c for b, c in self.terms.items()})

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def map_basis(self, fn) -> "LinComb":
        """Apply a basis -> basis map linearly."""
        return LinComb((fn(basis), coeff) for basis, coeff in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for basis, coeff in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            sign = "+" if coeff > 0 else "-"
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            bits.append(f"{sign} {mag}{basis}")
        joined = " ".join(bits)
        return joined[2:] if joined.startswith("+ ") else joined


def linear(table, v: LinComb) -> LinComb:
    """The sum of c * table[b] over the terms c * b of ``v``.

    ``table`` maps basis elements to combinations; a missing key reads as
    zero.
    """
    return LinComb((t, c * ct) for b, c in v for t, ct in table.get(b, ()))


def bilinear(table, u: LinComb, v: LinComb) -> LinComb:
    """The sum of cu * cv * table[(a, b)] over the terms cu * a of ``u`` and
    cv * b of ``v``; a missing key reads as zero."""
    return LinComb(
        (t, cu * cv * ct)
        for a, cu in u
        for b, cv in v
        for t, ct in table.get((a, b), ())
    )


def _expand_terms(factors) -> list:
    """Cartesian expansion of a list of combinations into (basis tuple,
    product of coefficients) pairs, the first factor varying slowest."""
    terms = [((), 1)]
    for f in factors:
        terms = [(t + (b,), c * cb) for t, c in terms for b, cb in f]
    return terms


class InvalidComplex(ValueError):
    """The boundary matrices do not square to zero."""


@dataclass
class ChainComplex:
    """Graded free Z-modules with boundary matrices lowering degree by one.

    ``boundary[d]`` has shape (len(bases[d-1]), len(bases[d])) and sends
    degree-d basis columns to degree-(d-1) combinations.
    """

    bases: dict[int, list]
    boundary: dict[int, list[list[int]]] = field(default_factory=dict)

    def dim(self, d: int) -> int:
        return len(self.bases.get(d, []))

    def matrix(self, d: int) -> list[list[int]]:
        rows, cols = self.dim(d - 1), self.dim(d)
        got = self.boundary.get(d)
        if got is None:
            return [[0] * cols for _ in range(rows)]
        if len(got) != rows or any(len(r) != cols for r in got):
            raise InvalidComplex(f"boundary matrix at degree {d} has wrong shape")
        return got

    def validate(self) -> None:
        for d in sorted(self.bases):
            if self.dim(d) and self.dim(d - 1) and self.dim(d - 2):
                square = mat_mul(self.matrix(d - 1), self.matrix(d))
                if any(any(row) for row in square):
                    raise InvalidComplex(f"d o d != 0 from degree {d}")

    def degrees(self) -> list[int]:
        return sorted(self.bases)


def build_complex(bases: dict[int, list], image) -> ChainComplex:
    """The chain complex on ``bases`` whose boundary sends a basis element
    ``e`` of degree d to the combination ``image(e)`` of degree-(d-1) basis
    elements; ``boundary[d]`` is filled wherever degrees d and d-1 are both
    present."""
    boundary = {}
    for d, elems in bases.items():
        if d - 1 not in bases:
            continue
        lower = bases[d - 1]
        index = {e: r for r, e in enumerate(lower)}
        mat = [[0] * len(elems) for _ in lower]
        for col, e in enumerate(elems):
            for t, c in image(e):
                row = index.get(t)
                if row is None:
                    raise ValueError(
                        f"boundary of {e!r} has the term {t!r} outside degree {d - 1}"
                    )
                mat[row][col] += c
        boundary[d] = mat
    return ChainComplex(bases, boundary)


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns times {len(b)} rows")
    cols = len(b[0])
    return [
        [sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)]
        for row in a
    ]


def mat_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: list[list[int]]):
    """Diagonalize by unimodular row/column operations.

    Returns ``(d, row_ops, col_ops)`` with ``d = row_ops * matrix * col_ops``,
    the diagonal entries nonnegative and each dividing the next.
    """
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if a else 0
    left = mat_identity(rows)
    right = mat_identity(cols)

    def row_combine(i, j, x, y, z, w):  # (row_i, row_j) <- (x*ri+y*rj, z*ri+w*rj)
        for m in (a, left):
            ri, rj = m[i], m[j]
            for t in range(len(ri)):
                ri[t], rj[t] = x * ri[t] + y * rj[t], z * ri[t] + w * rj[t]

    def col_combine(i, j, x, y, z, w):
        for m in (a, right):
            for row in m:
                row[i], row[j] = x * row[i] + y * row[j], z * row[i] + w * row[j]

    def pivot_from(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        return best

    def eliminate_at(k):
        """Clear row k and column k beyond the (nonzero) pivot a[k][k]."""
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    if a[i][k] % a[k][k] == 0:
                        row_combine(k, i, 1, 0, -(a[i][k] // a[k][k]), 1)
                    else:
                        g, x, y = _xgcd(a[k][k], a[i][k])
                        u, v = a[k][k] // g, a[i][k] // g
                        row_combine(k, i, x, y, -v, u)
                    dirty = True
            for j in range(k + 1, cols):
                if a[k][j]:
                    if a[k][j] % a[k][k] == 0:
                        col_combine(k, j, 1, 0, -(a[k][j] // a[k][k]), 1)
                    else:
                        g, x, y = _xgcd(a[k][k], a[k][j])
                        u, v = a[k][k] // g, a[k][j] // g
                        col_combine(k, j, x, y, -v, u)
                    dirty = True

    def make_positive(i):
        if a[i][i] < 0:
            for m in (a, left):
                m[i] = [-v for v in m[i]]

    k = 0
    while True:
        found = pivot_from(k)
        if found is None:
            break
        _, pi, pj = found
        if pi != k:
            row_combine(k, pi, 0, 1, 1, 0)
        if pj != k:
            col_combine(k, pj, 0, 1, 1, 0)
        eliminate_at(k)
        k += 1

    for i in range(min(rows, cols)):
        make_positive(i)
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols) - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y and x and y % x:
                col_combine(i, i + 1, 1, 1, 0, 1)  # col_i += col_{i+1}
                eliminate_at(i)
                make_positive(i)
                make_positive(i + 1)
                changed = True
    return a, left, right


def _xgcd(p: int, q: int):
    """Extended gcd: returns (g, x, y) with x*p + y*q = g > 0."""
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _rank_and_factors(matrix: list[list[int]]):
    d, _, _ = smith_normal_form(matrix)
    factors = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]
    return len(factors), factors


def homology(complex_: ChainComplex, d: int) -> tuple[int, list[int]]:
    """Free rank and torsion invariant factors (> 1) of H_d."""
    complex_.validate()
    n = complex_.dim(d)
    if n == 0:
        return 0, []
    rank_out, _ = _rank_and_factors(complex_.matrix(d)) if complex_.dim(d - 1) else (0, [])
    rank_in, factors = (
        _rank_and_factors(complex_.matrix(d + 1)) if complex_.dim(d + 1) else (0, [])
    )
    torsion = sorted(f for f in factors if f > 1)
    return n - rank_out - rank_in, torsion
