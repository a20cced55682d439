"""Exact integral linear algebra for finite-basis chain complexes.

Formal Z-linear combinations over arbitrary hashable bases, their linear
and bilinear extensions from structure-constant tables, graded chain
complexes stored as sparse integer boundary columns, Smith normal form over
Python's arbitrary-precision integers, and homology with torsion.

Homology reduces each boundary once: unit-pivot sparse elimination takes
every +-1 pivot it can (each an invariant factor 1), and the dense Smith
normal form runs only on the residue that has no unit entry left
(Dumas-Heckenbach-Saunders-Welker, 2003).

The Smith normal form uses elementary operations only, with smallest-entry
pivoting (Kaczynski-Mischaikow-Mrozek, *Computational Homology*, ch. 3).
Round k takes the smallest nonzero |entry| p of the block of rows and
columns >= k to (k, k) and reduces column k below it and row k to its right
modulo p; a nonzero remainder is smaller than |p| and is the next round's
pivot.  Once both are clear, a row of the block holding an entry that p
does not divide is added to row k, so the next round again leaves a smaller
remainder.  |p| thus drops at least every second round, and when it stops,
every later entry is an integer combination of multiples of p, so each
diagonal entry divides the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "homology_all",
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
        return _reduced({basis: coeff} if coeff else {})

    # The operands' terms are already distinct and nonzero, so merging the
    # right one into a copy of the left one gives the terms, in the order,
    # that the constructor gives on the chained terms.
    def __add__(self, other: "LinComb") -> "LinComb":
        data = self.terms.copy()
        for basis, coeff in other.terms.items():
            total = data.get(basis, 0) + coeff
            if total:
                data[basis] = total
            else:
                del data[basis]
        return _reduced(data)

    def __sub__(self, other: "LinComb") -> "LinComb":
        data = self.terms.copy()
        for basis, coeff in other.terms.items():
            total = data.get(basis, 0) - coeff
            if total:
                data[basis] = total
            else:
                del data[basis]
        return _reduced(data)

    def __rmul__(self, scalar: int) -> "LinComb":
        if not scalar:
            return LinComb()
        return _reduced({b: scalar * c for b, c in self.terms.items()})

    def __neg__(self) -> "LinComb":
        return _reduced({b: -c for b, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

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


def _reduced(terms: dict) -> LinComb:
    """The combination with these terms, which must be distinct and nonzero:
    the constructor's result without its summing pass."""
    v = object.__new__(LinComb)
    v.terms = terms
    return v


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
    """The boundary columns are malformed or do not square to zero."""


@dataclass
class ChainComplex:
    """Graded free Z-modules with boundaries lowering degree by one.

    ``columns[d][j]`` is the boundary of the j-th degree-d basis element as
    a ``{row: nonzero coefficient}`` dict over the degree-(d-1) basis.
    """

    bases: dict[int, list]
    columns: dict[int, list[dict[int, int]]] = field(default_factory=dict)

    def dim(self, d: int) -> int:
        return len(self.bases.get(d, []))

    def matrix(self, d: int) -> list[list[int]]:
        """Boundary d as a dense (dim(d-1), dim(d)) matrix, built anew."""
        mat = [[0] * self.dim(d) for _ in range(self.dim(d - 1))]
        for j, col in enumerate(self.columns.get(d, ())):
            for r, c in col.items():
                mat[r][j] = c
        return mat

    def validate(self) -> dict[int, list[dict[int, int]]]:
        """Check the shapes and d o d = 0 on the stored columns and return
        the columns of every boundary between two nonzero degrees, keyed by
        degree."""
        for d in sorted(self.columns):
            cols, rows = self.columns[d], self.dim(d - 1)
            if len(cols) != self.dim(d) or any(
                not 0 <= r < rows for col in cols for r in col
            ):
                raise InvalidComplex(f"boundary at degree {d} has wrong shape")
            lower = self.columns.get(d - 1)
            if lower is None:
                continue
            for col in cols:
                square: dict[int, int] = {}
                for r, c in col.items():
                    for t, e in lower[r].items():
                        square[t] = square.get(t, 0) + c * e
                if any(square.values()):
                    raise InvalidComplex(f"d o d != 0 from degree {d}")
        return {
            d: cols
            for d, cols in sorted(self.columns.items())
            if self.dim(d) and self.dim(d - 1)
        }

    def degrees(self) -> list[int]:
        return sorted(self.bases)


def build_complex(bases: dict[int, list], image) -> ChainComplex:
    """The chain complex on ``bases`` whose boundary sends a basis element
    ``e`` of degree d to the combination ``image(e)`` of degree-(d-1) basis
    elements; ``columns[d]`` is filled wherever degrees d and d-1 are both
    present."""
    columns = {}
    for d, elems in bases.items():
        if d + 1 not in bases:
            _row_index(elems, d)  # no column of degree d + 1 indexes these
        if d - 1 not in bases:
            continue
        index = _row_index(bases[d - 1], d - 1)
        cols = columns[d] = []
        for e in elems:
            col: dict[int, int] = {}
            for t, c in image(e):
                row = index.get(t)
                if row is None:
                    raise ValueError(
                        f"boundary of {e!r} has the term {t!r} outside degree {d - 1}"
                    )
                col[row] = col.get(row, 0) + c
            cols.append({r: c for r, c in sorted(col.items()) if c})
    return ChainComplex(bases, columns)


def _row_index(elems: list, d: int) -> dict:
    """The row of each basis element of degree d; raises ValueError when
    the basis lists an element twice."""
    index = {e: r for r, e in enumerate(elems)}
    if len(index) != len(elems):
        twice = next(e for r, e in enumerate(elems) if index[e] != r)
        raise ValueError(f"the degree-{d} basis lists {twice!r} twice")
    return index


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
    the diagonal entries nonnegative and each dividing the next.  Only
    swaps, negations and adding an integer multiple of one row or column to
    another are used; the module docstring gives the pivot rule.
    """
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if a else 0
    left = mat_identity(rows)
    right = mat_identity(cols)

    def add_row(i, j, q):  # row i += q * row j
        for m in (a, left):
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]

    def add_col(i, j, q):  # column i += q * column j
        for m in (a, right):
            for row in m:
                row[i] += q * row[j]

    for k in range(min(rows, cols)):
        while True:
            # (k, k) is the block's first position, so it keeps a tied pivot
            block = [
                (abs(x), i, j)
                for i in range(k, rows)
                for j, x in enumerate(a[i][k:], k)
                if x
            ]
            if not block:
                return a, left, right
            _, pi, pj = min(block)
            a[k], a[pi], left[k], left[pi] = a[pi], a[k], left[pi], left[k]
            if pj != k:
                for m in (a, right):
                    for row in m:
                        row[k], row[pj] = row[pj], row[k]
            p = a[k][k]
            for i in range(k + 1, rows):
                if a[i][k]:
                    add_row(i, k, -(a[i][k] // p))
            for j in range(k + 1, cols):
                if a[k][j]:
                    add_col(j, k, -(a[k][j] // p))
            if any(a[i][k] for i in range(k + 1, rows)) or any(a[k][k + 1 :]):
                continue  # a remainder smaller than |p| is the next pivot
            if p in (1, -1):
                break
            bad = [i for i in range(k + 1, rows) if any(x % p for x in a[i][k + 1 :])]
            if not bad:
                break
            add_row(k, bad[0], 1)  # the next round leaves a remainder < |p|
        if a[k][k] < 0:
            a[k], left[k] = [-x for x in a[k]], [-x for x in left[k]]
    return a, left, right


def _eliminate_units(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Unit-pivot elimination on copies of the given sparse rows.

    Repeatedly takes a +-1 entry of the sparsest row, choosing among them the
    column held by the fewest rows to limit fill, clears that column from
    the other rows and drops the pivot row and column: a unimodular change
    that splits off an invariant factor 1.  Returns the number of pivots and
    the nonzero rows left, none of which has a unit entry.
    """
    rows = [dict(r) for r in rows if r]
    holders: dict[int, set[int]] = {}  # column -> the rows with an entry there
    for i, row in enumerate(rows):
        for k in row:
            holders.setdefault(k, set()).add(i)
    alive = set(range(len(rows)))
    pivots = 0
    progress = True
    while progress:
        progress = False
        for i in sorted(alive, key=lambda i: len(rows[i])):
            row = rows[i]
            units = [k for k, c in row.items() if c == 1 or c == -1]
            if not units:
                continue
            k = min(units, key=lambda k: len(holders[k]))
            p = row[k]
            for j in holders[k] - {i}:
                other = rows[j]
                f = other[k] * p
                for key, c in row.items():
                    v = other.get(key, 0) - f * c
                    if v:
                        if key not in other:
                            holders[key].add(j)
                        other[key] = v
                    else:  # f * c cancelled an entry of the other row
                        del other[key]
                        holders[key].discard(j)
                if not other:
                    alive.discard(j)
            for key in row:
                holders[key].discard(i)
            alive.discard(i)
            pivots += 1
            progress = True
    return pivots, [rows[i] for i in sorted(alive)]


def _rank_and_torsion(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and invariant factors > 1 of the matrix with these sparse rows:
    unit pivots first, then ``smith_normal_form`` on the residue."""
    pivots, rest = _eliminate_units(rows)
    if not rest:
        return pivots, []
    where = {k: t for t, k in enumerate(sorted({k for row in rest for k in row}))}
    dense = [[0] * len(where) for _ in rest]
    for out, row in zip(dense, rest):
        for k, c in row.items():
            out[where[k]] = c
    d, _, _ = smith_normal_form(dense)
    factors = [d[i][i] for i in range(min(len(d), len(where))) if d[i][i]]
    return pivots + len(factors), sorted(f for f in factors if f > 1)


def homology_all(complex_: ChainComplex) -> dict[int, tuple[int, list[int]]]:
    """Free rank and torsion invariant factors (> 1) of H_d for every degree
    d of the complex.  Validates the complex once and reduces each boundary
    once."""
    # the columns of a boundary are the rows of its transpose, which has
    # the same rank and invariant factors
    reduced = {d: _rank_and_torsion(cols) for d, cols in complex_.validate().items()}
    out = {}
    for d in complex_.degrees():
        rank_out, _ = reduced.get(d, (0, []))
        rank_in, torsion = reduced.get(d + 1, (0, []))
        out[d] = (complex_.dim(d) - rank_out - rank_in, torsion)
    return out


def homology(complex_: ChainComplex, d: int) -> tuple[int, list[int]]:
    """Free rank and torsion invariant factors (> 1) of H_d."""
    return homology_all(complex_).get(d, (0, []))
