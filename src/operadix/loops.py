"""Cosimplicial relative loop space for a finite monoid pair.

For monoids N <= M the cosimplicial abelian group has level-k basis
M^k x N; cofaces insert the unit, duplicate a coordinate, or duplicate via
the endpoint, and codegeneracies delete a coordinate.  Its truncated
totalization is ``CobarTot`` over the monoid bialgebra Z[M]: the closed part
is the unreduced cobar totalization, the open part the relative one with
coefficients Z[N] and coaction y -> y (x) y.  This module adds the
conormalized basis with its quotient complex and the commutator homotopy
``homotopy_H``, re-exports the cobar operations under their one name each
(``cup``, ``sqcup``, ``inc_tot``, ``act_Tk``, ``act_Tj``), and keeps the
tuple-level structure they are checked against.

Sign conventions (verified mechanically on exhaustive small-monoid bases,
uniquely pinned over Z/3): the homotopy term at slot i carries
(-1)^{i + i|g| + |f||g|}; its defining identity reads
d(H(f,u)) + H(df,u) + (-1)^{|f|} H(f,du)
= inc(f) |_| u - (-1)^{|f||u|} u |_| inc(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .chains import ChainComplex, LinComb, build_complex, homology_all
from .cobar import (
    ComoduleAlgebra,
    CobarTot,
    act_Tj,
    act_Tk,
    cup,
    inc_tot,
    monoid_bialgebra,
    sqcup,
)

__all__ = [
    "FiniteMonoid",
    "NotSubmonoid",
    "CosimplicialAbGroup",
    "omega",
    "gamma",
    "right_translate",
    "varsigma_prime",
    "varsigma_i",
    "varsigma",
    "iota",
    "rho",
    "TotComplex",
    "check_window",
    "cup",
    "sqcup",
    "inc_tot",
    "homotopy_H",
    "act_Tk",
    "act_Tj",
]


class NotSubmonoid(ValueError):
    """The designated subset is not closed or misses the unit."""


class FiniteMonoid:
    """A finite associative monoid given by its multiplication table."""

    def __init__(self, elements, unit, table):
        self.elements = tuple(elements)
        self.unit = unit
        self.table = dict(table)
        if unit not in self.elements:
            raise ValueError("unit must be an element")
        for a, b in product(self.elements, repeat=2):
            if (a, b) not in self.table or self.table[(a, b)] not in self.elements:
                raise ValueError(f"multiplication undefined or escapes at {(a, b)}")
        for a in self.elements:
            if self.table[(self.unit, a)] != a or self.table[(a, self.unit)] != a:
                raise ValueError(f"unit law fails at {a}")
        for a, b, c in product(self.elements, repeat=3):
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise ValueError(f"associativity fails at {(a, b, c)}")

    def mul(self, a, b):
        return self.table[(a, b)]

    def check_submonoid(self, subset) -> tuple:
        sub = tuple(subset)
        if self.unit not in sub:
            raise NotSubmonoid("unit missing from the subset")
        for a, b in product(sub, repeat=2):
            if self.mul(a, b) not in sub:
                raise NotSubmonoid(f"subset not closed under product at {(a, b)}")
        return sub

    @classmethod
    def cyclic(cls, n: int) -> "FiniteMonoid":
        """The cyclic group of order n, written multiplicatively as 0..n-1.

        Addition mod n is associative and unital by construction, so the
        table is built unchecked, in order^2 steps instead of order^3."""
        if n < 1:
            raise ValueError(f"a cyclic group has order at least 1, not {n}")
        elems = range(n)
        return _unchecked(elems, 0, {(a, b): (a + b) % n for a in elems for b in elems})

    def __repr__(self) -> str:
        return f"FiniteMonoid({len(self.elements)} elements)"


def _unchecked(elements, unit, table: dict) -> FiniteMonoid:
    """Build a FiniteMonoid from its fields without re-running the table
    checks.

    Only for internal use on tables valid by construction: ``table`` is
    defined, closed, unital and associative on ``elements``."""
    M = object.__new__(FiniteMonoid)
    M.elements, M.unit, M.table = tuple(elements), unit, table
    return M


# ---------------------------------------------------------------------------
# cosimplicial structure


@dataclass
class CosimplicialAbGroup:
    """Levelwise bases M^k x N with the loop-space cofaces/codegeneracies."""

    M: FiniteMonoid
    N: tuple

    def level(self, k: int) -> list:
        """Basis of level k: (coordinates, endpoint) pairs."""
        return [(xs, y) for xs in product(self.M.elements, repeat=k) for y in self.N]

    def coface(self, i: int, elem):
        xs, y = elem
        k = len(xs)
        if not 0 <= i <= k + 1:
            raise ValueError(f"coface index {i} out of range at level {k}")
        if i == 0:
            return ((self.M.unit,) + xs, y)
        if i == k + 1:
            return (xs + (y,), y)
        return (xs[:i] + (xs[i - 1],) + xs[i:], y)

    def codegeneracy(self, i: int, elem):
        xs, y = elem
        k = len(xs)
        if not 0 <= i <= k - 1:
            raise ValueError(f"codegeneracy index {i} out of range at level {k}")
        return (xs[: i] + xs[i + 1 :], y)

    def check_identities(self, max_level: int) -> None:
        """Exhaustively verify the cosimplicial identities up to a level."""
        for k in range(max_level):
            for e in self.level(k):
                for i in range(k + 2):
                    for j in range(i + 1, k + 3):
                        lhs = self.coface(j, self.coface(i, e))
                        rhs = self.coface(i, self.coface(j - 1, e))
                        if lhs != rhs:
                            raise ValueError(f"coface identity fails at {(i, j, e)}")
        for k in range(2, max_level + 2):
            for e in self.level(k):
                for j in range(k - 1):
                    for i in range(j + 1):
                        lhs = self.codegeneracy(j, self.codegeneracy(i, e))
                        rhs = self.codegeneracy(i, self.codegeneracy(j + 1, e))
                        if lhs != rhs:
                            raise ValueError(
                                f"codegeneracy identity fails at {(i, j, e)}"
                            )
        for k in range(max_level):
            for e in self.level(k):
                for i in range(k + 2):
                    for j in range(k + 1):
                        img = self.coface(i, e)
                        got = self.codegeneracy(j, img)
                        if i < j:
                            want = self.coface(i, self.codegeneracy(j - 1, e))
                        elif i in (j, j + 1):
                            want = e
                        else:
                            want = self.coface(i - 1, self.codegeneracy(j, e))
                        if got != want:
                            raise ValueError(f"mixed identity fails at {(i, j, e)}")


def omega(M: FiniteMonoid, N) -> CosimplicialAbGroup:
    """The cosimplicial relative loop space of the pair (M, N)."""
    return CosimplicialAbGroup(M, M.check_submonoid(N))


# ---------------------------------------------------------------------------
# the multiplicative operad and its relative module (tuple level)


def gamma(M: FiniteMonoid, f, gs):
    """gamma(f; g_1, ..., g_k): left-translate each block by its coordinate."""
    if len(gs) != len(f):
        raise ValueError("need one argument tuple per coordinate")
    out = []
    for x, g in zip(f, gs):
        out.extend(M.mul(x, y) for y in g)
    return tuple(out)


def right_translate(M: FiniteMonoid, g, n):
    """Diagonal right action g |> n = (x_1 n, ..., x_l n)."""
    return tuple(M.mul(x, n) for x in g)


def varsigma_prime(M: FiniteMonoid, beta, f, args):
    """Interleave relative arguments into the slots selected by beta.

    ``beta`` is a strictly increasing tuple of slot indices (1-based, length
    s <= k); slot beta(t) receives the t-th argument right-translated by the
    product of the earlier endpoints, and unselected slots receive singleton
    constants accumulating those endpoints.
    """
    k = len(f)
    s = len(beta)
    if len(args) != s:
        raise ValueError("one argument per selected slot")
    if list(beta) != sorted(set(beta)) or any(not 1 <= b <= k for b in beta):
        raise ValueError("selector must be strictly increasing within 1..k")
    acc = M.unit  # product n_t ... n_1 of the endpoints seen so far
    fill = [(M.unit,)] * k
    seen = 0
    for p in range(1, k + 1):
        if seen < s and beta[seen] == p:
            g, n = args[seen]
            fill[p - 1] = right_translate(M, tuple(g), acc)
            acc = M.mul(n, acc)
            seen += 1
        else:
            fill[p - 1] = (acc,)
    return (gamma(M, f, fill), acc)


def varsigma_i(M: FiniteMonoid, f, i: int, arg):
    """One relative argument in slot i (selector of size one)."""
    return varsigma_prime(M, (i,), f, [arg])


def varsigma(M: FiniteMonoid, f, args):
    """All slots selected (selector of full size)."""
    return varsigma_prime(M, tuple(range(1, len(f) + 1)), f, args)


def iota(M: FiniteMonoid, f):
    """Empty selector: the inclusion (f; 1)."""
    return (tuple(f), M.unit)


def rho(M: FiniteMonoid, u, gs):
    """Right action: ((f; n), g_1, ..., g_k) -> (gamma(f; g_1, ..., g_k); n)."""
    f, n = u
    return (gamma(M, f, gs), n)


# ---------------------------------------------------------------------------
# truncated totalizations


# The most tuple entries a totalization's raw window may hold: the sum over
# levels k <= t of (k + 1) |M|^k |N| (|N| read as 1 on the closed part), each
# raw tuple of level k counted with its k coordinates plus one.  ``basis``
# scans every raw tuple and ``homology`` reads the conormalized ones.  On a
# shared 2-vCPU x86-64 machine the largest accepted windows take up to about
# five seconds of homology (|M| = 148 at truncation 2: 9.8 million entries,
# 4.7 s; |M| = 7 at truncation 6: 6.6 million, 3 s).  Counting entries, not
# tuples, also bounds the one-element monoid, whose level-k tuple is k
# coordinates long.
MAX_WINDOW = 10**7


def check_window(order: int, sub_order: int, truncation: int, kind: str) -> None:
    """Raise ValueError when the raw window of a ``kind`` totalization over
    an ``order``-element monoid, with a ``sub_order``-element submonoid on
    the open part, holds more than ``MAX_WINDOW`` tuple entries."""
    size, tuples = 0, sub_order if kind == "open" else 1
    for k in range(truncation + 1):
        size += (k + 1) * tuples
        if size > MAX_WINDOW:
            raise ValueError(
                f"truncation {truncation} over a {order}-element "
                f"monoid gives more than {MAX_WINDOW} tuple entries, the "
                f"window limit"
            )
        tuples *= order


class TotComplex(CobarTot):
    """``CobarTot`` over the monoid bialgebra Z[M], whose basis names are
    the elements themselves; the open part has coefficients in Z[N].

    ``kind`` is "closed" (basis: coordinate tuples) or "open" (basis:
    (coordinates, endpoint) pairs).  The cochain degree is the level;
    ``basis`` lists the conormalized tuples (first coordinate not the unit,
    no adjacent equal coordinates), on which the differential reduces to the
    signed endpoint-append.  Raises ValueError when the raw window holds
    more than ``MAX_WINDOW`` tuple entries.
    """

    def __init__(self, M: FiniteMonoid, N, truncation: int = 4, kind: str = "open"):
        self.M, self.N, self.kind = M, M.check_submonoid(N), kind
        if kind not in ("closed", "open"):
            raise ValueError("kind is 'closed' or 'open'")
        check_window(len(M.elements), len(self.N), truncation, kind)
        B = monoid_bialgebra(M, lambda g: g)
        C = None
        if kind == "open":
            # a submonoid of M inherits M's laws: check_submonoid has checked
            # that it holds the unit and is closed
            ZN = monoid_bialgebra(_unchecked(self.N, M.unit, M.table), lambda g: g)
            C = ComoduleAlgebra(B, ZN.basis, ZN.unit, ZN.product, ZN.coproduct)
        super().__init__(B, C, truncation)

    # perfbench's tracer wraps these by name in this class's own namespace
    differential = CobarTot.differential
    conormal_project = CobarTot.conormal_project

    def _normal(self, xs) -> bool:
        if xs and xs[0] == self.M.unit:
            return False
        return all(a != b for a, b in zip(xs, xs[1:]))

    def basis(self, degree: int) -> list:
        if degree < 0 or degree > self.truncation:
            return []
        tuples = [
            xs for xs in product(self.M.elements, repeat=degree) if self._normal(xs)
        ]
        if self.kind == "closed":
            return tuples
        return [(xs, y) for xs in tuples for y in self.N]

    def chain_complex(self) -> ChainComplex:
        """The conormalized truncated complex with negated degrees: the
        quotient by the degenerate tuples, whose images are dropped."""

        def image(e) -> LinComb:
            return LinComb(
                (b, c)
                for b, c in self.differential(LinComb.unit(e))
                if self._normal(self._split(b)[0])
            )

        bases = {-k: self.basis(k) for k in range(self.truncation + 1)}
        return build_complex(bases, image)

    def homology(self) -> dict[int, tuple[int, list[int]]]:
        """Cohomology per level, reliable strictly inside the window."""
        cx = self.chain_complex()
        return {-d: h for d, h in homology_all(cx).items()}


# ---------------------------------------------------------------------------
# operations on the totalizations: the cobar operations over Z[M], imported
# from ``cobar`` and re-exported, and the commutator homotopy


def homotopy_H(tot: TotComplex, f: LinComb, u: LinComb) -> LinComb:
    """The commutator homotopy: the one-argument open insertion sum.

    d(H(f,u)) + H(df,u) + (-1)^{|f|} H(f,du)
    = inc(f) |_| u - (-1)^{|f||u|} u |_| inc(f).
    """
    return act_Tj(tot, f, [u])
