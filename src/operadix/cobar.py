"""Cobar and relative cobar constructions over finite-rank coefficients.

Three layers:

1. Graded dg-coalgebras and comodules with explicit structure constants,
   their (relative) cobar constructions as word complexes, twisting and
   relative-twisting cochain checks, and the induced word-to-module map.
   ``DGComodule.validate`` checks the structure laws; a coalgebra, and a
   bialgebra's coalgebra, validates as a comodule over itself plus the
   right counit law.  The closed construction is the word algebra and the
   relative one the word module: both products are the truncated
   concatenation ``CobarObject.action``, with the empty word as unit.

2. Ungraded bialgebras (e.g. monoid algebras): the multiplicative operad
   with components the tensor powers of the bialgebra (``mb_compose``),
   and the wide module structure on tensor powers with a comodule-algebra
   coefficient (``z_coface``).  Both compute through two basis-tuple
   kernels: ``_gamma_terms``, the composition gamma, and ``_twisted_terms``,
   the twisted concatenation, whose left-to-right fold over the slots is
   the wide left action lambda' (``_wide_terms``).  These rest on the
   diagonal translations of a tuple by a basis element, a <| t and t |> b;
   each is computed once per bialgebra and kept on it.

3. The truncated totalization ``CobarTot`` of the unreduced (relative)
   cobar complex, whose ``chain_complex()`` is that complex, with its
   kernel conormalization; like the word complexes, its ``differential``
   and ``conormal_project`` read a term outside the window as zero.  The
   conormal projection of each basis element is computed once per
   totalization and kept on it; a combination is projected as the sum of
   its terms' projections.  It carries the experimental homotopy
   operations, each under one name: the concatenation ``cup``, the
   closed-to-relative inclusion ``inc_tot``, the twisted concatenation
   ``sqcup`` (one step of that fold), and the closed and open insertion
   sums ``act_Tk`` and ``act_Tj``, gamma and lambda' placed in one signed
   sum ``_insertion_sum``;
   relation checks are reported, not assumed.

Conventions: the desuspension shifts degree down by one and anti-commutes
with the differential; word differentials carry the Koszul prefix sign
(-1)^{sum of earlier desuspended degrees}; the quadratic part of the word
differential on a letter c is sum (-1)^{|c1|} [c1, c2] over the reduced
coproduct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, product

from .chains import (
    ChainComplex,
    LinComb,
    _expand_terms,
    bilinear,
    build_complex,
    linear,
)

__all__ = [
    "NotOneReduced",
    "DGCoalgebra",
    "DGComodule",
    "CobarObject",
    "cobar",
    "relative_cobar",
    "cobar_algebra",
    "relative_cobar_module",
    "universal_twisting",
    "twisting_check",
    "relative_twisting_check",
    "overline_fg",
    "dg_map_check",
    "Bialgebra",
    "ComoduleAlgebra",
    "monoid_bialgebra",
    "group_bialgebra",
    "diagonal_comodule",
    "mb_compose",
    "z_coface",
    "CobarTot",
    "cup",
    "inc_tot",
    "act_Tk",
    "sqcup",
    "act_Tj",
    "dual_group_bialgebra",
    "check_report_window",
    "rs2_experimental_report",
]


class NotOneReduced(ValueError):
    """The coalgebra has basis elements in degree one (or a non-unit in
    degree zero)."""


# ---------------------------------------------------------------------------
# layer 1: graded coalgebras, cobar, twisting


@dataclass
class DGCoalgebra:
    """Finite-rank graded coassociative coalgebra with coaugmentation.

    ``coproduct[name]`` is a combination of ordered pairs of basis names;
    ``differential[name]`` lowers degree by one.
    """

    degrees: dict
    differential: dict
    coproduct: dict
    counit: dict
    unit: str

    def degree(self, name) -> int:
        return self.degrees[name]

    def d(self, v: LinComb) -> LinComb:
        return linear(self.differential, v)

    def delta(self, name) -> LinComb:
        return self.coproduct[name]

    def reduced_delta(self, name) -> LinComb:
        """Coproduct minus the two primitive terms."""
        return (
            self.delta(name)
            - LinComb.unit((name, self.unit))
            - LinComb.unit((self.unit, name))
        )

    def validate(self) -> None:
        """The coalgebra is a comodule over itself with coaction the
        coproduct: the comodule laws cover every law but the right counit."""
        if self.degrees.get(self.unit) != 0:
            raise ValueError("coaugmentation must sit in degree zero")
        DGComodule(self, self.degrees, self.differential, self.coproduct).validate()
        for x in self.degrees:
            right = LinComb(
                (a, c * self.counit.get(b, 0)) for (a, b), c in self.delta(x)
            )
            if right != LinComb.unit(x):
                raise ValueError(f"right counit law fails at {x}")

    def check_one_reduced(self) -> None:
        for name, deg in self.degrees.items():
            if deg == 1 or (deg == 0 and name != self.unit):
                raise NotOneReduced(f"basis element {name} in degree {deg}")


def _leibniz_terms(N: DGComodule, pairs: LinComb):
    """Terms of (d ox 1 + (-1)^{|a|} 1 ox d) on a combination of pairs (a, n):
    ``a`` lies in the coalgebra of N and ``n`` in N."""
    C = N.coalgebra
    for (a, n), c in pairs:
        for a2, c2 in C.d(LinComb.unit(a)):
            yield (a2, n), c * c2
        sign = -1 if C.degree(a) % 2 else 1
        for n2, c2 in N.d(LinComb.unit(n)):
            yield (a, n2), sign * c * c2


@dataclass
class DGComodule:
    """Finite-rank left dg-comodule; ``coaction[name]`` is a combination of
    (coalgebra name, module name) pairs."""

    coalgebra: DGCoalgebra
    degrees: dict
    differential: dict
    coaction: dict

    def degree(self, name) -> int:
        return self.degrees[name]

    def d(self, v: LinComb) -> LinComb:
        return linear(self.differential, v)

    def rho(self, name) -> LinComb:
        return self.coaction[name]

    def reduced_rho(self, name) -> LinComb:
        return self.rho(name) - LinComb.unit((self.coalgebra.unit, name))

    def validate(self) -> None:
        """Check that every basis element has a coaction entry, every
        element that d or the coaction names has a degree and every
        coalgebra element the coaction names has a coproduct entry, then
        the degrees of d and the coaction, the left counit law,
        coassociativity, d^2 = 0 and co-Leibniz at every basis element."""
        C = self.coalgebra
        for x in self.degrees:
            if x not in self.coaction:
                raise ValueError(f"coaction table has no entry for {x!r}")
            named = [(y, self.degrees) for y, _ in self.d(LinComb.unit(x))]
            for (a, n), _ in self.rho(x):
                named += [(a, C.degrees), (n, self.degrees)]
            for y, degrees in named:
                if y not in degrees:
                    raise ValueError(f"{y!r}, named at {x!r}, has no degree")
            for (a, _), _ in self.rho(x):
                if a not in C.coproduct:
                    raise ValueError(
                        f"{a!r}, named at {x!r}, has no coproduct entry"
                    )
        for x in self.degrees:
            # homogeneity
            for y, _ in self.differential.get(x, LinComb()):
                if self.degree(y) != self.degree(x) - 1:
                    raise ValueError(f"differential is not degree -1 at {x}")
            for (a, n), _ in self.rho(x):
                if C.degree(a) + self.degree(n) != self.degree(x):
                    raise ValueError(f"coaction is not degree-preserving at {x}")
            left = LinComb((n, c * C.counit.get(a, 0)) for (a, n), c in self.rho(x))
            if left != LinComb.unit(x):
                raise ValueError(f"left counit law fails at {x}")
            lhs = LinComb(
                ((a1, a2, n), c * c2)
                for (a, n), c in self.rho(x)
                for (a1, a2), c2 in C.delta(a)
            )
            rhs = LinComb(
                ((a, b, n2), c * c2)
                for (a, n), c in self.rho(x)
                for (b, n2), c2 in self.rho(n)
            )
            if lhs != rhs:
                raise ValueError(f"coassociativity fails at {x}")
            if self.d(self.d(LinComb.unit(x))):
                raise ValueError(f"differential does not square to zero at {x}")
            # co-Leibniz: rho d = (d ox 1 + (-1)^{|a|} 1 ox d) rho
            lhs = LinComb(
                (t, c * ct)
                for y, c in self.d(LinComb.unit(x))
                for t, ct in self.rho(y)
            )
            rhs = LinComb(_leibniz_terms(self, self.rho(x)))
            if lhs != rhs:
                raise ValueError(f"co-Leibniz fails at {x}")


@dataclass
class CobarObject:
    """Word complex of the (relative) cobar construction, truncated by
    total degree.

    Closed words are tuples of positive-degree cogenerator names; relative
    words carry a comodule tail: ``(word, module name)``.  The closed
    construction is the word dg-algebra and the relative one the word
    dg-module over it: ``action`` concatenates closed words onto words, the
    empty word ``()`` is the unit, and ``differential`` is the word
    differential.  A word outside the window ``0..truncation`` reads as
    zero, on input and on output.

    The coalgebra and the comodule are read once, at construction, into
    per-letter and per-tail degree and differential tables.  The first
    ``words`` call lists every degree's words in one walk up to the
    truncation, and each word's differential is computed once; both are
    kept on the object.  Edits to the coalgebra or comodule after
    construction are not seen.
    """

    coalgebra: DGCoalgebra
    comodule: DGComodule | None
    truncation: int

    def __post_init__(self):
        C, N = self.coalgebra, self.comodule
        C.check_one_reduced()
        # the desuspended degree of every coalgebra element as a letter, and
        # the degree of every tail
        self._letter_degrees = {x: d - 1 for x, d in C.degrees.items()}
        self._tail_degrees = {} if N is None else dict(N.degrees)
        self._letters = [x for x, d in C.degrees.items() if d >= 2]
        L, T = self._letter_degrees, self._tail_degrees
        # d on one letter s^{-1}x as (replacement letters, coefficient, the
        # change of degree): the internal part d(s^{-1}x) = -s^{-1}(dx)
        # first, then the quadratic part sum (-1)^{|a|} [a, b]
        self._letter_terms = {
            x: [
                ((y,), -cy, L[y] - L[x])
                for y, cy in C.d(LinComb.unit(x))
                if C.degree(y) >= 2
            ]
            + [
                ((a, b), (-1 if C.degree(a) % 2 else 1) * cab, L[a] + L[b] - L[x])
                for (a, b), cab in C.reduced_delta(x)
                if C.degree(a) >= 2 and C.degree(b) >= 2
            ]
            for x in self._letters
        }
        # d on a tail n as (appended letters, new tail, coefficient, the
        # change of degree): the comodule differential first, then the
        # reduced coaction
        self._tail_terms = {}
        if N is not None:
            self._tail_terms = {
                n: [((), y, cy, T[y] - T[n]) for y, cy in N.d(LinComb.unit(n))]
                + [
                    ((z,), n2, czn, L[z] + T[n2] - T[n])
                    for (z, n2), czn in N.reduced_rho(n)
                    if C.degree(z) >= 2
                ]
                for n in N.degrees
            }
        self._words: dict[int, list] | None = None
        self._diffs: dict = {}

    def letter_degree(self, x) -> int:
        return self._letter_degrees[x]

    def word_degree(self, w) -> int:
        degree = self._letter_degrees
        if self.comodule is not None:
            word, n = w
            return sum([degree[x] for x in word]) + self._tail_degrees[n]
        return sum([degree[x] for x in w])

    def words(self, degree: int) -> list:
        """All basis words of the given total degree (within truncation)."""
        if degree < 0 or degree > self.truncation:
            return []
        if self._words is None:
            self._words = self._walk()
        # a fresh list: build_complex keeps it as a basis
        return list(self._words[degree])

    def _walk(self) -> dict[int, list]:
        """Every basis word, as one sorted list per degree 0..truncation,
        from one walk over the words of letters up to the truncation."""
        top = self.truncation
        out: dict[int, list] = {d: [] for d in range(top + 1)}
        tails = (
            [(None, 0)] if self.comodule is None else list(self._tail_degrees.items())
        )
        # a tail of negative degree lets the letters exceed the truncation;
        # letters have degree >= 1, so the walk still ends
        bound = top - min([0] + [extra for _, extra in tails])
        letters = [(x, self._letter_degrees[x]) for x in self._letters]
        stack = [((), 0)]
        while stack:
            word, deg = stack.pop()
            for tail, extra in tails:
                if 0 <= deg + extra <= top:
                    out[deg + extra].append(word if tail is None else (word, tail))
            for x, dx in letters:
                if deg + dx <= bound:
                    stack.append((word + (x,), deg + dx))
        return {d: sorted(ws) for d, ws in out.items()}

    def differential(self, v: LinComb) -> LinComb:
        return LinComb(
            (t, c * ct)
            for w, c in v.terms.items()
            for t, ct in self._diff_basis(w).terms.items()
        )

    def _diff_basis(self, w) -> LinComb:
        if w not in self._diffs:
            degree, top = self.word_degree(w), self.truncation
            terms = self._diff_terms(w) if 0 <= degree <= top else ()
            self._diffs[w] = LinComb(
                (e, c) for e, c, shift in terms if 0 <= degree + shift <= top
            )
        return self._diffs[w]

    def _diff_terms(self, w):
        """The terms of d(w) with their change of degree: each letter, then
        the tail, is replaced by its table entries under the Koszul sign of
        the letters before it."""
        word, tail = (w, None) if self.comodule is None else w
        prefix = 0
        for i, x in enumerate(word):
            sign = -1 if prefix % 2 else 1
            for letters, c, shift in self._letter_terms[x]:
                new_word = word[:i] + letters + word[i + 1 :]
                yield (new_word if tail is None else (new_word, tail)), sign * c, shift
            prefix += self._letter_degrees[x]
        if tail is not None:
            sign = -1 if prefix % 2 else 1
            for letters, n, c, shift in self._tail_terms[tail]:
                yield (word + letters, n), sign * c, shift

    def action(self, a: LinComb, u: LinComb) -> LinComb:
        """Concatenation of the closed words of ``a`` onto the words of
        ``u``: the product of the closed word algebra, or its action on the
        relative word module.  Terms outside the window read as zero."""
        degree = self._letter_degrees
        right = [(w, c, self.word_degree(w)) for w, c in u.terms.items()]
        terms = []
        for wa, ca in a.terms.items():
            room = self.truncation - sum([degree[x] for x in wa])
            for w, c, d in right:
                if 0 <= d <= room:
                    e = wa + w if self.comodule is None else (wa + w[0], w[1])
                    terms.append((e, ca * c))
        return LinComb(terms)

    def chain_complex(self) -> ChainComplex:
        bases = {d: self.words(d) for d in range(self.truncation + 1)}
        return build_complex({d: b for d, b in bases.items() if b}, self._diff_basis)


def cobar(C: DGCoalgebra, truncation: int = 5) -> CobarObject:
    return CobarObject(C, None, truncation)


def relative_cobar(C: DGCoalgebra, N: DGComodule, truncation: int = 5) -> CobarObject:
    if N.coalgebra is not C:
        raise ValueError("comodule is not over the given coalgebra")
    return CobarObject(C, N, truncation)


# --- the word algebra and module, twisting ---------------------------------


def cobar_algebra(cob: CobarObject) -> CobarObject:
    """The word complex of the closed cobar construction as a dg-algebra
    under truncated concatenation: the construction itself."""
    if cob.comodule is not None:
        raise ValueError("use the closed construction")
    return cob


def relative_cobar_module(cob: CobarObject, alg: CobarObject) -> CobarObject:
    """The relative word complex as a dg-module over the closed word algebra
    ``alg`` under truncated concatenation: the construction itself.

    ``alg`` must be the closed construction over the same coalgebra with the
    same truncation, since ``cob.action`` is what concatenates."""
    if cob.comodule is None:
        raise ValueError("use the relative construction")
    if alg.comodule is not None:
        raise ValueError("the algebra must be the closed construction")
    if alg.coalgebra is not cob.coalgebra:
        raise ValueError(
            "the algebra and the module are over different coalgebras"
        )
    if alg.truncation != cob.truncation:
        raise ValueError(
            f"the algebra is truncated at {alg.truncation}, "
            f"the module at {cob.truncation}"
        )
    return cob


def universal_twisting(cob: CobarObject):
    """The canonical cochain sending a cogenerator to its one-letter word."""
    C = cob.coalgebra
    return {
        x: LinComb.unit((x,))
        for x, d in C.degrees.items()
        if d >= 2 and cob.word_degree((x,)) <= cob.truncation
    }


def twisting_check(C: DGCoalgebra, A: CobarObject, f: dict) -> bool:
    """Whether f cup f equals the Hom-complex differential of f (degree -1
    convention: the two differential terms enter with the same sign)."""

    def fmap(name) -> LinComb:
        return f.get(name, LinComb())

    for x in C.degrees:
        square = LinComb(
            # the degree -1 cochain crossing a gives the sign
            (t, (-1 if C.degree(a) % 2 else 1) * c * ct)
            for (a, b), c in C.delta(x)
            for t, ct in A.action(fmap(a), fmap(b))
        )
        boundary = A.differential(fmap(x)) + linear(f, C.d(LinComb.unit(x)))
        if square != boundary:
            return False
    return True


def relative_twisting_check(
    C: DGCoalgebra, A: CobarObject, N: DGComodule, M: CobarObject, f: dict, g: dict
) -> bool:
    """Whether (f, g) is a relative twisting pair: the Hom differential of g
    equals the coaction twisted by f.

    ``M`` must be the relative construction over ``C`` and ``N``, and ``A``
    its word algebra (``relative_cobar_module(M, A)``); any other pairing
    raises ``ValueError``.  ``f`` must already pass
    ``twisting_check(C, A, f)``; it is not checked again here."""
    relative_cobar_module(M, A)
    if C is not M.coalgebra:
        raise ValueError("C is not the coalgebra of the module M")
    if N is not M.comodule:
        raise ValueError("N is not the comodule of the module M")

    def fmap(name) -> LinComb:
        return f.get(name, LinComb())

    def gmap(name) -> LinComb:
        return g.get(name, LinComb())

    for n in N.degrees:
        twist = LinComb(
            (t, c * ct)
            for (a, n2), c in N.rho(n)
            for t, ct in M.action(fmap(a), gmap(n2))
        )
        # g has degree zero
        boundary = M.differential(gmap(n)) - linear(g, N.d(LinComb.unit(n)))
        if twist != boundary:
            return False
    return True


def overline_fg(
    cob: CobarObject, A: CobarObject, M: CobarObject, f: dict, g: dict
):
    """The induced map from the relative word complex to M: multiply the
    letterwise images of f and act on the image of the tail.

    ``A`` must be M's word algebra (``relative_cobar_module(M, A)``), and
    ``cob``, the source, a relative construction over M's coalgebra and
    comodule with M's truncation.  The image of each word is computed once
    per map, on first use, and kept in the returned map: ``((), n)`` goes to
    g(n) and ``(x w, n)`` to f(x) acting on the image of ``(w, n)``, each
    read in the window of M; the terms of f(x) of negative degree read as
    zero, as in the left-to-right product of the letters.  Nothing the map
    holds refers back to it, so its kept images, and M and A if nothing
    else holds them, are freed as soon as the map is dropped."""
    relative_cobar_module(M, A)
    if cob.comodule is None:
        raise ValueError("the source must be the relative construction")
    if cob.coalgebra is not M.coalgebra or cob.comodule is not M.comodule:
        raise ValueError(
            "the source and the target are over different coalgebras or comodules"
        )
    if cob.truncation != M.truncation:
        raise ValueError(
            f"the source is truncated at {cob.truncation}, "
            f"the target at {M.truncation}"
        )
    letters: dict = {}
    images: dict = {}

    def letter(x) -> LinComb:
        if x not in letters:
            letters[x] = LinComb(
                (w, c) for w, c in f.get(x, LinComb()) if A.word_degree(w) >= 0
            )
        return letters[x]

    def image(w) -> LinComb:
        if w in images:
            return images[w]
        # fill the images of w's suffixes from the bare tail up
        word, n = w
        key = ((), n)
        if key not in images:
            images[key] = M.action(LinComb.unit(()), g.get(n, LinComb()))
        for i in range(len(word) - 1, -1, -1):
            tail = images[key]
            key = (word[i:], n)
            if key not in images:
                images[key] = M.action(letter(word[i]), tail)
        return images[w]

    def phi(v: LinComb) -> LinComb:
        return LinComb(
            (t, c * ct) for w, c in v.terms.items() for t, ct in image(w).terms.items()
        )

    return phi


def dg_map_check(cob: CobarObject, M: CobarObject, phi) -> bool:
    """Whether a word-complex map commutes with the differentials on every
    basis word strictly inside the truncation window."""
    for d in range(1, cob.truncation):
        for w in cob.words(d):
            lhs = phi(cob.differential(LinComb.unit(w)))
            rhs = M.differential(phi(LinComb.unit(w)))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# layer 2: ungraded bialgebras, the tensor-power operad and its wide module


def _check_complete(basis, mul_table: dict, act_table: dict, act_name: str) -> None:
    """Raise ValueError naming a key missing from a product or (co)action
    table: the structure maps read a missing key as zero."""
    for key in product(basis, repeat=2):
        if key not in mul_table:
            raise ValueError(f"product table has no entry for {key}")
    for a in basis:
        if a not in act_table:
            raise ValueError(f"{act_name} table has no entry for {a!r}")


@dataclass
class Bialgebra:
    """Ungraded unital/counital bialgebra with basis-level structure
    constants.

    The diagonal translations a <| t and t |> b of a tuple t by a basis
    element are computed once, on first use, and kept on the object.  Edits to the
    product, coproduct or counit tables after construction are not seen by
    these kept results; ``validate`` reads the tables themselves.
    """

    basis: tuple
    unit: str
    product: dict  # (a, b) -> LinComb
    coproduct: dict  # a -> LinComb over pairs
    counit: dict

    def mul(self, u: LinComb, v: LinComb) -> LinComb:
        return bilinear(self.product, u, v)

    def __post_init__(self):
        _check_complete(self.basis, self.product, self.coproduct, "coproduct")
        # filled on first use by _left_terms and _right_terms: (a, t) ->
        # a <| t and (t, b) -> t |> b, each a tuple of (tuple, coefficient)
        # pairs
        self._left: dict = {}
        self._right: dict = {}

    def validate(self) -> None:
        # the bialgebra is a comodule algebra over itself through its
        # coproduct: the algebra laws, the left counit law, coassociativity
        # and the bialgebra axiom
        _check_comodule_algebra(
            self, self.basis, self.unit, self.product, self.coproduct, "coproduct"
        )
        # the right counit law, and with the unit 1 (x) 1 this gives
        # eps(1) = 1
        eps = self.counit.get
        for x in self.basis:
            right = LinComb((a, c * eps(b, 0)) for (a, b), c in self.coproduct[x])
            if right != LinComb.unit(x):
                raise ValueError(f"right counit law fails at {x}")
        for a, b in product(self.basis, repeat=2):
            ab = self.mul(LinComb.unit(a), LinComb.unit(b))
            if sum(c * eps(p, 0) for p, c in ab) != eps(a, 0) * eps(b, 0):
                raise ValueError(f"counit is not multiplicative at {(a, b)}")


def _check_comodule_algebra(
    B: Bialgebra, basis, unit, mul_table: dict, coaction: dict, name: str
) -> None:
    """Raise ValueError naming the law and the element at which an algebra
    with a coaction of B (its coproduct, for B itself) is no comodule
    algebra: complete tables, unit and associativity, the comodule laws in
    degree zero, and a coaction that is a map of unital algebras."""
    _check_complete(basis, mul_table, coaction, name)
    mul = partial(bilinear, mul_table)
    one = LinComb.unit(unit)
    for a in basis:
        va = LinComb.unit(a)
        if mul(one, va) != va or mul(va, one) != va:
            raise ValueError(f"unit law fails at {a}")
    for a, b, c in product(basis, repeat=3):
        va, vb, vc = LinComb.unit(a), LinComb.unit(b), LinComb.unit(c)
        if mul(mul(va, vb), vc) != mul(va, mul(vb, vc)):
            raise ValueError(f"associativity fails at {(a, b, c)}")
    # the left counit and coassociativity laws
    coalgebra = DGCoalgebra(
        dict.fromkeys(B.basis, 0), {}, B.coproduct, B.counit, B.unit
    )
    DGComodule(coalgebra, dict.fromkeys(basis, 0), {}, coaction).validate()
    if coaction[unit] != LinComb.unit((B.unit, unit)):
        raise ValueError(f"{name} of the unit is not 1 (x) 1")
    for a, b in product(basis, repeat=2):
        lhs = linear(coaction, mul(LinComb.unit(a), LinComb.unit(b)))
        rhs = LinComb(
            ((px, py), c1 * c2 * cx * cy)
            for (x1, y1), c1 in coaction[a]
            for (x2, y2), c2 in coaction[b]
            for px, cx in B.product.get((x1, x2), ())
            for py, cy in mul_table.get((y1, y2), ())
        )
        if lhs != rhs:
            raise ValueError(f"{name} is not multiplicative at {(a, b)}")


@dataclass
class ComoduleAlgebra:
    """Left comodule over a bialgebra in the category of unital algebras.

    The constructor checks only that the tables are complete; ``validate``
    checks the laws, on which the wide left action's fold relies."""

    bialgebra: Bialgebra
    basis: tuple
    unit: str
    product: dict
    coaction: dict  # c -> LinComb over (b name, c name)

    def __post_init__(self):
        _check_complete(self.basis, self.product, self.coaction, "coaction")

    def validate(self) -> None:
        """Complete tables, unit and associativity of the product, the
        comodule laws in degree zero, and a coaction that is a map of unital
        algebras: rho(1) = 1 (x) 1 and rho(xy) = rho(x) rho(y)."""
        _check_comodule_algebra(
            self.bialgebra, self.basis, self.unit, self.product, self.coaction,
            "coaction",
        )


def monoid_bialgebra(M, name) -> Bialgebra:
    """The monoid algebra of a FiniteMonoid with grouplike coproduct; the
    element g is the basis element ``name(g)``."""
    n = {g: name(g) for g in M.elements}
    names = tuple(n.values())
    return Bialgebra(
        names,
        n[M.unit],
        {
            (n[a], n[b]): LinComb.unit(n[M.mul(a, b)])
            for a, b in product(M.elements, repeat=2)
        },
        {x: LinComb.unit((x, x)) for x in names},
        dict.fromkeys(names, 1),
    )


def group_bialgebra(M) -> Bialgebra:
    """The monoid algebra with grouplike coproduct, basis named by str."""
    return monoid_bialgebra(M, str)


def diagonal_comodule(B: Bialgebra) -> ComoduleAlgebra:
    """The bialgebra as a comodule algebra over itself via its coproduct."""
    return ComoduleAlgebra(
        B, B.basis, B.unit, dict(B.product), {a: B.coproduct[a] for a in B.basis}
    )


def _mul_terms(table: dict, a: tuple, b: tuple) -> list:
    """Componentwise product of two equal-length name tuples as (tuple,
    coefficient) pairs, read from a complete product table."""
    return _expand_terms([table[(x, y)] for x, y in zip(a, b)])


def _iterated_coproduct(B: Bialgebra, name, k: int) -> list:
    """The k-fold Sweedler expansion of a basis element as (k-tuple,
    coefficient) pairs (k = 0 gives the counit on the empty tuple): the
    coproduct applied k - 1 times, each time to the last component."""
    if k == 0:
        return [((), B.counit.get(name, 0))]
    terms = [((name,), 1)]
    for _ in range(k - 1):
        terms = [
            (done[:-1] + pair, c * c2)
            for done, c in terms
            for pair, c2 in B.coproduct[done[-1]]
        ]
    return terms


def _left_terms(B: Bialgebra, a_name, t: tuple) -> tuple:
    """a <| t, the diagonal left multiplication of one tuple, as (tuple,
    coefficient) pairs."""
    terms = B._left.get((a_name, t))
    if terms is None:
        terms = B._left[(a_name, t)] = tuple(
            (s, cx * cs)
            for xs, cx in _iterated_coproduct(B, a_name, len(t))
            for s, cs in _mul_terms(B.product, xs, t)
        )
    return terms


def _right_terms(B: Bialgebra, t: tuple, b_name) -> tuple:
    """t |> b, the diagonal right multiplication of one tuple, as (tuple,
    coefficient) pairs."""
    terms = B._right.get((t, b_name))
    if terms is None:
        terms = B._right[(t, b_name)] = tuple(
            (s, cx * cs)
            for xs, cx in _iterated_coproduct(B, b_name, len(t))
            for s, cs in _mul_terms(B.product, t, xs)
        )
    return terms


def mb_compose(B: Bialgebra, a: LinComb, i: int, b: LinComb) -> LinComb:
    """Partial composition of tensor powers: replace the i-th factor by its
    diagonal left translate of the argument."""
    if any(not 1 <= i <= len(ta) for ta, _ in a):
        raise ValueError(f"slot {i} out of range")
    return LinComb(
        (ta[: i - 1] + s + ta[i:], ca * cb * cs)
        for ta, ca in a
        for tb, cb in b
        for s, cs in _left_terms(B, ta[i - 1], tb)
    )


def _gamma_terms(B: Bialgebra, a: tuple, fills) -> list:
    """gamma(a; t_1, ..., t_k) on basis tuples: the i-th letter of ``a``
    left-translates the tuple t_i, and the blocks are concatenated; (tuple,
    coefficient) pairs."""
    blocks = [_left_terms(B, x, t) for x, t in zip(a, fills)]
    return [(sum(body, ()), c) for body, c in _expand_terms(blocks)]


def _twisted_terms(B: Bialgebra, C: ComoduleAlgebra, u: tuple, v: tuple) -> list:
    """The twisted concatenation of two relative basis elements (tuple,
    coefficient name): a coaction component z of u's coefficient
    right-translates v's tuple, and the rest of that coefficient multiplies
    onto v's from the right; (element, coefficient) pairs."""
    (wa, ca), (wb, cb) = u, v
    return [
        ((wa + wt, cn), cz * ct * cc)
        for (z, c2), cz in C.coaction[ca]
        for wt, ct in _right_terms(B, wb, z)
        for cn, cc in C.product[(cb, c2)]
    ]


def _wide_terms(B: Bialgebra, C: ComoduleAlgebra, beta, tf: tuple, us: tuple) -> list:
    """The wide left action lambda' on basis elements: ``tf`` a name tuple,
    ``us`` one (tuple, coefficient name) argument per selected slot of
    ``beta``, the unit tuple and coefficient in every other slot.  From the
    left, each slot's letter left-translates its filling and the result is
    twisted-concatenated onto the product so far, as
    ``loops.varsigma_prime`` accumulates the endpoints; (element,
    coefficient) pairs."""
    fills = [((B.unit,), C.unit)] * len(tf)
    for p, u in zip(beta, us):
        fills[p - 1] = u
    terms = [(((), C.unit), 1)]
    for a, (w, cname) in zip(tf, fills):
        terms = [
            (e, c * cs * ce)
            for u, c in terms
            for s, cs in _left_terms(B, a, w)
            for e, ce in _twisted_terms(B, C, u, (s, cname))
        ]
    return terms


def z_coface(B: Bialgebra, C: ComoduleAlgebra, i: int, u: LinComb) -> LinComb:
    """Cofaces of the tensor-power module built from the actions: the first
    inserts through the wide left action of the multiplication, middle ones
    act through the right action gamma, the last through the one-slot wide
    left action (both wide actions folds of the twisted concatenation).
    Linear: each term is taken at its own tensor length l, where i must lie
    in 0..l+1."""
    mu = (B.unit, B.unit)
    out = []
    for (w, cname), c in u:
        l = len(w)
        if not 0 <= i <= l + 1:
            raise ValueError(f"coface index {i} out of range at level {l}")
        if i in (0, l + 1):
            beta = (2,) if i == 0 else (1,)
            image = _wide_terms(B, C, beta, mu, ((w, cname),))
        else:
            fills = [(B.unit,)] * l
            fills[i - 1] = mu
            image = (((t, cname), ct) for t, ct in _gamma_terms(B, w, fills))
        out.extend((e, c * ce) for e, ce in image)
    return LinComb(out)


# ---------------------------------------------------------------------------
# layer 3: totalization of the unreduced constructions and the experimental
# homotopy operations


@dataclass
class CobarTot:
    """Truncated totalization of the unreduced (relative) cobar complex.

    ``C is None`` gives the closed part (basis: tuples of bialgebra basis
    names); otherwise the relative part (basis: (tuple, coefficient name)).
    The cochain degree is the tensor length; the differential is the full
    alternating coface sum; the conormal projector cuts down to the
    intersection of the codegeneracy kernels, where the operations below
    satisfy their homotopy identities.  Both maps read a term outside
    levels 0..truncation as zero, on input and on output.

    The projection of each basis element is computed once, on first use,
    and kept on the object; ``conormal_project`` returns a fresh sum of
    these.  Edits to the bialgebra or the comodule algebra after
    construction are not seen by the kept projections.
    """

    B: Bialgebra
    C: ComoduleAlgebra | None = None
    truncation: int = 4

    def __post_init__(self):
        # basis element -> its conormal projection as a tuple of (element,
        # coefficient) pairs, filled on first use by _project_basis
        self._projections: dict = {}

    def _split(self, b):
        return (b, None) if self.C is None else b

    def _join(self, w, tail):
        return w if self.C is None else (w, tail)

    def basis(self, level: int) -> list:
        if level < 0 or level > self.truncation:
            return []
        words = list(product(self.B.basis, repeat=level))
        if self.C is None:
            return words
        return [(w, c) for w in words for c in self.C.basis]

    def _coface_basis(self, i: int, b) -> list:
        """The i-th coface of one basis element of level k as (element,
        coefficient) pairs, for i in 0..k+1."""
        B = self.B
        w, tail = self._split(b)
        k = len(w)
        if i == 0:
            return [(self._join((B.unit,) + w, tail), 1)]
        if i <= k:
            return [
                (self._join(w[: i - 1] + (x, y) + w[i:], tail), c)
                for (x, y), c in B.coproduct[w[i - 1]]
            ]
        if self.C is None:
            return [(w + (B.unit,), 1)]
        return [((w + (z,), c2), c) for (z, c2), c in self.C.coaction[tail]]

    def codegeneracy(self, i: int, v: LinComb) -> LinComb:
        B = self.B

        def terms():
            for b, c in v:
                w, tail = self._split(b)
                if not 0 <= i <= len(w) - 1:
                    raise ValueError(
                        f"codegeneracy index {i} out of range at level {len(w)}"
                    )
                yield self._join(w[:i] + w[i + 1 :], tail), c * B.counit.get(w[i], 0)

        return LinComb(terms())

    def differential(self, v: LinComb) -> LinComb:
        # every coface raises the level by one
        return LinComb(
            (e, (-1) ** (i % 2) * c * ce)
            for b, c in v
            if (k := len(self._split(b)[0])) < self.truncation
            for i in range(k + 2)
            for e, ce in self._coface_basis(i, b)
        )

    def conormal_project(self, v: LinComb) -> LinComb:
        """The conormal projection prod (1 - d^i s^i) of v's in-window part,
        extended linearly from the projections of the basis elements."""
        return LinComb(
            (t, c * ct)
            for b, c in v
            if len(self._split(b)[0]) <= self.truncation
            for t, ct in self._project_basis(b)
        )

    def _project_basis(self, b) -> tuple:
        """The projection of one basis element, computed once: successively
        remove the degenerate summands d^i s^i."""
        terms = self._projections.get(b)
        if terms is None:
            piece = LinComb.unit(b)
            for i in range(len(self._split(b)[0]) - 1, -1, -1):
                degenerate = (
                    (t, -c * ct)
                    for s, c in self.codegeneracy(i, piece)
                    for t, ct in self._coface_basis(i, s)
                )
                piece = LinComb(chain(piece, degenerate))
            terms = self._projections[b] = tuple(piece)
        return terms

    def chain_complex(self) -> ChainComplex:
        """The unreduced (relative) cobar complex up to the truncation: the
        tensor powers with the alternating coface differential (unit
        insertions, coproducts, and the final unit or coaction), degrees
        negated (a cochain complex)."""
        bases = {-k: self.basis(k) for k in range(self.truncation + 1)}
        return build_complex(bases, lambda e: self.differential(LinComb.unit(e)))


def cup(tot: CobarTot, f: LinComb, g: LinComb) -> LinComb:
    """Concatenation product on the closed part."""
    if tot.C is not None:
        raise ValueError("cup lives on the closed part")
    out = LinComb((a + b, ca * cb) for a, ca in f for b, cb in g)
    return tot.conormal_project(out)


def inc_tot(tot: CobarTot, f: LinComb) -> LinComb:
    """Closed-to-relative inclusion: unit coefficient."""
    if tot.C is None:
        raise ValueError("the inclusion lands in the relative part")
    out = LinComb(((a, tot.C.unit), ca) for a, ca in f)
    return tot.conormal_project(out)


def sqcup(tot: CobarTot, u: LinComb, v: LinComb) -> LinComb:
    """Twisted concatenation on the relative part: the bilinear extension of
    ``_twisted_terms``, conormally projected.  It is one step of the wide
    left action's fold (``_wide_terms``)."""
    if tot.C is None:
        raise ValueError("the twisted product lives on the relative part")
    out = LinComb(
        (e, cu * cv * ce)
        for a, cu in u
        for b, cv in v
        for e, ce in _twisted_terms(tot.B, tot.C, a, b)
    )
    return tot.conormal_project(out)


def _insertion_sign(positions, arg_degrees, n) -> int:
    """Sign of one insertion term: each argument of level d at slot p
    contributes p + p*d + n*d, plus pairwise products of argument levels."""
    total = 0
    for p, d in zip(positions, arg_degrees):
        total += p + p * d + n * d
    for s in range(len(arg_degrees)):
        for t in range(s + 1, len(arg_degrees)):
            total += arg_degrees[s] * arg_degrees[t]
    return (-1) ** (total % 2)


def _insertion_sum(tot: CobarTot, f: LinComb, args: list[LinComb], place) -> LinComb:
    """The insertion sum of the arguments into the closed combination f: for
    each tuple a of f, each choice of len(args) letters of a and each term
    of the arguments, ``place(positions, a, term)`` gives the inserted
    terms, signed by ``_insertion_sign``; the sum is conormally projected,
    which drops its terms above the window."""
    terms = [(t, c, [len(tot._split(b)[0]) for b in t]) for t, c in _expand_terms(args)]

    def inserted():
        for a, cf in f:
            for positions in combinations(range(1, len(a) + 1), len(args)):
                for term, cterm, levels in terms:
                    c = cf * cterm * _insertion_sign(positions, levels, len(a))
                    for t, ct in place(positions, a, term):
                        yield t, c * ct

    return tot.conormal_project(LinComb(inserted()))


def act_Tk(tot: CobarTot, f: LinComb, gs: list[LinComb]) -> LinComb:
    """Insertion sum on the closed part: each argument word enters a chosen
    letter by diagonal left translation, the other letters take the unit."""
    if tot.C is not None:
        raise ValueError("the closed insertion sum lives on the closed part")
    unit = (tot.B.unit,)

    def place(positions, a, term):
        fills = [unit] * len(a)
        for p, b in zip(positions, term):
            fills[p - 1] = b
        return _gamma_terms(tot.B, a, fills)

    return _insertion_sum(tot, f, gs, place)


def act_Tj(tot: CobarTot, f: LinComb, hs: list[LinComb]) -> LinComb:
    """Insertion sum with relative arguments through the wide left action,
    the fold of the twisted concatenation: selected letters receive the
    argument words, later letters are right-translated by coaction
    components of the argument coefficients, and the rest of each multiplies
    onto the output coefficient."""
    if tot.C is None:
        raise ValueError("the open insertion sum lives on the relative part")
    return _insertion_sum(tot, f, hs, partial(_wide_terms, tot.B, tot.C))


def dual_group_bialgebra(M) -> Bialgebra:
    """The linear dual of a monoid algebra, presented on the integral basis
    {unit} + {indicator of g : g != monoid unit}.

    Multiplication of indicators is idempotent-orthogonal; the coproduct of
    an indicator enumerates the factorizations of its element.
    """
    elems = list(M.elements)
    e = M.unit
    others = [g for g in elems if g != e]
    U = "1"
    name = {g: f"d{g}" for g in others}

    def indicator(g) -> LinComb:
        # delta_g in the new basis; delta_e = 1 - sum of the others
        if g == e:
            return LinComb([(U, 1)] + [(name[h], -1) for h in others])
        return LinComb.unit(name[g])

    basis = (U,) + tuple(name[g] for g in others)
    prod, cop, counit = {}, {}, {U: 1}
    for g in others:
        cop[name[g]] = LinComb(
            ((x, y), cx * cy)
            for a in elems
            for b in elems
            if M.mul(a, b) == g
            for x, cx in indicator(a)
            for y, cy in indicator(b)
        )
    cop[U] = LinComb.unit((U, U))
    for x in basis:
        prod[(U, x)] = LinComb.unit(x)
        prod[(x, U)] = LinComb.unit(x)
    for g in others:
        for h in others:
            prod[(name[g], name[h])] = (
                LinComb.unit(name[g]) if g == h else LinComb()
            )
    return Bialgebra(basis, U, prod, cop, counit)


# The most cases ``rs2_experimental_report`` may check when ``operadix
# cobar`` runs it: a relation reads every pair of raw basis elements at
# levels df, dg <= max_level with df + dg + 1 <= truncation, |B|^df |B|^dg
# pairs with one more factor |B| per relative argument.  A case costs more
# at higher levels and with non-grouplike coproducts.  On a shared 2-vCPU
# x86-64 machine the largest accepted windows take up to about four seconds
# (the dual of Z[Z/4] at max level 2: 3,945 cases, 3.8 s; Z[Z/7] at max
# level 1: 3,641 cases, 0.9 s, its dual 2.5 s), while ``operadix cobar
# --order 10 --max-level 2`` would check 258,621 cases.
MAX_REPORT_CASES = 4000


def check_report_window(order: int, truncation: int, max_level: int) -> None:
    """Raise ValueError when ``rs2_experimental_report`` over a bialgebra of
    ``order`` basis elements, whose diagonal comodule has as many, would
    check more than ``MAX_REPORT_CASES`` cases."""
    # the report's relations in its order: the number of relative
    # arguments and the lowest level of each argument
    shapes = ((0, 0, 0), (0, 1, 1), (2, 0, 0), (1, 1, 0))
    top = min(max_level, truncation - 1)
    cases = 0
    for relative, low_left, low_right in shapes:
        for df in range(low_left, top + 1):
            for dg in range(low_right, min(top, truncation - 1 - df) + 1):
                cases += order ** (df + dg + relative)
                if cases > MAX_REPORT_CASES:
                    raise ValueError(
                        f"truncation {truncation} and max level {max_level} "
                        f"over a {order}-element basis give more than "
                        f"{MAX_REPORT_CASES} cases, the window limit"
                    )


def rs2_experimental_report(
    B: Bialgebra, truncation: int = 4, max_level: int = 2
) -> dict:
    """Check the homotopy relations of the closed/relative insertion
    operations on the conormalized totalization, relation by relation.

    Returns a mapping from relation name to (holds, cases).  Nothing here is
    assumed; a False entry is a finding, not an error.
    """
    closed = CobarTot(B, None, truncation)
    rel = CobarTot(B, diagonal_comodule(B), truncation)
    report = {}

    # the conormal representatives of every level a relation reads: each
    # pair of levels below has df + dg + 1 <= truncation
    levels = range(min(max_level, truncation - 1) + 1)
    closed_reps = {
        n: [closed.conormal_project(LinComb.unit(b)) for b in closed.basis(n)]
        for n in levels
    }
    rel_reps = {
        n: [rel.conormal_project(LinComb.unit(b)) for b in rel.basis(n)]
        for n in levels
    }

    def sign(n):
        return -1 if n % 2 else 1

    d_closed, d_rel = closed.differential, rel.differential
    relations = [
        # concatenation is a chain map
        ("cup-chain-map", closed, closed_reps, closed_reps, 0, 0,
         lambda f, g, df, dg: d_closed(cup(closed, f, g))
         - cup(closed, d_closed(f), g)
         - sign(df) * cup(closed, f, d_closed(g))),
        # closed insertion closes the concatenation commutator
        ("e11-commutator-homotopy", closed, closed_reps, closed_reps, 1, 1,
         lambda f, g, df, dg: d_closed(act_Tk(closed, f, [g]))
         + act_Tk(closed, d_closed(f), [g])
         + sign(df) * act_Tk(closed, f, [d_closed(g)])
         - cup(closed, f, g)
         + sign(df * dg) * cup(closed, g, f)),
        # twisted concatenation is a chain map
        ("mu-o-chain-map", rel, rel_reps, rel_reps, 0, 0,
         lambda u, v, du, dv: d_rel(sqcup(rel, u, v))
         - sqcup(rel, d_rel(u), v)
         - sign(du) * sqcup(rel, u, d_rel(v))),
        # the one-argument relative insertion closes the twisted commutator
        ("ej-commutator-homotopy", rel, closed_reps, rel_reps, 1, 0,
         lambda f, u, df, du: d_rel(act_Tj(rel, f, [u]))
         + act_Tj(rel, d_closed(f), [u])
         + sign(df) * act_Tj(rel, f, [d_rel(u)])
         - sqcup(rel, inc_tot(rel, f), u)
         + sign(df * du) * sqcup(rel, u, inc_tot(rel, f))),
    ]
    for name, tot, left, right, low_left, low_right, defect in relations:
        ok, cases = True, 0
        for df in range(low_left, min(max_level, truncation - 1) + 1):
            for dg in range(low_right, min(max_level, truncation - 1 - df) + 1):
                for f in left[df]:
                    for g in right[dg]:
                        cases += 1
                        if tot.conormal_project(defect(f, g, df, dg)):
                            ok = False
        report[name] = (ok, cases)
    return report
