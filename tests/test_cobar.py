"""Cobar constructions: coalgebra layer, bialgebra layer, totalization ops."""

import random
from collections import Counter
from functools import reduce
from itertools import chain, combinations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from operadix import cobar
from operadix.chains import (
    InvalidComplex,
    LinComb,
    _expand_terms,
    build_complex,
    homology,
)
from operadix.cobar import (
    Bialgebra,
    CobarObject,
    CobarTot,
    ComoduleAlgebra,
    DGCoalgebra,
    DGComodule,
    NotOneReduced,
    cobar_algebra,
    diagonal_comodule,
    dg_map_check,
    dual_group_bialgebra,
    group_bialgebra,
    mb_compose,
    monoid_bialgebra,
    overline_fg,
    relative_cobar,
    relative_cobar_module,
    relative_twisting_check,
    rs2_experimental_report,
    twisting_check,
    universal_twisting,
    z_coface,
)
from operadix.loops import FiniteMonoid, TotComplex

U = "1"


def sample_coalgebra(a=2, b=3, c=1, with_w=True, with_v=True):
    """A one-reduced dg-coalgebra: primitives x (deg a), z (deg b), w (deg
    b+1, dw = z), and v (deg a+b) with a single non-primitive coproduct term
    c * x (x) z."""
    degrees = {U: 0, "x": a, "z": b}
    differential = {}
    coproduct = {
        U: LinComb.unit((U, U)),
        "x": LinComb({("x", U): 1, (U, "x"): 1}),
        "z": LinComb({("z", U): 1, (U, "z"): 1}),
    }
    if with_w:
        degrees["w"] = b + 1
        differential["w"] = LinComb.unit("z")
        coproduct["w"] = LinComb({("w", U): 1, (U, "w"): 1})
    if with_v:
        degrees["v"] = a + b
        coproduct["v"] = LinComb({("v", U): 1, (U, "v"): 1, ("x", "z"): c})
    return DGCoalgebra(
        degrees=degrees,
        differential=differential,
        coproduct=coproduct,
        counit={U: 1},
        unit=U,
    )


def diagonal_dg_comodule(C: DGCoalgebra) -> DGComodule:
    return DGComodule(
        C, dict(C.degrees), dict(C.differential), dict(C.coproduct)
    )


def random_instance(rng: random.Random):
    a = rng.choice((2, 3))
    b = rng.choice((2, 3))
    c = rng.choice((-2, -1, 1, 2, 3))
    return sample_coalgebra(
        a, b, c, with_w=rng.random() < 0.8, with_v=rng.random() < 0.8
    )


def shifted_comodule(N: DGComodule, shift: int) -> DGComodule:
    """N with every degree moved by ``shift``: still a dg-comodule."""
    return DGComodule(
        N.coalgebra,
        {n: d + shift for n, d in N.degrees.items()},
        N.differential,
        N.coaction,
    )


def reference_diff_basis(cob, w) -> LinComb:
    """The word differential computed letter by letter from the structure
    maps of the coalgebra and comodule: the oracle for the tabulated,
    memoized differential of ``CobarObject``."""
    C = cob.coalgebra
    word = w if cob.comodule is None else w[0]
    tail = None if cob.comodule is None else w[1]

    def elem(new_word, new_tail):
        return new_word if cob.comodule is None else (new_word, new_tail)

    def terms():
        prefix = 0
        for i, x in enumerate(word):
            sign = -1 if prefix % 2 else 1
            # internal differential: d(s^{-1} x) = - s^{-1}(d x)
            for y, cy in C.d(LinComb.unit(x)):
                if C.degrees[y] >= 2:
                    yield elem(word[:i] + (y,) + word[i + 1 :], tail), -sign * cy
            # quadratic part: sum (-1)^{|c1|} [c1, c2]
            for (a, b), cab in C.reduced_delta(x):
                if C.degrees[a] >= 2 and C.degrees[b] >= 2:
                    s2 = -1 if C.degrees[a] % 2 else 1
                    new_word = word[:i] + (a, b) + word[i + 1 :]
                    yield elem(new_word, tail), sign * s2 * cab
            prefix += cob.letter_degree(x)
        if cob.comodule is not None:
            sign = -1 if prefix % 2 else 1
            for y, cy in cob.comodule.d(LinComb.unit(tail)):
                yield elem(word, y), sign * cy
            for (z, n2), czn in cob.comodule.reduced_rho(tail):
                if C.degrees[z] >= 2:
                    yield elem(word + (z,), n2), sign * czn

    return LinComb(
        (e, c) for e, c in terms() if 0 <= cob.word_degree(e) <= cob.truncation
    )


def reference_words(cob, degree: int) -> list:
    """The basis words of one degree from a walk of their own, reading the
    degrees from the coalgebra and comodule: the oracle for the one walk
    behind ``CobarObject.words``."""
    if degree < 0 or degree > cob.truncation:
        return []
    C, N = cob.coalgebra, cob.comodule
    letters = [x for x, d in C.degrees.items() if d >= 2]
    tails = [None] if N is None else list(N.degrees)
    out = []
    # a tail of negative degree lets the letters exceed the target
    bound = degree - min([0] + [N.degrees[n] for n in tails if n is not None])

    def extend(word, deg):
        for tail in tails:
            extra = 0 if tail is None else N.degrees[tail]
            if deg + extra == degree:
                out.append(word if tail is None else (word, tail))
        for x in letters:
            d2 = deg + C.degrees[x] - 1
            if d2 <= bound:
                extend(word + (x,), d2)

    extend((), 0)
    return sorted(set(out))


def reference_overline_fg(cob, A, M, f, g):
    """The induced map with every image folded afresh, letter by letter from
    the left, in the windows of A and M: the oracle for the per-map images
    of ``overline_fg``."""

    def fmap(name) -> LinComb:
        return f.get(name, LinComb())

    def gmap(name) -> LinComb:
        return g.get(name, LinComb())

    def image(word, n) -> LinComb:
        letters = reduce(A.action, map(fmap, word), LinComb.unit(()))
        return M.action(letters, gmap(n))

    def phi(v: LinComb) -> LinComb:
        return LinComb(
            (t, c * ct) for (word, n), c in v for t, ct in image(word, n)
        )

    return phi


def all_words(cob) -> list:
    return [w for d in range(cob.truncation + 1) for w in cob.words(d)]


def all_pairs_product(cob) -> dict:
    """The closed word product as a table over all pairs of window words:
    a pair whose concatenation leaves the window has no entry."""
    words = set(all_words(cob))
    return {(a, b): a + b for a in words for b in words if a + b in words}


def all_pairs_action(rel, cob) -> dict:
    """The action of the closed window words on the relative window words
    as a table over all pairs: a pair whose concatenation leaves the window
    has no entry."""
    words = set(all_words(rel))
    return {
        (a, (wb, n)): (a + wb, n)
        for a in all_words(cob)
        for wb, n in words
        if (a + wb, n) in words
    }


def law_coalgebra(degrees, differential=None, reduced=None, coproduct=None):
    """A coalgebra on U and ``degrees``: each element's coproduct is the two
    primitive terms plus ``reduced[x]``, unless ``coproduct[x]`` replaces it
    (``None`` leaves x without a coproduct entry)."""
    reduced, coproduct = reduced or {}, coproduct or {}
    delta = {U: LinComb.unit((U, U))}
    for x in degrees:
        table = coproduct.get(x, {(x, U): 1, (U, x): 1, **reduced.get(x, {})})
        if table is not None:
            delta[x] = LinComb(table)
    return DGCoalgebra(
        degrees={U: 0, **degrees},
        differential={x: LinComb(d) for x, d in (differential or {}).items()},
        coproduct=delta,
        counit={U: 1},
        unit=U,
    )


def law_comodule(C, degrees, differential=None, reduced=None, coaction=None):
    """A comodule over C on ``degrees``: each coaction is U (x) n plus
    ``reduced[n]``, unless ``coaction[n]`` replaces it (``None`` leaves n
    without a coaction entry)."""
    reduced, coaction = reduced or {}, coaction or {}
    tables = {n: coaction.get(n, {(U, n): 1, **reduced.get(n, {})}) for n in degrees}
    return DGComodule(
        C,
        dict(degrees),
        {n: LinComb(d) for n, d in (differential or {}).items()},
        {n: LinComb(t) for n, t in tables.items() if t is not None},
    )


SAMPLE_FAMILY = [
    (a, b, c, with_w, with_v)
    for a, b, c, with_w, with_v in iproduct(
        (2, 3), (2, 3), (-2, 1, 3), (False, True), (False, True)
    )
]


class TestCoalgebraLayer:
    def test_sample_validates(self):
        C = sample_coalgebra()
        C.validate()
        C.check_one_reduced()
        diagonal_dg_comodule(C).validate()

    def test_degree_shifting_coproduct_rejected(self):
        bad = DGCoalgebra(
            degrees={U: 0, "x": 2},
            differential={},
            coproduct={
                U: LinComb.unit((U, U)),
                "x": LinComb({("x", U): 1, (U, "x"): 1, ("x", "x"): 1}),
            },
            counit={U: 1},
            unit=U,
        )
        with pytest.raises(ValueError, match="not degree-preserving"):
            bad.validate()

    # each structure breaks one law of a one-reduced coalgebra or of a
    # comodule over the sample coalgebra; validate must name that law
    @pytest.mark.parametrize(
        "spec, law",
        [
            (dict(degrees={"p": 3, "q": 3}, differential={"p": {"q": 1}}),
             "differential is not degree -1"),
            (dict(degrees={"x": 2}, coproduct={"x": {("x", U): 1}}),
             "counit law fails"),
            (dict(degrees={"x": 2}, coproduct={"x": {(U, "x"): 1}}),
             "counit law fails"),
            (dict(degrees={"x": 2, "y": 2, "z": 2, "s": 4, "t": 6},
                  reduced={"s": {("y", "z"): 1}, "t": {("x", "s"): 1}}),
             "coassociativity fails"),
            (dict(degrees={"a": 4, "b": 3, "c": 2},
                  differential={"a": {"b": 1}, "b": {"c": 1}}),
             "squares? to"),
            (dict(degrees={"x": 2, "z": 2, "v": 4, "w": 5},
                  reduced={"v": {("x", "z"): 1}}, differential={"w": {"v": 1}}),
             "co-Leibniz fails"),
            # a structure map naming an element with no degree, or an element
            # with no coproduct entry, is named, not a KeyError
            (dict(degrees={"x": 2}, reduced={"x": {("q", "q"): 1}}),
             "'q', named at 'x', has no degree"),
            (dict(degrees={"x": 3}, differential={"x": {"q": 1}}),
             "'q', named at 'x', has no degree"),
            (dict(degrees={"x": 2, "y": 3}, coproduct={"y": None}),
             "coaction table has no entry for 'y'"),
        ],
        ids=["d-degree", "left-counit", "right-counit", "coassociativity",
             "d-squared", "co-leibniz", "coproduct-names-unknown",
             "d-names-unknown", "no-coproduct-entry"],
    )
    def test_broken_coalgebra_law_named(self, spec, law):
        with pytest.raises(ValueError, match=law):
            law_coalgebra(**spec).validate()

    def test_coaugmentation_degree_named(self):
        C = law_coalgebra({"x": 2})
        C.degrees[U] = 2
        with pytest.raises(ValueError, match="degree zero"):
            C.validate()

    @pytest.mark.parametrize(
        "spec, law",
        [
            (dict(degrees={"n1": 3, "n2": 3}, differential={"n1": {"n2": 1}}),
             "differential is not degree -1"),
            (dict(degrees={"n": 3}, reduced={"n": {("x", "n"): 1}}),
             "not degree-preserving"),
            (dict(degrees={"n": 3}, coaction={"n": {}}), "counit law fails"),
            (dict(degrees={"n": 5, "m": 0}, reduced={"n": {("v", "m"): 1}}),
             "coassociativity fails"),
            (dict(degrees={"a": 4, "b": 3, "c": 2},
                  differential={"a": {"b": 1}, "b": {"c": 1}}),
             "squares? to"),
            (dict(degrees={"n": 6, "n2": 5, "m": 3},
                  reduced={"n2": {("x", "m"): 1}}, differential={"n": {"n2": 1}}),
             "co-Leibniz fails"),
            (dict(degrees={"n": 3}, reduced={"n": {("q", "n"): 1}}),
             "'q', named at 'n', has no degree"),
            (dict(degrees={"n": 3}, reduced={"n": {("x", "q"): 1}}),
             "'q', named at 'n', has no degree"),
            (dict(degrees={"n": 3}, coaction={"n": None}),
             "coaction table has no entry for 'n'"),
            # ``no_coproduct`` deletes coalgebra entries after C validates
            (dict(degrees={"n": 5, "m": 3}, reduced={"n": {("x", "m"): 1}},
                  no_coproduct=("x",)),
             "'x', named at 'n', has no coproduct entry"),
        ],
        ids=["d-degree", "coaction-degree", "counit", "coassociativity",
             "d-squared", "co-leibniz", "coalgebra-term-unknown",
             "module-term-unknown", "no-coaction-entry",
             "coalgebra-term-no-coproduct"],
    )
    def test_broken_comodule_law_named(self, spec, law):
        C = sample_coalgebra()
        C.validate()
        spec = dict(spec)
        for x in spec.pop("no_coproduct", ()):
            del C.coproduct[x]
        with pytest.raises(ValueError, match=law):
            law_comodule(C, **spec).validate()

    def test_not_one_reduced_detected(self):
        odd = DGCoalgebra(
            degrees={U: 0, "y": 1},
            differential={},
            coproduct={
                U: LinComb.unit((U, U)),
                "y": LinComb({("y", U): 1, (U, "y"): 1}),
            },
            counit={U: 1},
            unit=U,
        )
        odd.validate()
        with pytest.raises(NotOneReduced):
            odd.check_one_reduced()


class TestCobarComplexes:
    def test_random_instances(self):
        rng = random.Random(2024)
        for trial in range(100):
            C = random_instance(rng)
            C.validate()
            N = diagonal_dg_comodule(C)
            cob = cobar.cobar(C, truncation=5)
            cob.chain_complex().validate()
            rel = relative_cobar(C, N, truncation=5)
            rel.chain_complex().validate()

    def test_action_satisfies_leibniz(self):
        C = sample_coalgebra()
        N = diagonal_dg_comodule(C)
        cob = cobar.cobar(C, truncation=6)
        rel = relative_cobar(C, N, truncation=6)
        for da in range(3):
            for du in range(3):
                for wa in cob.words(da):
                    for wu in rel.words(du):
                        if da + du >= 6:
                            continue
                        a, u = LinComb.unit(wa), LinComb.unit(wu)
                        lhs = rel.action(cob.differential(a), u) + (
                            (-1) ** (da % 2)
                        ) * rel.action(a, rel.differential(u))
                        assert lhs == rel.differential(rel.action(a, u))


class TestTwisting:
    def test_module_needs_its_own_algebra(self):
        # the closed construction must be over the module's coalgebra, with
        # the module's truncation
        C, C2 = sample_coalgebra(), sample_coalgebra()
        rel = relative_cobar(C2, diagonal_dg_comodule(C2), 6)
        with pytest.raises(ValueError, match="different coalgebras"):
            relative_cobar_module(rel, cobar.cobar(C, 3))
        with pytest.raises(ValueError, match="different coalgebras"):
            relative_cobar_module(rel, cobar.cobar(C, 6))
        with pytest.raises(ValueError, match="truncated at 3, the module at 6"):
            relative_cobar_module(rel, cobar.cobar(C2, 3))
        with pytest.raises(ValueError, match="must be the closed construction"):
            relative_cobar_module(rel, rel)
        assert relative_cobar_module(rel, cobar.cobar(C2, 6)) is rel
        # the induced map reads its images in the windows of both
        with pytest.raises(ValueError, match="truncated at 3, the module at 6"):
            overline_fg(rel, cobar.cobar(C2, 3), rel, {}, {})

    def test_induced_map_needs_its_own_source(self):
        # the source must be a relative construction over the target's
        # coalgebra and comodule, with the target's truncation
        C, C2 = sample_coalgebra(), sample_coalgebra()
        N2 = diagonal_dg_comodule(C2)
        rel, A = relative_cobar(C2, N2, 6), cobar.cobar(C2, 6)
        with pytest.raises(ValueError, match="must be the relative construction"):
            overline_fg(A, A, rel, {}, {})
        with pytest.raises(ValueError, match="different coalgebras or comodules"):
            overline_fg(relative_cobar(C, diagonal_dg_comodule(C), 6), A, rel, {}, {})
        with pytest.raises(ValueError, match="different coalgebras or comodules"):
            overline_fg(relative_cobar(C2, diagonal_dg_comodule(C2), 6), A, rel, {}, {})
        with pytest.raises(ValueError, match="truncated at 4, the target at 6"):
            overline_fg(relative_cobar(C2, N2, 4), A, rel, {}, {})
        # the same construction, or another one over the same data, is accepted
        for source in (rel, relative_cobar(C2, N2, 6)):
            assert dg_map_check(source, rel, overline_fg(source, A, rel, {}, {}))

    def test_equivalence_on_random_instances(self):
        rng = random.Random(7)
        for trial in range(100):
            C = random_instance(rng)
            N = diagonal_dg_comodule(C)
            # the window must cover every generator degree, otherwise a
            # violation above the truncation is invisible to the dg-map side
            window = max(C.degrees.values()) + 2
            cob = cobar.cobar(C, truncation=window)
            rel = relative_cobar(C, N, truncation=window)
            A = cobar_algebra(cob)
            M = relative_cobar_module(rel, A)
            f = universal_twisting(cob)
            g = {n: LinComb.unit(((), n)) for n in N.degrees}
            candidates = [(f, g)]
            f_bad = dict(f)
            name = rng.choice([n for n in C.degrees if n != C.unit])
            f_bad[name] = -f[name]
            candidates.append((f_bad, g))
            g_bad = dict(g)
            g_bad[name] = LinComb()
            candidates.append((f, g_bad))
            for fc, gc in candidates:
                twist = twisting_check(C, A, fc) and relative_twisting_check(
                    C, A, N, M, fc, gc
                )
                phi = overline_fg(rel, A, M, fc, gc)
                assert twist == dg_map_check(rel, M, phi)
            # the universal pair itself must pass
            assert twisting_check(C, A, f)
            assert relative_twisting_check(C, A, N, M, f, g)

    def test_equivalence_on_shifted_comodules(self):
        # comodules shifted by -1, 0 and +1: shifted down, the unit's tail
        # ((), 1) sits in degree -1, outside the window, and the module
        # action and differential read it as zero
        cases = twisting = 0
        for params in SAMPLE_FAMILY:
            C = sample_coalgebra(*params)
            window = max(C.degrees.values()) + 2
            cob = cobar.cobar(C, truncation=window)
            A = cobar_algebra(cob)
            f = universal_twisting(cob)
            for shift in (-1, 0, 1):
                N = shifted_comodule(diagonal_dg_comodule(C), shift)
                rel = relative_cobar(C, N, truncation=window)
                M = relative_cobar_module(rel, A)
                g = {n: LinComb.unit(((), n)) for n in N.degrees}
                f_bad = {**f, "x": -f["x"]}
                g_bad = {**g, "x": LinComb()}
                for fc, gc in ((f, g), (f_bad, g), (f, g_bad)):
                    twist = twisting_check(C, A, fc) and relative_twisting_check(
                        C, A, N, M, fc, gc
                    )
                    phi = overline_fg(rel, A, M, fc, gc)
                    assert twist == dg_map_check(rel, M, phi)
                    cases += 1
                    twisting += twist
        # the universal pair twists for shifts 0 and +1, nothing else does
        assert (cases, twisting) == (432, 96)

    def test_relative_check_leaves_f_to_the_caller(self, monkeypatch):
        # f is checked once, by the caller's own twisting_check
        C = sample_coalgebra()
        N = diagonal_dg_comodule(C)
        window = max(C.degrees.values()) + 2
        cob = cobar.cobar(C, truncation=window)
        A = cobar_algebra(cob)
        M = relative_cobar_module(relative_cobar(C, N, truncation=window), A)
        f = universal_twisting(cob)
        g = {n: LinComb.unit(((), n)) for n in N.degrees}
        calls = []
        monkeypatch.setattr(cobar, "twisting_check", lambda *a: calls.append(a))
        assert relative_twisting_check(C, A, N, M, f, g) and calls == []

    def test_relative_check_needs_its_own_data(self):
        # C, N and A must be the coalgebra, comodule and word algebra of M
        C, C2 = sample_coalgebra(), sample_coalgebra()
        N, N2 = diagonal_dg_comodule(C), diagonal_dg_comodule(C)
        A = cobar.cobar(C, 6)
        M = relative_cobar(C, N, 6)
        f = universal_twisting(A)
        g = {n: LinComb.unit(((), n)) for n in N.degrees}
        assert relative_twisting_check(C, A, N, M, f, g)
        with pytest.raises(ValueError, match="C is not the coalgebra"):
            relative_twisting_check(C2, A, N, M, f, g)
        with pytest.raises(ValueError, match="N is not the comodule"):
            relative_twisting_check(C, A, N2, M, f, g)
        with pytest.raises(ValueError, match="different coalgebras"):
            relative_twisting_check(C, cobar.cobar(C2, 6), N, M, f, g)
        with pytest.raises(ValueError, match="truncated at 4, the module at 6"):
            relative_twisting_check(C, cobar.cobar(C, 4), N, M, f, g)
        with pytest.raises(ValueError, match="must be the closed construction"):
            relative_twisting_check(C, M, N, M, f, g)


class TestMemoizedConstructions:
    """The tabulated, memoized word complexes against the letter-by-letter
    formula and the all-pairs tables they replace."""

    @staticmethod
    def constructions(params):
        C = sample_coalgebra(*params)
        N = diagonal_dg_comodule(C)
        window = max(C.degrees.values()) + 2
        cob = cobar.cobar(C, truncation=window)
        # a comodule with a tail in negative degree as well
        rels = [
            relative_cobar(C, N, truncation=window),
            relative_cobar(C, shifted_comodule(N, -1), truncation=window),
        ]
        return cob, rels

    def test_differential_matches_formula(self):
        for params in SAMPLE_FAMILY:
            cob, rels = self.constructions(params)
            for con in [cob] + rels:
                for w in all_words(con):
                    expected = list(reference_diff_basis(con, w))
                    assert list(con.differential(LinComb.unit(w))) == expected
                    # the second reading comes from the memo
                    assert list(con.differential(LinComb.unit(w))) == expected
            for con in [cob] + rels:
                bases = {d: con.words(d) for d in range(con.truncation + 1)}
                reference = build_complex(
                    {d: b for d, b in bases.items() if b},
                    lambda w: reference_diff_basis(con, w),
                )
                assert con.chain_complex().columns == reference.columns

    @staticmethod
    def maps(cob, rel):
        """The universal pair (f, g), the pair with f(x) negated, the pair
        with g(x) zero, and one whose f(x) has a term of negative degree (the
        word of the unit)."""
        f = universal_twisting(cob)
        g = {n: LinComb.unit(((), n)) for n in rel.comodule.degrees}
        return [
            (f, g),
            ({**f, "x": -f["x"]}, g),
            (f, {**g, "x": LinComb()}),
            ({**f, "x": f["x"] + LinComb.unit((U,))}, g),
        ]

    def test_words_match_reference_walk(self):
        for params in SAMPLE_FAMILY:
            cob, rels = self.constructions(params)
            for con in [cob] + rels:
                for d in range(-1, con.truncation + 2):
                    assert con.words(d) == reference_words(con, d)

    def test_overline_fg_matches_reference(self):
        # on every basis word, on the differentials dg_map_check feeds in,
        # and on words just outside the window (one degree above it, or a
        # tail of negative degree), which read as zero; the coefficient c of
        # the family only scales terms, so one value of it is enough
        for params in [p for p in SAMPLE_FAMILY if p[2] == 3]:
            cob, rels = self.constructions(params)
            C, top = cob.coalgebra, cob.truncation + 1
            for rel in rels:
                N = rel.comodule
                outside = relative_cobar(C, N, truncation=top).words(top) + [
                    ((), n) for n in N.degrees if N.degrees[n] < 0
                ]
                inputs = [LinComb.unit(w) for w in all_words(rel) + outside]
                inputs += [rel.differential(LinComb.unit(w)) for w in all_words(rel)]
                for fc, gc in self.maps(cob, rel):
                    phi = overline_fg(rel, cob, rel, fc, gc)
                    reference = reference_overline_fg(rel, cob, rel, fc, gc)
                    for v in inputs:
                        assert list(phi(v)) == list(reference(v))

    def test_one_action_per_word_per_map(self, monkeypatch):
        calls = []
        action = CobarObject.action

        def counted(self, a, u):
            calls.append((a, u))
            return action(self, a, u)

        monkeypatch.setattr(CobarObject, "action", counted)
        for params in (SAMPLE_FAMILY[0], SAMPLE_FAMILY[-1]):
            cob, rels = self.constructions(params)
            for rel in rels:
                words = all_words(rel)
                # an image is built from the image of the word without its
                # first letter, down to the bare tail
                suffixes = {
                    (word[i:], n) for word, n in words for i in range(len(word) + 1)
                }
                for fc, gc in self.maps(cob, rel):
                    phi = overline_fg(rel, cob, rel, fc, gc)
                    calls.clear()
                    for w in words + words:
                        phi(LinComb.unit(w))
                    dg_map_check(rel, rel, phi)
                    assert len(calls) == len(suffixes)

    def test_negative_tail_degree_builds(self):
        # the words whose tail has negative degree carry letters of total
        # degree above the target; the basis must keep them
        C = sample_coalgebra()
        N = shifted_comodule(diagonal_dg_comodule(C), -1)
        N.validate()
        rel = relative_cobar(C, N, truncation=5)
        assert rel.words(0) == [(("x",), "1")]
        assert (("x", "x"), "1") in rel.words(1)
        cx = rel.chain_complex()
        cx.validate()
        assert {d: len(b) for d, b in cx.bases.items()} == {
            0: 1, 1: 3, 2: 6, 3: 12, 4: 23, 5: 44,
        }

    def test_words_are_fresh_lists(self):
        cob = cobar.cobar(sample_coalgebra(), truncation=5)
        first = cob.words(4)
        first.append("junk")
        assert "junk" not in cob.words(4)
        assert cob.words(4) is not cob.words(4)

    def test_tables_match_all_pairs_construction(self):
        # the concatenation action against the all-pairs tables on every pair
        # of window words, and on words just outside the window (one degree
        # above it, or a tail of negative degree), which read as zero
        for params in SAMPLE_FAMILY:
            cob, rels = self.constructions(params)
            C, top = cob.coalgebra, cob.truncation + 1
            above = cobar.cobar(C, truncation=top).words(top)
            closed = all_words(cob) + above
            cases = [(cob, all_pairs_product(cob), above)]
            for rel in rels:
                N = rel.comodule
                outside = relative_cobar(C, N, truncation=top).words(top) + [
                    ((), n) for n in N.degrees if N.degrees[n] < 0
                ]
                cases.append((rel, all_pairs_action(rel, cob), outside))
            # one call per construction checks each pair: the i-th right word
            # carries the coefficient 2**i, and a word e has at most one cut
            # with a given right part, so the coefficient of e spells out the
            # pairs that produced it
            left = LinComb(dict.fromkeys(closed, 1))
            for con, table, outside in cases:
                right = all_words(con) + outside
                bit = {w: 2**i for i, w in enumerate(right)}
                expected = LinComb((e, bit[w]) for (_, w), e in table.items())
                assert con.action(left, LinComb(bit)) == expected
                for w in outside:
                    assert con.differential(LinComb.unit(w)) == LinComb()

    def test_structure_maps_read_once_per_construction(self, monkeypatch):
        delta_calls, rho_calls = Counter(), Counter()
        reduced_delta = DGCoalgebra.reduced_delta
        reduced_rho = DGComodule.reduced_rho

        def counted_delta(self, name):
            delta_calls[name] += 1
            return reduced_delta(self, name)

        def counted_rho(self, name):
            rho_calls[name] += 1
            return reduced_rho(self, name)

        monkeypatch.setattr(DGCoalgebra, "reduced_delta", counted_delta)
        monkeypatch.setattr(DGComodule, "reduced_rho", counted_rho)
        C = sample_coalgebra()
        N = diagonal_dg_comodule(C)
        window = max(C.degrees.values()) + 2
        cob = cobar.cobar(C, truncation=window)
        rel = relative_cobar(C, N, truncation=window)
        cob.chain_complex().validate()
        rel.chain_complex().validate()
        A = cobar_algebra(cob)
        M = relative_cobar_module(rel, A)
        f = universal_twisting(cob)
        g = {n: LinComb.unit(((), n)) for n in N.degrees}
        f_bad = dict(f)
        f_bad["v"] = -f["v"]
        g_bad = dict(g)
        g_bad["v"] = LinComb()
        verdicts = [
            dg_map_check(rel, M, overline_fg(rel, A, M, fc, gc))
            for fc, gc in ((f, g), (f_bad, g), (f, g_bad))
        ]
        assert verdicts == [True, False, False]
        # one call per cogenerator in each of the two constructions, one
        # per tail name in the relative one, and none afterwards
        letters = [x for x in C.degrees if x != C.unit]
        assert delta_calls == Counter(dict.fromkeys(letters, 2))
        assert rho_calls == Counter(dict.fromkeys(N.degrees, 1))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    a=st.sampled_from((2, 3)),
    b=st.sampled_from((2, 3)),
    c=st.integers(-3, 3),
    with_w=st.booleans(),
    with_v=st.booleans(),
)
def test_memoized_differential_property(a, b, c, with_w, with_v):
    C = sample_coalgebra(a, b, c, with_w, with_v)
    window = max(C.degrees.values()) + 2
    cob = cobar.cobar(C, truncation=window)
    rel = relative_cobar(C, diagonal_dg_comodule(C), truncation=window)
    for con in (cob, rel):
        for w in all_words(con):
            assert list(con.differential(LinComb.unit(w))) == list(
                reference_diff_basis(con, w)
            )
        con.chain_complex().validate()


Z2 = FiniteMonoid.cyclic(2)


class TestBialgebraLayer:
    def test_group_and_dual_bialgebras_validate(self):
        group_bialgebra(Z2).validate()
        dual_group_bialgebra(Z2).validate()
        group_bialgebra(FiniteMonoid.cyclic(3)).validate()

    # each edit breaks one bialgebra law of Z[Z/2] or Z[Z/3]; validate must
    # name that law
    @pytest.mark.parametrize(
        "order, table, key, value, law",
        [
            (2, "product", ("0", "1"), {}, "^unit law fails"),
            (3, "product", ("1", "1"), {"1": 1}, "^associativity fails"),
            (2, "coproduct", "1", {("1", "0"): 1}, "counit law fails"),
            (2, "coproduct", "1", {("0", "1"): 1}, "counit law fails"),
            (3, "coproduct", "1",
             {("1", "1"): 1, ("1", "2"): 1, ("1", "0"): -1, ("0", "2"): -1,
              ("0", "0"): 1},
             "coassociativity fails"),
            (2, "product", ("1", "1"), {"0": 2}, "not multiplicative"),
        ],
        ids=["unit", "associativity", "left-counit", "right-counit",
             "coassociativity", "multiplicativity"],
    )
    def test_broken_bialgebra_law_named(self, order, table, key, value, law):
        B = group_bialgebra(FiniteMonoid.cyclic(order))
        getattr(B, table)[key] = LinComb(value)
        with pytest.raises(ValueError, match=law):
            B.validate()

    def test_unit_and_counit_must_be_algebra_maps(self):
        # e idempotent and grouplike, and 1 = 1(x)1 - 1(x)e - e(x)1 + 2 e(x)e
        # with eps(1) = 2: every earlier law holds, yet the unreduced cobar
        # complex is no complex
        basis = ("1", "e")
        product = {
            ("1", "1"): LinComb.unit("1"),
            ("1", "e"): LinComb.unit("e"),
            ("e", "1"): LinComb.unit("e"),
            ("e", "e"): LinComb.unit("e"),
        }
        skewed = LinComb(
            {("1", "1"): 1, ("1", "e"): -1, ("e", "1"): -1, ("e", "e"): 2}
        )
        grouplike = {"1": LinComb.unit(("1", "1")), "e": LinComb.unit(("e", "e"))}
        B = Bialgebra(basis, "1", product, {**grouplike, "1": skewed},
                      {"1": 2, "e": 1})
        with pytest.raises(ValueError, match="^coproduct of the unit"):
            B.validate()
        with pytest.raises(InvalidComplex, match="d o d != 0"):
            CobarTot(B, truncation=3).chain_complex().validate()
        # the dual numbers' e^2 = 0 with e grouplike: only eps(ee) fails
        product[("e", "e")] = LinComb()
        B = Bialgebra(basis, "1", product, grouplike, {"1": 1, "e": 1})
        law = r"^counit is not multiplicative at \('e', 'e'\)"
        with pytest.raises(ValueError, match=law):
            B.validate()

    def test_incomplete_tables_rejected(self):
        B = group_bialgebra(Z2)
        product = dict(B.product)
        del product[("1", "0")]
        with pytest.raises(ValueError, match=r"product table .*\('1', '0'\)"):
            Bialgebra(B.basis, B.unit, product, B.coproduct, B.counit)
        coproduct = dict(B.coproduct)
        del coproduct["1"]
        with pytest.raises(ValueError, match="coproduct table .*'1'"):
            Bialgebra(B.basis, B.unit, B.product, coproduct, B.counit)
        # an entry removed after construction is still caught by validate
        del B.product[("0", "1")]
        with pytest.raises(ValueError, match=r"product table .*\('0', '1'\)"):
            B.validate()

    def test_incomplete_comodule_tables_rejected(self):
        C = diagonal_comodule(group_bialgebra(Z2))
        product = dict(C.product)
        del product[("1", "1")]
        with pytest.raises(ValueError, match=r"product table .*\('1', '1'\)"):
            ComoduleAlgebra(C.bialgebra, C.basis, C.unit, product, C.coaction)
        coaction = dict(C.coaction)
        del coaction["0"]
        with pytest.raises(ValueError, match="coaction table .*'0'"):
            ComoduleAlgebra(C.bialgebra, C.basis, C.unit, C.product, coaction)

    def test_comodule_tables_emptied_after_construction(self):
        # validate runs its completeness check before any law reads the
        # tables, so an entry removed after construction is named
        C = diagonal_comodule(group_bialgebra(Z2))
        del C.coaction["1"]
        with pytest.raises(ValueError, match="^coaction table has no entry for '1'$"):
            C.validate()
        C = diagonal_comodule(group_bialgebra(Z2))
        del C.product[("0", "1")]
        with pytest.raises(ValueError, match=r"^product table .*\('0', '1'\)$"):
            C.validate()

    def test_library_comodule_algebras_validate(self):
        Z3 = FiniteMonoid.cyclic(3)
        for B in (
            group_bialgebra(Z2),
            group_bialgebra(Z3),
            dual_group_bialgebra(Z2),
            dual_group_bialgebra(Z3),
            monoid_bialgebra(LEFT_ZERO, str),
        ):
            diagonal_comodule(B).validate()
        # Z[N] over Z[M] for a proper submonoid N
        TotComplex(FiniteMonoid.cyclic(4), (0, 2), 2, "open").C.validate()

    # each edit breaks one comodule-algebra law of the diagonal comodule of
    # Z[Z/2] or Z[Z/3]; validate must name that law
    @pytest.mark.parametrize(
        "order, table, key, value, law",
        [
            (2, "product", ("0", "1"), {}, "^unit law fails at 1"),
            (3, "product", ("1", "1"), {"1": 1}, "^associativity fails"),
            (2, "coaction", "1", {("1", "0"): 1}, "^left counit law fails at 1"),
            (3, "coaction", "1", {("1", "1"): 1, ("2", "1"): 1, ("0", "1"): -1},
             "^coassociativity fails at 1"),
            (2, "coaction", "0", {("1", "0"): 1}, "^coaction of the unit"),
            (3, "coaction", "1", {("0", "1"): 1},
             r"^coaction is not multiplicative at \('1', '1'\)"),
        ],
        ids=["unit", "associativity", "counit", "coassociativity",
             "unit-coaction", "multiplicativity"],
    )
    def test_broken_comodule_algebra_law_named(self, order, table, key, value, law):
        C = diagonal_comodule(group_bialgebra(FiniteMonoid.cyclic(order)))
        getattr(C, table)[key] = LinComb(value)
        with pytest.raises(ValueError, match=law):
            C.validate()

    def test_unreduced_complexes_d_squared(self):
        B = group_bialgebra(Z2)
        cx = CobarTot(B, truncation=4).chain_complex()
        cx.validate()
        CobarTot(B, diagonal_comodule(B), truncation=4).chain_complex().validate()

    def test_mb_compose_operad_axioms_exhaustive(self):
        B = group_bialgebra(Z2)
        tuples = [
            t for l in range(1, 3) for t in iproduct(B.basis, repeat=l)
        ]
        unit = LinComb.unit((B.unit,))
        for a in tuples:
            k = len(a)
            for i in range(1, k + 1):
                assert mb_compose(B, LinComb.unit(a), i, unit) == LinComb.unit(a)
                for b in tuples:
                    l = len(b)
                    for j in range(1, l + 1):
                        for c in tuples:
                            lhs = mb_compose(
                                B,
                                mb_compose(B, LinComb.unit(a), i, LinComb.unit(b)),
                                i + j - 1,
                                LinComb.unit(c),
                            )
                            rhs = mb_compose(
                                B,
                                LinComb.unit(a),
                                i,
                                mb_compose(B, LinComb.unit(b), j, LinComb.unit(c)),
                            )
                            assert lhs == rhs
            assert mb_compose(B, unit, 1, LinComb.unit(a)) == LinComb.unit(a)

    def test_coface_identities_and_differential(self):
        B = group_bialgebra(Z2)
        CB = diagonal_comodule(B)
        for l in range(3):
            basis = [
                (t, c) for t in iproduct(B.basis, repeat=l) for c in CB.basis
            ]
            for e in basis:
                u = LinComb.unit(e)
                for j in range(l + 2):
                    for i in range(j + 1):
                        assert z_coface(B, CB, j + 1, z_coface(B, CB, i, u)) == \
                            z_coface(B, CB, i, z_coface(B, CB, j, u))
        cx = CobarTot(B, CB, truncation=4).chain_complex()
        for l in range(4):
            upper = {e: r for r, e in enumerate(cx.bases[-(l + 1)])}
            mat = cx.matrix(-l)
            for col, e in enumerate(cx.bases[-l]):
                alt = LinComb()
                for i in range(l + 2):
                    alt = alt + ((-1) ** (i % 2)) * z_coface(
                        B, CB, i, LinComb.unit(e)
                    )
                assert alt == LinComb(
                    {e2: mat[r][col] for e2, r in upper.items()}
                )

    def test_each_coface_matches_the_totalization(self):
        # coface by coface, not only in the alternating sum, where a swap of
        # two cofaces would cancel out
        cases = 0
        for M in (Z2, FiniteMonoid.cyclic(3)):
            for B in (group_bialgebra(M), dual_group_bialgebra(M)):
                CB = diagonal_comodule(B)
                tot = CobarTot(B, CB, 4)
                for l in range(3):
                    for e in tot.basis(l):
                        for i in range(l + 2):
                            assert z_coface(B, CB, i, LinComb.unit(e)) == LinComb(
                                tot._coface_basis(i, e)
                            ), (B.basis, i, e)
                            cases += 1
        assert cases == 378

    def test_z_coface_is_linear_over_mixed_lengths(self):
        B = group_bialgebra(Z2)
        CB = diagonal_comodule(B)
        short, long = (("1",), "0"), (("1", "1"), "0")
        u = LinComb.unit(short) + LinComb.unit(long)
        for i in range(3):
            assert z_coface(B, CB, i, u) == z_coface(
                B, CB, i, LinComb.unit(short)
            ) + z_coface(B, CB, i, LinComb.unit(long))
            assert z_coface(B, CB, i, LinComb()) == LinComb()
        # index 3 is past the short term's last coface
        with pytest.raises(ValueError, match="coface index 3 out of range at level 1"):
            z_coface(B, CB, 3, u)
        with pytest.raises(ValueError, match="coface index -1 out of range"):
            z_coface(B, CB, -1, LinComb.unit(long))


class TestTotalizationOps:
    def test_projector_and_differential(self):
        tot = CobarTot(group_bialgebra(Z2), truncation=4)
        for level in range(3):
            for e in tot.basis(level):
                v = LinComb.unit(e)
                assert not tot.differential(tot.differential(v))
                p = tot.conormal_project(v)
                assert tot.conormal_project(p) == p

    def test_experimental_relations_group_algebra(self):
        rep = rs2_experimental_report(
            group_bialgebra(Z2), truncation=4, max_level=2
        )
        assert all(holds for holds, _, _ in rep.values())
        assert all(cases > 0 for _, cases, _ in rep.values())
        assert all(witness is None for _, _, witness in rep.values())
        assert list(rep) == [name for name, _, _ in cobar.RELATIONS]

    def test_window_limit_counts_the_report_cases(self, monkeypatch):
        # the limit is met exactly by the cases the report checks, and a
        # window that leaves a relation without a case is refused by name
        assert cobar.MAX_REPORT_CASES == 4000
        windows = [
            (group_bialgebra(Z2), range(6), range(-1, 4)),
            (dual_group_bialgebra(FiniteMonoid.cyclic(3)), range(5), range(-1, 2)),
        ]
        refused = 0
        for B, truncations, max_levels in windows:
            for truncation, max_level in iproduct(truncations, max_levels):
                rep = rs2_experimental_report(B, truncation, max_level)
                cases = sum(n for _, n, _ in rep.values())
                monkeypatch.setattr(cobar, "MAX_REPORT_CASES", cases)
                empty = [name for name, (_, n, _) in rep.items() if not n]
                if empty:
                    refused += 1
                    with pytest.raises(ValueError, match=f"leave {empty[0]} without"):
                        cobar.check_report_window(
                            len(B.basis), truncation, max_level
                        )
                    monkeypatch.undo()
                    continue
                cobar.check_report_window(len(B.basis), truncation, max_level)
                monkeypatch.setattr(cobar, "MAX_REPORT_CASES", cases - 1)
                with pytest.raises(ValueError, match="the window limit"):
                    cobar.check_report_window(len(B.basis), truncation, max_level)
                monkeypatch.undo()
        # the sweep reaches both sides of the refusal
        assert 0 < refused < sum(len(t) * len(m) for _, t, m in windows)

    def test_experimental_relations_dual(self):
        rep = rs2_experimental_report(
            dual_group_bialgebra(Z2), truncation=4, max_level=2
        )
        assert all(holds for holds, _, _ in rep.values())


def iterative_projection(tot: CobarTot, v: LinComb) -> LinComb:
    """The conormal projection prod (1 - d^i s^i) applied to a whole
    combination, one level at a time, with i from the top down: the
    reference for the per-basis table."""
    by_len: dict[int, list] = {}
    for b, c in v:
        by_len.setdefault(len(tot._split(b)[0]), []).append((b, c))
    out = []
    for k, terms in by_len.items():
        piece = LinComb(terms)
        for i in range(k - 1, -1, -1):
            degenerate = (
                (t, -c * ct)
                for s, c in tot.codegeneracy(i, piece)
                for t, ct in tot._coface_basis(i, s)
            )
            piece = LinComb(chain(piece, degenerate))
        out.extend(piece)
    return LinComb(out)


# x * y = x away from the unit 0: not commutative, so left and right
# translations differ
LEFT_ZERO = FiniteMonoid((0, 1, 2), 0, {
    (x, y): y if x == 0 else x for x in range(3) for y in range(3)
})

# grouplike coproducts over Z/2, Z/3 and the band, and the dual of Z[Z/3],
# whose indicators have non-grouplike coproducts
TABLE_BIALGEBRAS = {
    "Z/2": lambda: group_bialgebra(Z2),
    "Z/3": lambda: group_bialgebra(FiniteMonoid.cyclic(3)),
    "left-zero band": lambda: monoid_bialgebra(LEFT_ZERO, str),
    "dual Z/3": lambda: dual_group_bialgebra(FiniteMonoid.cyclic(3)),
}


def both_parts(B: Bialgebra, truncation: int = 4) -> list:
    return [CobarTot(B, None, truncation), CobarTot(B, diagonal_comodule(B), truncation)]


class TestPerObjectTables:
    """The tables that ``Bialgebra`` and ``CobarTot`` fill on first use
    against the computations they replace."""

    @pytest.mark.parametrize("name", list(TABLE_BIALGEBRAS))
    def test_projection_matches_iterative_reference(self, name):
        rng = random.Random(0)
        for tot in both_parts(TABLE_BIALGEBRAS[name]()):
            raw = [b for level in range(5) for b in tot.basis(level)]
            for b in raw:
                want = iterative_projection(tot, LinComb.unit(b))
                # the fresh table entry, then the kept one
                assert tot.conormal_project(LinComb.unit(b)) == want, b
                assert tot.conormal_project(LinComb.unit(b)) == want, b
            # the linear extension over mixed levels, with cancelling and
            # repeated terms
            for _ in range(20):
                v = LinComb((rng.choice(raw), rng.randint(-3, 3)) for _ in range(6))
                assert tot.conormal_project(v) == iterative_projection(tot, v)

    @pytest.mark.parametrize("name", list(TABLE_BIALGEBRAS))
    def test_terms_above_the_window_read_as_zero(self, name):
        # the window rule lives in differential and conormal_project: a term
        # at level truncation + 1 maps to zero under both
        for tot in both_parts(TABLE_BIALGEBRAS[name]()):
            top = tot.truncation
            above = CobarTot(tot.B, tot.C, top + 1).basis(top + 1)
            assert above
            for b in above:
                assert not tot.differential(LinComb.unit(b)), b
                assert not tot.conormal_project(LinComb.unit(b)), b

    @pytest.mark.parametrize("name", list(TABLE_BIALGEBRAS))
    def test_cup_projects_the_in_window_concatenations(self, name):
        closed = CobarTot(TABLE_BIALGEBRAS[name](), None, 4)
        rng = random.Random(2)
        conormal = {
            level: [
                v
                for b in closed.basis(level)
                if (v := closed.conormal_project(LinComb.unit(b)))
            ]
            for level in (1, 2, 3)
        }
        overflowing = 0
        for _ in range(20):
            # levels 1 and 3 times levels 1 and 2: concatenations at levels
            # 2 to 5, so part of each product lies above the window
            f = rng.choice(conormal[1]) + rng.choice(conormal[3])
            g = rng.choice(conormal[1]) + rng.choice(conormal[2])
            sums = LinComb((a + b, ca * cb) for a, ca in f for b, cb in g)
            in_window = LinComb((b, c) for b, c in sums if len(b) <= 4)
            overflowing += in_window != sums
            assert cobar.cup(closed, f, g) == iterative_projection(closed, in_window)
        assert overflowing == 20

    def test_each_projection_computed_once(self, monkeypatch):
        calls = Counter()
        codegeneracy = CobarTot.codegeneracy

        def counted(self, i, v):
            calls[i] += 1
            return codegeneracy(self, i, v)

        monkeypatch.setattr(CobarTot, "codegeneracy", counted)
        tot = CobarTot(group_bialgebra(Z2), truncation=4)
        v = LinComb((b, 1) for b in tot.basis(3))
        tot.conormal_project(v)
        first = sum(calls.values())
        # one codegeneracy per level below 3, for each of the 8 elements
        assert first == 8 * 3
        tot.conormal_project(v)
        tot.conormal_project(2 * v)
        assert sum(calls.values()) == first
        # a new object starts with an empty table
        CobarTot(tot.B, truncation=4).conormal_project(v)
        assert sum(calls.values()) == 2 * first

    def test_returned_combinations_are_fresh(self):
        B = group_bialgebra(FiniteMonoid.cyclic(3))
        closed, rel = both_parts(B)
        b = ("1", "1", "2")
        want = iterative_projection(closed, LinComb.unit(b))
        got = closed.conormal_project(LinComb.unit(b))
        got.terms.clear()
        again = closed.conormal_project(LinComb.unit(b))
        assert again == want
        again.terms[b] = 7
        assert closed.conormal_project(LinComb.unit(b)) == want
        # the operations, whose kernels read the bialgebra tables
        f = closed.conormal_project(LinComb.unit(("1",)))
        g = closed.conormal_project(LinComb.unit(("2", "1")))
        u = rel.conormal_project(LinComb.unit((("2",), "1")))
        for op in (
            lambda: cobar.cup(closed, f, g),
            lambda: cobar.act_Tk(closed, g, [f]),
            lambda: cobar.sqcup(rel, u, u),
            lambda: cobar.act_Tj(rel, g, [u]),
            lambda: mb_compose(B, g, 2, f),
        ):
            first = op()
            assert first
            kept = LinComb(dict(first.terms))
            first.terms.clear()
            assert op() == kept

    @pytest.mark.parametrize("name", list(TABLE_BIALGEBRAS))
    def test_translations_match_their_formula(self, name):
        B = TABLE_BIALGEBRAS[name]()

        def sweedler(x, k):
            # the coproduct applied k - 1 times, each time to the last factor
            if k == 0:
                return LinComb.unit((), B.counit.get(x, 0))
            terms = LinComb.unit((x,))
            for _ in range(k - 1):
                terms = LinComb(
                    (t[:-1] + pair, c * cp) for t, c in terms for pair, cp in B.coproduct[t[-1]]
                )
            return terms

        def translate(xs, t, left):
            pairs = zip(xs, t) if left else zip(t, xs)
            return reduce(
                lambda acc, table: LinComb(
                    (s + (p,), c * cp) for s, c in acc for p, cp in table
                ),
                [B.product[pair] for pair in pairs],
                LinComb.unit(()),
            )

        for k in range(4):
            for t in iproduct(B.basis, repeat=k):
                for x in B.basis:
                    assert LinComb(cobar._iterated_coproduct(B, x, k)) == sweedler(x, k)
                    for left in (True, False):
                        kernel = cobar._left_terms if left else cobar._right_terms
                        args = (B, x, t) if left else (B, t, x)
                        want = LinComb(
                            (s, c * cs)
                            for xs, c in sweedler(x, k)
                            for s, cs in translate(xs, t, left)
                        )
                        assert LinComb(kernel(*args)) == want, (x, t)
                        # the kept entry, a tuple no caller can change
                        assert kernel(*args) is kernel(*args)
                        assert isinstance(kernel(*args), tuple)


def reference_wide_terms(B: Bialgebra, C: ComoduleAlgebra, beta, tf, us):
    """The wide left action as one coaction spread per argument, every slot
    right-translated by the components of the earlier arguments, latest
    first, and the final components multiplied onto the coefficient: the
    oracle for the left-to-right fold of ``cobar._wide_terms``."""

    def spread(name, k):
        # the coaction applied k times, each time to the last component
        terms = [((), name, 1)]
        for _ in range(k):
            terms = [
                (done + (x,), y, c * c2)
                for done, last, c in terms
                for (x, y), c2 in C.coaction[last]
            ]
        return [((done, last), c) for done, last, c in terms]

    k = len(tf)
    spreads = [spread(cname, k - b) for (_, cname), b in zip(us, beta)]
    slot = {b: t for t, b in enumerate(beta)}
    for combo, coeff in _expand_terms(spreads):
        blocks = []
        for p, a in enumerate(tf, start=1):
            entry = [(us[slot[p]][0] if p in slot else (B.unit,), 1)]
            for t, b in reversed(list(enumerate(beta))):
                if b < p:
                    z = combo[t][0][p - b - 1]
                    entry = [
                        (s, c * cs)
                        for e, c in entry
                        for s, cs in cobar._right_terms(B, e, z)
                    ]
            blocks.append(
                [(s, c * cs) for e, c in entry for s, cs in cobar._left_terms(B, a, e)]
            )
        cprod = [(C.unit, 1)]
        for _, tail in reversed(combo):
            cprod = [(n, c * cn) for m, c in cprod for n, cn in C.product[(m, tail)]]
        for body, cb in _expand_terms(blocks):
            for cn, cc in cprod:
                yield (sum(body, ()), cn), coeff * cb * cc


class TestWideAction:
    # Z/2 and its dual (non-grouplike coproducts) with every selector; the
    # non-commutative band with selectors of at most two slots, since its
    # three-slot selectors alone would add 46,656 cases
    @pytest.mark.parametrize(
        "bialgebra, most_args, cases",
        [
            (lambda: group_bialgebra(Z2), 3, 2955),
            (lambda: dual_group_bialgebra(Z2), 3, 2955),
            (lambda: monoid_bialgebra(LEFT_ZERO, str), 2, 14224),
        ],
        ids=["Z/2", "dual Z/2", "left-zero band"],
    )
    def test_fold_matches_per_argument_spreads(self, bialgebra, most_args, cases):
        B = bialgebra()
        C = diagonal_comodule(B)
        # every argument of level 0 or 1
        args = [
            (w, c) for l in range(2) for w in iproduct(B.basis, repeat=l) for c in C.basis
        ]
        seen = 0
        for k in range(4):
            for tf in iproduct(B.basis, repeat=k):
                for s in range(min(k, most_args) + 1):
                    for beta in combinations(range(1, k + 1), s):
                        for us in iproduct(args, repeat=s):
                            want = LinComb(reference_wide_terms(B, C, beta, tf, us))
                            got = LinComb(cobar._wide_terms(B, C, beta, tf, us))
                            assert got == want, (tf, beta, us)
                            seen += 1
        assert seen == cases


_C = sample_coalgebra()
_CLOSED, _REL = both_parts(group_bialgebra(Z2))
_F = LinComb.unit(("1",))
_U = LinComb.unit((("1",), "0"))

# each public entry point of the module on a bad input it refuses, with the
# message it must give
REFUSED = [
    pytest.param(
        lambda: relative_cobar(_C, diagonal_dg_comodule(sample_coalgebra()), 4),
        "comodule is not over the given coalgebra",
        id="relative_cobar",
    ),
    pytest.param(
        lambda: cobar_algebra(relative_cobar(_C, diagonal_dg_comodule(_C), 4)),
        "use the closed construction",
        id="cobar_algebra",
    ),
    pytest.param(
        lambda: relative_cobar_module(cobar.cobar(_C, 4), cobar.cobar(_C, 4)),
        "use the relative construction",
        id="relative_cobar_module",
    ),
    pytest.param(
        lambda: mb_compose(_CLOSED.B, LinComb.unit(("1", "0")), 3, _F),
        "slot 3 out of range",
        id="mb_compose",
    ),
    pytest.param(
        lambda: _CLOSED.codegeneracy(2, LinComb.unit(("1", "0"))),
        "codegeneracy index 2 out of range at level 2",
        id="codegeneracy",
    ),
    pytest.param(
        lambda: cobar.cup(_REL, _U, _U), "cup lives on the closed part", id="cup"
    ),
    pytest.param(
        lambda: cobar.inc_tot(_CLOSED, _F),
        "the inclusion lands in the relative part",
        id="inc_tot",
    ),
    pytest.param(
        lambda: cobar.sqcup(_CLOSED, _F, _F),
        "the twisted product lives on the relative part",
        id="sqcup",
    ),
    pytest.param(
        lambda: cobar.act_Tk(_REL, _F, [_F]),
        "the closed insertion sum lives on the closed part",
        id="act_Tk",
    ),
    pytest.param(
        lambda: cobar.act_Tj(_CLOSED, _F, [_U]),
        "the open insertion sum lives on the relative part",
        id="act_Tj",
    ),
]


@pytest.mark.parametrize("call, message", REFUSED)
def test_public_api_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
