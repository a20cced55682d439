"""Finite-monoid loop model: cosimplicial structure, totalizations, products."""

import time
from itertools import combinations, product as iproduct

import pytest

from operadix import loops
from operadix.chains import LinComb, homology
from operadix.cobar import CobarTot, _insertion_sign
from operadix.loops import (
    FiniteMonoid,
    TotComplex,
    act_Tj,
    act_Tk,
    cup,
    gamma,
    homotopy_H,
    inc_tot,
    iota,
    omega,
    rho,
    right_translate,
    sqcup,
    varsigma,
    varsigma_i,
    varsigma_prime,
)

U = LinComb.unit


def raw_basis(tot, deg):
    if tot.kind == "closed":
        return list(iproduct(tot.M.elements, repeat=deg))
    return [
        (xs, y) for xs in iproduct(tot.M.elements, repeat=deg) for y in tot.N
    ]


def pbasis(tot, deg):
    out, seen = [], set()
    for b in raw_basis(tot, deg):
        p = tot.conormal_project(U(b))
        if p and p not in seen:
            seen.add(p)
            out.append(p)
    return out


Z2 = FiniteMonoid.cyclic(2)
Z3 = FiniteMonoid.cyclic(3)


class TestCosimplicial:
    def test_identities(self):
        omega(Z2, Z2.elements).check_identities(3)
        omega(Z3, (0,)).check_identities(3)

    def test_broken_coface_reported_with_witness(self):
        class Broken(loops.CosimplicialAbGroup):
            def coface(self, i, elem):
                xs, y = super().coface(i, elem)
                return (xs, y) if i else (xs[::-1], y)

        witness = r"coface identity fails at \(0, 1, \(\(1,\), 0\)\)"
        with pytest.raises(ValueError, match=witness):
            Broken(Z3, (0,)).check_identities(3)

    def test_submonoid_enforced(self):
        with pytest.raises(ValueError):
            omega(Z3, (0, 1))


class TestCyclic:
    def test_matches_the_validated_construction(self):
        for n in range(1, 7):
            elems = range(n)
            want = FiniteMonoid(
                elems, 0, {(a, b): (a + b) % n for a in elems for b in elems}
            )
            got = FiniteMonoid.cyclic(n)
            assert type(got) is FiniteMonoid
            assert (got.elements, got.unit, got.table) == (
                want.elements, want.unit, want.table
            )
        with pytest.raises(ValueError, match="order at least 1, not 0"):
            FiniteMonoid.cyclic(0)

    def test_outside_tables_are_still_checked(self):
        # subtraction mod 3: 0 is only a right unit
        table = {(a, b): (a - b) % 3 for a in range(3) for b in range(3)}
        with pytest.raises(ValueError, match="unit law fails"):
            FiniteMonoid(range(3), 0, table)
        # with row 0 made the identity, 0 is a two-sided unit and the table
        # is closed, but not associative
        table.update({(0, b): b for b in range(3)})
        with pytest.raises(ValueError, match="associativity fails"):
            FiniteMonoid(range(3), 0, table)

    def test_open_part_over_a_large_order_builds_quickly(self):
        # the submonoid's table is M's, so it is not checked again either
        start = time.perf_counter()
        tot = TotComplex(FiniteMonoid.cyclic(150), range(150), truncation=0)
        assert tot.homology() == {0: (150, [])}
        assert time.perf_counter() - start < 2.0


class TestTotalization:
    def test_d_squared_zero(self):
        for kind, sub in (("closed", (0,)), ("open", (0, 1))):
            tot = TotComplex(Z2, sub, truncation=4, kind=kind)
            for deg in range(3):
                for b in raw_basis(tot, deg):
                    assert not tot.differential(tot.differential(U(b)))

    def test_projector_idempotent_and_kills_degeneracies(self):
        tot = TotComplex(Z2, (0, 1), truncation=4, kind="open")
        for deg in range(1, 4):
            for b in raw_basis(tot, deg):
                p = tot.conormal_project(U(b))
                assert tot.conormal_project(p) == p

    def test_projector_commutes_with_differential(self):
        tot = TotComplex(Z2, (0, 1), truncation=4, kind="open")
        for deg in range(3):
            for b in raw_basis(tot, deg):
                assert tot.conormal_project(
                    tot.differential(U(b))
                ) == tot.differential(tot.conormal_project(U(b)))

    def test_homology_frozen(self):
        tot = TotComplex(Z2, Z2.elements, truncation=4, kind="open")
        hom = tot.homology()
        assert hom[0] == (1, [])
        assert hom[1] == (0, []) and hom[2] == (0, [])
        closed = TotComplex(Z2, Z2.elements, truncation=4, kind="closed")
        homc = closed.homology()
        assert homc[0] == (1, [])
        assert homc[1] == (0, []) and homc[2] == (0, [])

    def test_conormalized_matches_unnormalized(self):
        tot = TotComplex(Z2, (0,), truncation=4, kind="closed")
        hom = tot.homology()
        raw = CobarTot(tot.B, truncation=tot.truncation).chain_complex()
        for level in range(4):
            assert hom[level] == homology(raw, -level)

    def test_window_limit(self):
        # sum over k <= t of (k + 1) |M|^k |N| tuple entries, |N| = 1 closed:
        # 8,912,898 at t = 17 and 18,874,370 at t = 18 for Z/2 with N = Z/2
        assert loops.MAX_WINDOW == 10**7
        TotComplex(Z2, Z2.elements, truncation=17, kind="open")
        TotComplex(Z2, Z2.elements, truncation=18, kind="closed")
        with pytest.raises(ValueError, match="more than 10000000 tuple entries"):
            TotComplex(Z2, Z2.elements, truncation=18, kind="open")
        # the one-element monoid's level-k tuple is k coordinates long
        trivial = FiniteMonoid((0,), 0, {(0, 0): 0})
        TotComplex(trivial, (0,), truncation=4470)
        with pytest.raises(ValueError, match="over a 1-element monoid"):
            TotComplex(trivial, (0,), truncation=10**9)


class TestProducts:
    def test_leibniz(self):
        totc = TotComplex(Z2, (0,), truncation=4, kind="closed")
        toto = TotComplex(Z2, (0, 1), truncation=4, kind="open")
        for df in range(2):
            for dg in range(2):
                for f in pbasis(totc, df):
                    for g in pbasis(totc, dg):
                        lhs = totc.differential(cup(totc, f, g))
                        rhs = cup(totc, totc.differential(f), g) + (
                            (-1) ** (df % 2)
                        ) * cup(totc, f, totc.differential(g))
                        assert lhs == rhs
                for u in pbasis(toto, df):
                    for v in pbasis(toto, dg):
                        lhs = toto.differential(sqcup(toto, u, v))
                        rhs = sqcup(toto, toto.differential(u), v) + (
                            (-1) ** (df % 2)
                        ) * sqcup(toto, u, toto.differential(v))
                        assert lhs == rhs

    def test_associativity(self):
        toto = TotComplex(Z2, (0, 1), truncation=4, kind="open")
        elems = [p for d in range(2) for p in pbasis(toto, d)]
        for u in elems:
            for v in elems:
                for w in elems:
                    assert sqcup(toto, sqcup(toto, u, v), w) == sqcup(
                        toto, u, sqcup(toto, v, w)
                    )

    def test_inclusion_is_a_chain_map(self):
        totc = TotComplex(Z2, (0,), truncation=4, kind="closed")
        toto = TotComplex(Z2, (0, 1), truncation=4, kind="open")
        for deg in range(3):
            for f in pbasis(totc, deg):
                assert inc_tot(toto, totc.differential(f)) == toto.differential(
                    inc_tot(toto, f)
                )


class TestHomotopies:
    def test_commutator_homotopy(self):
        totc = TotComplex(Z2, (0,), truncation=5, kind="closed")
        toto = TotComplex(Z2, (0, 1), truncation=5, kind="open")
        for df in range(1, 3):
            for du in range(2):
                for f in pbasis(totc, df):
                    for u in pbasis(toto, du):
                        lhs = (
                            toto.differential(homotopy_H(toto, f, u))
                            + homotopy_H(toto, totc.differential(f), u)
                            + ((-1) ** (df % 2))
                            * homotopy_H(toto, f, toto.differential(u))
                        )
                        rhs = sqcup(toto, inc_tot(toto, f), u) - (
                            (-1) ** ((df * du) % 2)
                        ) * sqcup(toto, u, inc_tot(toto, f))
                        assert lhs == rhs

    def test_closed_insertion_homotopy(self):
        totc = TotComplex(Z2, (0,), truncation=5, kind="closed")
        for df in range(1, 3):
            for dg in range(1, 3):
                for f in pbasis(totc, df):
                    for g in pbasis(totc, dg):
                        lhs = (
                            totc.differential(act_Tk(totc, f, [g]))
                            + act_Tk(totc, totc.differential(f), [g])
                            + ((-1) ** (df % 2))
                            * act_Tk(totc, f, [totc.differential(g)])
                        )
                        rhs = cup(totc, f, g) - (
                            (-1) ** ((df * dg) % 2)
                        ) * cup(totc, g, f)
                        assert lhs == rhs


# x * y = x away from the unit 0: not commutative, so left and right
# translations differ
LEFT_ZERO = FiniteMonoid((0, 1, 2), 0, {
    (x, y): y if x == 0 else x for x in range(3) for y in range(3)
})
CROSS_CASES = [(M, N) for M in (Z2, Z3, LEFT_ZERO) for N in (M.elements, (0,))]


class TestTupleLevelCrossCheck:
    """The totalization operations against the tuple-level cosimplicial
    structure and operad actions they are built to agree with."""

    def test_differential_is_alternating_coface_sum(self):
        for M, N in CROSS_CASES:
            for kind, endpoints in (("closed", (M.unit,)), ("open", N)):
                tot = TotComplex(M, N, truncation=4, kind=kind)
                om = omega(M, endpoints)
                for level in range(4):
                    for xs, y in om.level(level):
                        b = xs if kind == "closed" else (xs, y)
                        want = LinComb(
                            (om.coface(i, (xs, y)), (-1) ** i) for i in range(level + 2)
                        )
                        if kind == "closed":
                            want = LinComb((e[0], c) for e, c in want)
                        assert tot.differential(U(b)) == want

    def test_projection_removes_tuple_level_degeneracies(self):
        for M, N in CROSS_CASES:
            tot = TotComplex(M, N, truncation=4, kind="open")
            om = omega(M, N)
            for level in range(4):
                for e in om.level(level):
                    want = U(e)
                    for i in range(level - 1, -1, -1):
                        want = want - LinComb(
                            (om.coface(i, om.codegeneracy(i, t)), c) for t, c in want
                        )
                    assert tot.conormal_project(U(e)) == want

    def test_homotopy_is_signed_varsigma_sum(self):
        for M, N in CROSS_CASES:
            totc = TotComplex(M, (0,), truncation=5, kind="closed")
            toto = TotComplex(M, N, truncation=5, kind="open")
            for df in range(1, 4):
                for du in range(3):
                    for f in pbasis(totc, df):
                        for u in pbasis(toto, du):
                            want = LinComb(
                                (
                                    varsigma_i(M, a, i, (b, n)),
                                    (-1) ** (i + i * len(b) + len(a) * len(b))
                                    * ca
                                    * cu,
                                )
                                for a, ca in f
                                for (b, n), cu in u
                                for i in range(1, len(a) + 1)
                            )
                            assert homotopy_H(toto, f, u) == toto.conormal_project(want)

    def test_two_argument_insertion_is_signed_varsigma_prime_sum(self):
        # later slots are right-translated by the product n_2 n_1 of the
        # earlier endpoints; the left-zero band with N = M shows the order
        # in degrees (3, 1, 1)
        cases = 0
        for M, N in CROSS_CASES:
            totc = TotComplex(M, (0,), truncation=5, kind="closed")
            toto = TotComplex(M, N, truncation=5, kind="open")
            for df in range(2, 4):
                for du in range(2):
                    for dv in range(2):
                        for f in pbasis(totc, df):
                            for u in pbasis(toto, du):
                                for v in pbasis(toto, dv):
                                    want = LinComb(
                                        (
                                            varsigma_prime(M, beta, a, [(b, n), (c, p)]),
                                            _insertion_sign(beta, [len(b), len(c)], len(a))
                                            * ca
                                            * cu
                                            * cv,
                                        )
                                        for a, ca in f
                                        for (b, n), cu in u
                                        for (c, p), cv in v
                                        for beta in combinations(range(1, len(a) + 1), 2)
                                    )
                                    got = act_Tj(toto, f, [u, v])
                                    assert got == toto.conormal_project(want)
                                    cases += 1
        assert cases == 2200

    def test_open_concatenation_is_right_translated_append(self):
        for M, N in CROSS_CASES:
            toto = TotComplex(M, N, truncation=5, kind="open")
            for du in range(3):
                for dv in range(3):
                    for u in pbasis(toto, du):
                        for v in pbasis(toto, dv):
                            want = LinComb(
                                ((a + right_translate(M, b, m), M.mul(n, m)), cu * cv)
                                for (a, m), cu in u
                                for (b, n), cv in v
                            )
                            assert sqcup(toto, u, v) == toto.conormal_project(want)

    def test_closed_insertion_is_gamma_unit_insertion_sum(self):
        def insert(M, a, p, b):
            fill = [(M.unit,)] * len(a)
            fill[p - 1] = b
            return gamma(M, a, fill)

        for M, _ in CROSS_CASES[::2]:
            totc = TotComplex(M, (0,), truncation=5, kind="closed")
            for df in range(1, 4):
                for dg in range(1, 3):
                    for f in pbasis(totc, df):
                        for g in pbasis(totc, dg):
                            want = LinComb(
                                (
                                    insert(M, a, p, b),
                                    (-1) ** (p + p * len(b) + len(a) * len(b)) * ca * cb,
                                )
                                for a, ca in f
                                for b, cb in g
                                for p in range(1, len(a) + 1)
                            )
                            assert act_Tk(totc, f, [g]) == totc.conormal_project(want)


class TestWideBimodule:
    def test_coherence_laws(self):
        M = Z3
        pool = [
            tuple(t) for l in range(3) for t in iproduct(M.elements, repeat=l)
        ]
        fs = [t for l in range(1, 3) for t in iproduct(M.elements, repeat=l)]
        for f in fs:
            k = len(f)
            for gs in iproduct(pool[:6], repeat=k):
                # right action commutes with the inclusion
                assert rho(M, iota(M, f), list(gs)) == iota(M, gamma(M, f, gs))
                # full interleaving with unit endpoints degenerates to gamma
                args = [(g, M.unit) for g in gs]
                assert varsigma(M, f, args) == iota(M, gamma(M, f, gs))
