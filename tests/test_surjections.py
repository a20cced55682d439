"""Surjection chain operad: differential, signs, composition, homology."""

import copy
import pickle
import random
from itertools import combinations, permutations, product

import pytest

from operadix import strings, surjections
from operadix.chains import LinComb, _rank_and_torsion
from operadix.surjections import BarredClass, Surjection


ALL_COMPONENTS = [
    ([False], False),
    ([False], True),
    ([True], True),
    ([False, False], False),
    ([False, False], True),
    ([False, True], True),
    ([True, False], True),
    ([True, True], True),
]


def full_basis():
    basis = []
    for ins, out in ALL_COMPONENTS:
        basis.extend(surjections.enumerate_component(ins, out, 2))
    return basis


class TestBasis:
    def test_surjections_are_bar_free_and_nondegenerate(self):
        for s in full_basis():
            tokens = s.underlying.tokens
            assert strings.BAR not in tokens
            assert all(a != b for a, b in zip(tokens, tokens[1:]))

    def test_degree_is_excess_length(self):
        s = Surjection(strings.parse("(121)^c"))
        assert s.degree == 1
        assert Surjection(strings.parse("(12)^c")).degree == 0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Surjection(strings.parse("(112)^c"))


class TestDifferential:
    def test_squares_to_zero_exhaustively(self):
        for s in full_basis():
            ds = surjections.differential(s)
            assert not surjections.linear_differential(ds)

    def test_worked_values_frozen(self):
        # only nondegenerate occurrence deletions survive
        s = Surjection(strings.parse("(1212)^c"))
        got = {
            strings.text(b.underlying): c for b, c in surjections.differential(s)
        }
        assert got == {"(212)^c": 1, "(121)^c": 1}
        s2 = Surjection(strings.parse("(121)^c"))
        got2 = {
            strings.text(b.underlying): c for b, c in surjections.differential(s2)
        }
        assert got2 == {"(21)^c": 1, "(12)^c": -1}


    def test_degenerate_raw_string_cancels(self):
        # deleting either of the first two 1s of (1121) gives (121), with
        # opposite signs; deleting the last one is degenerate
        assert surjections.differential(strings.parse("(1121)^c")) == LinComb()


class TestHashAndEquality:
    def test_equal_values_hash_equally(self):
        for source in ("(1u21u3)^o", "(121)^c", "(u12u1)^o"):
            x = strings.parse(source)
            for cls in (Surjection, BarredClass):
                checked = cls(x)
                values = [
                    cls(strings.IntegerString(x.tokens, x.output_open)),
                    surjections._unchecked(cls, x),
                    copy.deepcopy(checked),
                    copy.copy(checked),
                ] + [
                    pickle.loads(pickle.dumps(checked, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
                ]
                for v in values:
                    assert v == checked and hash(v) == hash(checked)
                    assert len({v, checked}) == 1

    # the hash reads the tokens alone, so the values below collide and only
    # equality keeps them apart
    def test_surjection_and_barred_class_are_two_terms(self):
        x = strings.parse("(121)^c")
        s, b = Surjection(x), BarredClass(x)
        assert s != b and b != s and hash(s) == hash(b)
        v = LinComb([(s, 1), (b, 1)])
        assert dict(v.terms) == {s: 1, b: 1} and len(v.terms) == 2
        assert LinComb.unit(s) + LinComb.unit(b) == v
        assert (LinComb.unit(s) - LinComb.unit(b)).terms == {s: 1, b: -1}

    def test_output_colour_twins_are_two_terms(self):
        closed, open_ = strings.parse("(121)^c"), strings.parse("(121)^o")
        for cls in (Surjection, BarredClass):
            c, o = cls(closed), cls(open_)
            assert c != o and hash(c) == hash(o)
            v = LinComb.unit(c) + LinComb.unit(o)
            assert v.terms == {c: 1, o: 1}
            assert (v - LinComb.unit(o)).terms == {c: 1}
        # the differentials of the twins do not cancel each other
        dc = surjections.differential(Surjection(closed))
        do = surjections.differential(Surjection(open_))
        assert len((dc - do).terms) == len(dc.terms) + len(do.terms) == 4


class TestVartheta:
    def test_counts_and_bars(self):
        s = Surjection(strings.parse("(121)^c"))
        v = surjections.vartheta(s, 1)
        for b, c in v:
            assert c == 1
            assert isinstance(b, BarredClass)
            assert sum(1 for t in b.underlying.tokens if t == strings.BAR) == 1

    def test_rejects_barred_input(self):
        with pytest.raises(ValueError):
            surjections.vartheta(BarredClass(strings.parse("(1|1)^c")), 1)


class TestRsCompose:
    def test_worked_example(self):
        f = Surjection(strings.parse("(1u21)^o"))
        g = Surjection(strings.parse("(12)^c"))
        got = {
            strings.text(b.underlying): c for b, c in surjections.rs_compose(f, 1, g)
        }
        assert got == {"(1u312)^o": 1, "(12u32)^o": 1}

    def test_leibniz_sampled(self):
        # g is picked by openness, so slots whose letter repeats are filled
        rng = random.Random(17)
        basis = full_basis()
        table = {}
        for g in basis:
            table.setdefault(g.underlying.output_open, []).append(g)
        checked = repeated = 0
        while checked < 300:
            f = rng.choice(basis)
            x = f.underlying
            i = rng.randrange(strings.arity(x)) + 1
            g = rng.choice(table[-i in x.tokens])
            assert not leibniz_defect(f, i, g)
            checked += 1
            repeated += strings.occurrences(x, i) > 1
        assert repeated > 30  # 41 of the 300 slots repeat their letter


def leibniz_defect(f, i, g):
    """d(f o_i g) - (df o_i g + (-1)^|f| f o_i dg); zero when the Leibniz
    rule holds."""
    lhs = surjections.linear_differential(surjections.rs_compose(f, i, g))
    rhs = surjections._compose_linear(
        surjections.differential(f), i, LinComb.unit(g)
    ) + ((-1) ** (f.degree % 2)) * surjections._compose_linear(
        LinComb.unit(f), i, surjections.differential(g)
    )
    return lhs - rhs


def colour_basis(m, max_arity=3):
    """Every basis surjection of arity <= ``max_arity`` at level ``m``, in
    every colour pattern."""
    return [
        s
        for k in range(1, max_arity + 1)
        for opens in product((False, True), repeat=k)
        for out_open in (False, True)
        for s in surjections.enumerate_component(opens, out_open, m)
    ]


def compose_unit(f, i, g):
    return surjections._compose_linear(f, i, LinComb.unit(g))


class TestSignsOverZ:
    """The cut-pattern signs make RS a dg-operad over Z, not only mod 2."""

    def test_leibniz_on_every_composable_triple(self):
        basis = colour_basis(2)
        triples = repeated = 0
        for f in basis:
            x = f.underlying
            for i in range(1, strings.arity(x) + 1):
                for g in basis:
                    if g.underlying.output_open == (-i in x.tokens):
                        assert not leibniz_defect(f, i, g)
                        triples += 1
                        repeated += strings.occurrences(x, i) > 1
        assert (triples, repeated) == (48_916, 6642)

    def test_leibniz_sampled_at_m3(self):
        basis = colour_basis(3)
        short = {
            o: [g for g in basis if g.underlying.output_open == o
                and len(g.underlying.tokens) <= 6]
            for o in (False, True)
        }
        rng = random.Random(3)
        checked = 0
        while checked < 1000:
            f = rng.choice(basis)
            x = f.underlying
            i = rng.randrange(strings.arity(x)) + 1
            if strings.occurrences(x, i) > 1:
                assert not leibniz_defect(f, i, rng.choice(short[-i in x.tokens]))
                checked += 1

    def test_found_witness(self):
        # with every cut pattern at +1 the defect was
        # 2(134525)^c - 2(153425)^c + 2(153452)^c
        f = Surjection(strings.parse("(1323)^c"))
        g = Surjection(strings.parse("(3123)^c"))
        assert not leibniz_defect(f, 3, g)
        got = {
            strings.text(b.underlying): c for b, c in surjections.rs_compose(f, 3, g)
        }
        assert got == {
            "(1525345)^c": 1, "(1532345)^c": 1, "(1534245)^c": 1,
            "(1534525)^c": -1,
        }

    def test_associativity_sampled(self):
        basis = colour_basis(2)
        by_open = {
            o: [g for g in basis if g.underlying.output_open == o]
            for o in (False, True)
        }
        rng = random.Random(11)
        for _ in range(4000):
            # sequential: (f o_i g) o_{i+j-1} h = f o_i (g o_j h)
            f = rng.choice(basis)
            x = f.underlying
            i = rng.randrange(strings.arity(x)) + 1
            g = rng.choice(by_open[-i in x.tokens])
            j = rng.randrange(strings.arity(g.underlying)) + 1
            h = rng.choice(by_open[-j in g.underlying.tokens])
            assert compose_unit(surjections.rs_compose(f, i, g), i + j - 1, h) == (
                surjections._compose_linear(
                    LinComb.unit(f), i, surjections.rs_compose(g, j, h)
                )
            )
            # parallel, i < l: (f o_i g) o_{l+|g|-1} h
            #   = (-1)^{deg g deg h} (f o_l h) o_i g
            k = strings.arity(x)
            if k < 2:
                continue
            i, l = sorted(rng.sample(range(1, k + 1), 2))
            g = rng.choice(by_open[-i in x.tokens])
            h = rng.choice(by_open[-l in x.tokens])
            shift = strings.arity(g.underlying) - 1
            sign = -1 if g.degree * h.degree % 2 else 1
            assert compose_unit(surjections.rs_compose(f, i, g), l + shift, h) == (
                sign * compose_unit(surjections.rs_compose(f, l, h), i, g)
            )

    def test_unit_laws(self):
        units = {
            o: Surjection(strings.parse("(u1)^o" if o else "(1)^c"))
            for o in (False, True)
        }
        for f in colour_basis(2):
            x = f.underlying
            assert surjections.rs_compose(units[x.output_open], 1, f) == (
                LinComb.unit(f)
            )
            for i in range(1, strings.arity(x) + 1):
                unit = units[-i in x.tokens]
                assert surjections.rs_compose(f, i, unit) == LinComb.unit(f)


def caesura_sign(sigma, tokens):
    """The sign of the permutation that reorders the caesuras of ``tokens``
    (the occurrences that are not the last of their label) from (label,
    position) order to (sigma(label), position) order."""
    last = {abs(t): p for p, t in enumerate(tokens)}
    caesuras = sorted((abs(t), p) for p, t in enumerate(tokens) if p != last[abs(t)])
    moved = sorted(
        range(len(caesuras)),
        key=lambda r: (sigma[caesuras[r][0] - 1], caesuras[r][1]),
    )
    return -1 if sum(a > b for a, b in combinations(moved, 2)) % 2 else 1


def signed_act(sigma, v, sign=caesura_sign):
    """sigma acting on each term c u of v as c sign(sigma, u) (sigma . u)."""
    return LinComb(
        (
            Surjection(strings.sym_act(sigma, u.underlying)),
            c * sign(sigma, u.underlying.tokens),
        )
        for u, c in v
    )


def block_act(r, i, k):
    """The permutation of 1..k+l-1 that acts by ``r`` on the block of l
    letters put in slot i of an arity-k string, and fixes the rest."""
    l = len(r)
    return [*range(1, i), *(i - 1 + j for j in r), *range(i + l, k + l)]


class TestEquivarianceOverZ:
    """With the caesura sign, d and rs_compose are equivariant over Z."""

    def test_differential_is_equivariant(self):
        pairs = unsigned_breaks = 0
        for u in colour_basis(2):
            du = surjections.differential(u)
            for sigma in permutations(range(1, strings.arity(u.underlying) + 1)):
                d_of_act = surjections.linear_differential(
                    signed_act(sigma, LinComb.unit(u))
                )
                assert d_of_act == signed_act(sigma, du)
                pairs += 1
                # plain relabelling is no chain map
                unsigned_breaks += surjections.linear_differential(
                    signed_act(sigma, LinComb.unit(u), sign=lambda *_: 1)
                ) != signed_act(sigma, du, sign=lambda *_: 1)
        assert (pairs, unsigned_breaks) == (1187, 54)

    def test_rs_compose_under_adjacent_transpositions(self):
        # rs_compose(sigma * f, sigma(i), g) = tau * rs_compose(f, i, g),
        # tau = block_perm(sigma, i, l), exhaustively on the window for the
        # adjacent transpositions, which generate S_k
        basis = colour_basis(2)
        cases = 0
        for f in basis:
            x = f.underlying
            k = strings.arity(x)
            swaps = [
                [*range(1, a), a + 1, a, *range(a + 2, k + 1)] for a in range(1, k)
            ]
            for i in range(1, k + 1):
                for g in basis:
                    if g.underlying.output_open != (-i in x.tokens):
                        continue
                    l = strings.arity(g.underlying)
                    fg = surjections.rs_compose(f, i, g)
                    for sigma in swaps:
                        lhs = compose_unit(
                            signed_act(sigma, LinComb.unit(f)), sigma[i - 1], g
                        )
                        assert lhs == signed_act(strings.block_perm(sigma, i, l), fg)
                        cases += 1
        assert cases == 94_726

    @pytest.mark.parametrize("m", [2, 3])
    def test_rs_compose_sampled_over_every_permutation(self, m):
        # sigma in S_k acting on f, and r in S_l acting on g inside its block
        basis = colour_basis(m)
        by_open = {
            o: [g for g in basis if g.underlying.output_open == o]
            for o in (False, True)
        }
        rng = random.Random(5)
        for _ in range(1500):
            f = rng.choice(basis)
            x = f.underlying
            k = strings.arity(x)
            i = rng.randrange(k) + 1
            g = rng.choice(by_open[-i in x.tokens])
            l = strings.arity(g.underlying)
            fg = surjections.rs_compose(f, i, g)
            sigma = rng.sample(range(1, k + 1), k)
            lhs = compose_unit(signed_act(sigma, LinComb.unit(f)), sigma[i - 1], g)
            assert lhs == signed_act(strings.block_perm(sigma, i, l), fg)
            r = rng.sample(range(1, l + 1), l)
            lhs = surjections._compose_linear(
                LinComb.unit(f), i, signed_act(r, LinComb.unit(g))
            )
            assert lhs == signed_act(block_act(r, i, k), fg)


class TestGenerators:
    def test_closure_spans_small_components(self):
        report = surjections.is_generated_up_to(max_labels=3, max_length=6)
        assert report["all_spanned"]
        assert all(
            info["spanned"] for info in report["components"].values()
        )
        # closed under the signed action; plain relabelling reached 265
        assert report["reachable"] == 247

    def test_closure_in_arity_four(self):
        report = surjections.is_generated_up_to(max_labels=4, max_length=4)
        assert report["reachable"] == 649
        assert report["all_spanned"]
        assert all(info["spanned"] for info in report["components"].values())

    def test_library_caesura_sign_matches_the_oracle(self):
        cases = negative = 0
        for u in colour_basis(2):
            tokens = u.underlying.tokens
            for sigma in permutations(range(1, strings.arity(u.underlying) + 1)):
                sign = surjections._caesura_sign(sigma, tokens)
                assert sign == caesura_sign(sigma, tokens), (tokens, sigma)
                cases += 1
                negative += sign < 0
        assert cases == 1187 and 0 < negative < cases

    @pytest.mark.parametrize(
        "vectors, dim, spanned",
        [
            # unimodular: det = 1, with a redundant third row
            ([{0: 2, 1: 1}, {0: 1, 1: 1}, {0: 3, 1: 2}], 2, True),
            ([], 0, True),
            # rank deficient: rank 1 in Z^2
            ([{0: 1, 1: 2}, {0: 2, 1: 4}], 2, False),
            ([], 2, False),
            # full rank with torsion: index 2, and index 3 in a 2 x 2 block
            ([{0: 2}], 1, False),
            ([{0: 1, 1: 1}, {0: 1, 1: -2}], 2, False),
        ],
    )
    def test_spans_full_lattice(self, vectors, dim, spanned):
        assert (_rank_and_torsion(vectors) == (dim, [])) is spanned


class TestHomology:
    def test_two_closed_inputs(self):
        hom = surjections.component_homology([False, False], False, 2)
        assert hom[0] == (1, [])
        assert hom[1] == (1, [])
        assert all(v == (0, []) for d, v in hom.items() if d not in (0, 1))

    def test_two_open_inputs(self):
        hom = surjections.component_homology([True, True], True, 2)
        assert hom[0] == (2, [])
        assert all(v == (0, []) for d, v in hom.items() if d != 0)

    def test_one_closed_input_open_output(self):
        hom = surjections.component_homology([False], True, 2)
        assert hom[0] == (1, [])
        assert all(v == (0, []) for d, v in hom.items() if d != 0)

    def test_mixed_inputs(self):
        hom = surjections.component_homology([False, True], True, 2)
        assert hom[0] == (1, [])
        assert all(v == (0, []) for d, v in hom.items() if d != 0)
