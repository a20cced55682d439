"""Surjection chain operad: differential, signs, composition, homology."""

import copy
import pickle
import random

import pytest

from operadix import strings, surjections
from operadix.chains import LinComb
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
        rng = random.Random(17)
        basis = full_basis()
        table = {}
        for g in basis:
            table.setdefault(strings.colours(g.underlying)[1], []).append(g)
        checked = 0
        while checked < 300:
            f = rng.choice(basis)
            ins, _ = strings.colours(f.underlying)
            if not ins:
                continue
            i = rng.randrange(len(ins)) + 1
            gs = table.get(ins[i - 1], [])
            if not gs:
                continue
            g = rng.choice(gs)
            lhs = surjections.linear_differential(surjections.rs_compose(f, i, g))
            rhs = surjections._compose_linear(
                surjections.differential(f), i, LinComb.unit(g)
            ) + ((-1) ** (f.degree % 2)) * surjections._compose_linear(
                LinComb.unit(f), i, surjections.differential(g)
            )
            assert lhs == rhs
            checked += 1


class TestGenerators:
    def test_closure_spans_small_components(self):
        report = surjections.is_generated_up_to(max_labels=3, max_length=6, m=2)
        assert report["all_spanned"]
        assert all(
            info["spanned"] for info in report["components"].values()
        )

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
        assert surjections._spans_full_lattice(vectors, dim) is spanned


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
