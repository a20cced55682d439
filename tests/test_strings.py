"""Integer-string core: parsing, composition, symmetric action, filtration."""

import pytest

from itertools import combinations_with_replacement

from operadix import strings
from operadix.strings import (
    BAR,
    Colour,
    ColourMismatch,
    MonotoneMap,
    StringError,
    UnknownToken,
)

from corpus import CORPUS


class TestParsePrint:
    def test_round_trip_corpus(self):
        for text in CORPUS:
            assert strings.text(strings.parse(text)) == text

    def test_tokens_of_simple_string(self):
        x = strings.parse("(1u2|1u2)^o")
        assert x.tokens == (1, -2, BAR, 1, -2)
        assert x.output_open

    def test_bad_inputs_raise(self):
        with pytest.raises(StringError):
            strings.parse("1u2")  # missing parentheses and tag
        with pytest.raises(StringError):
            strings.parse("(12)^x")  # unknown output tag
        with pytest.raises(UnknownToken):
            strings.parse("(1a2)^c")
        with pytest.raises(StringError):
            strings.parse("(13)^c")  # label 2 missing

    def test_open_letters_need_open_output(self):
        with pytest.raises(StringError):
            strings.parse("(1u2)^c")

    def test_colours(self):
        x = strings.parse("(1u2|1u4u231||u2u4)^o")
        ins, out = strings.colours(x)
        assert ins == (
            Colour(2, False),
            Colour(2, True),
            Colour(0, False),
            Colour(1, True),
        )
        assert out == Colour(3, True)


class TestCompose:
    def test_worked_example(self):
        f = strings.parse("(1u2|1u4u231||u2u4)^o")
        g = strings.parse("(1u3|21u3|u31)^o")
        assert strings.text(strings.compose(f, 2, g)) == "(12u4|1u632u451||u42u6)^o"

    def test_colour_mismatch_rejected(self):
        f = strings.parse("(1u2|1u2)^o")
        g = strings.parse("(11)^c")  # closed output cannot fill an open slot
        with pytest.raises(ColourMismatch):
            strings.compose(f, 2, g)

    def test_unit_laws_small(self):
        for text in CORPUS[:20]:
            x = strings.parse(text)
            ins, out = strings.colours(x)
            for i, col in enumerate(ins, start=1):
                assert strings.compose(x, i, strings.identity_string(col)) == x
            assert strings.compose(strings.identity_string(out), 1, x) == x


class TestSymAct:
    def test_worked_example(self):
        x = strings.parse("(1u2|3u211||u21)^o")
        assert strings.text(strings.sym_act([2, 3, 1], x)) == "(2u3|1u322||u32)^o"

    def test_identity_and_composition(self):
        x = strings.parse("(12|2331|)^c")
        assert strings.sym_act([1, 2, 3], x) == x
        s, t = [2, 3, 1], [3, 1, 2]
        st = [s[t[j] - 1] for j in range(3)]
        assert strings.sym_act(s, strings.sym_act(t, x)) == strings.sym_act(st, x)

    def test_bad_permutation_rejected(self):
        x = strings.parse("(12)^c")
        with pytest.raises(StringError):
            strings.sym_act([1, 1], x)

    def test_block_perm_equivariance_example(self):
        f = strings.parse("(1u2|1u4u231||u2u4)^o")
        g = strings.parse("(1u3|21u3|u31)^o")
        sigma = [3, 1, 4, 2]
        tau = strings.block_perm(sigma, 2, strings.arity(g))
        lhs = strings.sym_act(tau, strings.compose(f, 2, g))
        rhs = strings.compose(strings.sym_act(sigma, f), sigma[1], g)
        assert lhs == rhs


class TestFiltration:
    def test_complexity_counts(self):
        x = strings.parse("(12|21)^c")
        # projection to (1,2) reads 1,2,2,1: two direction changes
        assert strings.c_count(x, 1, 2) == 2
        y = strings.parse("(1u2|1u2)^o")
        assert strings.c_count(y, 1, 2) == 3

    def test_membership_monotone_in_m(self):
        for text in CORPUS:
            x = strings.parse(text)
            for m in range(1, 4):
                if strings.in_filtration(x, m):
                    assert strings.in_filtration(x, m + 1)

    def test_variants_agree_without_open_letters(self):
        # the two complexity conventions differ only on pairs that involve
        # an open letter
        for text in CORPUS:
            x = strings.parse(text)
            if any(t < 0 for t in x.tokens):
                continue
            assert strings.in_filtration(x, 2, "standard") == strings.in_filtration(
                x, 2, "primed-variant"
            )


OPENNESS_PAIRS = [(False, False), (False, True), (True, True)]


class TestJoyalDuality:
    def test_maps_round_trip(self):
        cases = 0
        for n in range(5):
            for m in range(5):
                for values in combinations_with_replacement(range(m + 1), n + 1):
                    psi = MonotoneMap(n, m, values)
                    for input_open, output_open in OPENNESS_PAIRS:
                        x = strings.joyal_to_string(psi, input_open, output_open)
                        assert strings.colours(x) == (
                            (Colour(n, input_open),),
                            Colour(m, output_open),
                        )
                        assert strings.string_to_joyal(x) == psi
                        cases += 1
        assert cases == 1368

    def test_strings_round_trip(self):
        cases = 0
        for k in range(5):
            for bars in range(5):
                for input_open, output_open in OPENNESS_PAIRS:
                    for x in strings.enumerate_strings(
                        [Colour(k, input_open)], Colour(bars, output_open), 2
                    ):
                        psi = strings.string_to_joyal(x)
                        assert (psi.n, psi.m) == (k, bars)
                        back = strings.joyal_to_string(psi, input_open, output_open)
                        assert back == x
                        cases += 1
        assert cases == 1368


class TestEnumerate:
    def test_counts_frozen(self):
        # one closed letter, closed output, no bars: just (1)^c
        only = strings.enumerate_strings([Colour(0, False)], Colour(0, False), 2)
        assert [strings.text(x) for x in only] == ["(1)^c"]
        # mixed component used by the homology checks
        basis = strings.enumerate_strings(
            [Colour(1, False), Colour(1, True)], Colour(1, True), 2
        )
        assert len(basis) == 15
        assert len(set(basis)) == 15
        for x in basis:
            assert strings.in_filtration(x, 2)

    def test_enumeration_is_complete_for_a_small_component(self):
        got = [
            strings.text(x)
            for x in strings.enumerate_strings(
                [Colour(1, False), Colour(0, False)], Colour(0, False), 2
            )
        ]
        assert sorted(got) == ["(112)^c", "(121)^c", "(211)^c"]
