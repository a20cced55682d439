"""Integer-string core: parsing, composition, symmetric action, filtration."""

import pytest

from itertools import combinations, combinations_with_replacement, permutations, product

from operadix import strings, surjections
from operadix.strings import (
    BAR,
    Colour,
    ColourMismatch,
    IntegerString,
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

    def test_labels_past_nine_are_braced(self):
        x = strings.parse("(u{10}123456789u{10}|)^o")
        assert x.tokens == (-10, *range(1, 10), -10, BAR)
        assert strings.text(x) == "(u{10}123456789u{10}|)^o"
        for bad in ("({5})^c", "(1{010})^c", "(1{1x})^c", "(1{10)^c", "(1u)^c"):
            with pytest.raises(UnknownToken):
                strings.parse(bad)
        for bad in ("(10)^c", "(u0)^o"):
            with pytest.raises(UnknownToken, match="label 0 is not allowed"):
                strings.parse(bad)

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

    def test_bars_placed_by_the_rule(self):
        # the t-th bar comes after #{s : psi(s) < t} letters; a round trip
        # alone would pass an error made the same way in both directions
        cases = 0
        for n in range(6):
            for m in range(6):
                for values in combinations_with_replacement(range(m + 1), n + 1):
                    psi = MonotoneMap(n, m, values)
                    for input_open, output_open in OPENNESS_PAIRS:
                        x = strings.joyal_to_string(psi, input_open, output_open)
                        letter = -1 if input_open else 1
                        want = []
                        for t in range(1, m + 1):
                            before = sum(1 for v in values if v < t)
                            want += [letter] * (before - want.count(letter))
                            want.append(BAR)
                        want += [letter] * (n + 1 - want.count(letter))
                        assert x.tokens == tuple(want), (values, input_open)
                        assert x.output_open == output_open
                        cases += 1
        assert cases == 3 * 1709

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


VARIANTS = ("standard", "primed-variant")
STRINGS_SEEN, MEMBERS, CELLS = 92700, 165648, 2202


def brute_in_filtration(x, m, variant):
    """The filtration rule read pair by pair off the public counters."""
    mixed = strings.c_prime if variant == "standard" else strings.c_dbl_prime
    is_open = {abs(t): t < 0 for t in x.tokens if t != BAR}
    for i, j in combinations(sorted(is_open), 2):
        oi, oj = is_open[i], is_open[j]
        if oi and oj:
            inside = strings.c_count(x, i, j) <= m - 1
        elif oi != oj:
            inside = mixed(x, i, j) <= m
        else:
            inside = strings.c_count(x, i, j) <= m
        if not inside:
            return False
    return True


def signatures(max_tokens, max_labels):
    """Every colour signature with at most ``max_tokens`` letters and bars."""
    for k in range(max_labels + 1):
        for idxs in product(range(max_tokens), repeat=k):
            letters = k + sum(idxs)
            for bars in range(max_tokens - letters + 1):
                for opens in product((False, True), repeat=k):
                    for out_open in (False, True):
                        ins = [Colour(i, o) for i, o in zip(idxs, opens)]
                        yield ins, Colour(bars, out_open)


def nondegenerate_words(k, max_len):
    """Every word on 1..k of length at most max_len with no letter twice in
    a row."""
    words, frontier = [], [(a,) for a in range(1, k + 1)]
    while frontier:
        words.extend(frontier)
        frontier = [
            w + (a,)
            for w in frontier
            if len(w) < max_len
            for a in range(1, k + 1)
            if a != w[-1]
        ]
    return words


class TestWalkAgainstBruteForce:
    """The pruned filtration walk against filtering every candidate."""

    def test_enumerate_strings_and_membership(self):
        strings_seen = members = 0
        for ins, out in signatures(6, 3):
            items = [BAR] * out.index
            for label, c in enumerate(ins, start=1):
                items += [-label if c.open else label] * (c.index + 1)
            if not out.open and any(c.open for c in ins):
                candidates = []
            else:
                candidates = [IntegerString(t, out.open) for t in set(permutations(items))]
            for m in range(1, 4):
                for variant in VARIANTS:
                    verdicts = {x: brute_in_filtration(x, m, variant) for x in candidates}
                    want = sorted((x for x in candidates if verdicts[x]), key=strings.text)
                    assert strings.enumerate_strings(ins, out, m, variant) == want
                    for x in candidates:
                        assert strings.in_filtration(x, m, variant) == verdicts[x]
                    strings_seen += len(want)
                    members += len(candidates)
        assert (strings_seen, members) == (STRINGS_SEEN, MEMBERS)

    def test_enumerate_component(self):
        cells = 0
        for k in range(4):
            for opens in product((False, True), repeat=k):
                for out_open in (False, True):
                    for m in range(1, 4):
                        max_len = k + m * k * (k - 1) // 2
                        for variant in VARIANTS:
                            got = surjections.enumerate_component(
                                opens, out_open, m, variant
                            )
                            want = []
                            if k and (out_open or not any(opens)):
                                for w in nondegenerate_words(k, max_len):
                                    if len(set(w)) < k:
                                        continue
                                    tokens = tuple(-a if opens[a - 1] else a for a in w)
                                    x = IntegerString(tokens, out_open)
                                    if brute_in_filtration(x, m, variant):
                                        want.append(x)
                            want.sort(key=lambda x: (len(x.tokens), strings.text(x)))
                            assert [s.underlying for s in got] == want
                            cells += len(want)
        assert cells == CELLS

    def test_counts_frozen(self):
        c = Colour
        for ins, out, count in [
            ([c(2, False)] * 3, c(2, False), 3960),
            ([c(3, False), c(3, False), c(2, False)], c(1, False), 1320),
            ([c(2, False), c(2, True), c(1, True)], c(2, True), 900),
        ]:
            assert len(strings.enumerate_strings(ins, out, 2)) == count

    def test_enumeration_limits_are_exact(self, monkeypatch):
        # a window of exactly the limit is listed and one past it refused;
        # E_4 in arity 4, the largest component wanted, is within the limit
        ins, out = [Colour(2, False)] * 3, Colour(2, False)
        monkeypatch.setattr(strings, "MAX_STRINGS", 3960)
        assert len(strings.enumerate_strings(ins, out, 2)) == 3960
        monkeypatch.setattr(strings, "MAX_STRINGS", 3959)
        with pytest.raises(ValueError, match="more than 3959 strings at m=2"):
            strings.enumerate_strings(ins, out, 2)
        monkeypatch.setattr(surjections, "MAX_CELLS", 528)
        assert len(surjections.enumerate_component([False] * 4, False, 2)) == 528
        monkeypatch.setattr(surjections, "MAX_CELLS", 527)
        with pytest.raises(ValueError, match="4 inputs at m=2 give more than 527"):
            surjections.enumerate_component([False] * 4, False, 2)
        monkeypatch.undo()
        assert len(surjections.enumerate_component([False] * 4, False, 4)) == 202560

    @pytest.mark.parametrize("m", [0, -1])
    def test_level_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            strings.enumerate_strings([Colour(0, False)], Colour(0, False), m)
        with pytest.raises(ValueError, match="m must be >= 1"):
            surjections.enumerate_component([False], False, m)
        with pytest.raises(ValueError, match="m must be >= 1"):
            strings.in_filtration(strings.parse("(1)^c"), m)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown filtration variant"):
            strings.enumerate_strings([Colour(0, False)], Colour(0, False), 2, "primed")
        with pytest.raises(ValueError, match="unknown filtration variant"):
            surjections.enumerate_component([False], False, 2, "primed")

    def test_negative_colour_index_rejected_by_name(self):
        closed = Colour(0, False)
        with pytest.raises(ValueError, match=r"input colour 1 Colour\(index=-1"):
            strings.enumerate_strings([Colour(-1, False), closed], closed, 2)
        with pytest.raises(ValueError, match=r"output colour Colour\(index=-1"):
            strings.enumerate_strings([closed], Colour(-1, True), 2)
