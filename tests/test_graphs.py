"""Decorated complete-graph poset operad and the forgetful map q."""

import random

import pytest

from operadix import graphs, strings

from operadix.strings import by_output, small_strings


class TestEnumerate:
    def test_counts_frozen(self):
        assert len(graphs.enumerate_graphs((False, False), False, 2)) == 4
        assert len(graphs.enumerate_graphs((False, False), True, 2)) == 4
        assert len(graphs.enumerate_graphs((True, False), True, 2)) == 3
        assert len(graphs.enumerate_graphs((True, True), True, 2)) == 2

    def test_enumerated_graphs_are_valid_and_in_filtration(self):
        for alpha in graphs.enumerate_graphs((True, False), True, 2):
            assert graphs.validate(alpha)
            assert graphs.in_filtration(alpha, 2)


class TestPoset:
    def test_leq_is_a_partial_order(self):
        elems = graphs.enumerate_graphs((False, False), False, 2)
        for a in elems:
            assert graphs.leq(a, a)
            for b in elems:
                if graphs.leq(a, b) and graphs.leq(b, a):
                    assert a == b
                for c in elems:
                    if graphs.leq(a, b) and graphs.leq(b, c):
                        assert graphs.leq(a, c)

    def test_leq_needs_matching_colours(self):
        a = graphs.enumerate_graphs((False, False), False, 2)[0]
        b = graphs.enumerate_graphs((False, False), True, 2)[0]
        with pytest.raises(ValueError):
            graphs.leq(a, b)


class TestSymAct:
    def test_group_laws(self):
        elems = graphs.enumerate_graphs((False, False), False, 2)
        for a in elems:
            assert graphs.sym_act([1, 2], a) == a
            s, t = [2, 1], [2, 1]
            st = [s[t[j] - 1] for j in range(2)]
            assert graphs.sym_act(s, graphs.sym_act(t, a)) == graphs.sym_act(st, a)


class TestQ:
    def test_worked_example(self):
        alpha = graphs.q(strings.parse("(12|21)^c"))
        assert alpha.edge_dict() == {(1, 2): (2, -1)}
        assert alpha.vertex_open == (False, False)
        assert not alpha.output_open

    def test_levels_follow_pairwise_complexity(self):
        alpha = graphs.q(strings.parse("(1u2|1u4u231||u2u4)^o"))
        assert alpha.edge_dict()[(1, 2)] == (5, -1)
        assert alpha.edge_dict()[(3, 4)] == (2, 1)

    def test_q_preserves_filtration(self):
        for x in small_strings(5, 3, m=2):
            assert graphs.in_filtration(graphs.q(x), 2)

    def test_q_reflects_and_preserves_filtration(self):
        # a string and its graph lie in the same filtration levels
        mismatches = [
            (strings.text(x), m)
            for x in small_strings(6, 3, m=3)
            for alpha in [graphs.q(x)]
            for m in (1, 2, 3)
            if strings.in_filtration(x, m) != graphs.in_filtration(alpha, m)
        ]
        assert not mismatches

    def test_string_filtration_is_the_preimage_under_q(self):
        # the string verdict against the limit table read on q's edges,
        # where an edge points at the pair's first label, in both variants
        xs = small_strings(6, 3, m=4)
        verdicts = {}
        for x in xs:
            alpha = graphs.q(x)
            opens = alpha.vertex_open
            edges = [
                (mu, opens[j - 1], opens[i - 1]) if orient == 1
                else (mu, opens[i - 1], opens[j - 1])
                for (i, j), (mu, orient) in alpha.edge_dict().items()
            ]
            for m in (1, 2, 3):
                for variant in ("standard", "primed-variant"):
                    limit = strings._pair_limits(m, variant)
                    by_graph = all(
                        mu <= limit[first][second] for mu, first, second in edges
                    )
                    assert strings.in_filtration(x, m, variant) == by_graph, (
                        strings.text(x), m, variant
                    )
                    verdicts.setdefault((m, variant), set()).add(by_graph)
        assert len(xs) == 27_392
        # every level and variant sees strings on both sides
        assert all(seen == {False, True} for seen in verdicts.values())

    def test_q_is_a_lax_morphism(self):
        rng = random.Random(9)
        elems = small_strings(5, 3, m=2)
        table = by_output(elems)
        checked = 0
        while checked < 300:
            f = rng.choice(elems)
            ins, _ = strings.colours(f)
            if not ins:
                continue
            i = rng.randrange(len(ins)) + 1
            gs = table.get(ins[i - 1], [])
            if not gs:
                continue
            g = rng.choice(gs)
            fg = strings.compose(f, i, g)
            if not (strings.arity(fg) and strings.arity(f) and strings.arity(g)):
                continue
            composed = graphs.compose_at(graphs.q(f), i, graphs.q(g))
            assert graphs.leq(graphs.q(fg), composed)
            checked += 1


class TestCompose:
    def test_identity_blocks_are_neutral(self):
        for alpha in graphs.enumerate_graphs((True, False), True, 2):
            betas = [
                graphs.GraphElement((oo,), {}, oo) for oo in alpha.vertex_open
            ]
            assert graphs.compose(alpha, betas) == alpha
