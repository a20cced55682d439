"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion-NN ...: PASS`` line (visible with
``pytest -v`` through the test outcome as well) and enforces its runtime
budget.  Every numeric target is frozen from an in-repo oracle computation.
"""

import json
import random
import time
from itertools import permutations, product as iproduct

from operadix import (
    cli,
    cobar,
    geometry,
    graphs,
    loops,
    strings,
    surjections,
    trees,
)
from operadix.chains import LinComb
from operadix.loops import FiniteMonoid, TotComplex

from corpus import CORPUS
from test_cobar import diagonal_dg_comodule, random_instance
from test_loops import pbasis

_CACHE = {}


def window_elements():
    """All filtration-2 strings with <= 6 tokens and <= 3 labels, with a
    lookup table of fillers by (output colour, token count)."""
    if "elems" not in _CACHE:
        elems = strings.small_strings(6, 3, m=2)
        buckets = {}
        for g in elems:
            _, out = strings.colours(g)
            buckets.setdefault((out, len(g.tokens)), []).append(g)
        _CACHE["elems"] = elems
        _CACHE["buckets"] = buckets
    return _CACHE["elems"], _CACHE["buckets"]


_FILLERS = {}


def fillers(buckets, col, maxlen):
    key = (col, maxlen)
    if key not in _FILLERS:
        out = []
        for lg in range(1, maxlen + 1):
            out.extend(buckets.get((col, lg), []))
        _FILLERS[key] = out
    return _FILLERS[key]


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"{self.name}: PASS in {elapsed:.2f}s")
        return False


def test_criterion_01_worked_example_fidelity():
    with Budget("criterion-01 worked-example-fidelity", 1.0):
        f = strings.parse("(1u2|1u4u231||u2u4)^o")
        g = strings.parse("(1u3|21u3|u31)^o")
        assert (
            strings.text(strings.compose(f, 2, g))
            == "(12u4|1u632u451||u42u6)^o"
        )
        x = strings.parse("(1u2|3u211||u21)^o")
        assert strings.text(strings.sym_act([2, 3, 1], x)) == "(2u3|1u322||u32)^o"
        fs = surjections.Surjection(strings.parse("(1u21)^o"))
        gs = surjections.Surjection(strings.parse("(12)^c"))
        got = {
            strings.text(b.underlying): c
            for b, c in surjections.rs_compose(fs, 1, gs)
        }
        assert got == {"(1u312)^o": 1, "(12u32)^o": 1}
        # tree/string correspondence round-trips on every corpus string that
        # admits a tree view (filtration 2)
        seen = 0
        for text in CORPUS:
            y = strings.parse(text)
            if strings.arity(y) >= 2 and not strings.in_filtration(y, 2):
                continue
            assert trees.tree_to_string(trees.tree_view(y)) == y
            seen += 1
        assert seen >= 20


def test_criterion_02_operad_laws_exhaustive():
    with Budget("criterion-02 operad-laws-exhaustive", 60.0):
        elems, buckets = window_elements()
        assert len(elems) > 10_000
        units = 0
        for x in elems:
            ins, out = strings.colours(x)
            for i, col in enumerate(ins, start=1):
                assert strings.compose(x, i, strings.identity_string(col)) == x
                units += 1
            assert strings.compose(strings.identity_string(out), 1, x) == x
            units += 1
        compose = strings.compose
        colours = strings.colours
        # the right factor compose(g, j, h) recurs across every f; memoize it
        gh_memo = {}
        triples = 0
        for f in elems:
            lf = len(f.tokens)
            ins, _ = colours(f)
            for i, col in enumerate(ins, start=1):
                for g in fillers(buckets, col, 7 - lf):
                    lg = len(g.tokens)
                    gi, _ = colours(g)
                    fg = compose(f, i, g)
                    for j, col2 in enumerate(gi, start=1):
                        for h in fillers(buckets, col2, 8 - lf - lg):
                            key = (g, j, h)
                            gh = gh_memo.get(key)
                            if gh is None:
                                gh = compose(g, j, h)
                                gh_memo[key] = gh
                            assert compose(fg, i + j - 1, h) == compose(f, i, gh)
                            triples += 1
        assert triples > 1000
        # equivariance: transpositions generate, and the group law of the
        # action is checked separately below
        sym_act = strings.sym_act
        block_perm = strings.block_perm
        arity = strings.arity
        equi = 0
        for f in elems:
            lf = len(f.tokens)
            ins, _ = colours(f)
            k = len(ins)
            transpositions = [
                list(range(1, s)) + [s + 1, s] + list(range(s + 2, k + 1))
                for s in range(1, k)
            ]
            for i, col in enumerate(ins, start=1):
                for g in fillers(buckets, col, 7 - lf):
                    fg = compose(f, i, g)
                    la = arity(g)
                    for sigma in transpositions:
                        tau = block_perm(sigma, i, la)
                        assert sym_act(tau, fg) == compose(
                            sym_act(sigma, f), sigma[i - 1], g
                        )
                        equi += 1
        assert equi > 1000
        rng = random.Random(0)
        for x in elems[::37]:
            k = strings.arity(x)
            s = list(range(1, k + 1))
            rng.shuffle(s)
            t = list(range(1, k + 1))
            rng.shuffle(t)
            st = [s[t[j] - 1] for j in range(k)]
            assert strings.sym_act(s, strings.sym_act(t, x)) == strings.sym_act(
                st, x
            )


def test_criterion_03_filtration_functoriality():
    with Budget("criterion-03 filtration-functoriality", 120.0):
        elems, buckets = window_elements()
        for x in elems:
            assert graphs.in_filtration(graphs.q(x), 2)
        pairs = 0
        for f in elems:
            lf = len(f.tokens)
            ins, _ = strings.colours(f)
            qf = graphs.q(f)
            for i, col in enumerate(ins, start=1):
                for g in fillers(buckets, col, 6 - lf + 1):
                    fg = strings.compose(f, i, g)
                    assert strings.in_filtration(fg, 2)
                    pairs += 1
                    if strings.arity(fg) and strings.arity(f) and strings.arity(g):
                        composed = graphs.compose_at(qf, i, graphs.q(g))
                        assert graphs.leq(graphs.q(fg), composed)
        assert pairs > 100_000


def test_criterion_04_surjection_dg_operad():
    with Budget("criterion-04 surjection-dg-operad", 120.0):
        basis = []
        for k in (1, 2, 3):
            for opens in iproduct((False, True), repeat=k):
                for oo in {True} if any(opens) else (False, True):
                    for s in surjections.enumerate_component(list(opens), oo, 2):
                        basis.append(s)
                        ds = surjections.differential(s)
                        assert not surjections.linear_differential(ds)
        # g is picked by openness, so slots whose letter repeats are filled
        table = {}
        for g in basis:
            table.setdefault(g.underlying.output_open, []).append(g)
        rng = random.Random(0)
        sampled = 0
        while sampled < 1000:
            f = rng.choice(basis)
            ins, _ = strings.colours(f.underlying)
            i = rng.randrange(len(ins)) + 1
            g = rng.choice(table[ins[i - 1].open])
            lhs = surjections.linear_differential(surjections.rs_compose(f, i, g))
            rhs = surjections._compose_linear(
                surjections.differential(f), i, LinComb.unit(g)
            ) + ((-1) ** (f.degree % 2)) * surjections._compose_linear(
                LinComb.unit(f), i, surjections.differential(g)
            )
            assert lhs == rhs
            sampled += 1


def test_criterion_05_component_homology():
    targets = [
        (([False, False], False), {0: (1, []), 1: (1, [])}),
        (([True, True], True), {0: (2, [])}),
        (([False], True), {0: (1, [])}),
        (([False, True], True), {0: (1, [])}),
    ]
    for (ins, out), expected in targets:
        with Budget(
            f"criterion-05 homology-{'' .join('o' if v else 'c' for v in ins)}"
            f"-{'o' if out else 'c'}",
            10.0,
        ):
            hom = surjections.component_homology(ins, out, 2)
            nonzero = {d: v for d, v in hom.items() if v != (0, [])}
            assert nonzero == expected


def test_criterion_06_generators_closure():
    with Budget("criterion-06 generators-closure", 300.0):
        report = surjections.is_generated_up_to(max_labels=3, max_length=6)
        assert report["all_spanned"]


def test_criterion_07_cellulation():
    with Budget("criterion-07 cellulation", 120.0):
        rng = random.Random(12345)
        for _ in range(10_000):
            n_open = rng.randint(0, 2)
            n_closed = rng.randint(1 if not n_open else 0, 2)
            cfg = geometry.random_config(2, n_closed, n_open, seed=rng)
            alpha = geometry.cell_index(cfg)
            assert geometry.cell_contains(alpha, cfg)
            for (i, j), (mu, orient) in alpha.edge_dict().items():
                if mu > 1:
                    weaker = dict(alpha.edge_dict())
                    weaker[(i, j)] = (mu - 1, orient)
                    smaller = graphs.GraphElement(
                        alpha.vertex_open, weaker, alpha.output_open
                    )
                    if graphs.validate(smaller):
                        assert not geometry.cell_contains(smaller, cfg)
                if mu < cfg.m:
                    bigger = dict(alpha.edge_dict())
                    bigger[(i, j)] = (mu + 1, orient)
                    larger = graphs.GraphElement(
                        alpha.vertex_open, bigger, alpha.output_open
                    )
                    if graphs.validate(larger) and graphs.leq(alpha, larger):
                        assert geometry.cell_contains(larger, cfg)
        checked = 0
        while checked < 1000:
            n_open = rng.randint(0, 1)
            n_closed = rng.randint(1 if not n_open else 0, 2)
            x = geometry.random_config(2, n_closed, n_open, seed=rng)
            i = rng.randint(1, n_closed + n_open)
            if i > n_closed:
                m_open, m_closed = rng.randint(1, 2), rng.randint(0, 1)
            else:
                m_open, m_closed = 0, rng.randint(1, 2)
            try:
                y = geometry.random_config(2, m_closed, m_open, seed=rng)
                z = geometry.sc_compose(x, i, y)
            except (ValueError, RuntimeError):
                continue
            ax, ay, az = (
                geometry.cell_index(x),
                geometry.cell_index(y),
                geometry.cell_index(z),
            )
            assert graphs.leq(az, graphs.compose_at(ax, i, ay))
            checked += 1


def test_criterion_08_loop_model_identities():
    with Budget("criterion-08 loop-model-identities", 300.0):
        setups = [
            (FiniteMonoid.cyclic(2), (0, 1)),
            (FiniteMonoid.cyclic(3), (0,)),
        ]
        for M, sub in setups:
            loops.omega(M, sub).check_identities(3)
            totc = TotComplex(M, (0,), truncation=5, kind="closed")
            toto = TotComplex(M, sub, truncation=5, kind="open")
            closed = [p for d in range(3) for p in pbasis(totc, d)]
            opens = [p for d in range(3) for p in pbasis(toto, d)]

            def deg_of(tot, p):
                (deg,) = {len(tot._split(b)[0]) for b, _ in p}
                return deg

            # concatenation associativity
            for u in opens[:40]:
                for v in opens[:40]:
                    for w in opens[:20]:
                        assert loops.sqcup(
                            toto, loops.sqcup(toto, u, v), w
                        ) == loops.sqcup(toto, u, loops.sqcup(toto, v, w))
            # Leibniz
            for f in closed:
                df = deg_of(totc, f)
                for g in closed:
                    lhs = totc.differential(loops.cup(totc, f, g))
                    rhs = loops.cup(totc, totc.differential(f), g) + (
                        (-1) ** (df % 2)
                    ) * loops.cup(totc, f, totc.differential(g))
                    assert lhs == rhs
            # commutator homotopy and its closed-part analogue
            for f in [p for d in (1, 2) for p in pbasis(totc, d)]:
                df = deg_of(totc, f)
                for u in [p for d in (0, 1) for p in pbasis(toto, d)]:
                    du = deg_of(toto, u)
                    lhs = (
                        toto.differential(loops.homotopy_H(toto, f, u))
                        + loops.homotopy_H(toto, totc.differential(f), u)
                        + ((-1) ** (df % 2))
                        * loops.homotopy_H(toto, f, toto.differential(u))
                    )
                    rhs = loops.sqcup(toto, loops.inc_tot(toto, f), u) - (
                        (-1) ** ((df * du) % 2)
                    ) * loops.sqcup(toto, u, loops.inc_tot(toto, f))
                    assert lhs == rhs
                for g in [p for d in (1, 2) for p in pbasis(totc, d)]:
                    dg = deg_of(totc, g)
                    lhs = (
                        totc.differential(loops.act_Tk(totc, f, [g]))
                        + loops.act_Tk(totc, totc.differential(f), [g])
                        + ((-1) ** (df % 2))
                        * loops.act_Tk(totc, f, [totc.differential(g)])
                    )
                    rhs = loops.cup(totc, f, g) - (
                        (-1) ** ((df * dg) % 2)
                    ) * loops.cup(totc, g, f)
                    assert lhs == rhs
            # wide coherence
            pool = [
                tuple(t) for l in range(2) for t in iproduct(M.elements, repeat=l)
            ]
            for f in [t for l in (1, 2) for t in iproduct(M.elements, repeat=l)]:
                for gs in iproduct(pool, repeat=len(f)):
                    assert loops.rho(M, loops.iota(M, f), list(gs)) == loops.iota(
                        M, loops.gamma(M, f, gs)
                    )
                    args = [(g, M.unit) for g in gs]
                    assert loops.varsigma(M, f, args) == loops.iota(
                        M, loops.gamma(M, f, gs)
                    )


def test_criterion_09_cobar():
    with Budget("criterion-09 cobar", 300.0):
        rng = random.Random(99)
        for trial in range(100):
            C = random_instance(rng)
            C.validate()
            N = diagonal_dg_comodule(C)
            window = max(C.degrees.values()) + 2
            cob = cobar.cobar(C, truncation=window)
            rel = cobar.relative_cobar(C, N, truncation=window)
            cob.chain_complex().validate()
            rel.chain_complex().validate()
            # module Leibniz on a sample inside the window
            words_a = [w for d in range(2) for w in cob.words(d)][:6]
            words_u = [w for d in range(2) for w in rel.words(d)][:6]
            for wa in words_a:
                for wu in words_u:
                    a, u = LinComb.unit(wa), LinComb.unit(wu)
                    da = sum(cob.letter_degree(x) for x in wa)
                    lhs = rel.action(cob.differential(a), u) + (
                        (-1) ** (da % 2)
                    ) * rel.action(a, rel.differential(u))
                    assert lhs == rel.differential(rel.action(a, u))
            # twisting equivalence, both directions
            A = cobar.cobar_algebra(cob)
            M = cobar.relative_cobar_module(rel, A)
            f = cobar.universal_twisting(cob)
            g = {n: LinComb.unit(((), n)) for n in N.degrees}
            name = rng.choice([n for n in C.degrees if n != C.unit])
            f_bad = dict(f)
            f_bad[name] = -f[name]
            g_bad = dict(g)
            g_bad[name] = LinComb()
            for fc, gc in ((f, g), (f_bad, g), (f, g_bad)):
                twist = cobar.twisting_check(
                    C, A, fc
                ) and cobar.relative_twisting_check(C, A, N, M, fc, gc)
                phi = cobar.overline_fg(rel, A, M, fc, gc)
                assert twist == cobar.dg_map_check(rel, M, phi)
            assert cobar.twisting_check(C, A, f)
        # wide-bimodule operad axioms, exhaustive for the order-2 group algebra
        B = cobar.group_bialgebra(FiniteMonoid.cyclic(2))
        CB = cobar.diagonal_comodule(B)
        tuples = [t for l in range(1, 3) for t in iproduct(B.basis, repeat=l)]
        unit = LinComb.unit((B.unit,))
        for a in tuples:
            for i in range(1, len(a) + 1):
                assert cobar.mb_compose(B, LinComb.unit(a), i, unit) == \
                    LinComb.unit(a)
                for b in tuples:
                    for j in range(1, len(b) + 1):
                        for c in tuples:
                            lhs = cobar.mb_compose(
                                B,
                                cobar.mb_compose(
                                    B, LinComb.unit(a), i, LinComb.unit(b)
                                ),
                                i + j - 1,
                                LinComb.unit(c),
                            )
                            rhs = cobar.mb_compose(
                                B,
                                LinComb.unit(a),
                                i,
                                cobar.mb_compose(
                                    B, LinComb.unit(b), j, LinComb.unit(c)
                                ),
                            )
                            assert lhs == rhs
        for l in range(3):
            for t in iproduct(B.basis, repeat=l):
                for cname in CB.basis:
                    u = LinComb.unit((t, cname))
                    for j in range(l + 2):
                        for i in range(j + 1):
                            assert cobar.z_coface(
                                B, CB, j + 1, cobar.z_coface(B, CB, i, u)
                            ) == cobar.z_coface(B, CB, i, cobar.z_coface(B, CB, j, u))


def test_criterion_10_cli_golden(capsys):
    with Budget("criterion-10 cli-golden", 120.0):
        for text in CORPUS:
            assert cli.main(["parse", text, "--json"]) == 0
            out = capsys.readouterr().out
            assert json.loads(out)["text"] == text
        assert (
            cli.main(
                [
                    "compose",
                    "(1u2|1u4u231||u2u4)^o",
                    "(1u3|21u3|u31)^o",
                    "--at",
                    "u2",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "(12u4|1u632u451||u42u6)^o"
        reports = []
        for _ in range(2):
            assert (
                cli.main(
                    ["cells", "--closed", "2", "--open", "1", "--seed", "7",
                     "--json"]
                )
                == 0
            )
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        for _ in range(2):
            assert (
                cli.main(
                    ["verify", "--suite", "sc-geometry", "--samples", "50",
                     "--seed", "11", "--json"]
                )
                == 0
            )
            reports.append(capsys.readouterr().out)
        assert reports[2] == reports[3]
