"""The one-pass string, graph and surjection kernels against the code they
replace.

``reference_compose``, ``reference_sym_act`` and ``reference_q`` are the
earlier bodies of ``strings.compose``, ``strings.sym_act`` and ``graphs.q``:
they read arities and colours through the cached ``strings.arity`` and
``strings.colours``, count each pair with ``strings.c_count`` and build
graphs through the validating ``GraphElement`` constructor.
``reference_differential``, ``reference_rs_compose`` and
``reference_enumerate_component`` are the earlier bodies of the
``surjections`` kernels: they count occurrences label by label, rescan each
deletion for degeneracy and build every string and surjection through the
validating constructors; ``reference_rs_compose`` signs each cut pattern
by ``reference_cut_sign``, which reads the sign off the cut string itself.
``reference_compositions`` is the earlier, recursive body of the
bar-insertion patterns ``surjections._compositions``.
``reference_q_walk``, ``reference_graph_compose``,
``reference_leq``, ``reference_graph_in_filtration``,
``reference_validate``, ``reference_graph_sym_act`` and
``reference_enumerate_graphs`` are the earlier bodies of the ``graphs``
kernels, which read and wrote the decorations as a frozenset of
``((i, j), (mu, orient))`` items (here through ``GraphElement.edges`` and the
validating constructor).  All are kept here only as oracles for the fast
paths.
"""

import copy
import pickle
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from operadix import graphs, strings, surjections
from operadix.chains import LinComb
from operadix.graphs import GraphElement
from operadix.strings import (
    BAR,
    Colour,
    ColourMismatch,
    IntegerString,
    LabelOutOfRange,
    StringError,
)
from operadix.surjections import BarredClass, Surjection


def reference_compose(f, i, g):
    k = strings.arity(f)
    if not 1 <= i <= k:
        raise LabelOutOfRange(f"slot {i} not in 1..{k}")
    slot_occ = 0
    slot_open = False
    for t in f.tokens:
        if t != BAR and (t == i or t == -i):
            slot_occ += 1
            slot_open = t < 0
    _, g_out = strings.colours(g)
    if g_out.index != slot_occ - 1 or g_out.open != slot_open:
        raise ColourMismatch(
            f"slot {i} has colour {Colour(slot_occ - 1, slot_open)}, "
            f"got output colour {g_out}"
        )
    lg = strings.arity(g)
    up = i - 1
    segs = [[]]
    for t in g.tokens:
        if t == BAR:
            segs.append([])
        else:
            segs[-1].append(t + up if t > 0 else t - up)
    down = lg - 1
    result = []
    r = 0
    for t in f.tokens:
        if -i <= t <= i:
            if t == i or t == -i:
                result.extend(segs[r])
                r += 1
            else:
                result.append(t)
        else:
            result.append(t + down if t > 0 else t - down)
    return IntegerString(tuple(result), f.output_open)


def reference_sym_act(sigma, x):
    k = strings.arity(x)
    if len(sigma) != k or sorted(sigma) != list(range(1, k + 1)):
        raise StringError(f"{sigma!r} is not a permutation of 1..{k}")
    relabel = {i + 1: s for i, s in enumerate(sigma)}
    tokens = tuple(
        t if t == BAR else (relabel[t] if t > 0 else -relabel[-t])
        for t in x.tokens
    )
    return IntegerString(tokens, x.output_open)


def reference_q(x):
    k = strings.arity(x)
    vertex_open = tuple(strings._is_open(x, i) for i in range(1, k + 1))
    edges = {}
    first = strings._first_occurrence
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            mu = strings.c_count(x, i, j)
            orient = 1 if first(x, i) > first(x, j) else -1
            edges[(i, j)] = (mu, orient)
    return GraphElement(vertex_open, edges, x.output_open)


def reference_q_walk(x):
    k = strings._top_label(x.tokens)
    last = [-1] * (k + 1)
    first = [0] * (k + 1)
    opens = [False] * (k + 1)
    mu = {}
    prev = BAR
    for pos, t in enumerate(x.tokens):
        if t == BAR or t == prev:
            continue
        prev = t
        a = t if t > 0 else -t
        old = last[a]
        if old < 0:
            first[a] = pos
            opens[a] = t < 0
        # the pair rule: {a, b} moves for each b seen since a last occurred
        for b in (b for b, p in enumerate(last) if p > old):
            pair = (a, b) if a < b else (b, a)
            mu[pair] = mu.get(pair, 0) + 1
        last[a] = pos
    edges = frozenset(
        ((i, j), (c, 1 if first[i] > first[j] else -1))
        for (i, j), c in mu.items()
    )
    return GraphElement(tuple(opens[1:]), edges, x.output_open)


def reference_graph_compose(alpha, betas):
    if len(betas) != alpha.n:
        raise ValueError("need one argument per vertex")
    for v, beta in enumerate(betas, start=1):
        if beta.output_open != alpha.vertex_open[v - 1]:
            raise ValueError(f"slot {v} openness does not match argument {v}")
    offsets = [0]
    for beta in betas:
        offsets.append(offsets[-1] + beta.n)
    vertex_open = tuple(o for beta in betas for o in beta.vertex_open)
    edges = [
        ((i + off, j + off), dec)
        for beta, off in zip(betas, offsets)
        for (i, j), dec in beta.edges
    ]
    for (v, w), dec in alpha.edges:
        edges.extend(
            ((a, b), dec)
            for a in range(offsets[v - 1] + 1, offsets[v] + 1)
            for b in range(offsets[w - 1] + 1, offsets[w] + 1)
        )
    return GraphElement(vertex_open, edges, alpha.output_open)


def reference_leq(alpha, beta):
    if alpha.vertex_open != beta.vertex_open or alpha.output_open != beta.output_open:
        raise ValueError("poset order needs identical colours")
    eb = beta.edge_dict()
    for pair, (mu, orient) in alpha.edge_dict().items():
        mu2, orient2 = eb[pair]
        if (mu, orient) != (mu2, orient2) and not mu < mu2:
            return False
    return True


def reference_graph_in_filtration(alpha, m):
    limit = strings._pair_limits(m, "standard")
    vertex_open = alpha.vertex_open
    for (i, j), (mu, orient) in alpha.edges:
        source, target = (i, j) if orient == 1 else (j, i)
        if mu > limit[vertex_open[target - 1]][vertex_open[source - 1]]:
            return False
    return True


def reference_acyclic(arcs, n):
    succ = {v: [] for v in range(1, n + 1)}
    for a, b in arcs:
        succ[a].append(b)
    state = {v: 0 for v in succ}

    def dfs(v):
        state[v] = 1
        for w in succ[v]:
            if state[w] == 1 or (state[w] == 0 and not dfs(w)):
                return False
        state[v] = 2
        return True

    return all(state[v] != 0 or dfs(v) for v in succ)


def reference_validate(alpha):
    if not alpha.output_open and any(alpha.vertex_open):
        return False
    by_level = {}
    for (i, j), (mu, orient) in alpha.edges:
        arc = (i, j) if orient == 1 else (j, i)
        by_level.setdefault(mu, []).append(arc)
    return all(reference_acyclic(arcs, alpha.n) for arcs in by_level.values())


def reference_graph_sym_act(sigma, alpha):
    n = alpha.n
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{n}")
    vertex_open = [False] * n
    for i in range(1, n + 1):
        vertex_open[sigma[i - 1] - 1] = alpha.vertex_open[i - 1]
    edges = {}
    for (i, j), (mu, orient) in alpha.edges:
        a, b = sigma[i - 1], sigma[j - 1]
        if a < b:
            edges[(a, b)] = (mu, orient)
        else:
            edges[(b, a)] = (mu, -orient)
    return GraphElement(tuple(vertex_open), edges, alpha.output_open)


def reference_enumerate_graphs(vertex_open, output_open, m):
    if m < 1:
        raise ValueError("filtration level m must be >= 1")
    vertex_open = tuple(bool(v) for v in vertex_open)
    if not output_open and any(vertex_open):
        return []
    pairs = list(combinations(range(1, len(vertex_open) + 1), 2))
    out = []
    for decs in product(product(range(1, m + 1), (1, -1)), repeat=len(pairs)):
        alpha = GraphElement(vertex_open, dict(zip(pairs, decs)), output_open)
        if reference_validate(alpha) and reference_graph_in_filtration(alpha, m):
            out.append(alpha)
    return out


def reference_differential(u):
    x = surjections._unwrap(u)
    k = strings.arity(x)
    occs = [strings.occurrences(x, i) for i in range(1, k + 1)]

    def wrap_like(y):
        if isinstance(u, Surjection):
            return Surjection(y)
        if isinstance(u, BarredClass):
            return BarredClass(y)
        return y

    def terms():
        for i in range(1, k + 1):
            if occs[i - 1] < 2:
                continue
            prefix = sum(o - 1 for o in occs[: i - 1])
            j = -1
            for pos, t in enumerate(x.tokens):
                if t != BAR and abs(t) == i:
                    j += 1
                    tokens = x.tokens[:pos] + x.tokens[pos + 1 :]
                    if surjections._nondegenerate(tokens):
                        y = IntegerString(tokens, x.output_open)
                        yield wrap_like(y), (-1) ** ((prefix + j) % 2)

    return LinComb(terms())


def reference_vartheta_terms(x, n):
    word = x.tokens
    if not word:
        if n == 0:
            yield (), x
        return
    for cuts in surjections._compositions(n, len(word)):
        tokens = []
        for p, t in enumerate(word):
            tokens.append(t)
            for _ in range(cuts[p]):
                tokens.append(BAR)
                tokens.append(t)
        yield cuts, IntegerString(tuple(tokens), x.output_open)


def reference_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in reference_compositions(n - first, parts - 1):
            yield (first,) + rest


def reference_cut_sign(gx, barred):
    """The sign of one cut pattern, read off the cut string: a copy is
    tagged (0, c) when the c-th bar follows it, or (1, rank) when it is the
    last copy of a caesura of ``gx``; the tags, read by (label, position),
    are sorted into cuts, then caesuras, by swaps."""
    word = gx.tokens
    caesuras = sorted(
        (abs(t), p) for p, t in enumerate(word) if abs(t) in map(abs, word[p + 1 :])
    )
    tagged = []
    p = bars = 0  # the occurrence of gx being copied, the bars passed
    tokens = barred.tokens
    for pos, t in enumerate(tokens):
        if t == BAR:
            bars += 1
        elif pos + 1 < len(tokens) and tokens[pos + 1] == BAR:
            tagged.append((abs(t), pos, (0, bars + 1)))
        else:
            if (abs(t), p) in caesuras:
                rank = caesuras.index((abs(t), p))
                tagged.append((abs(t), pos, (1, rank)))
            p += 1
    tags = [tag for _, _, tag in sorted(tagged)]
    sign = 1
    for a in range(len(tags)):
        b = tags.index(min(tags[a:]), a)
        if b != a:
            tags[a], tags[b] = tags[b], tags[a]
            sign = -sign
    return sign


def reference_rs_compose(f, i, g):
    fx, gx = surjections._unwrap(f), surjections._unwrap(g)
    k = strings.arity(fx)
    if not 1 <= i <= k:
        raise ValueError(f"slot {i} out of range for arity {k}")
    slot_open = any(t < 0 and abs(t) == i for t in fx.tokens)
    _, g_out = strings.colours(gx)
    if g_out.open != slot_open:
        raise ColourMismatch(
            f"slot {i} is {'open' if slot_open else 'closed'}, argument is not"
        )
    n = strings.occurrences(fx, i) - 1
    suffix = sum(strings.occurrences(fx, t) - 1 for t in range(i + 1, k + 1))
    r = len(gx.tokens) - strings.arity(gx)
    prefactor = (-1) ** ((r * suffix) % 2)
    composites = (
        (strings.compose(fx, i, barred), barred)
        for _, barred in reference_vartheta_terms(gx, n)
    )
    return LinComb(
        (Surjection(h), prefactor * reference_cut_sign(gx, barred))
        for h, barred in composites
        if surjections._nondegenerate(h.tokens)
    )


def reference_enumerate_component(input_open, output_open, m, variant="standard"):
    letters = [-a if o else a for a, o in enumerate(input_open, start=1)]
    walk = strings._PairWalk(len(letters), m, variant)
    if not letters or (not output_open and any(t < 0 for t in letters)):
        return []
    found = [Surjection(IntegerString(w, output_open)) for w in walk.words(letters)]
    found.sort(key=lambda s: (s.degree, strings.text(s.underlying)))
    return found


def reference_in_filtration(x, m, variant="standard"):
    walk = strings._PairWalk(strings._top_label(x.tokens), m, variant)
    prev = BAR
    for t in x.tokens:
        if t != BAR and t != prev:
            if not walk.push(t):
                return False
            prev = t
    return True


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def same_graph(a, b):
    """Equal fields, equal hashes, and the field types the constructor
    gives."""
    return (
        a == b
        and hash(a) == hash(b)
        and all(type(v) is bool for v in a.vertex_open)
        and type(a.output_open) is bool
    )


def adjacent_transpositions(k):
    return [
        list(range(1, s)) + [s + 1, s] + list(range(s + 2, k + 1))
        for s in range(1, k)
    ]


_WINDOW = {}


def window():
    """The filtration-2 strings with at most 5 tokens and 3 labels, every
    composable pair ``(f, i, g)`` whose composite has at most 6 tokens (the
    window of the benchmark's operad-window workload), and the composites."""
    if not _WINDOW:
        elems = strings.small_strings(5, 3, m=2)
        table = strings.by_output(elems)
        pairs = [
            (f, i, g)
            for f in elems
            for i, col in enumerate(strings.colours(f)[0], start=1)
            for g in table.get(col, [])
            if len(f.tokens) + len(g.tokens) <= 6
        ]
        composites = [strings.compose(f, i, g) for f, i, g in pairs]
        _WINDOW.update(elems=elems, pairs=pairs, composites=composites)
    return _WINDOW["elems"], _WINDOW["pairs"], _WINDOW["composites"]


class TestAgainstReference:
    def test_window_sizes(self):
        elems, pairs, _ = window()
        assert (len(elems), len(pairs)) == (4179, 38414)

    def test_compose_on_every_composable_pair(self):
        _, pairs, composites = window()
        for (f, i, g), fg in zip(pairs, composites):
            assert fg == reference_compose(f, i, g)
            assert type(fg.output_open) is bool

    def test_sym_act_on_every_adjacent_transposition(self):
        elems, _, composites = window()
        cases = 0
        for x in elems + composites:
            for sigma in adjacent_transpositions(strings.arity(x)):
                assert strings.sym_act(sigma, x) == reference_sym_act(sigma, x)
                cases += 1
        assert cases == 100_432

    def test_q_on_every_element_and_composite(self):
        elems, _, composites = window()
        for x in elems + composites:
            assert same_graph(graphs.q(x), reference_q(x))

    def test_errors_match(self):
        f = strings.parse("(1u2|1u4u231||u2u4)^o")
        g = strings.parse("(1u3|21u3|u31)^o")
        empty = strings.parse("(||)^c")
        cases = [
            (f, 1, g),  # slot 1 has colour 2, g has output colour u2
            (f, 3, g),  # slot 3 has colour 0
            (g, 2, strings.parse("(1|1)^c")),  # open slot, closed output
            (f, 0, g),
            (f, -2, g),
            (f, 5, g),
            (empty, 1, g),
        ]
        for args in cases:
            got, want = outcome(strings.compose, *args), outcome(reference_compose, *args)
            assert isinstance(got, tuple) and got == want
        assert outcome(strings.compose, f, 1, g) == (
            ColourMismatch, "slot 1 has colour 2, got output colour u2"
        )
        assert outcome(strings.compose, f, 5, g) == (
            LabelOutOfRange, "slot 5 not in 1..4"
        )
        for sigma in ([1, 2, 3], [1, 1, 2, 3], [2, 3, 4, 5], [], [4, 3, 2]):
            got = outcome(strings.sym_act, sigma, f)
            assert isinstance(got, tuple) and got == outcome(reference_sym_act, sigma, f)
        assert strings.sym_act([], empty) == reference_sym_act([], empty) == empty


@st.composite
def integer_strings(draw, bars=None, output_open=None, max_labels=9, max_tokens=12):
    """A valid string with at most ``max_labels`` labels and ``max_tokens``
    tokens; ``bars`` and ``output_open`` fix its output colour."""
    room = max_tokens - (bars or 0)
    k = draw(st.integers(1, min(max_labels, room)))
    letters = list(range(1, k + 1)) + draw(
        st.lists(st.integers(1, k), max_size=room - k)
    )
    opens = [False] * k if output_open is False else draw(
        st.lists(st.booleans(), min_size=k, max_size=k)
    )
    if output_open is None:
        output_open = any(opens) or draw(st.booleans())
    if bars is None:
        bars = draw(st.integers(0, max_tokens - len(letters)))
    order = draw(st.permutations(letters + [BAR] * bars))
    tokens = tuple(-t if t and opens[t - 1] else t for t in order)
    return IntegerString(tokens, output_open)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), f=integer_strings())
def test_kernels_match_reference_beyond_the_window(data, f):
    k = strings.arity(f)
    i = data.draw(st.integers(1, k))
    ins, _ = strings.colours(f)
    g = data.draw(integer_strings(bars=ins[i - 1].index, output_open=ins[i - 1].open))
    fg = strings.compose(f, i, g)
    assert fg == reference_compose(f, i, g)
    assert same_graph(graphs.q(fg), reference_q(fg))
    assert same_graph(graphs.q(f), reference_q(f))
    sigma = data.draw(st.permutations(range(1, strings.arity(fg) + 1)))
    assert strings.sym_act(sigma, fg) == reference_sym_act(sigma, fg)
    # any slot and any right factor: equal results or equal errors
    j = data.draw(st.integers(-1, k + 1))
    h = data.draw(integer_strings())
    assert outcome(strings.compose, f, j, h) == outcome(reference_compose, f, j, h)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=integer_strings())
def test_parse_text_round_trip(x):
    assert strings.parse(strings.text(x)) == x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=integer_strings(max_labels=12, max_tokens=16))
def test_parse_text_round_trip_braced_labels(x):
    # labels from 10 on are braced; a text with labels 1..9 has no brace
    t = strings.text(x)
    assert strings.parse(t) == x
    assert ("{" in t) == (strings.arity(x) > 9)


class TestNoCacheLookups:
    def test_kernels_leave_the_caches_alone(self):
        # fresh strings, equal to none built before
        f = IntegerString((1, -2, BAR, 1, -4, -2, 3, 1, BAR, BAR, -2, -4), True)
        g = IntegerString((1, -3, BAR, 2, 1, -3, BAR, -3, 1), True)
        before = strings.arity.cache_info(), strings.colours.cache_info()
        fg = strings.compose(f, 2, g)
        strings.sym_act([6, 5, 4, 3, 2, 1], fg)
        qf, qg = graphs.q(f), graphs.q(g)
        graphs.compose_at(qf, 2, qg)
        graphs.compose(qf, [
            qg if v == 2 else GraphElement((o,), {}, o)
            for v, o in enumerate(qf.vertex_open, start=1)
        ])
        graphs.q(fg)
        assert (strings.arity.cache_info(), strings.colours.cache_info()) == before

    def test_surjection_kernels_leave_the_caches_alone(self):
        f = Surjection(IntegerString((1, -2, 1, -4, -2, 3, 1, -2, -4, 5), True))
        g = Surjection(IntegerString((-1, 2, -1, -3, 2, -1), True))
        before = strings.arity.cache_info(), strings.colours.cache_info()
        surjections.differential(f)
        surjections.differential(BarredClass(f.underlying))
        surjections.rs_compose(f, 2, g)
        h = Surjection(IntegerString((2, 1, 3, 1, 2, 4, 2), False))
        surjections.rs_compose(f, 5, h)  # a single-occurrence slot
        assert (f.degree, g.degree, h.degree) == (5, 3, 3)
        surjections.enumerate_component((False, True, True), True, 3)
        surjections.component_complex((True, False, True), True, 3)
        assert (strings.arity.cache_info(), strings.colours.cache_info()) == before


class TestUncheckedGraphs:
    def test_results_equal_checked_construction(self):
        elems, pairs, composites = window()
        q = {x: graphs.q(x) for x in elems}
        results = [graphs.compose_at(q[f], i, q[g]) for f, i, g in pairs]
        results += [graphs.q(x) for x in elems + composites]
        for a in results:
            checked = GraphElement(a.vertex_open, a.edge_dict(), a.output_open)
            assert same_graph(a, checked)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({(1, 2): (1, 1)}, "edges must cover exactly"),
            ({(1, 2): (1, 1), (1, 3): (1, 1), (2, 4): (1, 1)}, "edges must cover"),
            ({(1, 2): (1, 1), (1, 3): (1, 1), (3, 2): (1, 1)}, "edges must cover"),
            ({(1, 2): (1, 1), (1, 3): (1, 1), (2, 3, 4): (1, 1)}, "edges must cover"),
            ({(1, 2): (1, 1), (1, 3): (1, 1), ("2", "3"): (1, 1)}, "edges must cover"),
            ({(1, 2): (1, 1), (1, 3): (1, 1), (2, 3): (0, 1)}, r"bad decoration on edge \(2, 3\)"),
            ({(1, 2): (1, 1), (1, 3): (1, 2), (2, 3): (1, 1)}, r"bad decoration on edge \(1, 3\)"),
        ],
    )
    def test_constructor_still_checks(self, edges, message):
        with pytest.raises(ValueError, match=message):
            GraphElement((False, False, False), edges, False)

    @pytest.mark.parametrize(
        "decoration", [(1.5, 1), (2.0, 1), (2, 1.0), (True, 1), (1, True), ("2", 1)]
    )
    def test_constructor_rejects_non_integer_decorations(self, decoration):
        # a float level would pass validate and in_filtration unnoticed
        with pytest.raises(ValueError, match=r"bad decoration on edge \(1, 2\)"):
            GraphElement((0, 0), {(1, 2): decoration}, 0)

    def test_constructor_accepts_items_and_normalises(self):
        alpha = GraphElement([0, 1], [((1, 2), [2, -1])], 1)
        assert alpha.vertex_open == (False, True)
        assert alpha.output_open is True
        assert alpha.edge_dict() == {(1, 2): (2, -1)}
        assert GraphElement(alpha.vertex_open, alpha.edges, True) == alpha


def window_graphs():
    """The distinct graphs q gives on the window's elements and composites
    (4,401 of them, from 11,595 distinct strings), in first-seen order."""
    elems, _, composites = window()
    return list(dict.fromkeys(graphs.q(x) for x in dict.fromkeys(elems + composites)))


class TestGraphLevelsAgainstReference:
    """The signed-level kernels against the frozenset-based bodies they
    replace, on the window."""

    def test_q_on_every_element_and_composite(self):
        elems, _, composites = window()
        strings_seen = dict.fromkeys(elems + composites)
        for x in strings_seen:
            assert same_graph(graphs.q(x), reference_q_walk(x))
        assert (len(strings_seen), len(window_graphs())) == (11_595, 4_401)

    def test_compose_and_leq_on_every_composable_pair(self):
        elems, pairs, composites = window()
        q = {x: graphs.q(x) for x in elems}
        # the graph cases the composable pairs give, each once
        cases = dict.fromkeys(
            (q[f], i, q[g], graphs.q(fg))
            for (f, i, g), fg in zip(pairs, composites)
        )
        for qf, i, qg, qfg in cases:
            betas = [
                qg if v == i else GraphElement((o,), {}, o)
                for v, o in enumerate(qf.vertex_open, start=1)
            ]
            got = graphs.compose(qf, betas)
            assert same_graph(got, reference_graph_compose(qf, betas))
            assert same_graph(graphs.compose_at(qf, i, qg), got)
            assert graphs.leq(qfg, got) == reference_leq(qfg, got)
            assert graphs.leq(got, qfg) == reference_leq(got, qfg)
        assert len(cases) == 8_560

    def test_in_filtration_validate_and_sym_act(self):
        for alpha in window_graphs():
            for m in (1, 2, 3):
                assert graphs.in_filtration(alpha, m) == (
                    reference_graph_in_filtration(alpha, m)
                )
            assert graphs.validate(alpha) == reference_validate(alpha)
            n = alpha.n
            for sigma in adjacent_transpositions(n) + [list(range(n, 0, -1))]:
                assert same_graph(
                    graphs.sym_act(sigma, alpha),
                    reference_graph_sym_act(sigma, alpha),
                )

    def test_every_decoration_of_up_to_three_vertices(self):
        # invalid and out-of-filtration graphs too, every permutation
        cases = 0
        for n in range(4):
            pairs = list(combinations(range(1, n + 1), 2))
            decorations = list(product(product((1, 2, 3), (1, -1)), repeat=len(pairs)))
            for opens in product((False, True), repeat=n):
                for out_open in (False, True):
                    for decs in decorations:
                        alpha = GraphElement(opens, dict(zip(pairs, decs)), out_open)
                        assert graphs.validate(alpha) == reference_validate(alpha)
                        for m in (1, 2, 3):
                            assert graphs.in_filtration(alpha, m) == (
                                reference_graph_in_filtration(alpha, m)
                            )
                        for sigma in permutations(range(1, n + 1)):
                            assert same_graph(
                                graphs.sym_act(sigma, alpha),
                                reference_graph_sym_act(sigma, alpha),
                            )
                        cases += 1
        assert cases == 2 * (1 + 2 + 4 * 6 + 8 * 6**3)

    def test_leq_on_every_pair_of_a_component(self):
        cases = 0
        for opens in ((False, False, False), (False, True, True)):
            elems = graphs.enumerate_graphs(opens, any(opens), 2)
            for a in elems:
                for b in elems:
                    assert graphs.leq(a, b) == reference_leq(a, b)
                    cases += 1
        assert cases == 60**2 + 16**2

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(4) for m in (1, 2, 3)] + [(4, 2)]
    )
    def test_enumerate_graphs_same_list_and_order(self, n, m):
        for opens in product((False, True), repeat=n):
            for out_open in (False, True):
                got = graphs.enumerate_graphs(opens, out_open, m)
                want = reference_enumerate_graphs(opens, out_open, m)
                assert [(a, hash(a)) for a in got] == [(a, hash(a)) for a in want]
                assert all(same_graph(a, b) for a, b in zip(got, want))

    def test_constructor_from_shuffled_dict_equals_q(self):
        rng = random.Random(12)
        for alpha in window_graphs():
            items = list(alpha.edge_dict().items())
            rng.shuffle(items)
            assert same_graph(
                GraphElement(alpha.vertex_open, dict(items), alpha.output_open), alpha
            )

    def test_edges_view(self):
        alpha = graphs.q(strings.parse("(1u2|1u4u231||u2u4)^o"))
        assert alpha.levels == (-5, -2, -3, -2, -3, 2)
        assert alpha.edges == frozenset(alpha.edge_dict().items())
        assert list(alpha.edge_dict()) == list(combinations(range(1, 5), 2))
        assert alpha.edge_dict()[(1, 2)] == (5, -1)


class TestValueClassCopies:
    def test_pickle_and_deepcopy_round_trips(self):
        x = strings.parse("(1u2|1u4u231||u2u4)^o")
        values = [
            x,
            Surjection(strings.parse("(1u21u3)^o")),
            BarredClass(strings.parse("(u12|2u1)^o")),
            graphs.q(x),
            strings.compose(x, 2, strings.parse("(1u3|21u3|u31)^o")),
        ]
        for v in values:
            copies = [copy.deepcopy(v), copy.copy(v)] + [
                pickle.loads(pickle.dumps(v, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for c in copies:
                assert type(c) is type(v) and c == v and hash(c) == hash(v)


VARIANTS = ("standard", "primed-variant")


def ordered_terms(v):
    """The terms of a combination in order, with their hashes."""
    return [(b, hash(b), c) for b, c in v]


def lin_outcome(fn, *args):
    """``outcome`` with a combination read as its ordered terms."""
    got = outcome(fn, *args)
    return ordered_terms(got) if isinstance(got, LinComb) else got


def same_as_checked(b):
    """``b`` equals, and hashes like, the same string built through the
    validating constructors."""
    x = b.underlying if isinstance(b, (Surjection, BarredClass)) else b
    checked_x = IntegerString(x.tokens, x.output_open)
    checked = checked_x if b is x else type(b)(checked_x)
    return (
        b == checked
        and hash(b) == hash(checked)
        and type(x) is IntegerString
        and type(x.tokens) is tuple
    )


_SURJ = {}


def surjection_window():
    """Every component of arity <= 4 at m=2 and of arity <= 3 at m=3 in the
    standard variant, as (spec, basis) pairs; the arity <= 3 basis at m=2
    (the benchmark's Leibniz basis); and bars cut into its elements."""
    if not _SURJ:
        components = []
        for m, max_arity in ((2, 4), (3, 3)):
            for k in range(max_arity + 1):
                for opens in product((False, True), repeat=k):
                    for out_open in (False, True):
                        spec = (opens, out_open, m)
                        basis = surjections.enumerate_component(opens, out_open, m)
                        components.append((spec, basis))
        small = [
            s
            for (opens, _, m), basis in components
            if m == 2 and len(opens) <= 3
            for s in basis
        ]
        barred = [
            b for s in small for n in (1, 2) for b, _ in surjections.vartheta(s, n)
        ]
        _SURJ.update(components=components, small=small, barred=barred)
    return _SURJ["components"], _SURJ["small"], _SURJ["barred"]


class TestSurjectionsAgainstReference:
    def test_window_sizes(self):
        components, small, barred = surjection_window()
        cells = sum(len(basis) for _, basis in components)
        assert (len(components), cells, len(small), len(barred)) == (
            92, 5022, 211, 2816
        )

    def test_enumerate_component_on_every_component(self):
        components, _, _ = surjection_window()
        for (opens, out_open, m), _ in components:
            for variant in VARIANTS:
                got = surjections.enumerate_component(opens, out_open, m, variant)
                want = reference_enumerate_component(opens, out_open, m, variant)
                assert [(s, hash(s)) for s in got] == [(s, hash(s)) for s in want]
                assert all(
                    type(s) is Surjection and same_as_checked(s) for s in got
                )

    def test_differential_on_every_cell(self):
        components, _, barred = surjection_window()
        elems, _, _ = window()  # raw strings, bars and degenerate ones included
        cells = [s for _, basis in components for s in basis]
        inputs = cells + [s.underlying for s in cells] + barred + elems
        assert any(not surjections._nondegenerate(x.tokens) for x in elems)
        for u in inputs:
            got = surjections.differential(u)
            assert ordered_terms(got) == ordered_terms(reference_differential(u))
            assert all(type(b) is type(u) and same_as_checked(b) for b in got.terms)

    def test_rs_compose_on_every_composable_triple(self):
        _, small, _ = surjection_window()
        triples = 0
        for f in small:
            x = f.underlying
            for i in range(1, strings.arity(x) + 1):
                slot_open = -i in x.tokens
                for g in small:
                    if g.underlying.output_open != slot_open:
                        continue
                    got = surjections.rs_compose(f, i, g)
                    want = reference_rs_compose(f, i, g)
                    assert ordered_terms(got) == ordered_terms(want)
                    assert all(
                        type(b) is Surjection and same_as_checked(b)
                        for b in got.terms
                    )
                    triples += 1
        assert triples == 48_916

    def test_compositions_match_reference(self):
        for n in range(5):
            for parts in range(1, 7):
                got = list(surjections._compositions(n, parts))
                assert got == list(reference_compositions(n, parts))
                assert len(set(got)) == len(got)

    def test_errors_match(self):
        f = Surjection(strings.parse("(1u21u3)^o"))
        g = Surjection(strings.parse("(u1u2u1)^o"))
        closed = Surjection(strings.parse("(121)^c"))
        barred = BarredClass(strings.parse("(u12|2u1)^o"))
        cases = [
            (f, 0, g),  # slot out of range
            (f, -1, g),
            (f, 4, g),
            (Surjection(strings.parse("(1)^c")), 2, closed),
            (f, 1, g),  # closed slot, open argument
            (f, 2, closed),  # open slot, closed argument
            (f, 2, barred),  # bars in the argument: compose's colour check
            (f, 3, barred.underlying),
            (barred, 1, g),  # bars in f: the Surjection check
            (BarredClass(strings.parse("(1|1)^c")), 1, closed),
            (strings.parse("(1|1)^c"), 1, closed),
        ]
        for args in cases:
            got = lin_outcome(surjections.rs_compose, *args)
            assert isinstance(got, tuple) and got == lin_outcome(
                reference_rs_compose, *args
            )
        assert lin_outcome(surjections.rs_compose, f, 4, g) == (
            ValueError, "slot 4 out of range for arity 3"
        )
        assert lin_outcome(surjections.rs_compose, f, 1, g) == (
            ColourMismatch, "slot 1 is closed, argument is not"
        )
        assert lin_outcome(surjections.rs_compose, f, 2, barred) == (
            ColourMismatch, "slot 2 has colour u0, got output colour u1"
        )
        assert lin_outcome(surjections.rs_compose, barred, 1, g) == (
            ValueError, "a basis surjection has no bars"
        )
        # a degenerate raw argument: its degenerate composites are dropped
        raw = strings.parse("(u1u12)^o")
        for args in ((f, 2, raw), (raw, 1, g), (raw, 2, raw)):
            got = lin_outcome(surjections.rs_compose, *args)
            assert got == lin_outcome(reference_rs_compose, *args)

    def test_in_filtration_errors_match(self):
        # verdicts inside the window: tests/test_strings.py brute force
        x = strings.parse("(12|21)^c")
        for m, variant in ((0, "standard"), (-1, "primed-variant"), (2, "x"), (0, "x")):
            got = outcome(strings.in_filtration, x, m, variant)
            assert isinstance(got, tuple)
            assert got == outcome(reference_in_filtration, x, m, variant)


class TestDegeneracyInvariants:
    """The two facts that let the surjection kernels decide degeneracy once,
    at the input, checked without the kernels themselves."""

    def test_cut_patterns_give_distinct_nondegenerate_composites(self):
        _, small, _ = surjection_window()
        triples = 0
        for f in small:
            x = f.underlying
            for i in range(1, strings.arity(x) + 1):
                slot_open = -i in x.tokens
                n = strings.occurrences(x, i) - 1
                for g in small:
                    if g.underlying.output_open != slot_open:
                        continue
                    composites = [
                        strings.compose(x, i, barred)
                        for _, barred in surjections._vartheta_terms(g.underlying, n)
                    ]
                    assert all(surjections._nondegenerate(h.tokens) for h in composites)
                    assert len(set(composites)) == len(composites)
                    triples += 1
        assert triples == 48_916

    def test_degenerate_raw_inputs_give_zero(self):
        _, small, _ = surjection_window()
        degenerate = [
            x
            for x in strings.small_strings(6, 3, m=2)
            if not surjections._nondegenerate(x.tokens)
        ]
        assert len(degenerate) == 10_672
        by_open = {o: [] for o in (False, True)}
        slots = {o: [] for o in (False, True)}
        for s in small:
            by_open[s.underlying.output_open].append(s)
            for i in range(1, strings.arity(s.underlying) + 1):
                slots[-i in s.underlying.tokens].append((s, i))
        rng = random.Random(5)
        zeros = 0
        for x in degenerate:
            assert not surjections.differential(x)
            assert not reference_differential(x)
            i = rng.randint(1, strings.arity(x))
            f, j = rng.choice(slots[x.output_open])
            for args in ((x, i, rng.choice(by_open[-i in x.tokens])), (f, j, x)):
                got = lin_outcome(surjections.rs_compose, *args)
                assert got == lin_outcome(reference_rs_compose, *args)
                assert isinstance(got, tuple) or got == []
                zeros += got == []
        assert zeros > len(degenerate)

    def test_empty_argument(self):
        # an empty g deletes the slot's one letter, which can join two equal
        # letters: (212)^c o_1 () is degenerate
        _, small, _ = surjection_window()
        empty = {o: Surjection(IntegerString((), o)) for o in (False, True)}
        zeros = 0
        for f in small:
            x = f.underlying
            for i in range(1, strings.arity(x) + 1):
                args = (f, i, empty[-i in x.tokens])
                got = lin_outcome(surjections.rs_compose, *args)
                assert got == lin_outcome(reference_rs_compose, *args)
                assert all(same_as_checked(b) for b, _, _ in got)
                zeros += got == []
        assert zeros > 0

    def test_degeneracy_is_decided_once_per_raw_input(self, monkeypatch):
        f, g = strings.parse("(1213)^c"), strings.parse("(121)^c")
        cases = [((Surjection(f), Surjection(g)), 0), ((f, g), 1)]
        calls = []
        nondegenerate = surjections._nondegenerate

        def counted(tokens):
            calls.append(tokens)
            return nondegenerate(tokens)

        monkeypatch.setattr(surjections, "_nondegenerate", counted)
        for (sf, sg), raw in cases:  # raw: scans per raw input
            calls.clear()
            assert surjections.differential(sf) and len(calls) == raw
            calls.clear()
            assert len(surjections.rs_compose(sf, 1, sg).terms) == 3
            assert len(calls) == 2 * raw
            calls.clear()
            assert surjections.vartheta(sg, 2) and len(calls) == raw


@st.composite
def nondegenerate_strings(draw, bars=None, output_open=None, max_tokens=10):
    """A valid string with no two equal letters side by side (a bar between
    them is allowed): a ``BarredClass`` or, without bars, a ``Surjection``."""
    x = draw(integer_strings(
        bars=bars, output_open=output_open, max_labels=6, max_tokens=max_tokens
    ))
    tokens = []
    for t in x.tokens:
        if not (tokens and tokens[-1] == t != BAR):
            tokens.append(t)
    return IntegerString(tuple(tokens), x.output_open)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), fx=nondegenerate_strings(bars=0))
def test_surjection_kernels_match_reference_beyond_the_window(data, fx):
    f = Surjection(fx)
    barred = BarredClass(data.draw(nondegenerate_strings()))
    raw = data.draw(integer_strings(max_labels=6, max_tokens=10))
    for u in (f, fx, barred, raw):
        got = surjections.differential(u)
        assert ordered_terms(got) == ordered_terms(reference_differential(u))
    k = strings.arity(fx)
    i = data.draw(st.integers(1, k))
    gx = data.draw(
        nondegenerate_strings(bars=0, output_open=-i in fx.tokens, max_tokens=6)
    )
    g = Surjection(gx)
    got = surjections.rs_compose(f, i, g)
    assert ordered_terms(got) == ordered_terms(reference_rs_compose(f, i, g))
    assert all(same_as_checked(b) for b in got.terms)
    # any slot and any argument: equal results or equal errors
    j = data.draw(st.integers(-1, k + 1))
    h = data.draw(st.sampled_from((g, gx, barred, raw)))
    for left in (f, barred, raw):
        assert lin_outcome(surjections.rs_compose, left, j, h) == lin_outcome(
            reference_rs_compose, left, j, h
        )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    x=integer_strings(),
    m=st.integers(1, 3),
    variant=st.sampled_from(VARIANTS),
)
def test_in_filtration_matches_reference_beyond_the_window(x, m, variant):
    assert strings.in_filtration(x, m, variant) == reference_in_filtration(
        x, m, variant
    )
