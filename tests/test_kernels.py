"""The one-pass string and graph kernels against the code they replace.

``reference_compose``, ``reference_sym_act`` and ``reference_q`` are the
earlier bodies of ``strings.compose``, ``strings.sym_act`` and ``graphs.q``:
they read arities and colours through the cached ``strings.arity`` and
``strings.colours``, count each pair with ``strings.c_count`` and build
graphs through the validating ``GraphElement`` constructor.  They are kept
here only as oracles for the fast paths.
"""

import pytest
from hypothesis import given, settings, strategies as st

from operadix import graphs, strings
from operadix.graphs import GraphElement
from operadix.strings import (
    BAR,
    Colour,
    ColourMismatch,
    IntegerString,
    LabelOutOfRange,
    StringError,
)


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


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except StringError as exc:
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

    def test_constructor_accepts_items_and_normalises(self):
        alpha = GraphElement([0, 1], [((1, 2), [2, -1])], 1)
        assert alpha.vertex_open == (False, True)
        assert alpha.output_open is True
        assert alpha.edge_dict() == {(1, 2): (2, -1)}
        assert GraphElement(alpha.vertex_open, alpha.edges, True) == alpha
