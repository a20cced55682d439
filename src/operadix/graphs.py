"""Coloured complete-graph poset operad.

An element decorates every pair of vertices of a complete graph with a
positive integer level and an orientation, subject to monochromatic
acyclicity.  Vertices are closed or open; the filtration bounds levels per
the colour pattern of each pair.  The morphism ``q`` sends an integer-string
to the graph of its pairwise complexities, orienting each edge towards the
letter whose first occurrence comes earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .strings import BAR, IntegerString, _moved, _pair_limits, _top_label

__all__ = [
    "GraphElement",
    "validate",
    "leq",
    "in_filtration",
    "compose",
    "compose_at",
    "sym_act",
    "q",
    "enumerate_graphs",
]


@dataclass(frozen=True)
class GraphElement:
    """Vertex colours plus one (level, orientation) per vertex pair.

    ``edges[(i, j)] = (mu, orient)`` for ``i < j``, with ``orient = +1``
    meaning ``i -> j`` and ``-1`` meaning ``j -> i``.
    """

    vertex_open: tuple[bool, ...]
    edges: "frozenset[tuple[tuple[int, int], tuple[int, int]]]"
    output_open: bool

    def __init__(self, vertex_open, edges, output_open):
        vertex_open = tuple(map(bool, vertex_open))
        n = len(vertex_open)
        edict = dict(edges)
        # distinct keys, as many as the pairs i < j, each one of them
        if len(edict) != n * (n - 1) // 2 or not all(
            _is_pair(p, n) for p in edict
        ):
            raise ValueError("edges must cover exactly the pairs i < j")
        for (i, j), (mu, orient) in edict.items():
            if mu < 1 or orient not in (1, -1):
                raise ValueError(f"bad decoration on edge {(i, j)}")
        object.__setattr__(self, "vertex_open", vertex_open)
        object.__setattr__(
            self, "edges", frozenset((p, tuple(d)) for p, d in edict.items())
        )
        object.__setattr__(self, "output_open", bool(output_open))

    @property
    def n(self) -> int:
        return len(self.vertex_open)

    def edge_dict(self) -> dict[tuple[int, int], tuple[int, int]]:
        return {p: d for p, d in self.edges}


def _is_pair(p, n: int) -> bool:
    """Whether ``p`` is a pair ``(i, j)`` of integers with 1 <= i < j <= n."""
    return (
        isinstance(p, tuple)
        and len(p) == 2
        and isinstance(p[0], int)
        and isinstance(p[1], int)
        and 1 <= p[0] < p[1] <= n
    )


def _unchecked(
    vertex_open: tuple[bool, ...], edges: frozenset, output_open: bool
) -> GraphElement:
    """Build a GraphElement from its fields without re-running validation.

    Only for internal use on fields valid by construction: ``edges`` holds
    one ``((i, j), (mu, orient))`` for every pair i < j, with mu >= 1 and
    orient +1 or -1."""
    alpha = object.__new__(GraphElement)
    object.__setattr__(alpha, "vertex_open", vertex_open)
    object.__setattr__(alpha, "edges", edges)
    object.__setattr__(alpha, "output_open", output_open)
    return alpha


def validate(alpha: GraphElement) -> bool:
    """Monochromatic acyclicity plus the closed-output colour condition."""
    if not alpha.output_open and any(alpha.vertex_open):
        return False
    by_level: dict[int, list[tuple[int, int]]] = {}
    for (i, j), (mu, orient) in alpha.edges:
        arc = (i, j) if orient == 1 else (j, i)
        by_level.setdefault(mu, []).append(arc)
    return all(_acyclic(arcs, alpha.n) for arcs in by_level.values())


def _acyclic(arcs: list[tuple[int, int]], n: int) -> bool:
    succ: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in arcs:
        succ[a].append(b)
    state = {v: 0 for v in succ}  # 0 new, 1 on stack, 2 done

    def dfs(v: int) -> bool:
        state[v] = 1
        for w in succ[v]:
            if state[w] == 1 or (state[w] == 0 and not dfs(w)):
                return False
        state[v] = 2
        return True

    return all(state[v] != 0 or dfs(v) for v in succ)


def leq(alpha: GraphElement, beta: GraphElement) -> bool:
    """Poset order: every pair agrees or has strictly smaller level in alpha."""
    if alpha.vertex_open != beta.vertex_open or alpha.output_open != beta.output_open:
        raise ValueError("poset order needs identical colours")
    eb = beta.edge_dict()
    for pair, (mu, orient) in alpha.edge_dict().items():
        mu2, orient2 = eb[pair]
        if (mu, orient) != (mu2, orient2) and not mu < mu2:
            return False
    return True


def in_filtration(alpha: GraphElement, m: int) -> bool:
    """Whether every level is within the string rule's pair limit
    (``strings._pair_limits``, standard variant), where an edge's target is
    the pair's first label and its source the second."""
    limit = _pair_limits(m, "standard")
    vertex_open = alpha.vertex_open
    for (i, j), (mu, orient) in alpha.edges:
        source, target = (i, j) if orient == 1 else (j, i)
        if mu > limit[vertex_open[target - 1], vertex_open[source - 1]]:
            return False
    return True


def compose(alpha: GraphElement, betas: list[GraphElement]) -> GraphElement:
    """Blockwise substitution: intra-block pairs copy the block, cross-block
    pairs copy the corresponding edge of ``alpha``."""
    if len(betas) != alpha.n:
        raise ValueError("need one argument per vertex")
    for v, beta in enumerate(betas, start=1):
        if beta.output_open != alpha.vertex_open[v - 1]:
            raise ValueError(f"slot {v} openness does not match argument {v}")
    offsets = [0]
    for beta in betas:
        offsets.append(offsets[-1] + beta.n)
    vertex_open = tuple(o for beta in betas for o in beta.vertex_open)
    # the intra-block and the cross-block pairs together are every pair
    # a < b of the result, each once
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
    return _unchecked(vertex_open, frozenset(edges), alpha.output_open)


def compose_at(alpha: GraphElement, i: int, beta: GraphElement) -> GraphElement:
    """Substitute ``beta`` into vertex ``i`` of ``alpha``, one-vertex graphs
    elsewhere."""
    betas = [
        beta if v == i else _unchecked((opn,), frozenset(), opn)
        for v, opn in enumerate(alpha.vertex_open, start=1)
    ]
    return compose(alpha, betas)


def sym_act(sigma, alpha: GraphElement) -> GraphElement:
    """Relabel vertex ``i`` to ``sigma[i-1]``, decorations unchanged."""
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


def q(x: IntegerString) -> GraphElement:
    """Pairwise complexities with first-occurrence-reversing orientations.

    One walk over the letters counts, per pair, the direction changes of its
    projection (``strings._moved``), and records where each label first
    occurs and whether it is open.
    """
    k = _top_label(x.tokens)
    last = [-1] * (k + 1)
    first = [0] * (k + 1)
    opens = [False] * (k + 1)
    mu: dict[tuple[int, int], int] = {}
    prev = BAR
    for pos, t in enumerate(x.tokens):
        # a repeated letter, even across a bar, moves no pair
        if t == BAR or t == prev:
            continue
        prev = t
        a = t if t > 0 else -t
        if last[a] < 0:
            first[a] = pos
            opens[a] = t < 0
        for b in _moved(last, a):
            pair = (a, b) if a < b else (b, a)
            mu[pair] = mu.get(pair, 0) + 1
        last[a] = pos
    # each pair i < j changed direction when its second label first
    # occurred, so every pair is present with mu >= 1
    edges = frozenset(
        ((i, j), (c, 1 if first[i] > first[j] else -1))
        for (i, j), c in mu.items()
    )
    return _unchecked(tuple(opens[1:]), edges, x.output_open)


# The most decorations enumerate_graphs walks: at the 40-70 us per decoration
# measured on a 2-vCPU x86-64 machine, about a minute of work.
MAX_DECORATIONS = 10**6


def enumerate_graphs(
    vertex_open, output_open: bool, m: int
) -> list[GraphElement]:
    """All valid filtration-m elements on the given coloured vertices.

    Raises ValueError when m < 1, or when the (2m)^(k choose 2) candidate
    decorations of k vertices exceed ``MAX_DECORATIONS``.
    """
    if m < 1:
        raise ValueError("filtration level m must be >= 1")
    vertex_open = tuple(bool(v) for v in vertex_open)
    if not output_open and any(vertex_open):
        return []
    pairs = list(combinations(range(1, len(vertex_open) + 1), 2))
    count = (2 * m) ** len(pairs)
    if count > MAX_DECORATIONS:
        raise ValueError(
            f"{len(vertex_open)} vertices at m={m} give {count} decorations, "
            f"more than the enumeration limit {MAX_DECORATIONS}"
        )
    out = []
    for decs in product(product(range(1, m + 1), (1, -1)), repeat=len(pairs)):
        alpha = GraphElement(vertex_open, dict(zip(pairs, decs)), output_open)
        if validate(alpha) and in_filtration(alpha, m):
            out.append(alpha)
    return out
