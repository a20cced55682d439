"""Coloured complete-graph poset operad.

An element decorates every pair of vertices of a complete graph with a
positive integer level and an orientation, subject to monochromatic
acyclicity.  Vertices are closed or open; the filtration bounds levels per
the colour pattern of each pair.  The morphism ``q`` sends an integer-string
to the graph of its pairwise complexities, orienting each edge towards the
letter whose first occurrence comes earlier.

Storage: a graph on n vertices keeps one signed level per pair i < j, in
``itertools.combinations`` order ((1, 2), (1, 3), ..., (1, n), (2, 3), ...):
``mu * orient``, so a positive level means ``i -> j`` and a negative one
``j -> i``.  The kernels below read and write that tuple directly; ``q``
and ``in_filtration`` take the pair walk and the limit check from
``strings``, so this module walks no tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .strings import IntegerString, _pair_levels, _pair_limits, _within_limits

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


@dataclass(frozen=True, slots=True)
class GraphElement:
    """Vertex colours plus one (level, orientation) per vertex pair.

    Built from ``edges[(i, j)] = (mu, orient)`` for ``i < j``, with
    ``orient = +1`` meaning ``i -> j`` and ``-1`` meaning ``j -> i``, and
    stored as ``levels``: ``mu * orient`` per pair, in
    ``itertools.combinations`` order.
    """

    vertex_open: tuple[bool, ...]
    levels: tuple[int, ...]
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
            if (
                not _is_int(mu)
                or not _is_int(orient)
                or mu < 1
                or orient not in (1, -1)
            ):
                raise ValueError(f"bad decoration on edge {(i, j)}")
        levels = []
        for i, j in _pairs(n):
            mu, orient = edict[(i + 1, j + 1)]
            levels.append(mu * orient)
        _set_vertex_open(self, vertex_open)
        _set_levels(self, tuple(levels))
        _set_output_open(self, bool(output_open))

    @property
    def n(self) -> int:
        return len(self.vertex_open)

    @property
    def edges(self) -> "frozenset[tuple[tuple[int, int], tuple[int, int]]]":
        """The decorations as ``((i, j), (mu, orient))`` items."""
        return frozenset(self.edge_dict().items())

    def edge_dict(self) -> dict[tuple[int, int], tuple[int, int]]:
        return {
            (i + 1, j + 1): (lev, 1) if lev > 0 else (-lev, -1)
            for (i, j), lev in zip(_pairs(self.n), self.levels)
        }


_set_vertex_open = GraphElement.__dict__["vertex_open"].__set__
_set_levels = GraphElement.__dict__["levels"].__set__
_set_output_open = GraphElement.__dict__["output_open"].__set__


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The 0-based vertex pairs i < j of n vertices, in the order of
    ``levels``."""
    return tuple(combinations(range(n), 2))


def _is_int(x) -> bool:
    """Whether ``x`` is an ``int`` and not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


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
    vertex_open: tuple[bool, ...], levels: tuple[int, ...], output_open: bool
) -> GraphElement:
    """Build a GraphElement from its fields without re-running validation.

    Only for internal use on fields valid by construction: ``levels`` holds
    one nonzero signed level for every pair i < j, in
    ``itertools.combinations`` order."""
    alpha = object.__new__(GraphElement)
    _set_vertex_open(alpha, vertex_open)
    _set_levels(alpha, levels)
    _set_output_open(alpha, output_open)
    return alpha


def validate(alpha: GraphElement) -> bool:
    """Monochromatic acyclicity plus the closed-output colour condition."""
    if not alpha.output_open and any(alpha.vertex_open):
        return False
    by_level: dict[int, list[tuple[int, int]]] = {}
    for (i, j), lev in zip(_pairs(alpha.n), alpha.levels):
        if lev > 0:
            by_level.setdefault(lev, []).append((i, j))
        else:
            by_level.setdefault(-lev, []).append((j, i))
    return all(_acyclic(arcs, alpha.n) for arcs in by_level.values())


def _acyclic(arcs: list[tuple[int, int]], n: int) -> bool:
    """Whether the arcs between vertices 0..n-1 form no directed cycle:
    peeling the vertices no remaining arc enters removes them all."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in arcs:
        succ[a].append(b)
        indegree[b] += 1
    free = [v for v in range(n) if not indegree[v]]
    peeled = 0
    while free:
        peeled += 1
        for w in succ[free.pop()]:
            indegree[w] -= 1
            if not indegree[w]:
                free.append(w)
    return peeled == n


def leq(alpha: GraphElement, beta: GraphElement) -> bool:
    """Poset order: every pair agrees or has strictly smaller level in alpha."""
    if alpha.vertex_open != beta.vertex_open or alpha.output_open != beta.output_open:
        raise ValueError("poset order needs identical colours")
    for a, b in zip(alpha.levels, beta.levels):
        if a != b and not (a if a > 0 else -a) < (b if b > 0 else -b):
            return False
    return True


def in_filtration(alpha: GraphElement, m: int) -> bool:
    """Whether every level is within the string rule's pair limit
    (``strings._pair_limits``, standard variant), where an edge's target is
    the pair's first label and its source the second."""
    limit = _pair_limits(m, "standard")
    return _within_limits(limit, alpha.vertex_open, alpha.levels)


def compose(alpha: GraphElement, betas: list[GraphElement]) -> GraphElement:
    """Blockwise substitution: intra-block pairs copy the block, cross-block
    pairs copy the corresponding edge of ``alpha``."""
    n = alpha.n
    if len(betas) != n:
        raise ValueError("need one argument per vertex")
    vertex_open: list[bool] = []
    sizes = []
    for v, beta in enumerate(betas):
        if beta.output_open != alpha.vertex_open[v]:
            raise ValueError(
                f"slot {v + 1} openness does not match argument {v + 1}"
            )
        vertex_open += beta.vertex_open
        sizes.append(len(beta.vertex_open))
    # in combinations order, the pairs of a vertex of block v are the rest
    # of its row in the block, then every vertex of the later blocks, each
    # carrying alpha's level of (v, w); alpha's row v is one slice
    levels: list[int] = []
    row = 0
    for v, beta in enumerate(betas):
        cross = [
            lev
            for lev, size in zip(alpha.levels[row : row + n - 1 - v], sizes[v + 1 :])
            for _ in range(size)
        ]
        row += n - 1 - v
        inner = beta.levels
        start = 0
        for s in range(sizes[v] - 1, -1, -1):
            levels += inner[start : start + s]
            levels += cross
            start += s
    return _unchecked(tuple(vertex_open), tuple(levels), alpha.output_open)


def compose_at(alpha: GraphElement, i: int, beta: GraphElement) -> GraphElement:
    """Substitute ``beta`` into vertex ``i`` of ``alpha``, one-vertex graphs
    elsewhere."""
    betas = [
        beta if v == i else _unchecked((opn,), (), opn)
        for v, opn in enumerate(alpha.vertex_open, start=1)
    ]
    return compose(alpha, betas)


def sym_act(sigma, alpha: GraphElement) -> GraphElement:
    """Relabel vertex ``i`` to ``sigma[i-1]``, decorations unchanged.

    Relabelling keeps every level and acyclicity, so the result is built
    unchecked."""
    n = alpha.n
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{n}")
    vertex_open = [False] * n
    for i, opn in enumerate(alpha.vertex_open):
        vertex_open[sigma[i] - 1] = opn
    # the pair a < b (0-based) sits at a * (2n - a - 1) / 2 + b - a - 1
    levels = [0] * len(alpha.levels)
    for (i, j), lev in zip(_pairs(n), alpha.levels):
        a, b = sigma[i] - 1, sigma[j] - 1
        if a > b:
            a, b, lev = b, a, -lev
        levels[a * (2 * n - a - 1) // 2 + b - a - 1] = lev
    return _unchecked(tuple(vertex_open), tuple(levels), alpha.output_open)


def q(x: IntegerString) -> GraphElement:
    """Pairwise complexities with first-occurrence-reversing orientations:
    the levels of one walk over the letters (``strings._pair_levels``)."""
    return _unchecked(*_pair_levels(x.tokens), x.output_open)


# The most decorations enumerate_graphs walks: at the 4-20 us per decoration
# measured on a shared 2-vCPU x86-64 machine (the upper end when every
# decoration is in the filtration and reaches the acyclicity check), at most
# about twenty seconds of work.
MAX_DECORATIONS = 10**6


def enumerate_graphs(
    vertex_open, output_open: bool, m: int
) -> list[GraphElement]:
    """All valid filtration-m elements on the given coloured vertices, in
    the order of their signed levels 1, -1, 2, -2, ..., the last pair
    varying fastest.

    Raises ValueError when m < 1, or when the (2m)^(k choose 2) candidate
    decorations of k vertices exceed ``MAX_DECORATIONS``.
    """
    if m < 1:
        raise ValueError("filtration level m must be >= 1")
    vertex_open = tuple(bool(v) for v in vertex_open)
    if not output_open and any(vertex_open):
        return []
    n_pairs = len(_pairs(len(vertex_open)))
    count = (2 * m) ** n_pairs
    if count > MAX_DECORATIONS:
        raise ValueError(
            f"{len(vertex_open)} vertices at m={m} give {count} decorations, "
            f"more than the enumeration limit {MAX_DECORATIONS}"
        )
    output_open = bool(output_open)
    signed = [lev for mu in range(1, m + 1) for lev in (mu, -mu)]
    out = []
    for levels in product(signed, repeat=n_pairs):
        alpha = _unchecked(vertex_open, levels, output_open)
        if in_filtration(alpha, m) and validate(alpha):
            out.append(alpha)
    return out
