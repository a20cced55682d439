"""Planar rooted-tree view of filtration-2 integer-strings.

A bar-and-letter string with pairwise complexity at most 2 is equivalently a
planar rooted tree: each label becomes a vertex with (occurrences - 1)
child slots, each bar a terminal leaf, and reading the string left to right
is the clockwise traversal of the tree (a vertex is written once per visit,
a terminal once).  Adjacent equal letters or sibling groups create
unlabelled auxiliary vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .strings import BAR, IntegerString, arity, in_filtration, text

__all__ = ["TreeNode", "RootedTree", "tree_view", "tree_to_string", "render_tree"]


@dataclass(frozen=True, slots=True)
class TreeNode:
    """A tree vertex: labelled (letter), terminal (bar) or unlabelled."""

    kind: str  # "letter" | "terminal" | "free"
    label: int = 0  # letter label, or the clockwise terminal number
    open: bool = False
    children: tuple["TreeNode", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("letter", "terminal", "free"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == "terminal" and self.children:
            raise ValueError("terminal vertices have no children")


@dataclass(frozen=True, slots=True)
class RootedTree:
    root: TreeNode
    output_open: bool


def tree_view(x: IntegerString) -> RootedTree:
    """The canonical planar tree of a filtration-2 string, built in one
    left-to-right pass over the tokens.

    In filtration 2 the spans of two letters are either disjoint or one lies
    inside a single gap of the other, so a letter's last occurrence in the
    whole string closes its span, and the gaps between its consecutive
    occurrences are its child slots.
    """
    if arity(x) >= 2 and not in_filtration(x, 2):
        raise ValueError("tree view needs a filtration-2 string")
    tokens = x.tokens
    last = {t: q for q, t in enumerate(tokens)}
    items, _ = _items(tokens, last, count(1), 0, None)
    return RootedTree(_group(items), x.output_open)


def _items(tokens, last: dict, terminals, pos: int, stop) -> tuple[list, int]:
    """The nodes of the items from ``pos`` up to the next token ``stop`` (or
    the end), and the position where they end.  An item is a bar, or a
    letter's span from its first to its last occurrence."""
    nodes = []
    while pos < len(tokens) and tokens[pos] != stop:
        t = tokens[pos]
        if t == BAR:
            nodes.append(TreeNode("terminal", label=next(terminals)))
        else:
            slots = []
            while pos < last[t]:
                slot, pos = _items(tokens, last, terminals, pos + 1, t)
                slots.append(_group(slot))
            nodes.append(
                TreeNode("letter", label=abs(t), open=t < 0, children=tuple(slots))
            )
        pos += 1
    return nodes, pos


def _group(nodes: list) -> TreeNode:
    """One item as itself, any other number under an unlabelled vertex."""
    return nodes[0] if len(nodes) == 1 else TreeNode("free", children=tuple(nodes))


def tree_to_string(t: RootedTree) -> IntegerString:
    """Clockwise reading of the tree; inverse of :func:`tree_view`."""
    tokens: list[int] = []
    _emit(t.root, tokens, top=True)
    return IntegerString(tuple(tokens), t.output_open)


def _emit(node: TreeNode, out: list[int], top: bool = False) -> None:
    if node.kind == "terminal":
        out.append(BAR)
        return
    if node.kind == "free":
        if not top and len(node.children) == 1:
            raise ValueError("non-canonical tree: unary unlabelled vertex")
        for child in node.children:
            _emit(child, out)
        return
    token = -node.label if node.open else node.label
    out.append(token)
    for child in node.children:
        _emit(child, out)
        out.append(token)


def render_tree(t: RootedTree) -> str:
    """ASCII rendering, one vertex per line with indentation."""
    lines: list[str] = []
    stack = [(t.root, 0)]  # preorder: the first child is popped first
    while stack:
        node, depth = stack.pop()
        if node.kind == "terminal":
            tag = f"#{node.label}"
        elif node.kind == "free":
            tag = "*"
        else:
            tag = ("u" if node.open else "") + str(node.label)
        lines.append("  " * depth + tag)
        stack.extend((child, depth + 1) for child in reversed(node.children))
    lines.append("output: " + ("o" if t.output_open else "c"))
    return "\n".join(lines)
