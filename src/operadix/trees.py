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

from .strings import BAR, IntegerString, arity, in_filtration, text

__all__ = ["TreeNode", "RootedTree", "tree_view", "tree_to_string", "render_tree"]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RootedTree:
    root: TreeNode
    output_open: bool


def tree_view(x: IntegerString) -> RootedTree:
    """The canonical planar tree of a filtration-2 string."""
    if arity(x) >= 2 and not in_filtration(x, 2):
        raise ValueError("tree view needs a filtration-2 string")
    items = _parse_items(list(x.tokens))
    counter = [0]
    if len(items) == 1:
        root = _build(items[0], counter)
    else:
        root = TreeNode("free", children=tuple(_build(it, counter) for it in items))
    return RootedTree(root, x.output_open)


def _parse_items(tokens: list[int]) -> list:
    """Split a token span into top-level items: bars and letter spans.

    A letter span runs from the first to the last occurrence of its letter;
    the gaps between consecutive occurrences are the child slots.
    """
    items = []
    pos = 0
    while pos < len(tokens):
        t = tokens[pos]
        if t == BAR:
            items.append(("bar",))
            pos += 1
            continue
        last = max(q for q, s in enumerate(tokens) if s == t)
        slots = []
        gap: list[int] = []
        for q in range(pos + 1, last + 1):
            if tokens[q] == t:
                slots.append(_parse_items(gap))
                gap = []
            else:
                gap.append(tokens[q])
        items.append(("letter", t, slots))
        pos = last + 1
    return items


def _build(item, counter: list[int]) -> TreeNode:
    if item[0] == "bar":
        counter[0] += 1
        return TreeNode("terminal", label=counter[0])
    _, token, slots = item
    children = []
    for slot_items in slots:
        if len(slot_items) == 1:
            children.append(_build(slot_items[0], counter))
        else:
            children.append(
                TreeNode(
                    "free",
                    children=tuple(_build(it, counter) for it in slot_items),
                )
            )
    return TreeNode(
        "letter", label=abs(token), open=token < 0, children=tuple(children)
    )


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
