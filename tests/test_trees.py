"""Planar-tree view of filtration-2 strings."""

import hashlib

import pytest

from operadix import strings, trees
from operadix.strings import Colour

from operadix.strings import small_strings


def test_round_trip_exhaustive_small():
    count = 0
    for x in small_strings(5, 3, m=2):
        t = trees.tree_view(x)
        assert trees.tree_to_string(t) == x
        count += 1
    assert count > 1000


def test_renderings_frozen():
    # every tree of the small window, terminal numbers and unlabelled
    # vertices included
    xs = small_strings(5, 3, m=2)
    texts = "\n\n".join(trees.render_tree(trees.tree_view(x)) for x in xs)
    assert len(xs) == 4179
    assert hashlib.sha256(texts.encode()).hexdigest().startswith("7c01b221ae78cffc")


def test_rejects_higher_filtration():
    x = strings.parse("(1u2|1u2)^o")  # pairwise complexity 3
    assert not strings.in_filtration(x, 2)
    with pytest.raises(ValueError):
        trees.tree_view(x)


def test_render_shape():
    t = trees.tree_view(strings.parse("(12|21)^c"))
    assert trees.render_tree(t) == "1\n  2\n    #1\noutput: c"


def test_terminal_numbering_is_clockwise():
    t = trees.tree_view(strings.parse("(1|1|)^c"))
    labels = []

    def walk(node):
        if node.kind == "terminal":
            labels.append(node.label)
        for child in node.children:
            walk(child)

    walk(t.root)
    assert labels == sorted(labels) and len(labels) == 2


def test_open_letters_carry_flag():
    t = trees.tree_view(strings.parse("(u1)^o"))
    opens = []

    def walk(node):
        if node.kind == "letter":
            opens.append(node.open)
        for child in node.children:
            walk(child)

    walk(t.root)
    assert opens == [True]
    assert t.output_open
