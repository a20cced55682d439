"""Coloured integer-string operad.

Elements are strings of letters (closed ``3`` or open ``u3``) and vertical
bars, with a closed/open output tag.  The label ``i`` occurring ``n_i + 1``
times encodes an input of cosimplicial colour ``n_i``; the number of bars is
the output colour.  The module provides parsing/printing of the canonical
text form, operadic composition by segment substitution, the left symmetric
action, per-pair complexity counters with the induced filtrations, the
duality between unary strings and monotone maps, and exhaustive enumeration
of fixed-colour components and of small windows across colours.

The filtration is one pair rule: each pair's direction changes, bounded by
a table that the openness of its labels selects.  ``_pair_levels`` runs it
over a whole word and yields the signed levels that ``graphs.q`` stores;
``in_filtration`` and ``graphs.in_filtration`` check levels against the
table through ``_within_limits``, so the string filtration is the preimage
of the graph one under q; ``_PairWalk`` runs the rule one letter at a time
for the enumerators.

Token encoding: each token is an ``int`` — ``0`` is a bar, ``+i`` a closed
letter with label ``i``, ``-i`` an open letter with label ``i``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Sequence

BAR = 0

__all__ = [
    "BAR",
    "Colour",
    "IntegerString",
    "MonotoneMap",
    "StringError",
    "UnknownToken",
    "MixedDecoration",
    "MissingLabel",
    "ClosedOutputWithOpenLetter",
    "ColourMismatch",
    "LabelOutOfRange",
    "parse",
    "text",
    "colours",
    "arity",
    "occurrences",
    "compose",
    "sym_act",
    "block_perm",
    "c_count",
    "c_prime",
    "c_dbl_prime",
    "in_filtration",
    "identity_string",
    "joyal_to_string",
    "string_to_joyal",
    "enumerate_strings",
    "small_strings",
    "by_output",
]


class StringError(ValueError):
    """Base class for integer-string validation and parse errors."""


class UnknownToken(StringError):
    """The text contains a character outside the grammar."""


class MixedDecoration(StringError):
    """Some label occurs both as an open and as a closed letter."""


class MissingLabel(StringError):
    """The labels present are not exactly 1..k."""


class ClosedOutputWithOpenLetter(StringError):
    """A closed-output string may not contain open letters."""


class ColourMismatch(StringError):
    """Composition slot colour does not match the output colour plugged in."""


class LabelOutOfRange(StringError):
    """A label argument does not name an input slot of the string."""


class Colour(NamedTuple):
    """A cosimplicial colour: a level ``index`` plus a closed/open flag."""

    index: int
    open: bool

    def __str__(self) -> str:
        return ("u" if self.open else "") + str(self.index)


@dataclass(frozen=True, slots=True)
class IntegerString:
    """An integer-string: a token tuple plus the output open/closed tag."""

    tokens: tuple[int, ...]
    output_open: bool

    def __post_init__(self) -> None:
        _validate(self.tokens, self.output_open)

    def __str__(self) -> str:
        return text(self)


def _validate(tokens: Sequence[int], output_open: bool) -> None:
    seen_open: dict[int, bool] = {}
    for t in tokens:
        if t == BAR:
            continue
        label, opn = abs(t), t < 0
        if label in seen_open:
            if seen_open[label] != opn:
                raise MixedDecoration(f"label {label} is both open and closed")
        else:
            seen_open[label] = opn
    labels = sorted(seen_open)
    if labels != list(range(1, len(labels) + 1)):
        raise MissingLabel(f"labels {labels} are not exactly 1..k")
    if not output_open and any(seen_open.values()):
        raise ClosedOutputWithOpenLetter(
            "closed output is incompatible with open letters"
        )


_SHELL = re.compile(r"^\((?P<body>[^()]*)\)\^(?P<tag>[co])$")
# a label from 10 on; labels 1-9 are single digits
_BRACED = re.compile(r"\{([1-9][0-9]+)\}")
# the text of the bar and of each letter with a label 1-9
_TOKEN_TEXT = {
    BAR: "|",
    **{a: str(a) for a in range(1, 10)},
    **{-a: f"u{a}" for a in range(1, 10)},
}


def parse(source: str) -> IntegerString:
    """Parse canonical text like ``"(1u2|u211||u21)^o"`` (whitespace ignored).

    Labels 1-9 are single digits; labels from 10 on are braced, as in
    ``{10}`` or ``u{12}``.
    """
    compact = "".join(source.split())
    match = _SHELL.match(compact)
    if match is None:
        raise UnknownToken(f"not of the form '(...)^c' or '(...)^o': {source!r}")
    tokens: list[int] = []
    body = match.group("body")
    pos = 0
    while pos < len(body):
        ch = body[pos]
        if ch == "|":
            tokens.append(BAR)
            pos += 1
            continue
        opn = ch == "u"
        if opn:
            pos += 1
            ch = body[pos : pos + 1]
        if "1" <= ch <= "9":
            label = int(ch)
            pos += 1
        elif ch == "0":
            raise UnknownToken("label 0 is not allowed")
        else:
            braced = _BRACED.match(body, pos)
            if braced is None:
                raise UnknownToken(
                    f"'u' not followed by a label at {pos - 1}"
                    if opn
                    else f"unexpected character {ch!r} at {pos}"
                )
            label = int(braced.group(1))
            pos = braced.end()
        tokens.append(-label if opn else label)
    return IntegerString(tuple(tokens), match.group("tag") == "o")


def text(x: IntegerString) -> str:
    """Canonical text of ``x``; inverse of :func:`parse`."""
    table = _TOKEN_TEXT
    body = "".join(
        [
            table[t] if t in table else f"u{{{-t}}}" if t < 0 else f"{{{t}}}"
            for t in x.tokens
        ]
    )
    return "(" + body + (")^o" if x.output_open else ")^c")


@lru_cache(maxsize=1 << 18)
def arity(x: IntegerString) -> int:
    return len({abs(t) for t in x.tokens if t != BAR})


def occurrences(x: IntegerString, i: int) -> int:
    return sum(1 for t in x.tokens if t != BAR and abs(t) == i)


@lru_cache(maxsize=1 << 18)
def colours(x: IntegerString) -> tuple[tuple[Colour, ...], Colour]:
    """Input colours (occurrences minus one, per label) and output colour."""
    counts: dict[int, int] = {}
    opens: dict[int, bool] = {}
    bars = 0
    for t in x.tokens:
        if t == BAR:
            bars += 1
        else:
            label = abs(t)
            counts[label] = counts.get(label, 0) + 1
            opens[label] = t < 0
    inputs = tuple(
        Colour(counts[i] - 1, opens[i]) for i in range(1, len(counts) + 1)
    )
    return inputs, Colour(bars, x.output_open)


_set_tokens = IntegerString.__dict__["tokens"].__set__
_set_output_open = IntegerString.__dict__["output_open"].__set__


def _unchecked(tokens: tuple[int, ...], output_open: bool) -> IntegerString:
    """Build an IntegerString without re-running validation, setting its
    fields through the class's slots.

    Only for internal use on token tuples that are valid by construction."""
    s = object.__new__(IntegerString)
    _set_tokens(s, tokens)
    _set_output_open(s, output_open)
    return s


def _top_label(tokens: tuple[int, ...]) -> int:
    """The largest label among ``tokens``: the arity, since the labels of a
    valid string are exactly 1..k."""
    k = 0
    for t in tokens:
        if t > k:
            k = t
        elif -t > k:
            k = -t
    return k


def compose(f: IntegerString, i: int, g: IntegerString) -> IntegerString:
    """Operadic composition ``f o_i g`` by segment substitution.

    The bars of ``g`` cut its letters into segments; the r-th segment
    replaces the r-th occurrence of letter ``i`` in ``f``, after the usual
    relabelling of both factors.
    """
    # the labels of a valid string are exactly 1..k, so i is a slot exactly
    # when i >= 1 occurs, as a closed or an open letter; the arity is the
    # largest label (_top_label), needed only for the message
    ft = f.tokens
    slot_occ = ft.count(i) if i > 0 else 0
    slot_open = not slot_occ
    if slot_open:
        slot_occ = ft.count(-i) if i > 0 else 0
        if not slot_occ:
            raise LabelOutOfRange(f"slot {i} not in 1..{_top_label(ft)}")
    up = i - 1
    lg = 0
    seg: list[int] = []
    segs = [seg]
    for t in g.tokens:
        if t == BAR:
            seg = []
            segs.append(seg)
        elif t > 0:
            if t > lg:
                lg = t
            seg.append(t + up)
        else:
            if -t > lg:
                lg = -t
            seg.append(t - up)
    if len(segs) != slot_occ or g.output_open != slot_open:
        raise ColourMismatch(
            f"slot {i} has colour {Colour(slot_occ - 1, slot_open)}, "
            f"got output colour {Colour(len(segs) - 1, g.output_open)}"
        )
    down = lg - 1
    result: list[int] = []
    r = 0
    for t in ft:
        if t == i or t == -i:
            result += segs[r]
            r += 1
        elif -i < t < i:
            result.append(t)
        else:
            result.append(t + down if t > 0 else t - down)
    return _unchecked(tuple(result), f.output_open)


def sym_act(sigma: Sequence[int], x: IntegerString) -> IntegerString:
    """Left symmetric action: relabel letter ``i`` to ``sigma[i-1]``.

    Token order and openness flags are unchanged.
    """
    k = _top_label(x.tokens)
    if len(sigma) != k or sorted(sigma) != list(range(1, k + 1)):
        raise StringError(f"{sigma!r} is not a permutation of 1..{k}")
    relabel = (BAR, *sigma)
    tokens = [relabel[t] if t >= 0 else -relabel[-t] for t in x.tokens]
    return _unchecked(tuple(tokens), x.output_open)


def block_perm(sigma: Sequence[int], i: int, l: int) -> list[int]:
    """Permutation of ``1..k+l-1`` induced by ``sigma`` on ``1..k`` when the
    letter ``i`` is replaced by a block of ``l`` consecutive letters.

    Satisfies the equivariance law

    ``sym_act(block_perm(sigma, i, l), compose(f, i, g))
      == compose(sym_act(sigma, f), sigma[i-1], g)``

    for ``f`` of arity ``k`` and ``g`` of arity ``l``.
    """
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise StringError(f"{sigma!r} is not a permutation of 1..{k}")
    if not 1 <= i <= k:
        raise StringError(f"slot {i} out of range for arity {k}")
    si = sigma[i - 1]
    tau = [0] * (k + l - 1)
    for a in range(1, k + 1):
        if a == i:
            continue
        src = a if a < i else a + l - 1
        tgt = sigma[a - 1] if sigma[a - 1] < si else sigma[a - 1] + l - 1
        tau[src - 1] = tgt
    for b in range(1, l + 1):
        tau[i + b - 2] = si + b - 1
    return tau


def _require_labels(x: IntegerString, i: int, j: int) -> None:
    if not (1 <= i < j <= arity(x)):
        raise LabelOutOfRange(f"need labels i < j of the string, got {i},{j}")


def c_count(x: IntegerString, i: int, j: int) -> int:
    """Direction changes of the {i,j}-projection (blocks minus one)."""
    _require_labels(x, i, j)
    blocks = 0
    prev = None
    for t in x.tokens:
        if t == BAR or abs(t) not in (i, j):
            continue
        if abs(t) != prev:
            blocks += 1
            prev = abs(t)
    return blocks - 1


def _first_occurrence(x: IntegerString, i: int) -> int:
    for pos, t in enumerate(x.tokens):
        if t != BAR and abs(t) == i:
            return pos
    raise LabelOutOfRange(f"label {i} absent")


def _is_open(x: IntegerString, i: int) -> bool:
    for t in x.tokens:
        if t != BAR and abs(t) == i:
            return t < 0
    raise LabelOutOfRange(f"label {i} absent")


def _mixed_count(x: IntegerString, i: int, j: int, primed: bool) -> int:
    _require_labels(x, i, j)
    base = c_count(x, i, j)
    oi, oj = _is_open(x, i), _is_open(x, j)
    if oi == oj:
        return base
    open_first = (_first_occurrence(x, i) < _first_occurrence(x, j)) == oi
    return base + (open_first != primed)


def c_prime(x: IntegerString, i: int, j: int) -> int:
    """Mixed-pair complexity: ``c`` plus one when the open label of a mixed
    pair occurs first.

    For a same-openness pair this coincides with :func:`c_count`.
    """
    return _mixed_count(x, i, j, primed=False)


def c_dbl_prime(x: IntegerString, i: int, j: int) -> int:
    """Variant mixed-pair complexity: ``c`` plus one when the closed label
    of a mixed pair occurs first."""
    return _mixed_count(x, i, j, primed=True)


@lru_cache(maxsize=64)
def _pair_slots(size: int) -> tuple[tuple[int, ...], ...]:
    """``slot[a][b]``: the index of the pair {a, b} of labels 1..size-1 in
    ``itertools.combinations`` order (row and column 0 unused)."""
    slot = [[0] * size for _ in range(size)]
    for r, (i, j) in enumerate(combinations(range(1, size), 2)):
        slot[i][j] = slot[j][i] = r
    return tuple(map(tuple, slot))


def _pair_levels(tokens: tuple[int, ...]) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """One walk over a whole word: each label's openness, and the signed
    direction changes of each pair of labels i < j, in
    ``itertools.combinations`` order, positive when j occurs first.

    The pair rule: when ``a`` occurs, the pair {a, b} changes direction for
    every ``b`` that occurred since ``a`` last did.  When ``a`` is new that
    is every ``b`` seen so far: the change activates the pair, with ``b``
    as its first label.  A repeated letter, even across a bar, moves no
    pair.  Summed over the word this is :func:`c_count`, at least one on
    every pair.  ``graphs.q`` stores exactly these levels;
    :class:`_PairWalk` applies the same rule one letter at a time.
    """
    size = _top_label(tokens) + 1
    slot = _pair_slots(size)
    # last[b]: the position of the latest b, or -1 before it occurs
    last = [-1] * size
    opens = [False] * size
    levels = [0] * ((size - 1) * (size - 2) // 2)
    prev = BAR
    for pos, t in enumerate(tokens):
        if t == BAR or t == prev:
            continue
        prev = t
        a = t if t > 0 else -t
        old = last[a]
        row = slot[a]
        if old < 0:
            opens[a] = t < 0
            for b, p in enumerate(last):
                if p >= 0:
                    levels[row[b]] = 1 if b > a else -1
        else:
            for b, p in enumerate(last):
                if p > old:
                    r = row[b]
                    lev = levels[r]
                    levels[r] = lev + 1 if lev > 0 else lev - 1
        last[a] = pos
    return tuple(opens[1:]), tuple(levels)


def _within_limits(
    limit: tuple[tuple[int, int], tuple[int, int]],
    opens: tuple[bool, ...],
    levels: tuple[int, ...],
) -> bool:
    """Whether each pair's changes are within ``limit`` (a
    :func:`_pair_limits` table), given the openness of each label and the
    signed levels of :func:`_pair_levels`: the pair's first label, the one
    its sign names, picks the table's row."""
    for (oi, oj), lev in zip(combinations(opens, 2), levels):
        if (lev > limit[oj][oi]) if lev > 0 else (-lev > limit[oi][oj]):
            return False
    return True


@lru_cache(maxsize=64)
def _pair_limits(m: int, variant: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The most direction changes allowed to a pair of labels, as
    ``limit[first label open][second label open]``: ``m - 1`` when both
    labels are open, or when they are mixed and (the first label is open)
    differs from (the variant is ``primed-variant``), else ``m``.  This is
    the bound ``m`` on :func:`c_prime` (or :func:`c_dbl_prime`) moved onto
    :func:`c_count`.  The table is immutable, so one table per (m, variant)
    is shared by every caller."""
    if m < 1:
        raise ValueError("filtration level m must be >= 1")
    if variant not in ("standard", "primed-variant"):
        raise ValueError(f"unknown filtration variant {variant!r}")
    primed = variant == "primed-variant"
    return tuple(
        tuple(m - ((f and s) or (f != s and f != primed)) for s in (False, True))
        for f in (False, True)
    )


class _PairWalk:
    """A word of signed letters grown and shrunk one letter at a time, with
    the filtration state of every pair of labels ``1..k``.

    A pair becomes active when its second label first occurs, and its limit
    on direction changes (:func:`_pair_limits`) is fixed then.
    """

    def __init__(self, k: int, m: int, variant: str) -> None:
        self.limit = _pair_limits(m, variant)
        self.k = k
        # indexed by label, entry 0 unused
        self.open = [False] * (k + 1)
        # the labels that occurred, by last occurrence: a pair's projection
        # ends in whichever of its labels comes later
        self.order: list[int] = []
        # limit minus changes so far, never negative
        self.room = [[0] * (k + 1) for _ in range(k + 1)]
        # per label b, the pairs (b, c) with no room left and c after b in
        # ``order``: b cannot occur again while one remains, since it would
        # move c, and only an occurrence of b puts c before b
        self.blocked = [0] * (k + 1)
        self.word: list[int] = []
        self._undo: list[tuple[int, list[int]]] = []

    def push(self, t: int) -> bool:
        """Append the letter ``t`` if every pair stays within its limit, and
        report whether it did."""
        a = abs(t)
        if self.blocked[a]:
            return False
        order, room, blocked = self.order, self.room, self.blocked
        row = room[a]
        # the pair rule of _pair_levels: b moves when it occurred last after a
        if a in order:
            i = order.index(a)
            moved = order[i + 1 :]
        else:
            i, moved = -1, order[:]
            oa = self.open[a] = t < 0
            for b in moved:
                row[b] = room[b][a] = self.limit[self.open[b]][oa]
                if not row[b]:
                    return False
        for b in moved:
            row[b] = room[b][a] = row[b] - 1
            if not row[b]:
                blocked[b] += 1
        if i >= 0:
            del order[i]
        order.append(a)
        self._undo.append((i, moved))
        self.word.append(t)
        return True

    def pop(self) -> None:
        """Remove the last letter."""
        a = abs(self.word.pop())
        i, moved = self._undo.pop()
        order, room = self.order, self.room
        order.pop()
        if i >= 0:
            order.insert(i, a)
        row = room[a]
        for b in moved:
            if not row[b]:
                self.blocked[b] -= 1
            row[b] = room[b][a] = row[b] + 1

    def words(
        self, letters: Sequence[int], counts: list[int] | None = None
    ) -> Iterator[tuple[int, ...]]:
        """The extensions of the word by ``letters`` inside the filtration:
        with ``counts``, those with exactly ``counts[a]`` more ``letters[a]``;
        without, the nondegenerate ones that use every label (finitely many,
        since each repeated label moves some pair).  Depth first, each word
        before its extensions, letters tried in the order given."""
        word, order = self.word, self.order

        def done() -> bool:
            return len(order) == self.k if counts is None else not any(counts)

        if done():
            yield tuple(word)
        # per letter pushed by this walk, and one for the starting word: the
        # index in ``letters`` of the next letter to try after it
        tries = [0]
        while tries:
            a = tries[-1]
            if a == len(letters):
                tries.pop()
                if tries:
                    self.pop()
                    if counts is not None:
                        counts[tries[-1] - 1] += 1
                continue
            tries[-1] = a + 1
            t = letters[a]
            free = counts[a] if counts is not None else not word or word[-1] != t
            if free and self.push(t):
                if counts is not None:
                    counts[a] -= 1
                if done():
                    yield tuple(word)
                tries.append(0)


def in_filtration(x: IntegerString, m: int, variant: str = "standard") -> bool:
    """Membership in the m-th filtration stage.

    Closed pairs need complexity <= m, open pairs <= m-1, and mixed pairs
    use the adjusted counter (``variant="primed-variant"`` picks the
    swapped-case counter) with bound m.  Bars never change the verdict.
    This is the preimage under ``graphs.q`` of the graph filtration: the
    same levels, checked against the same table.
    """
    return _within_limits(_pair_limits(m, variant), *_pair_levels(x.tokens))


def identity_string(colour: Colour) -> IntegerString:
    """The identity of a colour: the alternating unary string ``1|1|...|1``."""
    letter = -1 if colour.open else 1
    tokens: list[int] = [letter]
    for _ in range(colour.index):
        tokens.extend((BAR, letter))
    return IntegerString(tuple(tokens), colour.open)


@dataclass(frozen=True, slots=True)
class MonotoneMap:
    """A weakly monotone map [n] -> [m], given by its n+1 values."""

    n: int
    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.n + 1:
            raise ValueError("need n+1 values")
        if any(not 0 <= v <= self.m for v in self.values):
            raise ValueError("values out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values not weakly increasing")


def joyal_to_string(
    psi: MonotoneMap, input_open: bool = False, output_open: bool = False
) -> IntegerString:
    """The unary string of colour pair (n; m) dual to ``psi: [n] -> [m]``.

    The t-th bar is placed after ``#{s : psi(s) < t}`` letters: in closed
    form, ``psi(s)`` bars go before the s-th letter and ``m - psi(n)`` after
    the last.
    """
    if input_open and not output_open:
        raise ClosedOutputWithOpenLetter("no unary strings from open to closed")
    letter = -1 if input_open else 1
    tokens: list[int] = []
    bars = 0
    for v in psi.values:
        tokens += [BAR] * (v - bars) + [letter]
        bars = v
    tokens += [BAR] * (psi.m - bars)
    return IntegerString(tuple(tokens), output_open)


def string_to_joyal(x: IntegerString) -> MonotoneMap:
    """Inverse of :func:`joyal_to_string` on unary strings: ``psi(s)`` is
    the number of bars before the s-th letter, read in one pass."""
    if arity(x) != 1:
        raise LabelOutOfRange("duality applies to unary strings only")
    values = []
    bars = 0
    for t in x.tokens:
        if t == BAR:
            bars += 1
        else:
            values.append(bars)
    return MonotoneMap(len(values) - 1, bars, tuple(values))


# The most strings enumerate_strings builds.  On a shared 2-vCPU x86-64
# machine 139,920 strings (c2,c2,c2:c3 at m=3) take 0.6 s and 55 MB, and
# c3,c3,c3:c5 at m=3 (15,853,656 strings, 105 s and 5 GB) is refused in
# 0.01 s.  Bar-free words are walked one string each, so c3,c3,c3,c3:c0 at
# m=3 reaches the limit only after 5 s.
MAX_STRINGS = 250_000


def enumerate_strings(
    input_colours: Sequence[Colour],
    output_colour: Colour,
    m: int,
    variant: str = "standard",
) -> list[IntegerString]:
    """All filtration-m strings with the given colours, in canonical text
    order.  Raises ValueError when there are more than ``MAX_STRINGS``."""
    for a, c in enumerate(input_colours, start=1):
        if c.index < 0:
            raise ValueError(f"input colour {a} {c!r} has a negative index")
    if output_colour.index < 0:
        raise ValueError(f"output colour {output_colour!r} has a negative index")
    walk = _PairWalk(len(input_colours), m, variant)  # checks m and variant
    if not output_colour.open and any(c.open for c in input_colours):
        return []
    letters = [-a if c.open else a for a, c in enumerate(input_colours, start=1)]
    counts = [c.index + 1 for c in input_colours]
    bars = output_colour.index
    # every word has sum(counts) letters, and each placement of the bars
    # makes one string; the words are counted before any string is built
    per_word = comb(sum(counts) + bars, bars)
    words = []
    for word in walk.words(letters, counts):
        words.append(word)
        if len(words) * per_word > MAX_STRINGS:
            raise ValueError(
                f"the colours give more than {MAX_STRINGS} strings at m={m}, "
                f"the enumeration limit"
            )
    found = []
    for word in words:
        for cut in combinations(range(len(word) + bars), bars):
            tokens = list(word)
            for p in cut:
                tokens.insert(p, BAR)
            found.append(IntegerString(tuple(tokens), output_colour.open))
    found.sort(key=text)
    return found


def small_strings(max_tokens: int, max_labels: int, m: int) -> list[IntegerString]:
    """All filtration-``m`` strings with at most ``max_tokens`` tokens and
    ``max_labels`` labels, over every admissible colour signature."""
    out = []
    for k in range(1, max_labels + 1):
        for idxs in product(range(max_tokens), repeat=k):
            occ = k + sum(idxs)
            if occ > max_tokens:
                continue
            for bars in range(max_tokens - occ + 1):
                for opens in product((False, True), repeat=k):
                    for out_open in (False, True):
                        if any(opens) and not out_open:
                            continue
                        ins = [Colour(i, o) for i, o in zip(idxs, opens)]
                        out.extend(enumerate_strings(ins, Colour(bars, out_open), m))
    return out


def by_output(elems) -> dict[Colour, list[IntegerString]]:
    """Group strings by output colour for composability lookups."""
    table: dict[Colour, list[IntegerString]] = {}
    for g in elems:
        _, out = colours(g)
        table.setdefault(out, []).append(g)
    return table
