"""Relative surjection dg-operad over the integers.

Basis elements are bar-free nondegenerate surjective strings; the homological
degree is (length - number of labels).  The differential deletes single letter
occurrences, composition substitutes one surjection into a slot of another
after cutting it with bar-insertion maps, and each component (fixed openness
pattern) is a finite chain complex whose homology is computed exactly.

Sign conventions:

- differential: deleting the j-th occurrence (0-based) of label i carries
  the sign (-1)^{n_1 + ... + n_{i-1} + j} where n_l = occurrences(l) - 1;
- composition f o_i g: the prefactor (-1)^{deg(g) * (n_{i+1}+...+n_k)}
  times the sign of each cut pattern of g (Berger-Fresse).  Cut g with n_i
  bars; tag the copy just before the c-th bar as cut c, and the last copy
  of each caesura of g (a letter occurrence that is not the last of its
  label) by its rank among g's caesuras in (label, position) order.  Read
  in (label, position) order, as the differential reads, the tags permute
  cuts 1..n_i followed by the caesuras by rank, and the pattern's sign is
  that permutation's.  With no cut it is +1.

Verified mechanically over Z: the squared differential vanishes, the
Leibniz rule holds on every composable triple of the arity <= 3 basis at
m=2 and on seeded samples at m=3, sequential and parallel associativity
(with the Koszul sign (-1)^{deg(g) deg(h)}) hold on seeded samples, and the
unit laws hold.

Equivariance over Z: a permutation sigma acts on a basis element u as
sigma * u = eps(sigma, u) (sigma . u), where sigma . u relabels (``sym_act``)
and eps(sigma, u) is the sign of the permutation that reorders the caesuras
of u from (label, position) order to (sigma(label), position) order.  With
this sign, d(sigma * u) = sigma * d(u), and
rs_compose(sigma * f, sigma(i), g) = tau * rs_compose(f, i, g) with
tau = ``block_perm(sigma, i, arity(g))``; likewise
rs_compose(f, i, r * g) = rho * rs_compose(f, i, g), where rho permutes the
block of labels i..i+arity(g)-1 as r permutes 1..arity(g) and fixes the
others.  Checked exhaustively on the arity <= 3 basis at m=2 for d and, for
rs_compose, for the adjacent transpositions; on seeded samples over all of
S_k at m=2 and m=3.  Plain relabelling does not commute with d.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, permutations, product

from .chains import (
    ChainComplex,
    LinComb,
    _rank_and_torsion,
    _reduced,
    build_complex,
    homology_all,
)
from .strings import (
    BAR,
    ColourMismatch,
    IntegerString,
    _PairWalk,
    _set_output_open,
    _set_tokens,
    _top_label,
    arity,
    colours,
    compose,
    parse,
    sym_act,
    text,
)
from .strings import _unchecked as _unchecked_string

__all__ = [
    "Surjection",
    "BarredClass",
    "differential",
    "linear_differential",
    "vartheta",
    "rs_compose",
    "generators",
    "is_generated_up_to",
    "enumerate_component",
    "component_complex",
    "component_homology",
]


@dataclass(frozen=True, slots=True)
class BarredClass:
    """A normalized-chain class: bars allowed, no adjacent equal letters
    without a bar between them."""

    underlying: IntegerString

    def __post_init__(self) -> None:
        if not _nondegenerate(self.underlying.tokens):
            raise ValueError("degenerate string: adjacent equal letters")

    # the token tuple alone, hashed in one frame: equal values have equal
    # tokens, and an open- and a closed-output string with the same tokens
    # share a hash and stay unequal
    def __hash__(self) -> int:
        return hash(self.underlying.tokens)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({text(self.underlying)})"


# eq=False and repr=False keep the inherited __eq__, which requires the same
# class on both sides, the token hash and the repr
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Surjection(BarredClass):
    """A bar-free nondegenerate surjective string (a chain-level basis
    element): a normalized class without bars."""

    def __post_init__(self) -> None:
        if any(t == BAR for t in self.underlying.tokens):
            raise ValueError("a basis surjection has no bars")
        # by name: zero-argument super() fails in a slotted dataclass
        BarredClass.__post_init__(self)

    @property
    def degree(self) -> int:
        tokens = self.underlying.tokens
        return len(tokens) - _top_label(tokens)


def _nondegenerate(tokens) -> bool:
    prev = None
    for t in tokens:
        if t == BAR:
            prev = None
        elif t == prev:
            return False
        else:
            prev = t
    return True


def _unwrap(u) -> IntegerString:
    if isinstance(u, BarredClass):
        return u.underlying
    return u


def _unchecked(cls, x: IntegerString):
    """Wrap ``x`` in ``cls`` (``Surjection`` or ``BarredClass``) without
    re-running its checks, setting the field through the slot.

    The slot is looked up on ``cls``: before Python 3.11 a slotted dataclass
    subclass declares its own ``underlying`` slot, which hides the base one.
    Only for internal use on strings that are valid by construction."""
    s = object.__new__(cls)
    cls.underlying.__set__(s, x)
    return s


def differential(u) -> LinComb:
    """Signed sum of single-occurrence deletions; degenerate results and
    deletions of a label's unique occurrence are dropped.

    A raw string with two equal adjacent letters (no bar between them) gives
    0: a deletion keeps such a pair or removes one letter of the only pair,
    and those two deletions cancel.  On any other input a deletion is
    degenerate exactly when it joins two equal letters, and no two deletions
    agree, so the +-1 terms go straight into the dict, wrapped like ``u``."""
    x = _unwrap(u)
    tokens = x.tokens
    if x is u and not _nondegenerate(tokens):
        return LinComb()
    where: dict[int, list[int]] = {}
    for pos, t in enumerate(tokens):
        if t != BAR:
            where.setdefault(t if t > 0 else -t, []).append(pos)
    out_open = x.output_open
    wrap = type(u)
    # the slot of type(u) (see _unchecked); None: a raw string
    set_underlying = wrap.underlying.__set__ if x is not u else None
    new = object.__new__
    end = len(tokens) - 1
    terms = {}
    prefix = 0  # n_1 + ... + n_{i-1}
    for i in range(1, len(where) + 1):
        found = where[i]
        if len(found) < 2:
            continue
        sign = -1 if prefix & 1 else 1
        for pos in found:
            if not (0 < pos < end and tokens[pos - 1] == tokens[pos + 1] != BAR):
                # deleting one of >= 2 occurrences keeps labels and openness
                y = new(IntegerString)
                _set_tokens(y, tokens[:pos] + tokens[pos + 1 :])
                _set_output_open(y, out_open)
                if set_underlying is not None:
                    s = new(wrap)
                    set_underlying(s, y)
                    y = s
                terms[y] = sign
            sign = -sign
        prefix += len(found) - 1
    return _reduced(terms)


def linear_differential(v: LinComb) -> LinComb:
    """The differential extended linearly to a combination of basis elements."""
    return LinComb((t, c * ct) for b, c in v for t, ct in differential(b))


def vartheta(T, n: int) -> LinComb:
    """All ways of adding ``n`` bars by cutting letter occurrences in two
    (the inverse of the rewrite a|a -> a), each with coefficient +1.

    A raw degenerate string raises once (each cut keeps its equal pair); the
    cuts of any other are nondegenerate and distinct, and wrapped unchecked."""
    x = _unwrap(T)
    if any(t == BAR for t in x.tokens):
        raise ValueError("bar insertion starts from a bar-free string")
    if n < 0:
        raise ValueError("bar count must be nonnegative")
    if x is T and not _nondegenerate(x.tokens):
        raise ValueError("degenerate string: adjacent equal letters")
    return _reduced(
        {_unchecked(BarredClass, y): 1 for _, y in _vartheta_terms(x, n)}
    )


def _vartheta_terms(x: IntegerString, n: int):
    """Yield (cuts, barred string); cuts[p] bars split occurrence p."""
    word = x.tokens
    if not word:
        if n == 0:
            yield (), x
        return
    for cuts in _compositions(n, len(word)):
        tokens = []
        for p, t in enumerate(word):
            tokens.append(t)
            for _ in range(cuts[p]):
                tokens.append(BAR)
                tokens.append(t)
        # cutting occurrences keeps labels and openness
        yield cuts, _unchecked_string(tuple(tokens), x.output_open)


def _cut_sign(word, cuts) -> int:
    """The sign of the cut pattern ``cuts`` of the bar-free ``word``, by the
    rule in the module docstring.  Cut c has the key c - 1; the caesuras are
    read in rank order, so one key above every cut, n, stands for them all."""
    bars_before = list(accumulate(cuts, initial=0))
    n = bars_before[-1]
    last = {abs(t): p for p, t in enumerate(word)}
    tags = []
    for p in sorted(range(len(word)), key=lambda p: (abs(word[p]), p)):
        tags.extend(range(bars_before[p], bars_before[p + 1]))
        if last[abs(word[p])] != p:
            tags.append(n)
    inversions = sum(a > b for a, b in combinations(tags, 2))
    return -1 if inversions & 1 else 1


def _compositions(n: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``n``, in
    lexicographic order.

    Stars and bars: each tuple is read off one choice of ``parts - 1`` bar
    places among ``n + parts - 1``, and the choices come in lexicographic
    order, which is the order of their tuples."""
    last = n + parts - 2
    for places in combinations(range(last + 1), parts - 1):
        counts = []
        prev = -1
        for place in places:
            counts.append(place - prev - 1)
            prev = place
        counts.append(last - prev)
        yield tuple(counts)


def rs_compose(f, i: int, g) -> LinComb:
    """Substitute ``g`` into slot ``i`` of ``f`` through the bar-insertion sum.

    Degeneracy is decided once, at the input: a raw ``f`` or ``g`` with two
    equal adjacent letters (no bar between them) gives 0, since every
    composite keeps the pair.  For nondegenerate ``f`` and nonempty bar-free
    ``g``, each cut pattern gives a nondegenerate composite, distinct from
    the others, since the letters of ``f`` between the slot's occurrences
    keep the segments apart.  ``compose`` still runs, and rejects a barred
    ``g``, before a zero is returned."""
    fx, gx = _unwrap(f), _unwrap(g)
    # one pass over f: as in strings._top_label, the arity is the largest
    # label, and labels i+1..k occur ``above`` times in all
    k = slot_occ = above = 0
    slot_open = has_bar = False
    for t in fx.tokens:
        if t == BAR:
            has_bar = True
            continue
        a = t if t > 0 else -t
        if a > k:
            k = a
        if a > i:
            above += 1
        elif a == i:
            slot_occ += 1
            slot_open = t < 0
    if not 1 <= i <= k:
        raise ValueError(f"slot {i} out of range for arity {k}")
    if gx.output_open != slot_open:
        raise ColourMismatch(
            f"slot {i} is {'open' if slot_open else 'closed'}, argument is not"
        )
    suffix = above - (k - i)  # n_{i+1} + ... + n_k
    r = len(gx.tokens) - _top_label(gx.tokens)  # degree of the bar-free argument
    prefactor = -1 if (r * suffix) & 1 else 1
    n = slot_occ - 1
    # a single occurrence inserts no bar: the one composite, with no cut
    patterns = _vartheta_terms(gx, n) if n else (((), gx),)
    t = fx.tokens
    degenerate = (fx is f and not _nondegenerate(t)) or (
        gx is g and not _nondegenerate(gx.tokens)
    )
    if not gx.tokens and not n:  # an empty g joins the slot's neighbours
        p = t.index(-i if slot_open else i)
        degenerate = degenerate or 0 < p < len(t) - 1 and t[p - 1] == t[p + 1] != BAR
    terms = {}
    for cuts, barred in patterns:
        h = compose(fx, i, barred)
        if degenerate:
            return LinComb()
        # an f with bars is no basis element: its composites keep the bars,
        # and the checked constructor rejects them
        s = Surjection(h) if has_bar else _unchecked(Surjection, h)
        terms[s] = prefactor * _cut_sign(gx.tokens, cuts) if n else prefactor
    return _reduced(terms)


# ---------------------------------------------------------------------------
# generators


def generators(max_labels: int = 3) -> list[Surjection]:
    """The standard generating set at filtration level 2: units, the closed
    product and brace strings (12), (121), (12131), ..., their open
    analogues, and the colour-changing inclusion (1)^o.

    The level is fixed at 2: the set is tabulated for that level only."""
    gens = [parse("(1)^c"), parse("(u1)^o"), parse("(1)^o"), parse("(12)^c"), parse("(u1u2)^o")]
    for k in range(2, max_labels + 1):
        closed = [1]
        mixed = [1]
        for t in range(2, k + 1):
            closed += [t, 1]
            mixed += [-t, 1]
        gens.append(IntegerString(tuple(closed), False))
        gens.append(IntegerString(tuple(mixed), True))
    return [Surjection(x) for x in gens]


def _canonical_sign(v: LinComb) -> LinComb:
    """Normalize a combination so its lexicographically first term is positive."""
    if not v:
        return v
    first = min(v.terms, key=lambda s: (text(s.underlying)))
    return v if v.terms[first] > 0 else -v


def _caesura_sign(sigma, tokens: tuple[int, ...]) -> int:
    """eps(sigma, u) of the module docstring for u with these tokens: the
    sign of reordering u's caesuras from (label, position) to
    (sigma(label), position) order.  Each label's caesuras keep their
    order, so this moves whole blocks, n_a = occurrences(a) - 1 caesuras
    of label a: (-1)^(n_a n_b) for each a < b with sigma(a) > sigma(b)."""
    n = [-1] * (len(sigma) + 1)
    for t in tokens:
        n[t if t > 0 else -t] += 1
    odd = sum(
        n[a] * n[b]
        for a, b in combinations(range(1, len(sigma) + 1), 2)
        if sigma[a - 1] > sigma[b - 1]
    )
    return -1 if odd % 2 else 1


def _signed_act(sigma, v: LinComb) -> LinComb:
    """The action sigma * u = eps(sigma, u) (sigma . u) of the module
    docstring, extended linearly to ``v``."""
    return LinComb(
        (
            Surjection(sym_act(sigma, s.underlying)),
            c * _caesura_sign(sigma, s.underlying.tokens),
        )
        for s, c in v
    )


def is_generated_up_to(max_labels: int = 3, max_length: int = 6) -> dict:
    """Close the generators under composition and the signed action
    (:func:`_signed_act`, relabelling with the caesura sign), then check
    that the resulting combinations span every component over the integers,
    at filtration level 2, the one level :func:`generators` covers.

    The closure is a worklist: each combination, when first reached, is
    relabelled by every permutation and composed in both orders with every
    combination reached before it and with itself; a composite with a term
    of more than ``max_labels`` labels or ``max_length`` tokens is dropped.

    Returns a report with, per component within the bound, the component
    dimension and whether the lattice spanned by reachable combinations is
    the full basis lattice (established by Smith normal form).
    """
    reachable: list[LinComb] = []
    seen: set = set()

    def reach(v: LinComb) -> None:
        if v and v not in seen:
            seen.add(v)
            reachable.append(v)

    def composites(v: LinComb, w: LinComb):
        sv, sw = next(iter(v.terms)).underlying, next(iter(w.terms)).underlying
        if (
            arity(sv) + arity(sw) - 1 > max_labels
            or len(sv.tokens) + len(sw.tokens) - 1 > max_length
        ):
            return
        for i in range(1, arity(sv) + 1):
            try:
                comp = _compose_linear(v, i, w)
            except ColourMismatch:
                continue
            if all(
                arity(s.underlying) <= max_labels
                and len(s.underlying.tokens) <= max_length
                for s in comp.terms
            ):
                yield _canonical_sign(comp)

    for gen in generators(max_labels):
        reach(_canonical_sign(LinComb.unit(gen)))
    for k, v in enumerate(reachable):  # grows while it is walked
        labels = range(1, arity(next(iter(v.terms)).underlying) + 1)
        for sigma in permutations(labels):
            reach(_canonical_sign(_signed_act(sigma, v)))
        for w in reachable[: k + 1]:
            for comp in (*composites(v, w), *composites(w, v)):
                reach(comp)

    report: dict = {"components": {}, "all_spanned": True}
    for k in range(1, max_labels + 1):
        for opens in product([False, True], repeat=k):
            for out_open in ([True] if any(opens) else [False, True]):
                basis = [
                    s
                    for s in enumerate_component(opens, out_open, 2)
                    if len(s.underlying.tokens) <= max_length
                ]
                if not basis:
                    continue
                index = {s: t for t, s in enumerate(basis)}
                vectors = [
                    {index[s]: c for s, c in v}
                    for v in reachable
                    if all(s in index for s in v.terms)
                    and _component_of(next(iter(v.terms))) == (tuple(opens), out_open)
                ]
                # the rows span Z^dim: rank dim and no torsion
                spanned = _rank_and_torsion(vectors) == (len(basis), [])
                key = _component_name(opens, out_open)
                report["components"][key] = {
                    "dimension": len(basis),
                    "spanned": spanned,
                }
                if not spanned:
                    report["all_spanned"] = False
    report["reachable"] = len(reachable)
    return report


def _component_of(s: Surjection):
    ins, out = colours(s.underlying)
    return tuple(c.open for c in ins), out.open


def _component_name(opens, out_open) -> str:
    return ",".join("o" if o else "c" for o in opens) + ":" + ("o" if out_open else "c")


def _compose_linear(v: LinComb, i: int, w: LinComb) -> LinComb:
    return LinComb(
        (t, cx * cy * ct)
        for x, cx in v
        for y, cy in w
        for t, ct in rs_compose(x, i, y)
    )


# ---------------------------------------------------------------------------
# components


# The most cells enumerate_component lists, so that E_4 in arity 4 (202,560
# cells) fits.  On a shared 2-vCPU x86-64 machine that enumeration takes
# 0.9 s and 63 MB, while the walk finds E_3 in arity 5 (2,090,520 cells, 34 s
# and 516 MB to enumerate) over the limit in 0.5-0.6 s and 46 MB.
MAX_CELLS = 210_000


def enumerate_component(
    input_open, output_open: bool, m: int, variant: str = "standard"
) -> list[Surjection]:
    """All basis surjections with the given openness pattern inside the
    filtration, ordered by (degree, string text).  Raises ValueError when
    there are more than ``MAX_CELLS``.

    The sort key is one integer: the tokens read as digits in base 2k + 1,
    an open letter ``-a`` as the digit k + a, after every closed letter.  No
    digit is 0, so a longer string has the larger key, and with the arity k
    fixed the degree orders as the length; strings of one length order as
    their digits, which for labels 1..9 is the order of their texts.  No
    text is built.

    Finiteness: every letter occurrence after the first starts a new block
    in some pairwise projection, so the length is at most
    k + m * k * (k-1) / 2 and the filtration walk ends without a length cap.
    """
    letters = [-a if o else a for a, o in enumerate(input_open, start=1)]
    walk = _PairWalk(len(letters), m, variant)  # checks m and variant
    if not letters or (not output_open and any(t < 0 for t in letters)):
        return []
    k = len(letters)
    base = 2 * k + 1

    def key(word) -> int:
        n = 0
        for t in word:
            n = n * base + (t if t > 0 else k - t)
        return n

    words = []
    for word in walk.words(letters):
        words.append(word)
        if len(words) > MAX_CELLS:
            raise ValueError(
                f"{k} inputs at m={m} give more than {MAX_CELLS} cells, "
                f"the enumeration limit"
            )
    words.sort(key=key)
    # the walk's words are bar-free, nondegenerate and use every label
    return [_unchecked(Surjection, _unchecked_string(w, output_open)) for w in words]


def component_complex(
    input_open, output_open: bool, m: int, variant: str = "standard"
) -> ChainComplex:
    """The finite chain complex of one component, differential included."""
    input_open = tuple(input_open)
    k = len(input_open)  # every cell's arity: its degree is its length - k
    bases: dict[int, list] = {}
    for s in enumerate_component(input_open, output_open, m, variant):
        bases.setdefault(len(s.underlying.tokens) - k, []).append(s)
    return build_complex(bases, differential)


def component_homology(
    input_open, output_open: bool, m: int, variant: str = "standard"
) -> dict[int, tuple[int, list[int]]]:
    """Per-degree (free rank, torsion) of one component's homology."""
    cx = component_complex(input_open, output_open, m, variant)
    return homology_all(cx)
