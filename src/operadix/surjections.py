"""Relative surjection dg-operad over the integers.

Basis elements are bar-free nondegenerate surjective strings; the homological
degree is (length - number of labels).  The differential deletes single letter
occurrences, composition substitutes one surjection into a slot of another
after cutting it with bar-insertion maps, and each component (fixed openness
pattern) is a finite chain complex whose homology is computed exactly.

Sign conventions:

- differential: deleting the j-th occurrence (0-based) of label i carries
  the sign (-1)^{n_1 + ... + n_{i-1} + j} where n_l = occurrences(l) - 1;
- bar insertion: every cut pattern enters with coefficient +1;
- composition f o_i g: global prefactor (-1)^{deg(g) * (n_{i+1}+...+n_k)}.

Verified mechanically: the squared differential vanishes, sequential and
parallel associativity hold on thousands of sampled triples, and the unit
laws hold.  The Leibniz rule for f o_i g holds over Z only when the letter i
occurs once in f.  When it occurs more than once the rule holds only mod 2:
every cut pattern of the bar insertion enters with +1, where the
Berger-Fresse composition gives each pattern its own sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

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
class Surjection:
    """A bar-free nondegenerate surjective string (a chain-level basis element)."""

    underlying: IntegerString

    def __post_init__(self) -> None:
        x = self.underlying
        if any(t == BAR for t in x.tokens):
            raise ValueError("a basis surjection has no bars")
        if not _nondegenerate(x.tokens):
            raise ValueError("degenerate string: adjacent equal letters")

    @property
    def degree(self) -> int:
        tokens = self.underlying.tokens
        return len(tokens) - _top_label(tokens)

    # the token tuple alone, hashed in one frame: equal values have equal
    # tokens, and an open- and a closed-output string with the same tokens
    # share a hash and stay unequal
    def __hash__(self) -> int:
        return hash(self.underlying.tokens)

    def __repr__(self) -> str:
        return f"Surjection({text(self.underlying)})"


@dataclass(frozen=True, slots=True)
class BarredClass:
    """A normalized-chain class: bars allowed, no adjacent equal letters
    without a bar between them."""

    underlying: IntegerString

    def __post_init__(self) -> None:
        if not _nondegenerate(self.underlying.tokens):
            raise ValueError("degenerate string: adjacent equal letters")

    def __hash__(self) -> int:
        return hash(self.underlying.tokens)

    def __repr__(self) -> str:
        return f"BarredClass({text(self.underlying)})"


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
    if isinstance(u, (Surjection, BarredClass)):
        return u.underlying
    return u


_SET_UNDERLYING = {
    cls: cls.__dict__["underlying"].__set__ for cls in (Surjection, BarredClass)
}


def _unchecked(cls, x: IntegerString):
    """Wrap ``x`` in ``cls`` (``Surjection`` or ``BarredClass``) without
    re-running its checks, setting the field through the class's slot.

    Only for internal use on strings that are valid by construction."""
    s = object.__new__(cls)
    _SET_UNDERLYING[cls](s, x)
    return s


def differential(u) -> LinComb:
    """Signed sum of single-occurrence deletions; degenerate results and
    deletions of a label's unique occurrence are dropped.

    A ``Surjection`` or ``BarredClass`` is nondegenerate, so a deletion is
    degenerate exactly when it makes two equal letters adjacent, and no two
    deletions give the same string: the terms are distinct, each is +1 or
    -1, and they go straight into the result's dict.  A raw
    ``IntegerString`` may be degenerate and its deletions can cancel, so each
    one is rescanned and the terms are summed."""
    x = _unwrap(u)
    tokens = x.tokens
    where: dict[int, list[int]] = {}
    for pos, t in enumerate(tokens):
        if t != BAR:
            where.setdefault(t if t > 0 else -t, []).append(pos)
    out_open = x.output_open

    if x is u:

        def raw_terms():
            prefix = 0  # n_1 + ... + n_{i-1}
            for i in range(1, len(where) + 1):
                found = where[i]
                if len(found) < 2:
                    continue
                for j, pos in enumerate(found):
                    y = tokens[:pos] + tokens[pos + 1 :]
                    if _nondegenerate(y):
                        # deleting one of >= 2 occurrences keeps labels and
                        # openness
                        sign = -1 if (prefix + j) & 1 else 1
                        yield _unchecked_string(y, out_open), sign
                prefix += len(found) - 1

        return LinComb(raw_terms())

    wrap = type(u)
    set_underlying = _SET_UNDERLYING[wrap]
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
                y = new(IntegerString)
                _set_tokens(y, tokens[:pos] + tokens[pos + 1 :])
                _set_output_open(y, out_open)
                s = new(wrap)
                set_underlying(s, y)
                terms[s] = sign
            sign = -sign
        prefix += len(found) - 1
    return _reduced(terms)


def linear_differential(v: LinComb) -> LinComb:
    """The differential extended linearly to a combination of basis elements."""
    return LinComb((t, c * ct) for b, c in v for t, ct in differential(b))


def vartheta(T, n: int) -> LinComb:
    """All ways of adding ``n`` bars by cutting letter occurrences in two
    (the inverse of the rewrite a|a -> a), each with coefficient +1."""
    x = _unwrap(T)
    if any(t == BAR for t in x.tokens):
        raise ValueError("bar insertion starts from a bar-free string")
    if n < 0:
        raise ValueError("bar count must be nonnegative")
    return LinComb((BarredClass(y), 1) for _, y in _vartheta_terms(x, n))


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

    When the letter ``i`` occurs once in ``f`` no bar is inserted, and the
    result is the single composite ``compose(f, i, g)`` (dropped when it is
    degenerate) with the global prefactor, built without the bar-insertion
    walk or the summing pass."""
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
    if slot_occ == 1:
        # no bar to insert: the one composite, with no cut and so sign +1;
        # compose itself rejects a barred g
        h = compose(fx, i, gx)
        if not _nondegenerate(h.tokens):
            return LinComb()
        return _reduced(
            {(Surjection(h) if has_bar else _unchecked(Surjection, h)): prefactor}
        )
    composites = (
        compose(fx, i, barred) for _, barred in _vartheta_terms(gx, slot_occ - 1)
    )
    # an f with bars is no basis element: its composites keep the bars, and
    # the checked constructor rejects them
    return LinComb(
        (Surjection(h) if has_bar else _unchecked(Surjection, h), prefactor)
        for h in composites
        if _nondegenerate(h.tokens)
    )


# ---------------------------------------------------------------------------
# generators


def generators(m: int = 2, max_labels: int = 3) -> list[Surjection]:
    """The standard generating set: units, the closed product and brace
    strings (12), (121), (12131), ..., their open analogues, and the
    colour-changing inclusion (1)^o."""
    if m != 2:
        raise ValueError("generators are tabulated for filtration level 2 only")
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


def is_generated_up_to(max_labels: int = 3, max_length: int = 6, m: int = 2) -> dict:
    """Close the generators under composition and relabelling, then check
    that the resulting combinations span every component over the integers.

    Returns a report with, per component within the bound, the component
    dimension and whether the lattice spanned by reachable combinations is
    the full basis lattice (established by Smith normal form).
    """
    gens = generators(m, max_labels)
    reachable: set = set()
    frontier: list[LinComb] = []
    for gen in gens:
        v = _canonical_sign(LinComb.unit(gen))
        if v not in reachable:
            reachable.add(v)
            frontier.append(v)

    def admissible(s: Surjection) -> bool:
        return (
            arity(s.underlying) <= max_labels
            and len(s.underlying.tokens) <= max_length
        )

    def relabelings(v: LinComb):
        some = next(iter(v.terms))
        k = arity(some.underlying)
        for sigma in permutations(range(1, k + 1)):
            yield _canonical_sign(
                v.map_basis(lambda s: Surjection(sym_act(list(sigma), s.underlying)))
            )

    while frontier:
        new: list[LinComb] = []
        for v in frontier:
            for w in relabelings(v):
                if w and w not in reachable:
                    reachable.add(w)
                    new.append(w)
        pool = list(reachable)
        for v in pool:
            sv = next(iter(v.terms))
            for w in pool:
                sw = next(iter(w.terms))
                if (
                    arity(sv.underlying) + arity(sw.underlying) - 1 > max_labels
                    or len(sv.underlying.tokens) + len(sw.underlying.tokens) - 1
                    > max_length
                ):
                    continue
                for i in range(1, arity(sv.underlying) + 1):
                    try:
                        comp = _compose_linear(v, i, w)
                    except ColourMismatch:
                        continue
                    if not comp:
                        continue
                    if not all(admissible(s) for s in comp.terms):
                        continue
                    comp = _canonical_sign(comp)
                    if comp not in reachable:
                        reachable.add(comp)
                        new.append(comp)
        frontier = new

    report: dict = {"components": {}, "all_spanned": True}
    for k in range(1, max_labels + 1):
        for opens in product([False, True], repeat=k):
            for out_open in ([True] if any(opens) else [False, True]):
                basis = [
                    s
                    for s in enumerate_component(opens, out_open, m)
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
                spanned = _spans_full_lattice(vectors, len(basis))
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


def _spans_full_lattice(vectors: list[dict[int, int]], dim: int) -> bool:
    """Whether the sparse integer rows ({coordinate: nonzero entry}) span
    Z^dim: rank dim and no torsion."""
    rank, torsion = _rank_and_torsion(vectors)
    return rank == dim and not torsion


def _compose_linear(v: LinComb, i: int, w: LinComb) -> LinComb:
    return LinComb(
        (t, cx * cy * ct)
        for x, cx in v
        for y, cy in w
        for t, ct in rs_compose(x, i, y)
    )


# ---------------------------------------------------------------------------
# components


def enumerate_component(
    input_open, output_open: bool, m: int, variant: str = "standard"
) -> list[Surjection]:
    """All basis surjections with the given openness pattern inside the
    filtration, ordered by (degree, string text).

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

    words = sorted(walk.words(letters), key=key)
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
