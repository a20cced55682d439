"""Exact rational cube/semi-cube configurations and their cellulation.

A configuration is a list of axis-aligned boxes with rational corners inside
the standard cube [-1,1]^m; "open" boxes are semi-cubes sitting on the
boundary hyperplane x_m = 0.  Separation of two boxes is witnessed by the
least axis on which their coordinate intervals are strictly disjoint; the
cell index records, per pair, that axis and the lower-to-upper orientation,
producing an element of the complete-graph poset operad.  Composition
substitutes one configuration into a box of another by the unique
axis-aligned affine map, all in exact rational arithmetic.

``Box`` and ``CubeConfig`` are slotted frozen dataclasses that check their
fields and convert none: their box and interval containers are tuples, the
output flag is a bool, and a box endpoint is a ``Fraction`` or an ``int`` (a
float, a string or a bool is refused).  ``config_from_json`` is where numbers
from outside become Fractions, and it checks what it reads.

Slot numbering: closed boxes first (1..s), then open boxes (s+1..s+t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .graphs import GraphElement, _pairs
from .graphs import _unchecked as _unchecked_graph

__all__ = [
    "Box",
    "CubeConfig",
    "NoSeparation",
    "box_sep",
    "cell_contains",
    "cell_index",
    "sc_compose",
    "random_config",
    "config_to_json",
    "config_from_json",
]

ONE = Fraction(1)
_EXACT = (Fraction, int)  # box endpoint types, matched exactly: a bool is refused
_MAX_TRIES = 5000  # random_config's restarts of a whole configuration


class NoSeparation(ValueError):
    """Two boxes admit no strictly separating axis."""


@dataclass(frozen=True, slots=True)
class Box:
    """A product of rational intervals, one [lo, hi] pair per axis, each
    endpoint a Fraction or an int."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if type(self.intervals) is not tuple:
            raise ValueError("a box's intervals are a tuple")
        for h, (a, b) in enumerate(self.intervals, start=1):
            if not (type(a) in _EXACT and type(b) in _EXACT and -ONE < a < b < ONE):
                raise ValueError(f"axis {h}: bad interval [{a}, {b}]")

    @property
    def m(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True, slots=True)
class CubeConfig:
    """Disjoint boxes in the standard cube; open boxes touch the floor x_m = 0."""

    m: int
    closed_boxes: tuple[Box, ...]
    open_boxes: tuple[Box, ...]
    output_open: bool

    def __post_init__(self) -> None:
        m = self.m
        if type(self.closed_boxes) is not tuple or type(self.open_boxes) is not tuple:
            raise ValueError("a configuration's boxes are tuples")
        if type(self.output_open) is not bool:
            raise ValueError(f"output_open must be a bool, not {self.output_open!r}")
        if not self.output_open and self.open_boxes:
            raise ValueError("a closed-output configuration has no open boxes")
        boxes = self.boxes
        for box in boxes:
            if box.m != m:
                raise ValueError("box dimension does not match the configuration")
        if self.output_open:
            for box in self.closed_boxes:
                if box.intervals[m - 1][0] <= 0:
                    raise ValueError("closed boxes live strictly above the floor")
        for box in self.open_boxes:
            if box.intervals[m - 1][0] != 0:
                raise ValueError("open boxes sit on the floor x_m = 0")
        for a in range(len(boxes)):
            for b in range(a + 1, len(boxes)):
                if not _interiors_disjoint(boxes[a], boxes[b]):
                    raise ValueError(f"boxes {a + 1} and {b + 1} overlap")

    @property
    def boxes(self) -> tuple[Box, ...]:
        return self.closed_boxes + self.open_boxes

    @property
    def n(self) -> int:
        return len(self.closed_boxes) + len(self.open_boxes)

    def vertex_open(self) -> tuple[bool, ...]:
        return (False,) * len(self.closed_boxes) + (True,) * len(self.open_boxes)


def _interiors_disjoint(c1: Box, c2: Box) -> bool:
    return any(
        b1 <= a2 or b2 <= a1
        for (a1, b1), (a2, b2) in zip(c1.intervals, c2.intervals)
    )


def box_sep(c1: Box, c2: Box, mu: int) -> bool:
    """Separation at level mu: strictly disjoint on some axis below mu in
    either order, or strictly disjoint on axis mu with ``c1`` below."""
    if not 1 <= mu <= c1.m:
        raise ValueError(f"axis {mu} out of range")
    for h in range(mu - 1):
        (a1, b1), (a2, b2) = c1.intervals[h], c2.intervals[h]
        if b1 < a2 or b2 < a1:
            return True
    (a1, b1), (a2, b2) = c1.intervals[mu - 1], c2.intervals[mu - 1]
    return b1 < a2


def cell_contains(alpha: GraphElement, x: CubeConfig) -> bool:
    """Whether the configuration satisfies every oriented separation of alpha."""
    if alpha.n != x.n or alpha.vertex_open != x.vertex_open():
        raise ValueError("graph and configuration colours do not match")
    if alpha.output_open != x.output_open:
        raise ValueError("graph and configuration output colours do not match")
    boxes = x.boxes
    for (i, j), lev in zip(_pairs(alpha.n), alpha.levels):
        if lev > 0:
            sep = box_sep(boxes[i], boxes[j], lev)
        else:
            sep = box_sep(boxes[j], boxes[i], -lev)
        if not sep:
            return False
    return True


def _separating_axis(c1: Box, c2: Box) -> tuple[int, int] | None:
    """The least axis on which the boxes' intervals are strictly disjoint,
    with 1 when ``c1`` lies below there and -1 when above; None when every
    pair of intervals meets."""
    for h, ((a1, b1), (a2, b2)) in enumerate(zip(c1.intervals, c2.intervals), 1):
        if b1 < a2:
            return h, 1
        if b2 < a1:
            return h, -1
    return None


def cell_index(x: CubeConfig) -> GraphElement:
    """The least cell containing the configuration: per pair, the least
    strictly separating axis, oriented from the lower box to the upper."""
    boxes = x.boxes
    levels = []
    for i, j in _pairs(x.n):
        found = _separating_axis(boxes[i], boxes[j])
        if found is None:
            raise NoSeparation(
                f"boxes {i + 1} and {j + 1} share every coordinate interval"
            )
        axis, orient = found
        levels.append(axis * orient)
    return _unchecked_graph(x.vertex_open(), tuple(levels), x.output_open)


def sc_compose(x: CubeConfig, i: int, y: CubeConfig) -> CubeConfig:
    """Substitute configuration ``y`` into box ``i`` of ``x``.

    The affine map sends the standard cube (or semi-cube, for an open slot)
    onto box ``i``.  The result keeps the closed-then-open numbering in
    blockwise slot order.
    """
    s = len(x.closed_boxes)
    if not 1 <= i <= x.n:
        raise ValueError(f"slot {i} out of range")
    slot_open = i > s
    if slot_open != y.output_open:
        raise ValueError(f"slot {i} openness does not match the argument output")
    target = x.boxes[i - 1]

    def image(box: Box) -> Box:
        ivs = []
        for h in range(x.m):
            a, b = box.intervals[h]
            xo, yo = target.intervals[h]
            if slot_open and h == x.m - 1:
                ivs.append((a * yo, b * yo))  # t -> t * y_m keeps the floor
            else:
                ivs.append(
                    (xo + (a + 1) * (yo - xo) / 2, xo + (b + 1) * (yo - xo) / 2)
                )
        return Box(tuple(ivs))

    imaged_closed = tuple(image(b) for b in y.closed_boxes)
    imaged_open = tuple(image(b) for b in y.open_boxes)
    if slot_open:
        j = i - s
        closed = x.closed_boxes + imaged_closed
        open_ = x.open_boxes[: j - 1] + imaged_open + x.open_boxes[j:]
    else:
        closed = x.closed_boxes[: i - 1] + imaged_closed + x.closed_boxes[i:]
        open_ = x.open_boxes
    return CubeConfig(x.m, closed, open_, x.output_open)


def random_config(
    m: int,
    n_closed: int,
    n_open: int,
    seed=None,
    denominator: int = 16,
) -> CubeConfig:
    """Seeded rejection sampling of a configuration on the 1/denominator grid.

    Boxes are added one at a time and re-drawn until strictly separated from
    every earlier box on some axis (so the cell index is always defined).
    Raises ValueError on m < 1, a negative box count, two or more open boxes
    in a 1-cube, a grid too coarse for the boxes, or when sampling gives up.
    """
    if m < 1:
        raise ValueError(f"a configuration needs m >= 1, not {m}")
    if n_closed < 0 or n_open < 0:
        raise ValueError(
            f"box counts must be nonnegative, not {n_closed} closed and {n_open} open"
        )
    # open boxes start at the floor of the last axis, so in a 1-cube any two
    # of them overlap
    if m == 1 and n_open >= 2:
        raise ValueError(f"a 1-cube holds at most one open box, not {n_open}")
    output_open = n_open > 0
    # a closed box over an open output lies on two grid lines strictly
    # between the floor and the top of the cube
    least = 3 if n_closed and output_open else 2
    if denominator < least:
        raise ValueError(
            f"these boxes need a denominator of at least {least}, not {denominator}"
        )
    rng = seed if isinstance(seed, Random) else Random(seed)
    boxes: list[tuple[Box, bool]] = []

    def draw(open_: bool) -> Box:
        ivs = []
        for h in range(1, m + 1):
            if open_ and h == m:
                lo = 0
                hi = rng.randint(1, denominator - 1)
            elif h == m and not open_ and output_open:
                lo = rng.randint(1, denominator - 2)
                hi = rng.randint(lo + 1, denominator - 1)
            else:
                lo = rng.randint(-denominator + 1, denominator - 2)
                hi = rng.randint(lo + 1, denominator - 1)
            ivs.append((Fraction(lo, denominator), Fraction(hi, denominator)))
        return Box(tuple(ivs))

    plan = [False] * n_closed + [True] * n_open
    for _ in range(_MAX_TRIES):
        boxes.clear()
        for open_ in plan:
            for _ in range(200):
                cand = draw(open_)
                if all(_separating_axis(cand, b) is not None for b, _ in boxes):
                    boxes.append((cand, open_))
                    break
            else:
                # an early box can block the cube; restart the configuration
                break
        else:
            break
    else:
        raise ValueError("rejection sampling failed; lower the box count")
    closed = tuple(b for b, o in boxes if not o)
    open_boxes = tuple(b for b, o in boxes if o)
    return CubeConfig(m, closed, open_boxes, output_open)


def _frac_pair(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def config_to_json(x: CubeConfig) -> dict:
    def dump(box: Box):
        return [[_frac_pair(a), _frac_pair(b)] for a, b in box.intervals]

    return {
        "m": x.m,
        "closed": [dump(b) for b in x.closed_boxes],
        "open": [dump(b) for b in x.open_boxes],
        "outputOpen": x.output_open,
    }


def config_from_json(data) -> CubeConfig:
    """The configuration of :func:`config_to_json`'s form.  Numbers from
    outside become Fractions here and nowhere else, so every value is checked
    first: raises ValueError naming the first malformed one."""
    if not isinstance(data, dict):
        raise ValueError(f"a configuration is a JSON object, not {data!r}")
    for key in ("m", "outputOpen"):
        if key not in data:
            raise ValueError(f"the configuration has no {key!r}")
    m, output_open = data["m"], data["outputOpen"]
    if type(m) is not int or m < 1:
        raise ValueError(f"'m' must be an integer >= 1, not {m!r}")
    if type(output_open) is not bool:
        raise ValueError(f"'outputOpen' must be true or false, not {output_open!r}")

    def endpoint(raw) -> Fraction:
        p, q = _json_list(raw, "an endpoint", 2)
        if type(p) is not int or type(q) is not int or not q:
            raise ValueError(f"an endpoint is [int, nonzero int], not {raw!r}")
        return Fraction(p, q)

    def interval(raw) -> tuple[Fraction, Fraction]:
        a, b = _json_list(raw, "an interval", 2)
        return endpoint(a), endpoint(b)

    def boxes(key: str) -> tuple[Box, ...]:
        raw = _json_list(data.get(key, []), repr(key))
        return tuple(Box(tuple(map(interval, _json_list(b, "a box")))) for b in raw)

    return CubeConfig(m, boxes("closed"), boxes("open"), output_open)


def _json_list(raw, what: str, length: int | None = None) -> list:
    """``raw``, if it is a JSON list (of ``length`` entries, when given)."""
    if not isinstance(raw, list) or length not in (None, len(raw)):
        shape = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{what} must be {shape}, not {raw!r}")
    return raw
