"""Rational cube configurations, separation predicates and cell indices."""

import json
import random
from fractions import Fraction

import pytest

from operadix import geometry, graphs
from operadix.geometry import Box, CubeConfig


def F(a, b):
    return Fraction(a, b)


def two_closed_boxes():
    b1 = Box(((F(-3, 4), F(-1, 4)), (F(1, 8), F(3, 8))))
    b2 = Box(((F(1, 4), F(3, 4)), (F(1, 8), F(3, 8))))
    return CubeConfig(2, (b1, b2), (), False)


class TestBoxSep:
    def test_axis_separation(self):
        b1 = Box(((F(-1, 2), F(0, 1)), (F(1, 4), F(1, 2))))
        b2 = Box(((F(1, 4), F(1, 2)), (F(1, 4), F(1, 2))))
        # level 1 is oriented: b1 lies below b2 on axis 1 but not conversely
        assert geometry.box_sep(b1, b2, 1)
        assert not geometry.box_sep(b2, b1, 1)
        # level 2 accepts either order on the lower axis
        assert geometry.box_sep(b2, b1, 2)

    def test_touching_boxes_are_not_strictly_separated(self):
        b1 = Box(((F(-1, 2), F(0, 1)), (F(0, 1), F(1, 2))))
        b2 = Box(((F(0, 1), F(1, 2)), (F(0, 1), F(1, 2))))
        assert not geometry.box_sep(b1, b2, 1)


class TestCubeConfig:
    def test_overlapping_boxes_rejected(self):
        b1 = Box(((F(-1, 2), F(1, 2)), (F(1, 8), F(1, 2))))
        with pytest.raises(ValueError):
            CubeConfig(2, (b1, b1), (), False)

    def test_open_boxes_must_touch_the_floor(self):
        lifted = Box(((F(-1, 2), F(0, 1)), (F(1, 8), F(1, 2))))
        with pytest.raises(ValueError):
            CubeConfig(2, (), (lifted,), True)

    def test_json_round_trip(self):
        cfg = two_closed_boxes()
        data = json.loads(json.dumps(geometry.config_to_json(cfg)))
        assert geometry.config_from_json(data) == cfg


class TestCellIndex:
    def test_contains_its_own_configuration(self):
        cfg = two_closed_boxes()
        alpha = geometry.cell_index(cfg)
        assert geometry.cell_contains(alpha, cfg)
        assert alpha.edge_dict()[(1, 2)][0] == 1  # separated along axis 1

    def test_minimality_and_monotonicity_random(self):
        rng = random.Random(123)
        for _ in range(400):
            n_open = rng.randint(0, 2)
            n_closed = rng.randint(1 if not n_open else 0, 2)
            cfg = geometry.random_config(2, n_closed, n_open, seed=rng)
            alpha = geometry.cell_index(cfg)
            assert geometry.cell_contains(alpha, cfg)
            for (i, j), (mu, orient) in alpha.edge_dict().items():
                # weakening the level must exclude the configuration
                if mu > 1:
                    weaker = dict(alpha.edge_dict())
                    weaker[(i, j)] = (mu - 1, orient)
                    smaller = graphs.GraphElement(
                        alpha.vertex_open, weaker, alpha.output_open
                    )
                    if graphs.validate(smaller):
                        assert not geometry.cell_contains(smaller, cfg)
                # strengthening keeps it (poset monotonicity of cells)
                if mu < cfg.m:
                    bigger = dict(alpha.edge_dict())
                    bigger[(i, j)] = (mu + 1, orient)
                    larger = graphs.GraphElement(
                        alpha.vertex_open, bigger, alpha.output_open
                    )
                    if graphs.validate(larger) and graphs.leq(alpha, larger):
                        assert geometry.cell_contains(larger, cfg)


class TestScCompose:
    def test_composition_inequality_random(self):
        rng = random.Random(77)
        checked = 0
        while checked < 200:
            n_open = rng.randint(0, 1)
            n_closed = rng.randint(1 if not n_open else 0, 2)
            x = geometry.random_config(2, n_closed, n_open, seed=rng)
            i = rng.randint(1, n_closed + n_open)
            if i > n_closed:
                m_open, m_closed = rng.randint(1, 2), rng.randint(0, 1)
            else:
                m_open, m_closed = 0, rng.randint(1, 2)
            try:
                y = geometry.random_config(2, m_closed, m_open, seed=rng)
                z = geometry.sc_compose(x, i, y)
            except (ValueError, RuntimeError):
                continue
            ax, ay, az = (
                geometry.cell_index(x),
                geometry.cell_index(y),
                geometry.cell_index(z),
            )
            assert graphs.leq(az, graphs.compose_at(ax, i, ay))
            checked += 1


class TestRandomConfig:
    def test_deterministic_for_fixed_seed(self):
        a = geometry.random_config(2, 2, 1, seed=5)
        b = geometry.random_config(2, 2, 1, seed=5)
        assert a == b

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 2, 0, 16), "m >= 1"),
            ((2, -1, 0, 16), "nonnegative"),
            ((2, 1, -1, 16), "nonnegative"),
            ((2, 1, 0, 1), "at least 2"),
            ((2, 0, 1, 1), "at least 2"),
            ((2, 1, 1, 2), "at least 3"),
        ],
    )
    def test_bad_arguments_refused_before_any_draw(self, args, message):
        m, n_closed, n_open, denominator = args
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match=message):
            geometry.random_config(m, n_closed, n_open, rng, denominator)
        assert rng.getstate() == state

    def test_coarsest_grids_sample(self):
        for n_closed, n_open, denominator in ((1, 0, 2), (0, 1, 2), (1, 1, 3)):
            cfg = geometry.random_config(2, n_closed, n_open, 3, denominator)
            assert (len(cfg.closed_boxes), len(cfg.open_boxes)) == (n_closed, n_open)

    def test_exhausted_sampler_raises_value_error(self, monkeypatch):
        # two open boxes cannot both sit on the floor of a 1-cube
        monkeypatch.setattr(geometry, "_MAX_TRIES", 3)
        with pytest.raises(ValueError, match="rejection sampling failed"):
            geometry.random_config(1, 0, 2, seed=0)

    def test_grid_denominator(self):
        cfg = geometry.random_config(2, 2, 0, seed=9, denominator=8)
        for box in cfg.closed_boxes + cfg.open_boxes:
            for lo, hi in box.intervals:
                assert (8 * lo).denominator == 1 and (8 * hi).denominator == 1
