"""Exact integer linear algebra: Smith normal form and homology."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from operadix import chains
from operadix.chains import (
    ChainComplex,
    InvalidComplex,
    LinComb,
    bilinear,
    build_complex,
    linear,
)
from operadix.cobar import group_bialgebra, unreduced_cobar
from operadix.loops import FiniteMonoid, TotComplex
from operadix.surjections import component_complex


class TestLinComb:
    def test_arithmetic_and_cancellation(self):
        v = LinComb.unit("a") + LinComb.unit("b", 2)
        w = v - LinComb.unit("b", 2)
        assert dict(w) == {"a": 1}
        assert not (w - LinComb.unit("a"))
        assert 3 * v == v + v + v

    def test_repeated_keys_accumulate(self):
        v = LinComb([("a", 1), ("a", 2)])
        assert dict(v) == {"a": 3}

    def test_cancelled_term_reenters_at_the_end(self):
        v = LinComb([("a", 1), ("b", 1), ("a", -1), ("c", 2), ("a", 4)])
        assert list(v) == [("b", 1), ("c", 2), ("a", 4)]
        assert list(LinComb({"x": 1, "y": 0, "z": -3})) == [("x", 1), ("z", -3)]

    def test_linear_and_bilinear(self):
        table = {"a": LinComb({"x": 1, "y": 2}), "b": LinComb.unit("y", -2)}
        v = LinComb({"a": 3, "b": 1, "missing": 5})
        assert linear(table, v) == LinComb({"x": 3, "y": 4})
        assert linear(table, LinComb.unit("missing")) == LinComb()
        product = {("a", "b"): LinComb.unit("ab"), ("b", "b"): LinComb.unit("bb", 2)}
        u = LinComb({"a": 2, "b": -1})
        w = LinComb({"b": 3, "c": 7})
        assert bilinear(product, u, w) == LinComb({"ab": 6, "bb": -6})
        assert bilinear(product, w, u) == LinComb({"bb": -6})


class TestSmithNormalForm:
    def test_known_matrix(self):
        mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        d, left, right = chains.smith_normal_form(mat)
        assert chains.mat_mul(chains.mat_mul(left, mat), right) == d
        assert [d[i][i] for i in range(3)] == [2, 2, 156]

    def test_random_matrices_match_sympy(self):
        rng = random.Random(42)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            d, left, right = chains.smith_normal_form(mat)
            assert chains.mat_mul(chains.mat_mul(left, mat), right) == d
            ours = [abs(d[i][i]) for i in range(min(rows, cols)) if d[i][i]]
            ref = sympy_snf(sympy.Matrix(mat))
            theirs = [
                abs(ref[i, i]) for i in range(min(rows, cols)) if ref[i, i]
            ]
            assert ours == theirs

    def test_mat_mul_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            chains.mat_mul([[1, 2]], [[1], [2], [3]])

    def test_transforms_are_unimodular(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            _, left, right = chains.smith_normal_form(mat)
            assert abs(sympy.Matrix(left).det()) == 1
            assert abs(sympy.Matrix(right).det()) == 1


def circle_complex():
    """Two vertices, two parallel edges: the circle."""
    return ChainComplex(
        bases={0: ["v0", "v1"], 1: ["a", "b"]},
        boundary={1: [[-1, -1], [1, 1]]},
    )


def projective_plane_complex():
    """Minimal CW model with a degree-2 attaching map."""
    return ChainComplex(
        bases={0: ["v"], 1: ["e"], 2: ["f"]},
        boundary={1: [[0]], 2: [[2]]},
    )


class TestHomology:
    def test_circle(self):
        cx = circle_complex()
        cx.validate()
        assert chains.homology(cx, 0) == (1, [])
        assert chains.homology(cx, 1) == (1, [])

    def test_torsion(self):
        cx = projective_plane_complex()
        cx.validate()
        assert chains.homology(cx, 0) == (1, [])
        assert chains.homology(cx, 1) == (0, [2])
        assert chains.homology(cx, 2) == (0, [])

    def test_invalid_complex_rejected(self):
        bad = ChainComplex(
            bases={0: ["v"], 1: ["e"], 2: ["f"]},
            boundary={1: [[1]], 2: [[1]]},
        )
        with pytest.raises(InvalidComplex):
            bad.validate()


class TestBuildComplex:
    def test_stray_image_term_names_the_element(self):
        bases = {0: ["v"], 1: ["e", "f"]}
        images = {"e": LinComb.unit("v"), "f": LinComb({"v": 1, "w": -1})}
        with pytest.raises(ValueError, match="boundary of 'f' has the term 'w'"):
            build_complex(bases, images.__getitem__)

    def test_boundaries_only_between_present_degrees(self):
        # degree 2 is absent, so degree 3 gets no boundary
        bases = {0: ["v", "w"], 1: ["e"], 3: ["t"]}
        images = {"e": LinComb({"w": 1, "v": -1}), "t": LinComb.unit("missing")}
        cx = build_complex(bases, images.__getitem__)
        assert cx.boundary == {1: [[-1], [1]]}
        assert cx.bases == bases

    def test_surjection_component_matrices_frozen(self):
        cx = component_complex((False, False), False, 2)
        assert [[str(s.underlying) for s in cx.bases[d]] for d in (0, 1)] == [
            ["(12)^c", "(21)^c"],
            ["(121)^c", "(212)^c"],
        ]
        assert cx.boundary == {1: [[-1, 1], [1, -1]]}
        assert component_complex((True, False), True, 2).boundary == {1: [[-1], [1]]}

    def test_totalization_matrices_frozen(self):
        Z2 = FiniteMonoid.cyclic(2)
        raw = unreduced_cobar(group_bialgebra(Z2), 2)
        assert raw.boundary == {0: [[0], [0]], -1: [[1, 0], [0, 1], [0, 1], [0, -1]]}
        quotient = TotComplex(Z2, (0, 1), 3, "open").chain_complex()
        assert quotient.bases[-3] == [((1, 0, 1), 0), ((1, 0, 1), 1)]
        assert quotient.boundary == {
            0: [[0, 0], [0, -1]],
            -1: [[1, 0], [0, 0]],
            -2: [[0, 0], [0, -1]],
        }
