"""Exact integer linear algebra: Smith normal form and homology."""

import copy
import random
from itertools import chain

import pytest
import sympy
from hypothesis import given, settings, strategies as st
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
from operadix.cobar import (
    CobarTot,
    diagonal_comodule,
    dual_group_bialgebra,
    group_bialgebra,
    monoid_bialgebra,
)
from operadix.loops import FiniteMonoid, TotComplex
from operadix.surjections import component_complex, component_homology, differential

import test_cobar


def chained(a: LinComb, b: LinComb, sign: int = 1) -> LinComb:
    """a + sign * b through the generic constructor on the chained terms:
    the reference for the arithmetic operators."""
    signed = ((t, sign * c) for t, c in b.terms.items())
    return LinComb(chain(a.terms.items(), signed))


def scaled(k: int, a: LinComb) -> LinComb:
    """k * a through the generic constructor."""
    return LinComb({t: k * c for t, c in a.terms.items()})


def check_arithmetic(a: LinComb, b: LinComb) -> None:
    """Every operator gives the reference's ordered terms, with no zero
    coefficient, in a new dict."""
    results = [
        (a + b, chained(a, b)),
        (a - b, chained(a, b, -1)),
        (-a, scaled(-1, a)),
    ]
    results += [(k * a, scaled(k, a)) for k in (0, 1, -1, 2, -2)]
    for got, want in results:
        assert list(got) == list(want)
        assert all(got.terms.values())
        assert got.terms is not a.terms and got.terms is not b.terms


small_combinations = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.integers(-3, 3)), max_size=8
).map(LinComb)


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

    # The operators merge already reduced operands directly; each must agree,
    # term order included, with the generic constructor.
    def test_operators_match_the_constructor(self):
        a = LinComb({"p": 1, "q": 2, "r": -3})
        b = LinComb({"s": 4, "q": -2, "p": 5, "t": -1})
        pairs = [(a, b), (b, a), (a, a), (a, -1 * a), (a, LinComb()), (LinComb(), b)]
        for u, v in pairs:
            check_arithmetic(u, v)

    def test_sums_move_a_reappearing_term_to_the_end(self):
        a = LinComb({"p": 1, "q": 2, "r": 3})
        cancelled = a + LinComb({"q": -2, "s": 1})
        assert list(cancelled) == [("p", 1), ("r", 3), ("s", 1)]
        back = cancelled + LinComb({"q": 5, "p": 1})
        assert list(back) == [("p", 2), ("r", 3), ("s", 1), ("q", 5)]
        assert list(back) == list(
            chained(chained(a, LinComb({"q": -2, "s": 1})), LinComb({"q": 5, "p": 1}))
        )
        assert list(cancelled - LinComb.unit("q", -5)) == list(
            chained(cancelled, LinComb.unit("q", -5), -1)
        )

    def test_unit(self):
        assert list(LinComb.unit("b")) == list(LinComb({"b": 1}))
        assert list(LinComb.unit("b", -2)) == [("b", -2)]
        assert list(LinComb.unit("b", 0)) == list(LinComb({"b": 0})) == []
        assert not LinComb.unit("b", 0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=small_combinations, b=small_combinations)
    def test_arithmetic_property(self, a, b):
        check_arithmetic(a, b)


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

    @staticmethod
    def check_snf(mat) -> list[int]:
        """The diagonal of ``mat``'s Smith normal form, after checking
        L M R = D with unimodular L and R, D diagonal and nonnegative, and
        each diagonal entry dividing the next."""
        d, left, right = chains.smith_normal_form(mat)
        rows, cols = len(mat), len(mat[0])
        assert chains.mat_mul(chains.mat_mul(left, mat), right) == d
        assert abs(sympy.Matrix(left).det()) == 1
        assert abs(sympy.Matrix(right).det()) == 1
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
        return diag

    @pytest.mark.parametrize(
        "mat, diag",
        [
            # coprime diagonals: only the divisibility step changes them
            ([[2, 0], [0, 3]], [1, 6]),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
            # every smallest entry ties with the (0, 0) one
            ([[2, 2, 4], [-2, 6, 8]], [2, 4]),
            ([[-3, 3], [3, 3]], [3, 6]),
            ([[0, 0], [0, 0]], [0, 0]),
            ([[0, 0, 0]], [0]),
            ([[4, -6, 10]], [2]),
            ([[4], [-6], [10]], [2]),
            ([[0], [0]], [0]),
        ],
    )
    def test_fixed_matrices(self, mat, diag):
        assert self.check_snf(mat) == diag

    def test_wide_random_matrices_match_sympy(self):
        rng = random.Random(21)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            bound = rng.choice([1, 2, 9, 100])
            mat = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            ref = sympy_snf(sympy.Matrix(mat))
            theirs = [abs(ref[i, i]) for i in range(min(rows, cols))]
            assert self.check_snf(mat) == sorted(theirs, key=lambda x: (x == 0, x))


def from_dense(bases, boundary) -> ChainComplex:
    """The complex on ``bases`` whose boundary d is the dense matrix
    ``boundary[d]``."""
    columns = {
        d: [{r: row[j] for r, row in enumerate(mat) if row[j]} for j in range(len(bases[d]))]
        for d, mat in boundary.items()
    }
    return ChainComplex(bases, columns)


def matrices(cx: ChainComplex) -> dict:
    """The dense view of every stored boundary."""
    return {d: cx.matrix(d) for d in cx.columns}


def circle_complex():
    """Two vertices, two parallel edges: the circle."""
    return from_dense({0: ["v0", "v1"], 1: ["a", "b"]}, {1: [[-1, -1], [1, 1]]})


def projective_plane_complex():
    """Minimal CW model with a degree-2 attaching map."""
    return from_dense({0: ["v"], 1: ["e"], 2: ["f"]}, {1: [[0]], 2: [[2]]})


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
        bad = from_dense({0: ["v"], 1: ["e"], 2: ["f"]}, {1: [[1]], 2: [[1]]})
        with pytest.raises(InvalidComplex):
            bad.validate()
        with pytest.raises(InvalidComplex, match="from degree 2"):
            chains.homology_all(bad)
        with pytest.raises(InvalidComplex, match="from degree 2"):
            chains.homology(bad, 0)

    def test_sparse_columns(self):
        cx = from_dense({0: ["v", "w"], 1: ["a", "b", "c"]}, {1: [[-1, 0, 2], [1, 0, 0]]})
        assert cx.columns == {1: [{0: -1, 1: 1}, {}, {0: 2}]}
        assert cx.matrix(1) == [[-1, 0, 2], [1, 0, 0]]
        assert cx.matrix(2) == [[], [], []]  # an absent boundary is zero
        assert cx.matrix(0) == []
        assert cx.validate() == {1: [{0: -1, 1: 1}, {}, {0: 2}]}
        assert chains.homology_all(cx) == {0: (0, [2]), 1: (1, [])}

    def test_malformed_columns_rejected(self):
        bases = {0: ["v", "w"], 1: ["a", "b"]}
        wrong_count = ChainComplex(bases, {1: [{0: 1, 1: -1}]})
        beyond_last_row = ChainComplex(bases, {1: [{0: 1, 1: -1}, {2: 1}]})
        negative_row = ChainComplex(bases, {1: [{-1: 1}, {}]})
        for bad in (wrong_count, beyond_last_row, negative_row):
            with pytest.raises(InvalidComplex, match="at degree 1 has wrong shape"):
                bad.validate()
            with pytest.raises(InvalidComplex, match="at degree 1 has wrong shape"):
                chains.homology_all(bad)

    def test_homology_leaves_columns_unchanged(self):
        rng = random.Random(5)
        samples = [random_complex(rng) for _ in range(20)] + [
            component_complex(opens, out_open, m)
            for opens, out_open, m in components([(2, 3), (3, 3)])
        ]
        residues = 0
        for cx in samples:
            before = copy.deepcopy(cx.columns)
            chains.homology_all(cx)
            assert cx.columns == before
            residues += any(
                chains._eliminate_units(cols)[1] for cols in cx.validate().values()
            )
        # the residue path, which hands the leftover rows to the dense SNF,
        # is taken as well
        assert residues


def dense_homology(cx: ChainComplex, d: int) -> tuple[int, list[int]]:
    """H_d from the full-transform Smith normal form of boundaries d and
    d+1, the reference for the sparse engine."""

    def rank_and_factors(matrix):
        diag, _, _ = chains.smith_normal_form(matrix)
        factors = [diag[i][i] for i in range(min(len(diag), len(diag[0]))) if diag[i][i]]
        return len(factors), factors

    if not cx.dim(d):
        return 0, []
    rank_out, _ = rank_and_factors(cx.matrix(d)) if cx.dim(d - 1) else (0, [])
    rank_in, factors = rank_and_factors(cx.matrix(d + 1)) if cx.dim(d + 1) else (0, [])
    return cx.dim(d) - rank_out - rank_in, sorted(f for f in factors if f > 1)


def components(max_arity_by_m):
    """Every (input openness, output openness, m) up to the given arities."""
    for m, max_arity in max_arity_by_m:
        for k in range(1, max_arity + 1):
            for n_open in range(k + 1):
                for out_open in (True,) if n_open else (False, True):
                    yield (False,) * (k - n_open) + (True,) * n_open, out_open, m


def unimodular(rng: random.Random, n: int):
    """A random unimodular n x n matrix and its inverse."""
    u, inv = chains.mat_identity(n), chains.mat_identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = rng.choice([-2, -1, 1, 2])
        if i == j:
            u[i] = [-x for x in u[i]]  # negate row i; its own inverse
            for row in inv:
                row[i] = -row[i]
        else:
            # row_i += c * row_j; the inverse gets col_j -= c * col_i
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            for row in inv:
                row[j] -= c * row[i]
    return u, inv


def random_complex(rng: random.Random) -> ChainComplex:
    """P_{d-1} N_d P_d^-1 for a normal form N (each basis element hit by or
    sent to at most one other, times a factor) and random unimodular P:
    torsion from the factors > 1 survives the base change."""
    dims = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
    changes = [unimodular(rng, n) for n in dims]
    boundary, targets = {}, set()
    for d in range(1, len(dims)):
        sources = set()
        free_rows = [r for r in range(dims[d - 1]) if r not in targets]
        normal = [[0] * dims[d] for _ in range(dims[d - 1])]
        for col in rng.sample(range(dims[d]), min(dims[d], len(free_rows), 2)):
            row = free_rows.pop(rng.randrange(len(free_rows)))
            normal[row][col] = rng.choice([1, 2, 3, 4, 6, -2])
            sources.add(col)
        targets = sources
        boundary[d] = chains.mat_mul(
            chains.mat_mul(changes[d - 1][0], normal), changes[d][1]
        )
    bases = {d: [f"e{d}_{i}" for i in range(n)] for d, n in enumerate(dims)}
    return from_dense(bases, boundary)


class TestSparseHomology:
    def test_matches_dense_snf_on_every_small_component(self):
        for variant in ("standard", "primed-variant"):
            for opens, out_open, m in components([(2, 4), (3, 3)]):
                cx = component_complex(opens, out_open, m, variant)
                assert chains.homology_all(cx) == {
                    d: dense_homology(cx, d) for d in cx.degrees()
                }, (opens, out_open, m, variant)

    def test_matches_sympy_on_random_torsion_complexes(self):
        rng = random.Random(7)
        with_torsion = 0
        for _ in range(60):
            cx = random_complex(rng)
            cx.validate()
            want = {}
            for d in cx.degrees():
                ranks, torsion = [], []
                for e in (d, d + 1):
                    if cx.dim(e) and cx.dim(e - 1):
                        diag = sympy_snf(sympy.Matrix(cx.matrix(e)))
                        factors = [
                            abs(diag[i, i]) for i in range(min(diag.shape)) if diag[i, i]
                        ]
                        ranks.append(len(factors))
                        if e == d + 1:
                            torsion = sorted(int(f) for f in factors if f > 1)
                    else:
                        ranks.append(0)
                want[d] = (cx.dim(d) - sum(ranks), torsion)
            got = chains.homology_all(cx)
            assert got == want
            assert got == {d: dense_homology(cx, d) for d in cx.degrees()}
            with_torsion += any(t for _, t in got.values())
        assert with_torsion >= 20

    def test_one_validation_and_at_most_one_snf_per_boundary(self, monkeypatch):
        validated, snf_calls = [], []
        validate, snf = ChainComplex.validate, chains.smith_normal_form

        def counting_validate(self):
            validated.append(id(self))
            return validate(self)

        def counting_snf(matrix):
            snf_calls.append(len(matrix))
            return snf(matrix)

        monkeypatch.setattr(ChainComplex, "validate", counting_validate)
        monkeypatch.setattr(chains, "smith_normal_form", counting_snf)
        for opens, out_open, m in components([(2, 4), (3, 2)]):
            validated.clear()
            snf_calls.clear()
            cx = component_complex(opens, out_open, m)
            boundaries = len(validate(cx))
            component_homology(opens, out_open, m)
            assert len(validated) == 1
            assert len(snf_calls) <= boundaries
        rng = random.Random(3)
        residues = 0
        for _ in range(10):
            validated.clear()
            snf_calls.clear()
            cx = random_complex(rng)
            boundaries = len(validate(cx))
            chains.homology_all(cx)
            assert len(validated) == 1
            assert len(snf_calls) <= boundaries
            residues += len(snf_calls)
        assert residues


def closed_form(k: int, m: int) -> dict[int, int]:
    """Nonzero Betti numbers of E_m in arity k: the coefficients of
    prod_{j<k} (1 + j t^(m-1)) (Arnold; F. Cohen)."""
    poly = {0: 1}
    for j in range(1, k):
        nxt: dict[int, int] = {}
        for d, c in poly.items():
            nxt[d] = nxt.get(d, 0) + c
            nxt[d + m - 1] = nxt.get(d + m - 1, 0) + j * c
        poly = nxt
    return poly


def betti(hom) -> dict[int, int]:
    assert all(not torsion for _, torsion in hom.values())
    return {d: rank for d, (rank, _) in hom.items() if rank}


class TestReach:
    """Components beyond the dense engine's reach, against closed forms."""

    def test_e3_arity_four(self):  # 12,600 cells
        assert betti(component_homology([False] * 4, False, 3)) == closed_form(4, 3)
        assert closed_form(4, 3) == {0: 1, 2: 6, 4: 11, 6: 6}

    def test_e2_arity_five(self):  # 10,800 cells
        assert betti(component_homology([False] * 5, False, 2)) == closed_form(5, 2)

    def test_e2_arity_four(self):  # 528 cells
        assert betti(component_homology([False] * 4, False, 2)) == closed_form(4, 2)

    def test_swiss_cheese_two_closed_two_open(self):
        # (1 + t)(1 + t^2) at m = 3
        hom = component_homology([False, False, True, True], True, 3)
        assert betti(hom) == {0: 1, 1: 1, 2: 1, 3: 1}


def reference_boundaries(bases: dict[int, list], image) -> dict:
    """Dense boundary matrices filled entry by entry from ``image``: the
    dense ``build_complex`` that the sparse columns replaced."""
    boundary = {}
    for d, elems in bases.items():
        if d - 1 not in bases:
            continue
        lower = bases[d - 1]
        index = {e: r for r, e in enumerate(lower)}
        mat = [[0] * len(elems) for _ in lower]
        for col, e in enumerate(elems):
            for t, c in image(e):
                row = index.get(t)
                if row is None:
                    raise ValueError(
                        f"boundary of {e!r} has the term {t!r} outside degree {d - 1}"
                    )
                mat[row][col] += c
        boundary[d] = mat
    return boundary


def reference_cases():
    """(label, complex, dense reference boundaries) for the surjection
    components, the word complexes of the cobar constructions and the raw
    and quotient totalizations."""
    for variant in ("standard", "primed-variant"):
        for opens, out_open, m in components([(2, 4), (3, 3)]):
            cx = component_complex(opens, out_open, m, variant)
            want = reference_boundaries(cx.bases, differential)
            yield (opens, out_open, m, variant), cx, want
    for params in test_cobar.SAMPLE_FAMILY:
        cob, rels = test_cobar.TestMemoizedConstructions.constructions(params)
        for con in [cob] + rels:
            cx = con.chain_complex()
            want = reference_boundaries(
                cx.bases, lambda w: test_cobar.reference_diff_basis(con, w)
            )
            yield params, cx, want
    Z2, Z3 = FiniteMonoid.cyclic(2), FiniteMonoid.cyclic(3)
    for B in (group_bialgebra(Z2), group_bialgebra(Z3), dual_group_bialgebra(Z2)):
        for C in (None, diagonal_comodule(B)):
            tot = CobarTot(B, C, 4)
            cx = tot.chain_complex()
            want = reference_boundaries(
                cx.bases, lambda e: tot.differential(LinComb.unit(e))
            )
            yield ("raw", B.basis, C is None), cx, want
    for M, subs in ((Z2, [(0,), (0, 1)]), (Z3, [(0,), (0, 1, 2)])):
        for sub in subs:
            for kind in ("closed", "open"):
                tot = TotComplex(M, sub, 4, kind)
                cx = tot.chain_complex()

                def image(e):
                    return [
                        (b, c)
                        for b, c in tot.differential(LinComb.unit(e))
                        if tot._normal(tot._split(b)[0])
                    ]

                want = reference_boundaries(cx.bases, image)
                yield ("quotient", M.elements, sub, kind), cx, want


class TestBuildComplex:
    def test_columns_match_dense_reference(self):
        cases = 0
        for label, cx, want in reference_cases():
            assert matrices(cx) == want, label
            assert all(0 not in col.values() for cols in cx.columns.values() for col in cols)
            cx.validate()
            cases += 1
        assert cases == 60 + 3 * len(test_cobar.SAMPLE_FAMILY) + 6 + 8

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
        assert matrices(cx) == {1: [[-1], [1]]}
        assert cx.bases == bases

    @pytest.mark.parametrize(
        "bases", [{0: ["v", "w", "v"], 1: ["e"]}, {0: ["v", "w"], 1: ["e", "e"]}]
    )
    def test_basis_listing_an_element_twice_is_refused(self, bases):
        # the top degree too, which no column indexes
        images = {"e": LinComb({"w": 1, "v": -1})}
        with pytest.raises(ValueError, match="lists '(v|e)' twice"):
            build_complex(bases, images.__getitem__)

    def test_non_injective_naming_is_refused(self):
        # both elements of Z/2 named "x": a doubled basis in every level
        B = monoid_bialgebra(FiniteMonoid.cyclic(2), lambda g: "x")
        with pytest.raises(ValueError, match="twice"):
            CobarTot(B, truncation=2).chain_complex()

    def test_repeated_image_terms_are_summed(self):
        bases = {0: ["v", "w"], 1: ["e"]}
        image = {"e": [("w", 2), ("v", 1), ("w", 1), ("v", -1)]}
        cx = build_complex(bases, image.__getitem__)
        assert cx.columns == {1: [{1: 3}]}

    def test_surjection_component_matrices_frozen(self):
        cx = component_complex((False, False), False, 2)
        assert [[str(s.underlying) for s in cx.bases[d]] for d in (0, 1)] == [
            ["(12)^c", "(21)^c"],
            ["(121)^c", "(212)^c"],
        ]
        assert matrices(cx) == {1: [[-1, 1], [1, -1]]}
        assert matrices(component_complex((True, False), True, 2)) == {1: [[-1], [1]]}

    def test_totalization_matrices_frozen(self):
        Z2 = FiniteMonoid.cyclic(2)
        raw = CobarTot(group_bialgebra(Z2), truncation=2).chain_complex()
        assert matrices(raw) == {0: [[0], [0]], -1: [[1, 0], [0, 1], [0, 1], [0, -1]]}
        quotient = TotComplex(Z2, (0, 1), 3, "open").chain_complex()
        assert quotient.bases[-3] == [((1, 0, 1), 0), ((1, 0, 1), 1)]
        assert matrices(quotient) == {
            0: [[0, 0], [0, -1]],
            -1: [[1, 0], [0, 0]],
            -2: [[0, 0], [0, -1]],
        }
