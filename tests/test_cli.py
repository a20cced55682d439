"""Command-line interface: golden outputs, exit codes, seeded stability."""

import argparse
import json
import time

import pytest

from operadix import chains, cli, cobar, geometry, graphs, loops, strings, surjections
from operadix.chains import LinComb

from corpus import CORPUS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_round_trip_corpus(self, capsys):
        for text in CORPUS:
            code, out, _ = run(capsys, "parse", text, "--json")
            assert code == 0
            assert json.loads(out)["text"] == text

    def test_bad_string_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "(1a)^c")
        assert code == 2
        assert "error" in err


class TestCompose:
    def test_golden_example(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "(1u2|1u4u231||u2u4)^o",
            "(1u3|21u3|u31)^o",
            "--at",
            "u2",
        )
        assert code == 0
        assert out.strip() == "(12u4|1u632u451||u42u6)^o"

    def test_numeric_slot(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "(1u2|1u4u231||u2u4)^o",
            "(1u3|21u3|u31)^o",
            "--at",
            "2",
        )
        assert code == 0
        assert out.strip() == "(12u4|1u632u451||u42u6)^o"

    def test_labels_past_nine_are_braced(self, capsys):
        code, out, _ = run(capsys, "compose", "(12345)^c", "(123456)^c", "--at", "1")
        assert code == 0 and out == "(123456789{10})^c\n"

    def test_bad_slot_exits_2(self, capsys):
        code, _, _ = run(capsys, "compose", "(12)^c", "(1)^c", "--at", "u1")
        assert code == 2


class TestAct:
    def test_golden_example(self, capsys):
        code, out, _ = run(capsys, "act", "2,3,1", "(1u2|3u211||u21)^o")
        assert code == 0
        assert out.strip() == "(2u3|1u322||u32)^o"


class TestQ:
    def test_edge_listing(self, capsys):
        code, out, _ = run(capsys, "q", "(12|21)^c")
        assert code == 0
        assert out.strip() == "2->1 level 2"


class TestHomology:
    def test_two_closed_inputs(self, capsys):
        code, out, _ = run(capsys, "homology", "--component", "c,c:c", "--m", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert "H_0 = rank 1" in lines
        assert "H_1 = rank 1" in lines

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--component", "o,o:o", "--m", "2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["0"] == {"rank": 2, "torsion": []}

    def test_bad_component_exits_2(self, capsys):
        code, _, _ = run(capsys, "homology", "--component", "x:y")
        assert code == 2


class TestEnumerateAndTree:
    def test_enumerate_strings(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "strings", "--colours", "c1,c0:c0"
        )
        assert code == 0
        assert sorted(out.split()) == ["(112)^c", "(121)^c", "(211)^c"]

    def test_enumerate_component(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "component", "--component", "o,o:o"
        )
        assert code == 0
        assert len(out.split()) == 2

    def test_oversized_graph_enumeration_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "enumerate", "--kind", "graphs",
            "--component", "c,c,c,c,c,c:c", "--m", "3",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not out and "enumeration limit" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (
                ("enumerate", "--kind", "strings", "--colours", "c3,c3,c3:c5"),
                "more than 250000 strings at m=3",
            ),
            (
                ("homology", "--component", "c,c,c,c,c:c"),
                "5 inputs at m=3 give more than 210000 cells",
            ),
        ],
        ids=["strings", "component"],
    )
    def test_oversized_enumeration_fails_fast(self, capsys, argv, named):
        # 15,853,656 strings and 2,090,520 cells
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--m", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not out and err.startswith("error: ") and named in err
        assert "enumeration limit" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--kind", "component", "--component", "c:c"),
            ("homology", "--component", "c,c:c", "--json"),
            ("enumerate", "--kind", "graphs", "--component", "c,c:c"),
            ("enumerate", "--kind", "strings", "--colours", "c1,c0:c0"),
        ],
    )
    def test_level_below_one_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--m", "0")
        assert code == 2
        assert not out and "m must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--kind", "graphs", "--component", "c,c:c", "--m", "1"),
            ("verify", "--suite", "chain-core", "--samples", "5"),
        ],
    )
    def test_primed_variant_rejected_where_absent(self, capsys, argv):
        # graphs, and the verify suites, have only the standard filtration
        code, out, err = run(capsys, *argv, "--variant", "primed-variant")
        assert code == 2
        assert not out and "standard filtration" in err
        code, out, _ = run(capsys, *argv, "--variant", "standard")
        assert code == 0 and out == run(capsys, *argv)[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("parse", "(12|21)^c"),
            ("compose", "(12)^c", "(1)^c", "--at", "1"),
            ("act", "2,1", "(12|21)^c"),
            ("q", "(12|21)^c"),
            ("tree", "(12|21)^c"),
            ("cells",),
            ("loops",),
            ("cobar",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_variant_refused_where_unread(self, capsys, argv):
        # only filtration, enumerate, homology and verify read --variant;
        # elsewhere it is a usage error, not a silently ignored option
        assert run(capsys, *argv)[0] == 0
        for variant in ("standard", "primed-variant"):
            code, out, err = run(capsys, *argv, "--variant", variant)
            assert code == 2
            assert not out and "unrecognized arguments: --variant" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (argv, option)
            for argv, options in [
                (("parse", "(12|21)^c"), ("--m", "--seed")),
                (("compose", "(12)^c", "(1)^c", "--at", "1"), ("--m", "--seed")),
                (("act", "2,1", "(12|21)^c"), ("--m", "--seed")),
                (("filtration", "(12|21)^c"), ("--seed",)),
                (("q", "(12|21)^c"), ("--m", "--seed")),
                (("enumerate",), ("--seed",)),
                (("tree", "(12|21)^c"), ("--json", "--m", "--seed")),
                (("homology", "--component", "c:c"), ("--seed",)),
                (("loops",), ("--m", "--seed")),
                (("cobar",), ("--m", "--seed")),
            ]
            for option in options
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_shared_option_refused_where_unread(self, capsys, argv, option):
        # --json, --m and --seed are registered only where the handler reads
        # them; no abbreviation stands in (cobar's --m is not --max-level)
        assert run(capsys, *argv)[0] == 0
        value = () if option == "--json" else ("3",)
        code, out, err = run(capsys, *argv, option, *value)
        assert code == 2
        assert not out and f"unrecognized arguments: {option}" in err

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "tree", "(12|21)^c")
        assert code == 0
        assert out.strip().splitlines()[0] == "1"


class TestSeededReports:
    def test_cells_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "cells", "--closed", "2", "--open", "1",
                         "--seed", "3", "--json")
        _, out2, _ = run(capsys, "cells", "--closed", "2", "--open", "1",
                         "--seed", "3", "--json")
        assert out1 == out2

    def test_seed_env_default(self, capsys, monkeypatch):
        # an absent --seed reads OPERADIX_SEED in the handler; the parser
        # has no seed default, so one parser serves every value
        for argv in (
            ("cells", "--closed", "1", "--open", "0", "--json"),
            ("verify", "--suite", "chain-core", "--samples", "20", "--json"),
        ):
            monkeypatch.setenv("OPERADIX_SEED", "3")
            _, from_env, _ = run(capsys, *argv)
            monkeypatch.delenv("OPERADIX_SEED")
            _, seed3, _ = run(capsys, *argv, "--seed", "3")
            assert from_env == seed3, argv
        monkeypatch.setenv("OPERADIX_SEED", "3")
        parser = cli._parser()
        monkeypatch.setenv("OPERADIX_SEED", "4")
        assert cli._parser() is parser

    def test_seed_env_read_on_every_call(self, capsys, monkeypatch):
        argv = ("cells", "--closed", "2", "--open", "1", "--json")
        monkeypatch.setenv("OPERADIX_SEED", "3")
        _, from_env, _ = run(capsys, *argv)
        _, seed3, _ = run(capsys, *argv, "--seed", "3")
        assert from_env == seed3
        monkeypatch.delenv("OPERADIX_SEED")
        _, unset, _ = run(capsys, *argv)
        _, seed0, _ = run(capsys, *argv, "--seed", "0")
        assert unset == seed0 != seed3
        _, again, _ = run(capsys, *argv)
        assert again == unset

    def test_seed_env_read_only_for_an_absent_seed(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "config.json"
        _, out, _ = run(capsys, "cells", "--json")
        config.write_text(json.dumps(json.loads(out)["config"]))
        monkeypatch.setenv("OPERADIX_SEED", "abc")
        for argv in (
            ("cells", "--seed", "3"),
            ("cells", "--config", str(config)),
            ("verify", "--suite", "chain-core", "--samples", "5", "--seed", "3"),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out, argv
        for argv in (("cells",), ("verify", "--suite", "chain-core", "--samples", "5")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert err == "error: OPERADIX_SEED must be an integer, not 'abc'\n"

    @pytest.mark.parametrize(
        "option", ["--closed", "--open", "--denominator", "--m", "--seed"]
    )
    def test_config_refuses_random_configuration_options(
        self, capsys, tmp_path, option
    ):
        # a saved configuration reads none of them: each would be ignored
        config = tmp_path / "config.json"
        _, out, _ = run(capsys, "cells", "--json")
        config.write_text(json.dumps(json.loads(out)["config"]))
        code, saved, _ = run(capsys, "cells", "--config", str(config))
        assert code == 0 and saved
        code, out, err = run(capsys, "cells", "--config", str(config), option, "3")
        assert code == 2
        assert not out and option in err and "--config" in err

    def test_verify_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "chain-core",
                         "--samples", "20", "--json")
        _, out2, _ = run(capsys, "verify", "--suite", "chain-core",
                         "--samples", "20", "--json")
        assert out1 == out2


class TestVerify:
    @pytest.mark.parametrize(
        "suite",
        ["chain-core", "rs-operad", "sc-geometry", "loop-model", "cobar"],
    )
    def test_suites_pass(self, capsys, suite):
        samples = () if suite in ("loop-model", "cobar") else ("--samples", "30")
        code, out, _ = run(capsys, "verify", "--suite", suite, *samples)
        assert code == 0
        assert "ok" in out

    def test_sc_geometry_in_a_1_cube(self, capsys):
        # at most one open box per configuration: two would overlap on the
        # floor of the cube's only axis
        code, out, _ = run(
            capsys, "verify", "--suite", "sc-geometry", "--m", "1", "--samples", "100"
        )
        assert code == 0
        assert "ok" in out

    @pytest.mark.parametrize("suite", ["loop-model", "cobar"])
    @pytest.mark.parametrize("option", ["--samples", "--seed"])
    def test_fixed_suites_refuse_samples_and_seed(self, capsys, suite, option):
        # these suites check a fixed set of cases: a sample count or a seed
        # would be accepted and ignored
        code, out, err = run(capsys, "verify", "--suite", suite, option, "3")
        assert code == 2
        assert not out and option in err and f"--suite {suite}" in err

    @pytest.mark.parametrize(
        "suite, option",
        [
            (suite, "--m")
            for suite in ("chain-core", "loop-model", "cobar")
        ]
        + [
            (suite, "--max-tokens")
            for suite in ("chain-core", "rs-operad", "sc-geometry", "loop-model", "cobar")
        ],
    )
    def test_suites_refuse_m_and_max_tokens_they_ignore(self, capsys, suite, option):
        code, out, err = run(capsys, "verify", "--suite", suite, option, "3")
        assert code == 2
        assert not out and option in err and f"--suite {suite}" in err

    def test_rs_operad_failure_names_a_witness(self, capsys, monkeypatch):
        argv = ("verify", "--suite", "rs-operad", "--samples", "30", "--json")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "witness" not in json.loads(out)["rs-operad"]
        rs_compose = surjections.rs_compose

        def wrong_sign(f, i, g):
            return (-1) ** (g.degree % 2) * rs_compose(f, i, g)

        monkeypatch.setattr(surjections, "rs_compose", wrong_sign)
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)["rs-operad"]
        assert code == 1 and report["failures"] > 0
        f, i, g = report["witness"]
        f = surjections.Surjection(strings.parse(f))
        g = surjections.Surjection(strings.parse(g))
        lhs = surjections.linear_differential(wrong_sign(f, i, g))
        rhs = surjections._compose_linear(
            surjections.differential(f), i, LinComb.unit(g)
        ) + (-1) ** (f.degree % 2) * surjections._compose_linear(
            LinComb.unit(f), i, surjections.differential(g)
        )
        assert lhs != rhs

    def test_rs_operad_witness_of_a_nonzero_square(self, capsys, monkeypatch):
        differential = surjections.differential

        def unsigned(u):
            return LinComb((b, 1) for b, _ in differential(u))

        monkeypatch.setattr(surjections, "differential", unsigned)
        code, out, _ = run(
            capsys, "verify", "--suite", "rs-operad", "--m", "3", "--json"
        )
        witness = json.loads(out)["rs-operad"]["witness"]
        assert code == 1
        s = surjections.Surjection(strings.parse(witness))
        assert surjections.linear_differential(unsigned(s))

    def _passing_argv(self, capsys, suite, samples="30"):
        # the argv of a passing run, which reports no witness; samples=None
        # gives no sample count, as the fixed suites take none
        count = () if samples is None else ("--samples", samples)
        argv = ("verify", "--suite", suite, *count, "--json")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "witness" not in json.loads(out)[suite]
        return argv

    def _witness(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)[argv[2]]
        assert code == 1 and report["failures"] > 0
        return report["witness"]

    def test_rl_operad_witness(self, capsys, monkeypatch):
        argv = self._passing_argv(capsys, "rl-operad")
        block_perm = strings.block_perm
        monkeypatch.setattr(
            strings, "block_perm", lambda sigma, i, l: block_perm(sigma, i, l)[::-1]
        )
        law, sigma, f, i, g = self._witness(capsys, argv)
        assert law == "equivariance"
        f, g = strings.parse(f), strings.parse(g)
        l = strings.arity(g)
        fg = strings.compose(f, i, g)
        rhs = strings.compose(strings.sym_act(sigma, f), sigma[i - 1], g)
        assert strings.sym_act(block_perm(sigma, i, l), fg) == rhs
        assert strings.sym_act(strings.block_perm(sigma, i, l), fg) != rhs

    def test_graph_operad_witness(self, capsys, monkeypatch):
        argv = self._passing_argv(capsys, "graph-operad")
        in_filtration = strings.in_filtration
        monkeypatch.setattr(
            strings, "in_filtration", lambda x, m: in_filtration(x, m - 1)
        )
        f, i, g = self._witness(capsys, argv)
        fg = strings.compose(strings.parse(f), i, strings.parse(g))
        assert in_filtration(fg, 2) and not in_filtration(fg, 1)

    def test_chain_core_witness(self, capsys, monkeypatch):
        argv = self._passing_argv(capsys, "chain-core")
        smith_normal_form = chains.smith_normal_form

        def no_row_ops(mat):
            d, _, right = smith_normal_form(mat)
            rows = range(len(mat))
            return d, [[int(r == c) for c in rows] for r in rows], right

        monkeypatch.setattr(chains, "smith_normal_form", no_row_ops)
        mat = self._witness(capsys, argv)
        d, left, right = smith_normal_form(mat)
        assert chains.mat_mul(chains.mat_mul(left, mat), right) == d
        assert chains.mat_mul(mat, right) != d

    def test_sc_geometry_witness(self, capsys, monkeypatch):
        argv = self._passing_argv(capsys, "sc-geometry")
        cell_contains = geometry.cell_contains
        monkeypatch.setattr(geometry, "cell_contains", lambda alpha, cfg: True)
        cfg = geometry.config_from_json(self._witness(capsys, argv))
        # a weaker cell that only the broken kernel says contains cfg
        alpha = geometry.cell_index(cfg)
        weaker = [
            graphs.GraphElement(
                alpha.vertex_open,
                {**alpha.edge_dict(), e: (mu - 1, o)},
                alpha.output_open,
            )
            for e, (mu, o) in alpha.edge_dict().items()
            if mu > 1
        ]
        weaker = [w for w in weaker if graphs.validate(w)]
        assert weaker and not any(cell_contains(w, cfg) for w in weaker)

    def test_loop_model_checks_every_pair(self, capsys):
        # the 8 basis pairs; the suite takes no sample count
        argv = self._passing_argv(capsys, "loop-model", samples=None)
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["loop-model"]["homotopyCases"] == 8

    def test_loop_model_witness(self, capsys, monkeypatch):
        # two of the 8 pairs have products that differ
        argv = self._passing_argv(capsys, "loop-model", samples=None)
        monkeypatch.setattr(cobar, "act_Tj", lambda tot, f, hs: LinComb())
        fb, (xs, y) = self._witness(capsys, argv)
        M = loops.FiniteMonoid.cyclic(2)
        tot = loops.TotComplex(M, M.elements, 4, "open")
        closed = loops.TotComplex(M, M.elements, 4, "closed")
        f = loops.inc_tot(tot, closed.conormal_project(LinComb.unit(tuple(fb))))
        u = tot.conormal_project(LinComb.unit((tuple(xs), y)))
        sign = (-1) ** (len(fb) * len(xs) % 2)
        # with H = 0 the homotopy identity says the two products agree
        assert tot.conormal_project(
            loops.sqcup(tot, f, u) - sign * loops.sqcup(tot, u, f)
        )

    def test_broken_coface_is_a_failure(self, capsys, monkeypatch):
        # a broken cosimplicial identity fails the suite (exit 1), and the
        # other suites still report
        argv = self._passing_argv(capsys, "loop-model", samples=None)
        coface = loops.CosimplicialAbGroup.coface

        def broken(self, i, elem):
            xs, y = coface(self, i, elem)
            return (xs, y) if i else (xs[::-1], y)

        monkeypatch.setattr(loops.CosimplicialAbGroup, "coface", broken)
        assert self._witness(capsys, argv).startswith("coface identity fails at")
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--samples", "4", "--json"
        )
        report = json.loads(out)
        assert code == 1 and sorted(report) == sorted(cli._SUITES) and len(report) == 7
        assert not report["loop-model"]["ok"]

    def test_broken_unreduced_differential_is_a_failure(self, capsys, monkeypatch):
        # without its first coproduct coface the unreduced differential no
        # longer squares to zero: a failure (exit 1), reported beside the
        # first relation the broken coface fails, and the other suites still
        # report
        argv = self._passing_argv(capsys, "cobar", samples=None)
        coface = cobar.CobarTot._coface_basis
        monkeypatch.setattr(
            cobar.CobarTot,
            "_coface_basis",
            lambda tot, i, b: [] if i == 1 else coface(tot, i, b),
        )
        code, out, _ = run(capsys, *argv)
        assert code == 1 and '"unreducedDSquared": false' in out
        assert json.loads(out)["cobar"]["witness"][0] == "cup-chain-map"
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--samples", "4", "--json"
        )
        report = json.loads(out)
        assert code == 1 and sorted(report) == sorted(cli._SUITES) and len(report) == 7
        assert report["cobar"]["unreducedDSquared"] is False

    def test_sampled_string_suites_pass(self, capsys):
        for suite in ("rl-operad", "graph-operad"):
            code, _, _ = run(
                capsys,
                "verify",
                "--suite",
                suite,
                "--samples",
                "25",
                "--max-tokens",
                "5",
            )
            assert code == 0


class TestLoopsCommand:
    def test_oversized_window_fails_fast(self, capsys):
        # about 2^42 raw tuples would be scanned before any homology
        start = time.perf_counter()
        code, out, err = run(capsys, "loops", "--truncate", "40")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not out and "window limit" in err

    def test_oversized_monoid_fails_before_its_table_checks(self, capsys):
        # building the cyclic monoid would check 10^15 associativity triples
        start = time.perf_counter()
        code, out, err = run(capsys, "loops", "--order", "100000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not out and "window limit" in err


class TestCobarCommand:
    def test_report_holds(self, capsys):
        code, out, _ = run(capsys, "cobar", "--order", "2", "--max-level", "1",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert all(entry["holds"] for entry in data.values())

    @pytest.mark.parametrize(
        "argv",
        [
            ("--order", "10", "--max-level", "2"),
            ("--order", "100000", "--dual"),
            ("--order", "2", "--truncate", "1000000000",
             "--max-level", "1000000000"),
        ],
        ids=["order-10", "huge-dual", "huge-levels"],
    )
    def test_oversized_window_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "cobar", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not out and "window limit" in err

    def test_failing_relation_names_its_witness(self, capsys, monkeypatch):
        # twisted concatenation with its arguments swapped is no chain map;
        # the report and the verify suite name the same first failing pair
        sqcup = cobar.sqcup

        def swapped(tot, u, v):
            return sqcup(tot, v, u)

        monkeypatch.setattr(cobar, "sqcup", swapped)
        code, out, _ = run(capsys, "cobar", "--order", "2", "--json")
        entry = json.loads(out)["mu-o-chain-map"]
        assert code == 1 and not entry["holds"]
        (du, (wu, cu)), (dv, (wv, cv)) = witness = entry["witness"]
        assert (len(wu), len(wv)) == (du, dv)
        code, out, _ = run(capsys, "verify", "--suite", "cobar", "--json")
        assert code == 1
        assert json.loads(out)["cobar"]["witness"] == ["mu-o-chain-map", witness]
        # the named pair breaks the relation with the swapped product only
        B = cobar.group_bialgebra(loops.FiniteMonoid.cyclic(2))
        rel = cobar.CobarTot(B, cobar.diagonal_comodule(B), 4)
        u = rel.conormal_project(LinComb.unit((tuple(wu), cu)))
        v = rel.conormal_project(LinComb.unit((tuple(wv), cv)))
        d = rel.differential

        def defect(op):
            return rel.conormal_project(
                d(op(rel, u, v)) - op(rel, d(u), v) - (-1) ** du * op(rel, u, d(v))
            )

        assert defect(swapped) and not defect(sqcup)

    def test_benchmark_argv_still_run(self, capsys):
        for argv in (
            ("--order", "2"),
            ("--order", "3"),
            ("--order", "2", "--max-level", "2"),
        ):
            code, out, _ = run(capsys, "cobar", *argv, "--json")
            assert code == 0
            assert all(entry["holds"] for entry in json.loads(out).values())


# bad input that printed a report, died with a traceback or ended in an
# uncaught sampler error, each with the text its message must hold
BAD_INPUT = [
    (("loops", "--order", "3", "--sub", "0,0,0", "--json"), "0 is listed twice"),
    (("loops", "--order", "2", "--sub", "0,7"), "7 is not an element"),
    (("cells", "--m", "0"), "m >= 1"),
    (("cells", "--closed", "13", "--m", "1"), "rejection sampling failed"),
    (("cells", "--denominator", "1"), "denominator of at least 2"),
    (("cells", "--closed", "-1"), "nonnegative"),
    (("cells", "--open", "2", "--closed", "0", "--m", "1"), "at most one open box"),
    (("verify", "--suite", "rl-operad", "--max-tokens", "0"), "--max-tokens"),
    (("verify", "--suite", "graph-operad", "--max-tokens", "0"), "--max-tokens"),
    (
        ("verify", "--suite", "graph-operad", "--max-tokens", "9"),
        "--max-tokens must be at most 8, not 9",
    ),
    (("verify", "--suite", "rs-operad", "--samples", "-1"), "--samples"),
    (("verify", "--suite", "sc-geometry", "--samples", "-2"), "--samples"),
    (
        ("verify", "--suite", "chain-core", "--samples", "0", "--json"),
        "--samples must be at least 1, not 0",
    ),
    (
        ("verify", "--suite", "sc-geometry", "--samples", "0"),
        "--samples must be at least 1, not 0",
    ),
    (("loops", "--truncate", "-1", "--json"), "--truncate must be at least 0, not -1"),
    (("cobar", "--truncate", "-1", "--json"), "--truncate must be at least 0, not -1"),
    (
        ("cobar", "--max-level", "-1", "--json"),
        "--max-level must be at least 0, not -1",
    ),
    (("cobar", "--truncate", "0", "--json"), "leave cup-chain-map without a case"),
    (
        ("cobar", "--truncate", "1", "--json"),
        "leave e11-commutator-homotopy without a case",
    ),
    (
        ("cobar", "--truncate", "2", "--max-level", "0", "--json"),
        "leave e11-commutator-homotopy without a case",
    ),
    (("loops", "--sub", "0,x"), "--sub must be comma-separated integers"),
    (("loops", "--sub", ""), "--sub must be comma-separated integers, not ''"),
    (("act", "2,x", "(12)^c"), "the permutation must be comma-separated integers"),
]


@pytest.mark.parametrize(
    "argv, named", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT]
)
def test_bad_input_exits_2(capsys, monkeypatch, argv, named):
    # fewer sampler restarts: a box count the grid cannot hold is refused
    # the same way, in milliseconds rather than seconds
    monkeypatch.setattr(geometry, "_MAX_TRIES", 3)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out and err.startswith("error: ") and named in err
    assert "Traceback" not in err


MALFORMED_CONFIGS = {
    "no outputOpen": ({"m": 2, "closed": []}, "no 'outputOpen'"),
    "float endpoint": (
        {"m": 1, "closed": [[[[0.25, 0.5], [1, 2]]]], "outputOpen": False},
        "an endpoint is [int, nonzero int], not [0.25, 0.5]",
    ),
    "top-level list": ([[1, 2]], "a configuration is a JSON object"),
    "zero denominator": (
        {"m": 1, "closed": [[[[1, 0], [1, 2]]]], "outputOpen": False},
        "not [1, 0]",
    ),
    "outputOpen a string": (
        {"m": 1, "closed": [], "outputOpen": "no"},
        "'outputOpen' must be true or false, not 'no'",
    ),
    "m zero": ({"m": 0, "outputOpen": False}, "'m' must be an integer >= 1"),
    "boxes not a list": (
        {"m": 1, "closed": {}, "outputOpen": False},
        "'closed' must be a list",
    ),
}


@pytest.mark.parametrize(
    "data, named", MALFORMED_CONFIGS.values(), ids=list(MALFORMED_CONFIGS)
)
def test_malformed_config_exits_2(capsys, tmp_path, data, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "cells", "--config", str(config))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert not out and err.startswith("error: ") and named in err
    assert "Traceback" not in err


class _Recorder:
    """A namespace that notes each attribute a handler reads."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


# for each subcommand, valid argv that together take every branch of its
# handler
OPTION_READ_ARGV = {
    "parse": [["(12|21)^c"]],
    "compose": [["(12)^c", "(1)^c", "--at", "1"]],
    "act": [["2,1", "(12|21)^c"]],
    "filtration": [["(12|21)^c"]],
    "q": [["(12|21)^c"]],
    "enumerate": [
        ["--kind", "component"],
        ["--kind", "graphs", "--component", "c,c:c", "--m", "1"],
        ["--kind", "strings", "--colours", "c1,c0:c0"],
    ],
    "tree": [["(12|21)^c"]],
    "homology": [["--component", "c:c"]],
    "cells": [["--closed", "1"], ["--config", "CONFIG"]],
    "loops": [[], ["--sub", "0"]],
    "cobar": [[]],
    "verify": [["--suite", "all", "--samples", "4", "--max-tokens", "4"]],
}


def test_every_option_is_read(capsys, tmp_path):
    # an option a subcommand registers but never reads would be accepted and
    # ignored; this is to options what test_every_definition_is_referenced is
    # to definitions
    config = tmp_path / "config.json"
    cli.main(["cells", "--json"])
    config.write_text(json.dumps(json.loads(capsys.readouterr().out)["config"]))
    parser = cli._parser()
    (commands,) = [
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(commands) == set(OPTION_READ_ARGV)
    unread = []
    for name, subparser in commands.items():
        registered = {
            action.dest
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        read = set()
        for argv in OPTION_READ_ARGV[name]:
            argv = [str(config) if a == "CONFIG" else a for a in argv]
            args = _Recorder(parser.parse_args([name, *argv]))
            assert args.func(args) == 0, (name, argv)
            read |= args.read
        capsys.readouterr()
        unread += [f"{name} {dest}" for dest in sorted(registered - read)]
    assert not unread, f"options no handler reads: {unread}"
