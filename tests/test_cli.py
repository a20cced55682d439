"""Command-line interface: golden outputs, exit codes, seeded stability."""

import json
import time

import pytest

from operadix import cli, strings, surjections
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
        monkeypatch.setenv("OPERADIX_SEED", "3")
        parser_seeded = cli._build_parser().parse_args(
            ["cells", "--closed", "1", "--open", "0"]
        )
        assert parser_seeded.seed == 3

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
        code, out, _ = run(capsys, "verify", "--suite", suite, "--samples", "30")
        assert code == 0
        assert "ok" in out

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


class TestCobarCommand:
    def test_report_holds(self, capsys):
        code, out, _ = run(capsys, "cobar", "--order", "2", "--max-level", "1",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert all(entry["holds"] for entry in data.values())
