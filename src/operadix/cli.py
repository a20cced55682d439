"""Command-line front end.

Subcommands cover parsing and printing of integer strings, operadic
composition and symmetric actions, filtration membership, the forgetful map
to decorated complete graphs, basis enumeration, ASCII tree views, exact
homology of surjection components, rational cube configurations and their
cells, the finite-monoid loop-model homology, the cobar experimental
reports, and per-module verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Each
subcommand takes only the shared options its handler reads: ``--json``
(every report but the tree view) switches to machine-readable JSON, ``--m``
sets the filtration level, ``--seed`` the random seed, read from the
environment variable ``OPERADIX_SEED`` (else 0) when the option is absent,
and ``--variant`` the filtration variant.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import product
from random import Random

from . import chains, cobar, geometry, graphs, loops, strings, surjections, trees
from .chains import LinComb

__all__ = ["main"]


def _deferred_defaults() -> dict:
    """The defaults of the options parsed as None when absent, so that a
    handler can refuse one it would ignore: verify's window and sampling
    options and cells' random-configuration options.  The seed has none
    here: :func:`_environment_seed` reads it when it is needed."""
    return {
        "m": 2,
        "max_tokens": 5,
        "samples": 100,
        "seed": None,
        "closed": 2,
        "open": 0,
        "denominator": 16,
    }


def _environment_seed() -> int:
    """The default seed: ``OPERADIX_SEED``, else 0.  The environment is read
    here, on every call, and nowhere else."""
    value = os.environ.get("OPERADIX_SEED") or "0"
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"OPERADIX_SEED must be an integer, not {value!r}") from None


# The most tokens ``verify --max-tokens`` accepts.  The rl-operad and
# graph-operad suites build the whole ``strings.small_strings(max_tokens, 3,
# m)`` window before they draw a sample, and each extra token multiplies
# that work about four times.  On a shared 2-vCPU x86-64 machine
# ``--suite graph-operad --samples 1`` took 5.6-6.9 s and 167 MB at 8
# tokens, 11 s and 263 MB with ``--m 4`` (rl-operad the same), and 14.2 s
# and 288 MB at 9.
_MAX_TOKENS = 8

# the bounds of the integer options that have them; at 0 samples the
# sampled verify suites would check no case and still pass
_LEAST = {"--max-tokens": 1, "--samples": 1, "--truncate": 0, "--max-level": 0}
_MOST = {"--max-tokens": _MAX_TOKENS}


def _check_bounds(option: str, value: int) -> None:
    """Refuse ``value`` for ``option`` outside the option's bounds."""
    if value < _LEAST.get(option, value):
        raise ValueError(f"{option} must be at least {_LEAST[option]}, not {value}")
    if value > _MOST.get(option, value):
        raise ValueError(f"{option} must be at most {_MOST[option]}, not {value}")


def _fill_deferred(args, read, owner: str) -> None:
    """Fill in the default of each deferred option in ``read`` that ``args``
    holds unset, and refuse one given outside its bounds or although
    ``owner`` reads only the options ``read``."""
    for dest, default in _deferred_defaults().items():
        if not hasattr(args, dest):
            continue
        option = "--" + dest.replace("_", "-")
        value = getattr(args, dest)
        if value is None:
            if option in read:
                setattr(args, dest, _environment_seed() if dest == "seed" else default)
        elif option not in read:
            raise ValueError(
                f"{owner} reads "
                f"{' '.join(read) or 'no window or sampling option'}; "
                f"{option} does not apply"
            )
        else:
            _check_bounds(option, value)


def _emit(report: dict, as_json: bool, lines=None) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines if lines is not None else _human_lines(report):
            print(line)


def _human_lines(report: dict):
    for key in sorted(report):
        yield f"{key}: {report[key]}"


def _parse_component(spec: str):
    """'c,o:o' -> ([False, True], True)."""
    try:
        ins, out = spec.split(":")
        flags = [s.strip() for s in ins.split(",") if s.strip()]
        if any(f not in ("c", "o") for f in flags) or out.strip() not in ("c", "o"):
            raise ValueError
        return [f == "o" for f in flags], out.strip() == "o"
    except ValueError:
        raise ValueError(f"bad component spec {spec!r}; expected like 'c,o:o'")


def _parse_ints(spec: str, name: str) -> list[int]:
    """'2,1,3' -> [2, 1, 3]; ``name`` names the list in the error."""
    try:
        return [int(s) for s in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"{name} must be comma-separated integers, not {spec!r}"
        ) from None


def _parse_colours(spec: str):
    """'c0,c1:o2' -> ([Colour(0,False), Colour(1,False)], Colour(2,True))."""
    try:
        ins, out = spec.split(":")

        def one(tok: str) -> strings.Colour:
            tok = tok.strip()
            if tok[0] not in ("c", "o") or not tok[1:].isdigit():
                raise ValueError
            return strings.Colour(int(tok[1:]), tok[0] == "o")

        return [one(t) for t in ins.split(",") if t.strip()], one(out)
    except (ValueError, IndexError):
        raise ValueError(f"bad colours spec {spec!r}; expected like 'c0,c1:o2'")


def _slot_of(f: strings.IntegerString, token: str) -> int:
    """Resolve a ``--at`` token: a slot number, optionally in letter form
    ('u2' for the open letter 2)."""
    label = token[1:] if token.startswith("u") else token
    if not label.isdigit() or int(label) < 1:
        raise ValueError(f"bad slot token {token!r}")
    i = int(label)
    if i > strings.arity(f):
        raise ValueError(f"slot {i} out of range for arity {strings.arity(f)}")
    if token.startswith("u") and not any(t == -i for t in f.tokens):
        raise ValueError(f"letter {i} is not open in {strings.text(f)}")
    return i


def _edges(alpha: graphs.GraphElement) -> dict:
    """A graph's decorations as {"i,j": [level, orientation]}, by edge."""
    return {f"{i},{j}": list(d) for (i, j), d in sorted(alpha.edge_dict().items())}


def _homology_report(hom: dict) -> dict:
    """Homology as {degree: {rank, torsion}}, by degree."""
    return {
        str(d): {"rank": rank, "torsion": torsion}
        for d, (rank, torsion) in sorted(hom.items())
    }


def _string_report(x: strings.IntegerString) -> dict:
    ins, out = strings.colours(x)
    return {
        "text": strings.text(x),
        "arity": strings.arity(x),
        "inputColours": [[c.index, "o" if c.open else "c"] for c in ins],
        "outputColour": [out.index, "o" if out.open else "c"],
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args) -> int:
    x = strings.parse(args.string)
    _emit(_string_report(x), args.json)
    return 0


def _cmd_compose(args) -> int:
    f = strings.parse(args.f)
    g = strings.parse(args.g)
    out = strings.compose(f, _slot_of(f, args.at), g)
    _emit({"result": strings.text(out)}, args.json, [strings.text(out)])
    return 0


def _cmd_act(args) -> int:
    x = strings.parse(args.string)
    sigma = _parse_ints(args.perm, "the permutation")
    out = strings.sym_act(sigma, x)
    _emit({"result": strings.text(out)}, args.json, [strings.text(out)])
    return 0


def _cmd_filtration(args) -> int:
    x = strings.parse(args.string)
    inside = strings.in_filtration(x, args.m, args.variant)
    report = {"m": args.m, "variant": args.variant, "inFiltration": inside}
    pairs = {}
    labels = sorted({abs(t) for t in x.tokens if t != strings.BAR})
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            i, j = labels[a], labels[b]
            pairs[f"{i},{j}"] = {
                "c": strings.c_count(x, i, j),
                "cPrime": strings.c_prime(x, i, j),
                "cDblPrime": strings.c_dbl_prime(x, i, j),
            }
    report["pairs"] = pairs
    _emit(report, args.json)
    return 0


def _cmd_q(args) -> int:
    x = strings.parse(args.string)
    alpha = graphs.q(x)
    report = {
        "vertexOpen": list(alpha.vertex_open),
        "outputOpen": alpha.output_open,
        "edges": _edges(alpha),
    }
    lines = [
        f"{i}->{j} level {mu}" if orient == 1 else f"{j}->{i} level {mu}"
        for (i, j), (mu, orient) in sorted(alpha.edge_dict().items())
    ]
    _emit(report, args.json, lines)
    return 0


def _require_standard(args, reason: str) -> None:
    if args.variant != "standard":
        raise ValueError(f"{reason}; --variant {args.variant} does not apply")


def _cmd_enumerate(args) -> int:
    if args.kind == "component":
        ins, out = _parse_component(args.component)
        basis = surjections.enumerate_component(ins, out, args.m, args.variant)
        texts = [strings.text(b.underlying) for b in basis]
    elif args.kind == "graphs":
        _require_standard(args, "graphs have only the standard filtration")
        ins, out = _parse_component(args.component)
        basis = graphs.enumerate_graphs(ins, out, args.m)
        texts = [json.dumps(_edges(a), sort_keys=True) for a in basis]
    else:
        ins, out = _parse_colours(args.colours)
        basis = strings.enumerate_strings(ins, out, args.m, args.variant)
        texts = [strings.text(b) for b in basis]
    _emit({"count": len(texts), "basis": texts}, args.json, texts)
    return 0


def _cmd_tree(args) -> int:
    x = strings.parse(args.string)
    t = trees.tree_view(x)
    print(trees.render_tree(t))
    return 0


def _cmd_homology(args) -> int:
    ins, out = _parse_component(args.component)
    hom = surjections.component_homology(ins, out, args.m, args.variant)
    lines = [
        f"H_{d} = rank {rank}"
        + (f", torsion {torsion}" if torsion else "")
        for d, (rank, torsion) in sorted(hom.items())
    ]
    _emit(_homology_report(hom), args.json, lines)
    return 0


def _cmd_cells(args) -> int:
    # a saved configuration reads none of the random-configuration options
    options = ("--m", "--seed", "--closed", "--open", "--denominator")
    _fill_deferred(args, () if args.config else options, "--config")
    if args.config:
        with open(args.config) as fh:
            cfg = geometry.config_from_json(json.load(fh))
    else:
        cfg = geometry.random_config(
            args.m, args.closed, args.open, seed=args.seed, denominator=args.denominator
        )
    alpha = geometry.cell_index(cfg)
    report = {"config": geometry.config_to_json(cfg), "cell": _edges(alpha)}
    _emit(report, args.json)
    return 0


def _cmd_loops(args) -> int:
    _check_bounds("--truncate", args.truncate)
    sub = tuple(
        range(args.order) if args.sub is None else _parse_ints(args.sub, "--sub")
    )
    # before the monoid, whose table has order^2 entries
    loops.check_window(args.order, len(sub), args.truncate, args.kind)
    M = loops.FiniteMonoid.cyclic(args.order)
    tot = loops.TotComplex(M, sub, args.truncate, args.kind)
    _emit(_homology_report(tot.homology()), args.json)
    return 0


def _cmd_cobar(args) -> int:
    _check_bounds("--truncate", args.truncate)
    _check_bounds("--max-level", args.max_level)
    # before the bialgebra, whose dual takes order^3 steps to build
    cobar.check_report_window(args.order, args.truncate, args.max_level)
    M = loops.FiniteMonoid.cyclic(args.order)
    B = cobar.dual_group_bialgebra(M) if args.dual else cobar.group_bialgebra(M)
    rep = cobar.rs2_experimental_report(
        B, truncation=args.truncate, max_level=args.max_level
    )
    report = {}
    for name, (ok, cases, witness) in rep.items():
        # the witness is reported only on failure, so a passing report keeps
        # its bytes
        report[name] = {"holds": ok, "cases": cases}
        if not ok:
            report[name]["witness"] = witness
    _emit(report, args.json)
    return 0 if all(ok for ok, _, _ in rep.values()) else 1


# ---------------------------------------------------------------------------
# verification suites


class _Tally:
    """The failures of a suite, with its first failing case as the witness."""

    def __init__(self):
        self.failures = 0
        self.witness = None

    def fail(self, witness) -> None:
        self.failures += 1
        if self.witness is None:
            self.witness = witness

    def report(self, **counts) -> tuple[bool, dict]:
        # the witness is reported only on failure, so a passing report keeps
        # its bytes
        report = {**counts, "failures": self.failures}
        if self.failures:
            report["witness"] = self.witness
        return not self.failures, report


def _suite_rl_operad(args) -> tuple[bool, dict]:
    rng = Random(args.seed)
    elems = strings.small_strings(args.max_tokens, 3, args.m)
    tally = _Tally()
    text = strings.text
    # the witness names the law: right or left unit, associativity,
    # equivariance, action or identity action
    unit_cases = 0
    for x in elems[: args.samples * 4]:
        ins, out = strings.colours(x)
        for i, col in enumerate(ins, start=1):
            if strings.compose(x, i, strings.identity_string(col)) != x:
                tally.fail(["right unit", text(x), i])
            unit_cases += 1
        if strings.compose(strings.identity_string(out), 1, x) != x:
            tally.fail(["left unit", text(x)])
        unit_cases += 1

    by_out = strings.by_output(elems)
    assoc_cases = 0
    for f, i, g in _composable(rng, elems, by_out, args.samples):
        gi, _ = strings.colours(g)
        if not gi:
            continue
        j = rng.randrange(len(gi)) + 1
        hs = [h for h in by_out.get(gi[j - 1], []) if len(h.tokens) <= 5]
        if not hs:
            continue
        h = rng.choice(hs)
        lhs = strings.compose(strings.compose(f, i, g), i + j - 1, h)
        rhs = strings.compose(f, i, strings.compose(g, j, h))
        if lhs != rhs:
            tally.fail(["associativity", text(f), i, text(g), j, text(h)])
        assoc_cases += 1
    equi_cases = 0
    for f, i, g in _composable(rng, elems, by_out, args.samples):
        k = strings.arity(f)
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        tau = strings.block_perm(sigma, i, strings.arity(g))
        lhs = strings.sym_act(tau, strings.compose(f, i, g))
        rhs = strings.compose(strings.sym_act(sigma, f), sigma[i - 1], g)
        if lhs != rhs:
            tally.fail(["equivariance", sigma, text(f), i, text(g)])
        equi_cases += 1
    for _ in range(args.samples):
        x = rng.choice(elems)
        k = strings.arity(x)
        s = list(range(1, k + 1))
        rng.shuffle(s)
        t = list(range(1, k + 1))
        rng.shuffle(t)
        st = [s[t[j] - 1] for j in range(k)]
        if strings.sym_act(s, strings.sym_act(t, x)) != strings.sym_act(st, x):
            tally.fail(["action", s, t, text(x)])
        if strings.sym_act(list(range(1, k + 1)), x) != x:
            tally.fail(["identity action", text(x)])
        equi_cases += 2
    return tally.report(
        elements=len(elems),
        unitCases=unit_cases,
        assocCases=assoc_cases,
        equivarianceCases=equi_cases,
    )


def _composable(rng, elems, by_out, samples):
    """Make ``samples`` random draws and yield each one that gives a
    composable triple (f, slot, g); a draw with none is skipped."""
    for _ in range(samples):
        f = rng.choice(elems)
        ins, _ = strings.colours(f)
        if not ins:
            continue
        i = rng.randrange(len(ins)) + 1
        gs = by_out.get(ins[i - 1], [])
        if gs:
            yield f, i, rng.choice(gs)


def _suite_graph_operad(args) -> tuple[bool, dict]:
    rng = Random(args.seed)
    elems = strings.small_strings(args.max_tokens, 3, args.m)
    tally = _Tally()
    filt_cases = lax_cases = 0
    by_out = strings.by_output(elems)
    for f, i, g in _composable(rng, elems, by_out, args.samples):
        witness = [strings.text(f), i, strings.text(g)]
        fg = strings.compose(f, i, g)
        if not strings.in_filtration(fg, args.m):
            tally.fail(witness)
        filt_cases += 1
        if strings.arity(fg) and strings.arity(f) and strings.arity(g):
            qf, qg, qfg = graphs.q(f), graphs.q(g), graphs.q(fg)
            composed = graphs.compose_at(qf, i, qg)
            if not graphs.leq(qfg, composed):
                tally.fail(witness)
            lax_cases += 1
    return tally.report(filtrationClosureCases=filt_cases, laxMorphismCases=lax_cases)


def _suite_chain_core(args) -> tuple[bool, dict]:
    rng = Random(args.seed)
    tally = _Tally()
    for _ in range(args.samples):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, left, right = chains.smith_normal_form(mat)
        if chains.mat_mul(chains.mat_mul(left, mat), right) != d:
            tally.fail(mat)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b and (not a or b % a):
                tally.fail(mat)
    return tally.report(snfSamples=args.samples)


def _suite_rs_operad(args) -> tuple[bool, dict]:
    rng = Random(args.seed)
    tally = _Tally()
    comps = [
        ([False], False),
        ([False], True),
        ([True], True),
        ([False, False], False),
        ([False, True], True),
        ([True, True], True),
    ]
    basis = []
    for ins, out in comps:
        basis.extend(surjections.enumerate_component(ins, out, args.m))
    # the first failing case: a basis element with d(d(s)) != 0, else a
    # Leibniz triple (f, slot, g)
    for s in basis:
        if surjections.linear_differential(surjections.differential(s)):
            tally.fail(strings.text(s.underlying))
    # g is picked by openness, so slots whose letter repeats are filled too
    by_open = {}
    for g in basis:
        by_open.setdefault(g.underlying.output_open, []).append(g)
    for _ in range(args.samples):
        f = rng.choice(basis)
        ins, _ = strings.colours(f.underlying)
        i = rng.randrange(len(ins)) + 1
        g = rng.choice(by_open[ins[i - 1].open])
        lhs = surjections.linear_differential(surjections.rs_compose(f, i, g))
        rhs = surjections._compose_linear(
            surjections.differential(f), i, LinComb.unit(g)
        ) + ((-1) ** (f.degree % 2)) * surjections._compose_linear(
            LinComb.unit(f), i, surjections.differential(g)
        )
        if lhs != rhs:
            tally.fail([strings.text(f.underlying), i, strings.text(g.underlying)])
    return tally.report(basisElements=len(basis), leibnizCases=args.samples)


def _suite_sc_geometry(args) -> tuple[bool, dict]:
    rng = Random(args.seed)
    tally = _Tally()
    for trial in range(args.samples):
        # two open boxes overlap on the floor of a 1-cube
        n_open = rng.randint(0, 2 if args.m > 1 else 1)
        n_closed = rng.randint(1 if not n_open else 0, 2)
        cfg = geometry.random_config(args.m, n_closed, n_open, seed=rng)
        alpha = geometry.cell_index(cfg)
        if not geometry.cell_contains(alpha, cfg):
            tally.fail(geometry.config_to_json(cfg))
        for (i, j), (mu, orient) in alpha.edge_dict().items():
            weaker = dict(alpha.edge_dict())
            if mu > 1:
                weaker[(i, j)] = (mu - 1, orient)
                smaller = graphs.GraphElement(
                    alpha.vertex_open, weaker, alpha.output_open
                )
                if graphs.validate(smaller) and geometry.cell_contains(smaller, cfg):
                    tally.fail(geometry.config_to_json(cfg))  # minimality broken
    return tally.report(configs=args.samples)


def _suite_loop_model(_args) -> tuple[bool, dict]:
    M = loops.FiniteMonoid.cyclic(2)
    om = loops.omega(M, M.elements)
    tally = _Tally()
    try:
        om.check_identities(3)
    except ValueError as exc:  # a broken identity is a failure, not bad input
        tally.fail(str(exc))
    tot = loops.TotComplex(M, M.elements, 4, "open")
    closed = loops.TotComplex(M, M.elements, 4, "closed")
    defect = cobar.relation_defects(closed, tot)["ej-commutator-homotopy"]
    cases = 0
    # every closed basis element of degree 1 or 2 against every open one of
    # degree 0 or 1
    for df, du in product((1, 2), (0, 1)):
        for fb, ub in product(closed.basis(df), tot.basis(du)):
            f = closed.conormal_project(LinComb.unit(fb))
            u = tot.conormal_project(LinComb.unit(ub))
            if tot.conormal_project(defect(f, u, df, du)):
                tally.fail([fb, ub])
            cases += 1
    return tally.report(homotopyCases=cases)


def _suite_cobar(_args) -> tuple[bool, dict]:
    M = loops.FiniteMonoid.cyclic(2)
    B = cobar.group_bialgebra(M)
    rep = cobar.rs2_experimental_report(B, truncation=4, max_level=2)
    details = {name: holds for name, (holds, _, _) in rep.items()}
    cx = cobar.CobarTot(B, truncation=4).chain_complex()
    try:
        cx.validate()
    except chains.InvalidComplex:
        details["unreducedDSquared"] = False
    else:
        details["unreducedDSquared"] = True
    ok = all(details.values())
    # the first failing relation with its witness, only on failure
    failed = [[name, witness] for name, (_, _, witness) in rep.items() if witness]
    if failed:
        details["witness"] = failed[0]
    return ok, details


# each suite and the window and sampling options it reads; one given to a
# suite that does not read it is refused rather than ignored
_SUITES = {
    "rl-operad": (_suite_rl_operad, ("--m", "--max-tokens", "--samples", "--seed")),
    "graph-operad": (
        _suite_graph_operad, ("--m", "--max-tokens", "--samples", "--seed")
    ),
    "chain-core": (_suite_chain_core, ("--samples", "--seed")),
    "rs-operad": (_suite_rs_operad, ("--m", "--samples", "--seed")),
    "sc-geometry": (_suite_sc_geometry, ("--m", "--samples", "--seed")),
    "loop-model": (_suite_loop_model, ()),
    "cobar": (_suite_cobar, ()),
}


def _cmd_verify(args) -> int:
    _require_standard(args, "the verify suites check the standard filtration only")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    read = [option for name in names for option in _SUITES[name][1]]
    _fill_deferred(args, read, f"--suite {args.suite}")
    overall = True
    report = {}
    for name in names:
        ok, details = _SUITES[name][0](args)
        overall = overall and ok
        report[name] = {"ok": ok, **details}
    lines = [
        f"{name}: {'ok' if info['ok'] else 'FAIL'} "
        + " ".join(f"{k}={v}" for k, v in info.items() if k != "ok")
        for name, info in report.items()
    ]
    _emit(report, args.json, lines)
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building takes milliseconds, parsing does not
    # change the parser, and no default depends on the environment
    parser = argparse.ArgumentParser(
        prog="operadix",
        description="Exact-arithmetic workbench for lattice-path operads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--json": dict(action="store_true", help="machine-readable output"),
        "--m": dict(type=int, default=2, help="filtration level"),
        "--variant": dict(
            choices=("standard", "primed-variant"),
            default="standard",
            help="filtration variant",
        ),
    }

    def command(name, summary, *options):
        # a subcommand takes only the shared options its handler reads, each
        # spelled in full: an abbreviation would read a dropped --m on cobar
        # as --max-level
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **shared[option])
        return p

    p = command("parse", "parse and echo an integer string", "--json")
    p.add_argument("string")
    p.set_defaults(func=_cmd_parse)

    p = command("compose", "operadic composition f o_i g", "--json")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--at", required=True, help="slot number or letter token like u2")
    p.set_defaults(func=_cmd_compose)

    p = command("act", "symmetric group action", "--json")
    p.add_argument("perm", help="comma-separated permutation like 2,1,3")
    p.add_argument("string")
    p.set_defaults(func=_cmd_act)

    p = command(
        "filtration", "filtration membership and complexities",
        "--json", "--m", "--variant",
    )
    p.add_argument("string")
    p.set_defaults(func=_cmd_filtration)

    p = command("q", "forgetful map to a decorated complete graph", "--json")
    p.add_argument("string")
    p.set_defaults(func=_cmd_q)

    p = command(
        "enumerate", "enumerate a component basis", "--json", "--m", "--variant"
    )
    p.add_argument(
        "--kind", choices=("component", "graphs", "strings"), default="component"
    )
    p.add_argument("--component", default="c:c", help="like 'c,o:o'")
    p.add_argument("--colours", default="c0:c0", help="like 'c0,c1:o2'")
    p.set_defaults(func=_cmd_enumerate)

    p = command("tree", "ASCII tree view of a filtration-2 string")
    p.add_argument("string")
    p.set_defaults(func=_cmd_tree)

    p = command(
        "homology", "integral homology of a component", "--json", "--m", "--variant"
    )
    p.add_argument("--component", required=True, help="like 'c,c:c'")
    p.set_defaults(func=_cmd_homology)

    p = command("cells", "cube configurations and cell indices", "--json")
    # read in _cmd_cells, which fills in their defaults or, with --config,
    # refuses each
    p.add_argument("--m", type=int, help="filtration level")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--closed", type=int)
    p.add_argument("--open", type=int)
    p.add_argument("--denominator", type=int)
    p.add_argument("--config", help="JSON configuration file")
    p.set_defaults(func=_cmd_cells)

    p = command("loops", "loop-model totalization homology", "--json")
    p.add_argument("--order", type=int, default=2, help="cyclic monoid order")
    p.add_argument("--sub", help="comma-separated submonoid, default all")
    p.add_argument("--truncate", type=int, default=4)
    p.add_argument("--kind", choices=("closed", "open"), default="open")
    p.set_defaults(func=_cmd_loops)

    p = command("cobar", "cobar experimental relation report", "--json")
    p.add_argument("--order", type=int, default=2, help="cyclic group order")
    p.add_argument("--dual", action="store_true", help="use the dual bialgebra")
    p.add_argument("--truncate", type=int, default=4)
    p.add_argument("--max-level", type=int, default=1)
    p.set_defaults(func=_cmd_cobar)

    p = command("verify", "run a module invariant suite", "--json", "--variant")
    p.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    # read in _cmd_verify, which refuses each on the suites that ignore it
    # and fills in its default elsewhere
    p.add_argument("--m", type=int, help="filtration level")
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, help="random seed")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (strings.StringError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
