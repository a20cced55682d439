"""The three batch workloads: inputs from a seed, job lists and output checks.

``WORKLOADS`` maps each workload to a function that builds, from the seed,
everything a pass needs, and to the fixed list of ``(name, job)`` pairs one
pass runs in order.  ``job(inputs, checks)`` does the work and records every
comparison it makes in ``checks``.  The frozen values below were computed
once with the library at the commit that introduced this benchmark; a wrong
output, a smaller window or a changed CLI byte stream shows as a failed
check.

Jobs look library functions up on their modules (``strings.compose``) when
they start and never import them by name, so that in a traced pass they call
the recorder's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product

from operadix import cli, cobar, geometry, graphs, loops, strings, surjections, trees
from operadix.chains import LinComb


class Checks:
    """Counts attempted and failed checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.witnesses: list[str] = []
        self.stdout_bytes = 0

    def expect(self, name: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"{name}: got {got!r}, want {want!r}")

    def tally(self, name: str, attempted: int, failed: int) -> None:
        """Record a loop of ``attempted`` checks of which ``failed`` failed."""
        self.attempted += attempted
        if failed:
            self.fail(f"{name}: {failed} of {attempted} failed", failed)

    def fail(self, witness: str, n: int = 1) -> None:
        self.failed += n
        if len(self.witnesses) < 10:
            self.witnesses.append(witness)


def run_cli(checks: Checks, argv: list[str]) -> str:
    """``operadix <argv>`` through ``cli.main``; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    checks.stdout_bytes += len(text.encode())
    checks.expect(f"exit code of {' '.join(argv)}", code, 0)
    return text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# operad-window: operad laws, filtration functoriality and cellulation over
# the filtration-2 strings with at most 5 tokens and 3 labels.

WINDOW_TOKENS, WINDOW_LABELS = 5, 3
WINDOW_FROZEN = {
    "elements": 4179,
    "units": 15420,
    "triples": 168114,
    "equivariance": 59170,
    "pairs": 38414,
}
ACTION_SAMPLES = 400
CELL_CONFIGS = 1500
CELL_COMPOSITES = 300


def window_strings(max_tokens: int, max_labels: int, m: int) -> list:
    """Every filtration-``m`` string with at most ``max_tokens`` tokens and
    ``max_labels`` labels, over every admissible colour signature."""
    out = []
    for k in range(1, max_labels + 1):
        for idxs in product(range(max_tokens), repeat=k):
            letters = k + sum(idxs)
            if letters > max_tokens:
                continue
            for bars in range(max_tokens - letters + 1):
                for opens in product((False, True), repeat=k):
                    for out_open in (False, True):
                        if any(opens) and not out_open:
                            continue
                        ins = [strings.Colour(i, o) for i, o in zip(idxs, opens)]
                        out.extend(strings.enumerate_strings(
                            ins, strings.Colour(bars, out_open), m))
    return out


def window_inputs(seed: int) -> dict:
    elems = window_strings(WINDOW_TOKENS, WINDOW_LABELS, 2)
    by_length: dict = {}
    for g in elems:
        _, out = strings.colours(g)
        by_length.setdefault((out, len(g.tokens)), []).append(g)
    fillers = {}
    for out, _ in by_length:
        for maxlen in range(WINDOW_TOKENS + 2):
            fillers[out, maxlen] = [
                g for lg in range(1, maxlen + 1) for g in by_length.get((out, lg), [])
            ]
    rng = random.Random(seed)
    actions = []
    for x in rng.sample(elems, ACTION_SAMPLES):
        k = strings.arity(x)
        s, t = list(range(1, k + 1)), list(range(1, k + 1))
        rng.shuffle(s)
        rng.shuffle(t)
        actions.append((x, s, t))
    return {
        "elems": elems,
        "fillers": fillers,
        "actions": actions,
        "cell_seed": rng.randrange(1 << 30),
        "sizes": {"elements": len(elems), "action_samples": ACTION_SAMPLES,
                  "cell_configs": CELL_CONFIGS, "cell_composites": CELL_COMPOSITES},
    }


def _fillers(inputs, col, maxlen):
    return inputs["fillers"].get((col, max(maxlen, 0)), [])


def job_units(inputs, checks):
    compose, colours, identity = strings.compose, strings.colours, strings.identity_string
    checks.expect("window elements", len(inputs["elems"]), WINDOW_FROZEN["elements"])
    cases = failed = 0
    for x in inputs["elems"]:
        ins, out = colours(x)
        for i, col in enumerate(ins, start=1):
            failed += compose(x, i, identity(col)) != x
            cases += 1
        failed += compose(identity(out), 1, x) != x
        cases += 1
    checks.tally("unit laws", cases, failed)
    checks.expect("unit-law cases", cases, WINDOW_FROZEN["units"])


def job_associativity(inputs, checks):
    compose, colours = strings.compose, strings.colours
    cases = failed = 0
    for f in inputs["elems"]:
        lf = len(f.tokens)
        ins, _ = colours(f)
        for i, col in enumerate(ins, start=1):
            for g in _fillers(inputs, col, WINDOW_TOKENS + 1 - lf):
                lg = len(g.tokens)
                gi, _ = colours(g)
                fg = compose(f, i, g)
                for j, col2 in enumerate(gi, start=1):
                    for h in _fillers(inputs, col2, WINDOW_TOKENS + 2 - lf - lg):
                        failed += compose(fg, i + j - 1, h) != compose(
                            f, i, compose(g, j, h))
                        cases += 1
    checks.tally("associativity", cases, failed)
    checks.expect("associativity triples", cases, WINDOW_FROZEN["triples"])


def job_equivariance(inputs, checks):
    compose, colours, arity = strings.compose, strings.colours, strings.arity
    sym_act, block_perm = strings.sym_act, strings.block_perm
    cases = failed = 0
    for f in inputs["elems"]:
        lf = len(f.tokens)
        ins, _ = colours(f)
        k = len(ins)
        transpositions = [
            list(range(1, s)) + [s + 1, s] + list(range(s + 2, k + 1))
            for s in range(1, k)
        ]
        for i, col in enumerate(ins, start=1):
            for g in _fillers(inputs, col, WINDOW_TOKENS + 1 - lf):
                fg = compose(f, i, g)
                la = arity(g)
                for sigma in transpositions:
                    tau = block_perm(sigma, i, la)
                    failed += sym_act(tau, fg) != compose(
                        sym_act(sigma, f), sigma[i - 1], g)
                    cases += 1
    checks.tally("equivariance", cases, failed)
    checks.expect("equivariance cases", cases, WINDOW_FROZEN["equivariance"])
    failed = 0
    for x, s, t in inputs["actions"]:
        st = [s[t[j] - 1] for j in range(len(s))]
        failed += sym_act(s, sym_act(t, x)) != sym_act(st, x)
    checks.tally("action group law", len(inputs["actions"]), failed)


def job_round_trips(inputs, checks):
    failed = 0
    for x in inputs["elems"]:
        failed += strings.parse(strings.text(x)) != x
        failed += trees.tree_to_string(trees.tree_view(x)) != x
    checks.tally("text and tree round trips", 2 * len(inputs["elems"]), failed)


def _unit_graph(open_: bool):
    return graphs.GraphElement((open_,), {}, open_)


def _graph_compose_at(alpha, i: int, beta):
    betas = [beta if v == i else _unit_graph(alpha.vertex_open[v - 1])
             for v in range(1, alpha.n + 1)]
    return graphs.compose(alpha, betas)


def job_filtration(inputs, checks):
    compose, colours = strings.compose, strings.colours
    q, leq = graphs.q, graphs.leq
    failed = sum(not graphs.in_filtration(q(x), 2) for x in inputs["elems"])
    checks.tally("q lands in the filtration", len(inputs["elems"]), failed)
    pairs = failed = lax_failed = 0
    for f in inputs["elems"]:  # every element has a label, so q is defined
        lf = len(f.tokens)
        ins, _ = colours(f)
        qf = q(f)
        for i, col in enumerate(ins, start=1):
            for g in _fillers(inputs, col, WINDOW_TOKENS + 1 - lf):
                fg = compose(f, i, g)
                failed += not strings.in_filtration(fg, 2)
                lax_failed += not leq(q(fg), _graph_compose_at(qf, i, q(g)))
                pairs += 1
    checks.tally("filtration closure", pairs, failed)
    checks.tally("q lax under composition", pairs, lax_failed)
    checks.expect("filtration pairs", pairs, WINDOW_FROZEN["pairs"])


def job_cellulation(inputs, checks):
    rng = random.Random(inputs["cell_seed"])
    cases = failed = 0
    for _ in range(CELL_CONFIGS):
        n_open = rng.randint(0, 2)
        n_closed = rng.randint(1 if not n_open else 0, 2)
        cfg = geometry.random_config(2, n_closed, n_open, seed=rng)
        alpha = geometry.cell_index(cfg)
        failed += not geometry.cell_contains(alpha, cfg)
        cases += 1
        for (i, j), (mu, orient) in alpha.edge_dict().items():
            if mu > 1:  # the cell is the least one containing cfg
                weaker = dict(alpha.edge_dict())
                weaker[(i, j)] = (mu - 1, orient)
                smaller = graphs.GraphElement(alpha.vertex_open, weaker, alpha.output_open)
                if graphs.validate(smaller):
                    failed += geometry.cell_contains(smaller, cfg)
                    cases += 1
    checks.tally("cell index is the least cell", cases, failed)
    failed = 0
    for _ in range(CELL_COMPOSITES):
        n_open = rng.randint(0, 1)
        n_closed = rng.randint(1 if not n_open else 0, 2)
        x = geometry.random_config(2, n_closed, n_open, seed=rng)
        i = rng.randint(1, n_closed + n_open)
        if i > n_closed:
            m_open, m_closed = rng.randint(1, 2), rng.randint(0, 1)
        else:
            m_open, m_closed = 0, rng.randint(1, 2)
        y = geometry.random_config(2, m_closed, m_open, seed=rng)
        z = geometry.sc_compose(x, i, y)
        ax, ay, az = geometry.cell_index(x), geometry.cell_index(y), geometry.cell_index(z)
        failed += not graphs.leq(az, _graph_compose_at(ax, i, ay))
    checks.tally("cell index lax under substitution", CELL_COMPOSITES, failed)


WINDOW_JOBS = [
    ("units", job_units),
    ("associativity", job_associativity),
    ("equivariance", job_equivariance),
    ("round-trips", job_round_trips),
    ("filtration", job_filtration),
    ("cellulation", job_cellulation),
]


# ---------------------------------------------------------------------------
# homology: `operadix homology --json` on every component of arity <= 4 at
# m=2 and of arity <= 3 at m=3, plus a seeded Leibniz sample of rs_compose.

def _components():
    out = []
    for m, max_arity in ((2, 4), (3, 3)):
        for k in range(1, max_arity + 1):
            for n_open in range(k + 1):
                for out_open in ((True,) if n_open else (False, True)):
                    spec = ",".join("c" * (k - n_open) + "o" * n_open)
                    out.append((m, f"{spec}:{'o' if out_open else 'c'}", n_open == 0))
    return out


COMPONENTS = _components()  # 30 components, 2,376 cells

# Nonzero ranks of the components with an open input, by degree; no
# component here has torsion.
MIXED_RANKS = {
    (2, "o:o"): {0: 1},
    (2, "c,o:o"): {0: 1},
    (2, "o,o:o"): {0: 2},
    (2, "c,c,o:o"): {0: 1, 1: 1},
    (2, "c,o,o:o"): {0: 2},
    (2, "o,o,o:o"): {0: 6},
    (2, "c,c,c,o:o"): {0: 1, 1: 3, 2: 2},
    (2, "c,c,o,o:o"): {0: 2, 1: 2},
    (2, "c,o,o,o:o"): {0: 6},
    (2, "o,o,o,o:o"): {0: 24},
    (3, "o:o"): {0: 1},
    (3, "c,o:o"): {0: 1},
    (3, "o,o:o"): {0: 1, 1: 1},
    (3, "c,c,o:o"): {0: 1, 2: 1},
    (3, "c,o,o:o"): {0: 1, 1: 1},
    (3, "o,o,o:o"): {0: 1, 1: 3, 2: 2},
}

# sha256 prefixes of the `operadix homology --json` stdout, per component.
HOMOLOGY_DIGESTS = {
    (2, "c:c"): "9e7c3a38895e55f6", (2, "c:o"): "9e7c3a38895e55f6",
    (2, "o:o"): "9e7c3a38895e55f6", (2, "c,c:c"): "24bff6533bb82652",
    (2, "c,c:o"): "24bff6533bb82652", (2, "c,o:o"): "04a41678719314aa",
    (2, "o,o:o"): "8609d72f3227af27", (2, "c,c,c:c"): "aec2c4aee1b493d5",
    (2, "c,c,c:o"): "aec2c4aee1b493d5", (2, "c,c,o:o"): "a2c3dcaeb7b13445",
    (2, "c,o,o:o"): "dd3bebc066661200", (2, "o,o,o:o"): "4afee999b0061281",
    (2, "c,c,c,c:c"): "c1274a6ca3eb1074", (2, "c,c,c,c:o"): "c1274a6ca3eb1074",
    (2, "c,c,c,o:o"): "a950552a5fc8e585", (2, "c,c,o,o:o"): "d0785fc1bc3b229d",
    (2, "c,o,o,o:o"): "5e27ed5b109c8e1b", (2, "o,o,o,o:o"): "c5298bc169d08312",
    (3, "c:c"): "9e7c3a38895e55f6", (3, "c:o"): "9e7c3a38895e55f6",
    (3, "o:o"): "9e7c3a38895e55f6", (3, "c,c:c"): "509174aa738f4562",
    (3, "c,c:o"): "509174aa738f4562", (3, "c,o:o"): "e166633315a527cc",
    (3, "o,o:o"): "24bff6533bb82652", (3, "c,c,c:c"): "6273d454e3e58d2d",
    (3, "c,c,c:o"): "6273d454e3e58d2d", (3, "c,c,o:o"): "9e3b4ebdbe109df2",
    (3, "c,o,o:o"): "fade0031a74d02b0", (3, "o,o,o:o"): "aec2c4aee1b493d5",
}

LEIBNIZ_SAMPLES = 1000


def closed_form_ranks(k: int, m: int) -> dict[int, int]:
    """Ranks of E_m in arity k with every input closed: the coefficients of
    prod_{j<k} (1 + j t^(m-1)), by degree (Arnold; F. Cohen)."""
    poly = {0: 1}
    for j in range(1, k):
        nxt: dict[int, int] = {}
        for d, c in poly.items():
            nxt[d] = nxt.get(d, 0) + c
            nxt[d + m - 1] = nxt.get(d + m - 1, 0) + j * c
        poly = nxt
    return poly


def expected_ranks(m: int, spec: str, all_closed: bool) -> dict[int, int]:
    """Nonzero ranks by degree: the closed form, or the frozen table."""
    if all_closed:
        return closed_form_ranks(len(spec.split(",")), m)
    return MIXED_RANKS[m, spec]


def homology_inputs(seed: int) -> dict:
    basis = []
    for k in (1, 2, 3):
        for opens in product((False, True), repeat=k):
            for out_open in ({True} if any(opens) else (False, True)):
                basis.extend(surjections.enumerate_component(list(opens), out_open, 2))
    by_output: dict = {}
    for g in basis:
        by_output.setdefault(strings.colours(g.underlying)[1], []).append(g)
    rng = random.Random(seed)
    samples = []
    while len(samples) < LEIBNIZ_SAMPLES:
        f = rng.choice(basis)
        ins, _ = strings.colours(f.underlying)
        i = rng.randrange(len(ins)) + 1
        gs = by_output.get(ins[i - 1], [])
        if gs:
            samples.append((f, i, rng.choice(gs)))
    return {
        "samples": samples,
        "sizes": {"components": len(COMPONENTS), "leibniz_basis": len(basis),
                  "leibniz_samples": LEIBNIZ_SAMPLES},
    }


def _component_job(m: int, spec: str, all_closed: bool):
    def job(inputs, checks):
        text = run_cli(checks, ["homology", "--component", spec, "--m", str(m), "--json"])
        checks.expect(f"digest of homology {spec} m={m}", digest(text),
                      HOMOLOGY_DIGESTS[m, spec])
        report = json.loads(text)
        ranks = {int(d): v["rank"] for d, v in report.items()}
        torsion = [v["torsion"] for v in report.values() if v["torsion"]]
        want = expected_ranks(m, spec, all_closed)
        checks.expect(f"ranks of {spec} m={m}",
                      {d: r for d, r in ranks.items() if r}, want)
        checks.expect(f"torsion of {spec} m={m}", torsion, [])
    return job


def _diff_lin(v: LinComb) -> LinComb:
    out = LinComb()
    for b, c in v:
        out = out + c * surjections.differential(b)
    return out


def _compose_lin(v: LinComb, i: int, w: LinComb) -> LinComb:
    out = LinComb()
    for x, cx in v:
        for y, cy in w:
            out = out + cx * cy * surjections.rs_compose(x, i, y)
    return out


def job_leibniz(inputs, checks):
    failed = 0
    for f, i, g in inputs["samples"]:
        lhs = _diff_lin(surjections.rs_compose(f, i, g))
        rhs = _compose_lin(surjections.differential(f), i, LinComb.unit(g)) + (
            (-1) ** (f.degree % 2)) * _compose_lin(
            LinComb.unit(f), i, surjections.differential(g))
        failed += lhs != rhs
    checks.tally("rs_compose Leibniz rule", len(inputs["samples"]), failed)


HOMOLOGY_JOBS = [
    (f"homology {spec} m={m}", _component_job(m, spec, closed))
    for m, spec, closed in COMPONENTS
] + [("leibniz", job_leibniz)]


# ---------------------------------------------------------------------------
# cobar-loops: random one-reduced dg-coalgebras, their cobar constructions
# and twisting cochains; loop-model identities; the cobar and loops CLI.

# Every seed gets each coalgebra shape (a, b, with w, with v) this many
# times and the same degrees in the loop samples, so that the work of a pass
# does not depend on the seed; the seed picks coefficients, the broken
# letter and the basis elements.
SHAPE_REPEATS = 4
COBAR_FROZEN = {"module_leibniz": 288, "bimodule": 720}
UNIT = "1"

# sha256 prefixes of the stdout of these `operadix` invocations.
CLI_DIGESTS = {
    ("cobar", "--order", "2", "--json"): "eb3835369dfd2d13",
    ("cobar", "--order", "3", "--json"): "cf9a58735976b7fd",
    ("cobar", "--order", "2", "--max-level", "2", "--json"): "5976d60f3d26bd8a",
    ("loops", "--order", "2", "--truncate", "4", "--json"): "0e8acd5bc5114d68",
    ("loops", "--order", "3", "--sub", "0", "--kind", "closed", "--json"):
        "11091e6f02faa443",
}


def sample_coalgebra(a: int, b: int, c: int, with_w: bool, with_v: bool):
    """A one-reduced dg-coalgebra: primitives x (degree a) and z (degree b),
    optionally w (degree b+1, dw = z) and v (degree a+b, with the one
    non-primitive coproduct term c * x (x) z)."""
    degrees = {UNIT: 0, "x": a, "z": b}
    differential = {}
    coproduct = {
        UNIT: LinComb.unit((UNIT, UNIT)),
        "x": LinComb({("x", UNIT): 1, (UNIT, "x"): 1}),
        "z": LinComb({("z", UNIT): 1, (UNIT, "z"): 1}),
    }
    if with_w:
        degrees["w"] = b + 1
        differential["w"] = LinComb.unit("z")
        coproduct["w"] = LinComb({("w", UNIT): 1, (UNIT, "w"): 1})
    if with_v:
        degrees["v"] = a + b
        coproduct["v"] = LinComb({("v", UNIT): 1, (UNIT, "v"): 1, ("x", "z"): c})
    return cobar.DGCoalgebra(degrees, differential, coproduct, {UNIT: 1}, UNIT)


def _conormal_basis(tot, degree):
    """The distinct nonzero conormal projections of the raw basis."""
    if tot.kind == "closed":
        raw = list(product(tot.M.elements, repeat=degree))
    else:
        raw = [(xs, y) for xs in product(tot.M.elements, repeat=degree) for y in tot.N]
    out, seen = [], set()
    for b in raw:
        p = tot.conormal_project(LinComb.unit(b))
        if p and p not in seen:
            seen.add(p)
            out.append(p)
    return out


def cobar_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    coalgebras = []
    shapes = list(product((2, 3), (2, 3), (False, True), (False, True))) * SHAPE_REPEATS
    rng.shuffle(shapes)
    for a, b, with_w, with_v in shapes:
        C = sample_coalgebra(a, b, rng.choice((-2, -1, 1, 2, 3)), with_w, with_v)
        coalgebras.append((C, rng.choice([n for n in C.degrees if n != C.unit])))
    loop_cases = []
    for M, sub in ((loops.FiniteMonoid.cyclic(2), (0, 1)),
                   (loops.FiniteMonoid.cyclic(3), (0,))):
        totc = loops.TotComplex(M, (0,), truncation=5, kind="closed")
        toto = loops.TotComplex(M, sub, truncation=5, kind="open")
        closed = {d: _conormal_basis(totc, d) for d in range(3)}
        opens = {d: _conormal_basis(toto, d) for d in range(3)}
        loop_cases.append({
            "totc": totc, "toto": toto,
            "triples": [tuple(rng.choice(opens[d]) for d in ds)
                        for ds in list(product(range(3), repeat=3)) * 2],
            "cup_pairs": [(d, rng.choice(closed[d]), rng.choice(closed[e]))
                          for d, e in list(product(range(3), repeat=2)) * 6],
            "homotopy": [(d, rng.choice(closed[d]), e, rng.choice(opens[e]))
                         for d, e in list(product((1, 2), (0, 1))) * 8],
            "act": [(d, rng.choice(closed[d]), e, rng.choice(closed[e]))
                    for d, e in list(product((1, 2), (1, 2))) * 8],
        })
    return {
        "coalgebras": coalgebras,
        "loop_cases": loop_cases,
        "sizes": {"coalgebras": len(coalgebras), "loop_monoids": len(loop_cases),
                  "cli_runs": len(CLI_DIGESTS)},
    }


def job_cobar(inputs, checks):
    leibniz = 0
    for C, name in inputs["coalgebras"]:
        C.validate()
        N = cobar.DGComodule(C, dict(C.degrees), dict(C.differential), dict(C.coproduct))
        window = max(C.degrees.values()) + 2
        cob = cobar.cobar(C, truncation=window)
        rel = cobar.relative_cobar(C, N, truncation=window)
        for label, complex_ in (("cobar", cob), ("relative cobar", rel)):
            try:
                complex_.chain_complex().validate()
            except ValueError as exc:
                checks.fail(f"{label} d o d: {exc}")
            checks.attempted += 1
        words_a = [w for d in range(2) for w in cob.words(d)][:6]
        words_u = [w for d in range(2) for w in rel.words(d)][:6]
        failed = 0
        for wa in words_a:
            for wu in words_u:
                a, u = LinComb.unit(wa), LinComb.unit(wu)
                da = sum(cob.letter_degree(x) for x in wa)
                lhs = rel.action(cob.differential(a), u) + (
                    (-1) ** (da % 2)) * rel.action(a, rel.differential(u))
                failed += lhs != rel.differential(rel.action(a, u))
        checks.tally("module Leibniz", len(words_a) * len(words_u), failed)
        leibniz += len(words_a) * len(words_u)
        A = cobar.cobar_algebra(cob)
        M = cobar.relative_cobar_module(rel, A)
        f = cobar.universal_twisting(cob)
        g = {n: LinComb.unit(((), n)) for n in N.degrees}
        f_bad = dict(f)
        f_bad[name] = -f[name]
        g_bad = dict(g)
        g_bad[name] = LinComb()
        for fc, gc in ((f, g), (f_bad, g), (f, g_bad)):
            twist = cobar.twisting_check(C, A, fc) and cobar.relative_twisting_check(
                C, A, N, M, fc, gc)
            phi = cobar.overline_fg(rel, A, M, fc, gc)
            checks.expect("twisting <=> dg map", cobar.dg_map_check(rel, M, phi), twist)
        checks.expect("universal twisting", cobar.twisting_check(C, A, f), True)
        # 2f has cup 4(f cup f) but boundary 2 d(f): broken exactly when some
        # cogenerator has a non-primitive coproduct.
        doubled = {x: 2 * v for x, v in f.items()}
        checks.expect("doubled twisting detected",
                      cobar.twisting_check(C, A, doubled),
                      not any(C.reduced_delta(x) for x in f))
    checks.expect("module Leibniz cases", leibniz, COBAR_FROZEN["module_leibniz"])


def job_bimodule(inputs, checks):
    B = cobar.group_bialgebra(loops.FiniteMonoid.cyclic(2))
    CB = cobar.diagonal_comodule(B)
    tuples = [t for n in range(1, 3) for t in product(B.basis, repeat=n)]
    unit = LinComb.unit((B.unit,))
    cases = failed = 0
    for a in tuples:
        ua = LinComb.unit(a)
        for i in range(1, len(a) + 1):
            failed += cobar.mb_compose(B, ua, i, unit) != ua
            cases += 1
            for b in tuples:
                ub = LinComb.unit(b)
                ab = cobar.mb_compose(B, ua, i, ub)
                for j in range(1, len(b) + 1):
                    for c in tuples:
                        uc = LinComb.unit(c)
                        failed += cobar.mb_compose(B, ab, i + j - 1, uc) != \
                            cobar.mb_compose(B, ua, i, cobar.mb_compose(B, ub, j, uc))
                        cases += 1
    for n in range(3):
        for t in product(B.basis, repeat=n):
            for cname in CB.basis:
                u = LinComb.unit((t, cname))
                for j in range(n + 2):
                    for i in range(j + 1):
                        failed += cobar.z_coface(B, CB, j + 1, cobar.z_coface(
                            B, CB, i, u)) != cobar.z_coface(
                            B, CB, i, cobar.z_coface(B, CB, j, u))
                        cases += 1
    checks.tally("bimodule operad axioms and cosimplicial identities", cases, failed)
    checks.expect("bimodule cases", cases, COBAR_FROZEN["bimodule"])


def job_loops(inputs, checks):
    for case in inputs["loop_cases"]:
        totc, toto = case["totc"], case["toto"]
        try:
            loops.omega(toto.M, toto.N).check_identities(3)
        except AssertionError as exc:
            checks.fail(f"cosimplicial identities: {exc}")
        checks.attempted += 1
        failed = 0
        for u, v, w in case["triples"]:
            failed += loops.sqcup(toto, loops.sqcup(toto, u, v), w) != loops.sqcup(
                toto, u, loops.sqcup(toto, v, w))
        checks.tally("sqcup associativity", len(case["triples"]), failed)
        failed = 0
        for df, f, g in case["cup_pairs"]:
            lhs = totc.differential(loops.cup(totc, f, g))
            rhs = loops.cup(totc, totc.differential(f), g) + (
                (-1) ** (df % 2)) * loops.cup(totc, f, totc.differential(g))
            failed += lhs != rhs
        checks.tally("cup Leibniz", len(case["cup_pairs"]), failed)
        failed = 0
        for df, f, du, u in case["homotopy"]:
            lhs = (toto.differential(loops.homotopy_H(toto, f, u))
                   + loops.homotopy_H(toto, totc.differential(f), u)
                   + ((-1) ** (df % 2)) * loops.homotopy_H(toto, f, toto.differential(u)))
            inc = loops.inc_tot(toto, f)
            rhs = loops.sqcup(toto, inc, u) - (
                (-1) ** ((df * du) % 2)) * loops.sqcup(toto, u, inc)
            failed += lhs != rhs
        checks.tally("commutator homotopy", len(case["homotopy"]), failed)
        failed = 0
        for df, f, dg, g in case["act"]:
            lhs = (totc.differential(loops.act_Tk(totc, f, [g]))
                   + loops.act_Tk(totc, totc.differential(f), [g])
                   + ((-1) ** (df % 2)) * loops.act_Tk(totc, f, [totc.differential(g)]))
            rhs = loops.cup(totc, f, g) - ((-1) ** ((df * dg) % 2)) * loops.cup(totc, g, f)
            failed += lhs != rhs
        checks.tally("closed insertion homotopy", len(case["act"]), failed)


def job_cli(inputs, checks):
    for argv, want in CLI_DIGESTS.items():
        text = run_cli(checks, list(argv))
        checks.expect(f"digest of operadix {' '.join(argv)}", digest(text), want)


COBAR_JOBS = [
    ("cobar", job_cobar),
    ("bimodule", job_bimodule),
    ("loops", job_loops),
    ("cli", job_cli),
]


WORKLOADS = {
    "operad-window": (window_inputs, WINDOW_JOBS),
    "homology": (homology_inputs, HOMOLOGY_JOBS),
    "cobar-loops": (cobar_inputs, COBAR_JOBS),
}
