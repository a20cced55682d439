"""Nothing the library returns or drops lives on in a reference cycle.

A structure that refers to itself (a closure that calls itself through its
own cell, say) is not freed when its last reference goes, but only at the
next full garbage collection, and everything it holds stays alive until
then.  These tests run representative library calls with the collector off
and require that it then finds nothing to free.
"""

import contextlib
import gc
import importlib.util
import io
import weakref
from pathlib import Path

import pytest

from operadix import chains, cli, cobar, graphs, loops, strings, surjections, trees
from operadix.chains import LinComb

from test_cobar import diagonal_dg_comodule, sample_coalgebra

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py",
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
CLI_DIGESTS = _workloads.CLI_DIGESTS


def relative_pair():
    """The relative construction M of the sample coalgebra, its word
    algebra A, the universal twisting pair (f, g) and the coalgebra and
    comodule under them."""
    C = sample_coalgebra()
    N = diagonal_dg_comodule(C)
    window = max(C.degrees.values()) + 2
    A = cobar.cobar_algebra(cobar.cobar(C, truncation=window))
    M = cobar.relative_cobar_module(cobar.relative_cobar(C, N, truncation=window), A)
    f = cobar.universal_twisting(A)
    g = {n: LinComb.unit(((), n)) for n in N.degrees}
    return C, N, A, M, f, g


def twisting_calls():
    C, N, A, M, f, g = relative_pair()
    phi = cobar.overline_fg(M, A, M, f, g)
    assert cobar.dg_map_check(M, M, phi)
    assert cobar.twisting_check(C, A, f)
    assert cobar.relative_twisting_check(C, A, N, M, f, g)


def totalization_calls():
    Z2 = loops.FiniteMonoid.cyclic(2)
    closed = loops.TotComplex(Z2, (0,), truncation=4, kind="closed")
    open_ = loops.TotComplex(Z2, (0, 1), truncation=4, kind="open")
    f = closed.conormal_project(LinComb.unit((1,)))
    g = closed.conormal_project(LinComb.unit((1, 1)))
    u = open_.conormal_project(LinComb.unit(((1,), 0)))
    loops.cup(closed, f, g)
    loops.act_Tk(closed, f, [g])
    loops.sqcup(open_, u, u)
    loops.act_Tj(open_, f, [u, u])


def graph_calls():
    alphas = graphs.enumerate_graphs((False, False, False), False, 2)
    assert alphas and all(graphs.validate(alpha) for alpha in alphas)
    assert graphs.enumerate_graphs((True, False, True), True, 2)


def tree_calls():
    t = trees.tree_view(strings.parse("(12|21)^c"))
    assert trees.render_tree(t) == "1\n  2\n    #1\noutput: c"


def homology_calls():
    cx = surjections.component_complex((False, False), False, 2)
    assert chains.homology_all(cx)


def cli_calls():
    for argv in CLI_DIGESTS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0


@pytest.mark.parametrize(
    "calls",
    [
        twisting_calls,
        totalization_calls,
        graph_calls,
        tree_calls,
        homology_calls,
        cli_calls,
    ],
    ids=lambda calls: calls.__name__,
)
def test_no_cyclic_garbage(calls):
    # the CLI parser is built once per process and kept; building it leaves
    # argparse's own help formatters in cycles, so it is built first
    cli._parser()
    gc.collect()
    gc.disable()
    try:
        calls()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        functions = sorted(
            {o.__qualname__ for o in gc.garbage if type(o).__name__ == "function"}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, f"{found} objects left in cycles, functions {functions}"


def test_dropped_map_frees_its_target():
    # the induced map holds its target and its kept images, nothing holds
    # the map: dropping it frees the target at once, without a collection
    gc.collect()
    gc.disable()
    try:
        _, _, A, M, f, g = relative_pair()
        phi = cobar.overline_fg(M, A, M, f, g)
        assert cobar.dg_map_check(M, M, phi)
        target = weakref.ref(M)
        del A, M, f, g
        assert target() is not None
        del phi
        assert target() is None
    finally:
        gc.enable()
