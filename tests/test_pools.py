"""Behaviour gate: every query of three committed benchmark pools, through the CLI.

Each query of ``bench/pools/{lp-sweep,projection-sweep,small-queries}.1.json``
runs through ``icmech.cli.main`` in process, and ``bench/checks.Checker``
judges its exit code and report: the exact reference fields stored in the
pool must match, and every returned mechanism must re-verify as IC and earn
exactly the value it claims.  Mechanisms are re-verified rather than
compared, so an LP that returns another optimal vertex passes and a wrong
value fails.  The pools are only read; the instance files are written to a
temporary directory.

The simplex pivots and bound flips summed over every ``solve_lp`` call of
a pool are pinned: the pricing rule is deterministic, so they change only
when the engine's path does, and a change to the result checks alone must
leave them as they are.  Every LP of an lp-sweep and a small-queries pass
is solved again by the reference simplex of ``tests/reference.py``, a
separate engine, and must reach the same value.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import icmech
from icmech import cli, numerics

from . import reference

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (solve_lp calls, pivots, flips) over one pass of each pool.
LP_WORK = {"lp-sweep.1": (21, 397, 300), "projection-sweep.1": (0, 0, 0),
           "small-queries.1": (61, 335, 120)}

# sha256 of every solve_lp result (value, x, dual_eq, dual_ub,
# reduced_costs, pivots, flips), in call order, over one pass of each pool.
LP_DIGEST = {
    "lp-sweep.1": "b2cf9eed28747d1df000ea907eb8aa88d8734152eba9948aa2d14624faa570ba",
    "small-queries.1": "e69357899c262ce44305f1fdf3cb3c6e53bce0725f34be0304269385fe000d22"}


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_every_module() -> None:
    """Import every icmech module; the CLI imports a module only when a
    command needs it."""
    for info in pkgutil.iter_modules(icmech.__path__):
        if info.name != "__main__":
            importlib.import_module(f"icmech.{info.name}")


def test_stale_tracer_layers_are_pinned():
    # ``Tracer.install`` skips a ``LAYERS`` entry that names no function of
    # the package, and its metrics then read 0.  The stale entries are
    # pinned here, so a rename or removal shows up as a change to this set.
    import_every_module()
    stale = {f"{module}.{function}"
             for module, function, *_ in load_bench_module("tracing").LAYERS
             if getattr(sys.modules[f"icmech.{module}"], function, None) is None}
    assert stale == {"numerics.orthogonal_projection", "numerics.rank",
                     "numerics.span_coefficients", "ic.ic_polytope",
                     "profit.conditional_section_basis", "profit.orthogonality_rows"}


def load_checker_class():
    return load_bench_module("checks").Checker


def run_query(argv: list[str]) -> tuple[object, str]:
    """Exit code (or the SystemExit code) and stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue()


def load_pool(pool_name: str) -> dict:
    return json.loads((BENCH / "pools" / f"{pool_name}.json").read_text())


def run_pool(pool: dict, tmp_path, tracer=None) -> list[tuple[dict, object, str]]:
    """(query, exit code, stdout) for every query of a pool, in order; a
    ``tracer`` (``bench/tracing.Tracer``) is told each query's index."""
    paths = {}
    for key, data in pool["files"].items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    runs = []
    for qi, query in enumerate(pool["queries"]):
        argv = [paths[a[1:]] if a.startswith("@") else a for a in query["argv"]]
        if tracer is not None:
            tracer.query = qi
        runs.append((query, *run_query(argv)))
    return runs


def record_lps(monkeypatch, record) -> None:
    """Rebind ``solve_lp`` in every icmech module to a wrapper that passes
    each call's LinearProgram and LPSolution to ``record``; every module
    is imported first."""
    import_every_module()
    solve_lp = numerics.solve_lp

    def recording_solve_lp(lp):
        sol = solve_lp(lp)
        record(lp, sol)
        return sol

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "icmech" and \
                getattr(module, "solve_lp", None) is solve_lp:
            monkeypatch.setattr(module, "solve_lp", recording_solve_lp)


def count_lp_work(monkeypatch) -> list[int]:
    """The (calls, pivots, flips) totals of every later ``solve_lp`` call."""
    totals = [0, 0, 0]

    def count(lp, sol):
        totals[0] += 1
        totals[1] += sol.pivots
        totals[2] += sol.flips

    record_lps(monkeypatch, count)
    return totals


@pytest.mark.parametrize("pool_name", ["lp-sweep.1", "projection-sweep.1",
                                       "small-queries.1"])
def test_every_pool_query_checks_out(pool_name, tmp_path, monkeypatch):
    pool = load_pool(pool_name)
    checker = load_checker_class()(pool)
    lp_work = count_lp_work(monkeypatch)
    failures = []
    runs = run_pool(pool, tmp_path)
    for qi, (query, rc, out) in enumerate(runs):
        reason = checker.check(qi, rc, out)
        if reason is not None:
            failures.append(f"{' '.join(query['argv'])}: {reason}")
    assert len(runs) > 30
    assert failures == []
    assert tuple(lp_work) == LP_WORK[pool_name]


def lp_results(sol) -> str:
    """One line that spells out every field of an LPSolution."""
    return ";".join([str(sol.value), *(",".join(map(str, v)) for v in (
        sol.x, sol.dual_eq, sol.dual_ub, sol.reduced_costs)),
        str(sol.pivots), str(sol.flips)])


@pytest.mark.parametrize("pool_name", ["lp-sweep.1", "small-queries.1"])
def test_every_lp_result_is_pinned(pool_name, tmp_path, monkeypatch):
    # The engine's path and every number it returns are pinned, not only
    # the pivot totals: a change that keeps the values but moves a vertex,
    # a dual or a reduced cost shows here.
    digest = hashlib.sha256()
    record_lps(monkeypatch,
               lambda lp, sol: digest.update((lp_results(sol) + "\n").encode()))
    run_pool(load_pool(pool_name), tmp_path)
    assert digest.hexdigest() == LP_DIGEST[pool_name]


def test_every_lp_fold_matches_the_fraction_reference(tmp_path, monkeypatch):
    # The integer dual fold of each LP of an lp-sweep pass equals the
    # Fraction fold of the same duals.
    folds = []
    monkeypatch.setattr(numerics, "_fold_duals",
                        reference.recording_fold(numerics._fold_duals, folds))
    run_pool(load_pool("lp-sweep.1"), tmp_path)
    assert len(folds) == LP_WORK["lp-sweep.1"][0]
    for got, expected in folds:
        assert got == expected


def test_every_lp_value_matches_the_reference_simplex(tmp_path, monkeypatch):
    # Every LP of one lp-sweep and one small-queries pass, solved again
    # with the reference's two-phase primal Bland simplex in place of the
    # dual simplex, has the same optimal value and passes the same checks.
    solve_lp = numerics.solve_lp
    solved = []
    record_lps(monkeypatch, lambda lp, sol: solved.append((lp, sol.value)))
    for pool_name in ("lp-sweep.1", "small-queries.1"):
        run_pool(load_pool(pool_name), tmp_path)
    assert len(solved) == LP_WORK["lp-sweep.1"][0] + LP_WORK["small-queries.1"][0]

    def simplex(*args):
        status, result = reference.simplex(*args)
        assert status == "optimal"
        return result

    monkeypatch.setattr(numerics, "_simplex", simplex)
    for lp, value in solved:
        assert solve_lp(lp).value == value


def test_traced_pass_counts_the_lp_work(tmp_path):
    # ``bench/run.py --trace 1`` reads each solve_lp call's LinearProgram:
    # one traced pass of lp-sweep.1 makes 21 calls over 1,069 rows
    # (equality, inequality and boxed bounds, which are every variable's)
    # and 721 columns.
    tracer = load_bench_module("tracing").Tracer()
    tracer.install()
    try:
        runs = run_pool(load_pool("lp-sweep.1"), tmp_path, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summarize([0.0] * len(runs), [0] * len(runs))
    metrics = summary["metrics"]
    assert (metrics["numerics.solve_lp.calls"], metrics["numerics.solve_lp.rows"],
            metrics["numerics.solve_lp.cols"]) == (21, 1069, 721)
    assert summary["calls_repeat"]
