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
leave them as they are.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from icmech import cli, numerics

from . import reference

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (solve_lp calls, pivots, flips) over one pass of each pool.
LP_WORK = {"lp-sweep.1": (36, 881, 1), "projection-sweep.1": (0, 0, 0),
           "small-queries.1": (69, 599, 5)}


def load_checker_class():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Checker


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


def run_pool(pool: dict, tmp_path) -> list[tuple[dict, object, str]]:
    """(query, exit code, stdout) for every query of a pool, in order."""
    paths = {}
    for key, data in pool["files"].items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    runs = []
    for query in pool["queries"]:
        argv = [paths[a[1:]] if a.startswith("@") else a for a in query["argv"]]
        runs.append((query, *run_query(argv)))
    return runs


def count_lp_work(monkeypatch) -> list[int]:
    """Rebind ``solve_lp`` in every icmech module to a wrapper that adds
    each call, its pivots and its flips to the returned totals."""
    totals = [0, 0, 0]
    solve_lp = numerics.solve_lp

    def counting_solve_lp(lp):
        sol = solve_lp(lp)
        totals[0] += 1
        totals[1] += sol.pivots
        totals[2] += sol.flips
        return sol

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "icmech" and \
                getattr(module, "solve_lp", None) is solve_lp:
            monkeypatch.setattr(module, "solve_lp", counting_solve_lp)
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
