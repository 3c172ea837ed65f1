"""Behaviour gate: every query of two committed benchmark pools, through the CLI.

Each query of ``bench/pools/{lp-sweep,small-queries}.1.json`` runs through
``icmech.cli.main`` in process, and ``bench/checks.Checker`` judges its exit
code and report: the exact reference fields stored in the pool must match,
and every returned mechanism must re-verify as IC and earn exactly the value
it claims.  Mechanisms are re-verified rather than compared, so an LP that
returns another optimal vertex passes and a wrong value fails.  The pools
are only read; the instance files are written to a temporary directory.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from icmech import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


@pytest.mark.parametrize("pool_name", ["lp-sweep.1", "small-queries.1"])
def test_every_pool_query_checks_out(pool_name, tmp_path):
    pool = json.loads((BENCH / "pools" / f"{pool_name}.json").read_text())
    paths = {}
    for key, data in pool["files"].items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    checker = load_checker_class()(pool)
    failures = []
    for qi, query in enumerate(pool["queries"]):
        argv = [paths[a[1:]] if a.startswith("@") else a for a in query["argv"]]
        rc, out = run_query(argv)
        reason = checker.check(qi, rc, out)
        if reason is not None:
            failures.append(f"{' '.join(query['argv'])}: {reason}")
    assert len(pool["queries"]) > 30
    assert failures == []
