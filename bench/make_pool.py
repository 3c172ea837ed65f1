"""Build the benchmark's instance pools and their reference answers.

    python3 bench/make_pool.py --seed 1     # the pool every run uses
    python3 bench/make_pool.py --seed 2     # the hold-out pool

Each workload gets one file, ``bench/pools/<workload>.<seed>.json``.  It
holds the instance and mechanism files handed to the program, the query
list (CLI argument vectors naming those files as ``@key``), and for every
query the exit code and the exact report fields the program must
reproduce.  A second seed draws other instances from the generator but
keeps the same mix of kinds, shapes and commands.

The references are the CLI's own answers at generation time, accepted only
after the paper's independent routes agree on every two-option instance
(direct LP profitable <=> transport value > 0, and in the zero-mean regime
<=> non-zero additivity residual <=> the construction succeeds), on every
allocation instance (direct LP <=> alloc-n) and, on independent squares,
with the matching analysis.  Generate pools once and commit them; a pool
that changes is a different benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from icmech.cli import main as cli_main  # noqa: E402
from icmech.core import dumps_canonical, instance_to_dict  # noqa: E402
from icmech.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from icmech.nalloc import AllocationInstance, allocation_to_dict  # noqa: E402
from icmech.oracle import generate  # noqa: E402

from checks import EXPECT_FIELDS  # noqa: E402
from run import WORKLOADS  # noqa: E402

KINDS = (("correlated", None), ("conditionally-independent", 2),
         ("independent", None), ("full-rank", None))


def _to_dict(inst) -> dict:
    if isinstance(inst, AllocationInstance):
        return allocation_to_dict(inst)
    return instance_to_dict(inst)


class PoolWriter:
    """Accumulates files and queries; runs the CLI for references."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.files: dict[str, dict] = {}
        self.queries: list[dict] = []
        self.cells: dict[tuple, int] = {}
        self._reports: dict[tuple, tuple[int, dict | None]] = {}

    def add_file(self, data: dict, prefix: str) -> str:
        key = f"{prefix}{len(self.files)}"
        self.files[key] = data
        (self.workdir / f"{key}.json").write_text(dumps_canonical(data))
        return key

    def instance(self, kind, shape, *, k=None, zero_mean=False, disposal=False) -> str:
        cell = (kind, tuple(shape), k, zero_mean, disposal)
        n = self.cells[cell] = self.cells.get(cell, 0) + 1
        inst = generate(self.seed * 1000 + n, shape, kind, k=k,
                        zero_mean=zero_mean, disposal=disposal)
        return self.add_file(_to_dict(inst), "i")

    def fixture(self, name: str) -> str:
        return self.add_file(_to_dict(fixture(name)), "i")

    def cli(self, *argv: str) -> tuple[int, dict | None]:
        """Exit code and parsed report of one CLI call (memoized)."""
        if argv not in self._reports:
            paths = [str(self.workdir / f"{a[1:]}.json") if a.startswith("@") else a
                     for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(paths)
            report = json.loads(out.getvalue()) if rc == 0 else None
            if rc not in (0, 2):
                raise RuntimeError(f"{argv}: exit {rc}: {err.getvalue()}")
            self._reports[argv] = (rc, report)
        return self._reports[argv]

    def query(self, command: str, *keys: str, exit_code: int = 0) -> dict | None:
        argv = (command,) + tuple(f"@{k}" for k in keys)
        rc, report = self.cli(*argv)
        if rc != exit_code:
            raise RuntimeError(f"{argv}: exit {rc}, workload expects {exit_code}")
        expect = {}
        if report is not None:
            expect = {f: report[f] for f in EXPECT_FIELDS[command] if f in report}
        self.queries.append({"argv": list(argv), "exit": rc, "expect": expect})
        return report

    # -- cross-checks -------------------------------------------------------

    def cross_check(self) -> None:
        for key, data in self.files.items():
            if "vL" in data:
                self._check_two_option(key, data)
            elif "v" in data:
                self._check_allocation(key)

    def _check_two_option(self, key: str, data: dict) -> None:
        f = f"@{key}"
        _, oracle = self.cli("oracle", f)
        _, transport = self.cli("transport", f)
        profitable = oracle["profitable"]
        if profitable != (Fraction(transport["value"]) > 0):
            raise AssertionError(f"{key}: oracle and transport disagree")
        _, info = self.cli("inspect", f)
        if Fraction(info["expected_value"]) == 0:
            _, additivity = self.cli("additivity", f)
            _, construct = self.cli("construct", f)
            if not profitable == (not additivity["pi_additive"]) == construct["profitable"]:
                raise AssertionError(f"{key}: zero-mean routes disagree")
        shape = [len(t) for t in data["types"].values()]
        if info["independent"] and shape[0] == shape[1]:
            _, myo = self.cli("myo", f)
            if myo["profitable"] != profitable:
                raise AssertionError(f"{key}: matching analysis disagrees")

    def _check_allocation(self, key: str) -> None:
        _, oracle = self.cli("oracle", f"@{key}")
        _, alloc = self.cli("alloc-n", f"@{key}")
        if oracle["profitable"] != alloc["profitable"]:
            raise AssertionError(f"{key}: direct LP and alloc-n disagree")

    def finish(self) -> dict:
        self.cross_check()
        cold_start = next((k for k, d in self.files.items() if d.get("name") == "fx1"),
                          None) or self.fixture("fx1")
        # One warm-up per command: its query on the smallest input.
        warmup: dict[str, tuple[int, int]] = {}
        for i, q in enumerate(self.queries):
            size = sum(len(json.dumps(self.files[a[1:]])) for a in q["argv"][1:])
            best = warmup.get(q["argv"][0])
            if best is None or size < best[1]:
                warmup[q["argv"][0]] = (i, size)
        return {"workload": self.workload, "seed": self.seed,
                "files": self.files, "queries": self.queries, "cold_start": cold_start,
                "warmup": sorted(i for i, _ in warmup.values())}


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

def lp_sweep(b: PoolWriter) -> None:
    """oracle + transport on 4x4..6x6 (four kinds), oracle on allocations."""
    for shape, count in (((4, 4), 2), ((5, 5), 1)):
        for kind, k in KINDS:
            for _ in range(count):
                f = b.instance(kind, shape, k=k)
                b.query("oracle", f)
                b.query("transport", f)
    # At 6x6 the direct LP runs on the rank-deficient and the full-rank kinds
    # only, so that 100 queries (three passes) take about twenty seconds.
    for kind, k in KINDS:
        f = b.instance(kind, (6, 6), k=k)
        if kind in ("conditionally-independent", "full-rank"):
            b.query("oracle", f)
        b.query("transport", f)
    for shape in ((3, 3, 3), (2, 2, 2, 2)):
        for disposal in (False, True):
            b.query("oracle", b.instance("unbiased-n-alloc", shape, disposal=disposal))
    for disposal in (False, True):
        b.query("oracle", b.instance("unbiased-n-alloc", (2, 2, 2, 2), disposal=disposal))


def projection_sweep(b: PoolWriter) -> None:
    """additivity + construct on zero-mean 4x4..6x6, alloc-n on 3x3x3, 4x4x4."""
    commands = ("additivity", "construct")
    for kind, k in KINDS:
        for _ in range(3):
            f = b.instance(kind, (4, 4), k=k, zero_mean=True)
            for command in commands:
                b.query(command, f)
    # Projection cost depends on the shape, not the kind: larger shapes get
    # one command per instance, and 6x6 two kinds, so that 100 queries (two
    # passes) take about fifteen seconds.
    for j, (kind, k) in enumerate(KINDS):
        b.query(commands[j % 2], b.instance(kind, (5, 5), k=k, zero_mean=True))
    for j, (kind, k) in enumerate(KINDS[:2]):
        b.query(commands[j % 2], b.instance(kind, (6, 6), k=k, zero_mean=True))
    for shape, count in (((3, 3, 3), 9), ((4, 4, 4), 1)):
        for disposal in (False, True):
            for _ in range(count):
                b.query("alloc-n", b.instance("unbiased-n-alloc", shape, disposal=disposal))


def _companion(b: PoolWriter, key: str) -> str:
    """Same objective under the product of the instance's marginals."""
    data = dict(b.files[key])
    ml = [sum(Fraction(v) for v in row) for row in data["pi"]]
    mr = [sum(Fraction(row[j]) for row in data["pi"]) for j in range(len(data["pi"][0]))]
    data["pi"] = [[str(a * c) for c in mr] for a in ml]
    data.pop("name", None)
    data.pop("seed", None)
    return b.add_file(data, "i")


def _oracle_mechanism(b: PoolWriter, key: str) -> str:
    _, report = b.cli("oracle", f"@{key}")
    return b.add_file(report["mechanism"], "m")


def small_queries(b: PoolWriter) -> None:
    """Every command on fixtures, 2x2..4x4 instances and 2x2x2 allocations."""
    fx = {name: b.fixture(name) for name in FIXTURE_NAMES}
    two = [fx[n] for n in ("fx1", "fx2", "fx3", "fx5")]
    for key in fx.values():
        b.query("inspect", key)
        b.query("oracle", key)
    for key in two:
        for command in ("classify", "additivity", "construct", "transport"):
            b.query(command, key)
    for name in ("fx1", "fx3", "fx5"):
        b.query("myo", fx[name])
    m1, m3 = _oracle_mechanism(b, fx["fx1"]), _oracle_mechanism(b, fx["fx3"])
    m4 = _oracle_mechanism(b, fx["fx4"])
    half = b.add_file({"x": [["1/2", "1/2"], ["1/2", "1/2"]]}, "m")
    not_ic = b.add_file({"x": [["1", "0"], ["0", "0"]]}, "m")
    b.query("alloc-n", fx["fx4"])
    b.query("check-ic", fx["fx1"], m1)
    b.query("check-ic", fx["fx1"], not_ic)
    b.query("check-ic", fx["fx2"], half)
    b.query("check-ic", fx["fx3"], m3)
    b.query("check-ic", fx["fx4"], m4)
    b.query("maximin", m1)
    b.query("maximin", not_ic)
    b.query("spans", fx["fx1"], fx["fx2"])
    b.query("spans", fx["fx2"], fx["fx1"])
    b.query("orthogonal", fx["fx1"], fx["fx2"])
    b.query("decompose", fx["fx1"], m1)
    b.query("decompose", fx["fx3"], m3)
    # Expected precondition refusals (exit code 2).
    b.query("myo", fx["fx2"], exit_code=2)
    b.query("decompose", fx["fx2"], half, exit_code=2)
    b.query("alloc-n", fx["fx1"], exit_code=2)
    b.query("classify", fx["fx4"], exit_code=2)
    b.query("maximin", m1, fx["fx4"], exit_code=2)

    j = 0
    for shape in ((2, 2), (3, 3), (4, 4)):
        for kind, k in KINDS:
            f = b.instance(kind, shape, k=k, zero_mean=j % 2 == 0)
            j += 1
            mech = _oracle_mechanism(b, f)
            partner = _companion(b, f)
            for command in ("inspect", "classify", "additivity", "construct",
                            "transport", "oracle"):
                b.query(command, f)
            b.query("check-ic", f, mech)
            b.query("maximin", mech)
            b.query("spans", f, partner)
            b.query("orthogonal", f, partner)
            refused = 0 if kind == "independent" else 2
            b.query("decompose", f, mech, exit_code=refused)
            b.query("myo", f, exit_code=refused)
    for shape in ((5, 5), (6, 6)):
        b.query("myo", b.instance("independent", shape))
    for disposal in (False, True):
        a = b.instance("unbiased-n-alloc", (2, 2, 2), disposal=disposal)
        for command in ("inspect", "alloc-n", "oracle"):
            b.query(command, a)
        b.query("check-ic", a, _oracle_mechanism(b, a))
        b.query("classify", a, exit_code=2)


DEFINITIONS = {"lp-sweep": lp_sweep, "projection-sweep": projection_sweep,
            "small-queries": small_queries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    out_dir = BENCH / "pools"
    out_dir.mkdir(exist_ok=True)
    workdir = BENCH / "_work" / "pool-build"
    for workload in WORKLOADS:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            writer = PoolWriter(workload, args.seed, workdir)
            DEFINITIONS[workload](writer)
            pool = writer.finish()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = out_dir / f"{workload}.{args.seed}.json"
        path.write_text(json.dumps(pool, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(pool['files'])} files, "
              f"{len(pool['queries'])} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
