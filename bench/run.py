"""The icmech benchmark: one closed-loop client driving ``icmech.cli.main``.

    python3 bench/run.py --workload lp-sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/``.  The workload's pool (``bench/pools/<workload>.<pool seed>.json``)
supplies instance and mechanism files and exact reference answers.  Set-up
writes the files, runs one warm-up query per command, and shuffles the
query list with ``--seed``.  The run then repeats that list in whole
passes, one query at a time in this one process, until ``--seconds`` have
passed (rounded to the nearest pass) and at least 100 queries are done,
unless that would take 1.25 times ``--seconds``.  Between queries, outside
their timing, it times a fixed reference computation (see ``speed.py``);
query times are reported at nominal host speed, scaled by the reference
times around each query, because the shared host's own speed drifts by
more than the bounds.  Every report is checked after the timed region
(see ``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions (see ``tracing.py``) and prints per-layer
metrics instead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import FRESH_NOMINAL_S, FRESH_REFERENCE, NOMINAL_S, SpeedProbe  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("lp-sweep", "projection-sweep", "small-queries")
MIN_QUERIES = 100
FRESH_ROUNDS = 4       # each: one fresh set-up, then a burst of cold starts
COLD_BURST = 2
CHILD_TIMEOUT_S = 60
MAX_RUN_FACTOR = 1.25  # stop adding passes after this many times --seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="icmech benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="fixes the query order")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=1,
                        help="instance pool; 2 is the hold-out pool")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program():
    """Import icmech from this checkout's sources, never from elsewhere."""
    if not (SRC / "icmech" / "__init__.py").is_file():
        sys.exit(f"error: no icmech sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import icmech.cli
    if Path(icmech.__file__).resolve().parent != (SRC / "icmech").resolve():
        sys.exit(f"error: imported icmech from {icmech.__file__}, not {SRC}")
    return icmech


def call(main, argv: list[str]) -> tuple[float, object, str]:
    """Time one CLI call; returns (seconds, exit code or failure, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = f"SystemExit({e.code!r})"
        except Exception as e:  # a failed query is counted, not fatal
            rc = f"raised {e!r}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue()


class Workload:
    """A pool written out to a private work directory, plus its query order."""

    def __init__(self, name: str, pool_seed: int, seed: int):
        path = BENCH / "pools" / f"{name}.{pool_seed}.json"
        self.pool = json.loads(path.read_text())
        self.workdir = BENCH / "_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.paths = {}
        for key, data in self.pool["files"].items():
            p = self.workdir / f"{key}.json"
            p.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            self.paths[key] = str(p)
        self.order = list(range(len(self.pool["queries"])))
        random.Random(seed).shuffle(self.order)

    def argv(self, qi: int) -> list[str]:
        return [self.paths[a[1:]] if a.startswith("@") else a
                for a in self.pool["queries"][qi]["argv"]]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            self.workdir.parent.rmdir()


def set_up(args):
    """Import, write the files, warm up each command.

    Returns the program, the workload, a ``SpeedProbe`` and the set-up
    time, scaled to nominal host speed by reference timings taken right
    after it.
    """
    icmech = import_program()
    work = Workload(args.workload, args.pool_seed, args.seed)
    for qi in work.pool["warmup"]:
        call(icmech.cli.main, work.argv(qi))
    wall = time.perf_counter() - T_START
    probe = SpeedProbe()
    for _ in range(3):
        probe.probe()
    return icmech, work, probe, probe.scale(T_START, wall)


def run_passes(icmech, work: Workload, seconds: float, probe, tracer=None,
               between=None):
    """Closed loop over whole passes.

    Returns [(query, pass, start, seconds, rc, out)].  ``probe`` (a
    ``SpeedProbe``) and ``between(elapsed)`` run after each query, outside
    its timing.
    """
    records = []
    passes = 0
    min_passes = math.ceil(MIN_QUERIES / len(work.order))
    probe.probe()
    started = time.perf_counter()
    while True:
        for qi in work.order:
            argv = work.argv(qi)
            if tracer is not None:
                tracer.query = len(records)
            start, (dt, rc, out) = time.perf_counter(), call(icmech.cli.main, argv)
            records.append((qi, passes, start, dt, rc, out))
            probe.maybe_probe()
            if between is not None:
                between(time.perf_counter() - started)
        passes += 1
        if tracer is not None:
            tracer.first_pass = False
        elapsed = time.perf_counter() - started
        # The cap keeps a run well inside three minutes if the program slows.
        if elapsed >= MAX_RUN_FACTOR * seconds:
            break
        # Stop at the pass end nearest to ``seconds``, once enough queries ran.
        if passes >= min_passes and elapsed + elapsed / passes / 2 >= seconds:
            break
    probe.probe()
    return records, passes


def spawn_seconds(argv: list[str]) -> tuple[float, str]:
    """Wall time and output of one fresh process; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


class FreshProcesses:
    """Set-up times and cold starts measured in fresh processes.

    The host's speed drifts (see ``speed.py``), so samples are spread
    evenly over the run, between queries.  ``setup_s`` is the median of
    this process's set-up and four fresh ones, each scaled by its own
    process's reference timings.  ``cold_start_ms`` is the median of eight
    fresh ``python -m icmech inspect fx1`` processes, started in four
    back-to-back bursts of two.  A process start does not slow down with
    the in-process reference (it uses both CPUs while numpy loads), so
    each start is scaled instead by the fresh ``python -c "import numpy"``
    processes started right before and after it.
    """

    def __init__(self, args, work: Workload, own_setup_s: float):
        self.setup_argv = [sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", "0",
                           "--pool-seed", str(args.pool_seed), "--setup-only"]
        self.cold_argv = [sys.executable, "-m", "icmech", "inspect",
                          work.paths[work.pool["cold_start"]]]
        self.reference_argv = [sys.executable, *FRESH_REFERENCE]
        # Alternate the two kinds of sample, spaced evenly over the run.
        self.todo = ["setup", "cold"] * FRESH_ROUNDS
        self.spacing = args.seconds / (len(self.todo) + 1)
        self.setup = [own_setup_s]
        self.cold: list[float] = []
        self.cold_wall: list[float] = []

    def _take(self) -> None:
        if self.todo.pop(0) == "cold":
            before = spawn_seconds(self.reference_argv)[0]
            for _ in range(COLD_BURST):
                wall = spawn_seconds(self.cold_argv)[0]
                after = spawn_seconds(self.reference_argv)[0]
                self.cold_wall.append(wall)
                self.cold.append(wall * FRESH_NOMINAL_S * 2 / (before + after))
                before = after
        else:
            out = spawn_seconds(self.setup_argv)[1]
            self.setup.append(json.loads(out.splitlines()[-1])["setup_s"])

    def tick(self, elapsed: float) -> None:
        taken = 2 * FRESH_ROUNDS - len(self.todo)
        if self.todo and elapsed >= (taken + 1) * self.spacing:
            self._take()

    def finish(self) -> tuple[float, float]:
        while self.todo:
            self._take()
        print("set-up samples (s): " + " ".join(f"{t:.3f}" for t in self.setup))
        print("cold starts (ms, unscaled): "
              + " ".join(f"{t * 1000:.1f}" for t in self.cold_wall))
        print("cold starts (ms): " + " ".join(f"{t * 1000:.1f}" for t in self.cold))
        return statistics.median(self.setup), statistics.median(self.cold) * 1000


def check(work: Workload, records) -> list[str | None]:
    from checks import Checker
    checker = Checker(work.pool)
    return [checker.check(qi, rc, out) for qi, _, _, _, rc, out in records]


def per_query_medians(records, times: list[float]) -> list[float]:
    """Each sample replaced by the median time of its query over the run.

    Percentiles of these rank the workload's queries by their typical
    time.  Taken over raw samples, the 90th percentile fell between two
    queries whose times overlap from pass to pass, and moved by 20%
    between runs with whichever sample landed on it.
    """
    by_query: dict[int, list[float]] = {}
    for r, t in zip(records, times):
        by_query.setdefault(r[0], []).append(t)
    typical = {q: statistics.median(ts) for q, ts in by_query.items()}
    return [typical[r[0]] for r in records]


def main(argv=None) -> int:
    args = parse_args(argv)
    icmech, work, probe, own_setup_s = set_up(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        tracer = fresh = None
        if not args.trace:
            fresh = FreshProcesses(args, work, own_setup_s)
        else:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            records, passes = run_passes(icmech, work, args.seconds, probe, tracer,
                                         fresh and fresh.tick)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = check(work, records)
        failed = sum(v is not None for v in verdicts)
        for (qi, *_), v in zip(records, verdicts):
            if v is not None:
                print(f"FAILED {work.pool['queries'][qi]['argv']}: {v}", file=sys.stderr)
                break
        wall = [r[3] for r in records]
        times = [probe.scale(r[2], r[3]) for r in records]
        typical = per_query_medians(records, times)
        qps = (len(records) - failed) / sum(times)
        print(f"workload {args.workload}: {len(work.order)} queries a pass x {passes} "
              f"passes = {len(records)} samples, {failed} failed "
              f"(failed_ratio {failed / len(records):.4f})")
        print(f"host speed: reference median {probe.median_s() * 1000:.3f} ms "
              f"(nominal {NOMINAL_S * 1000:.3f} ms) over {len(probe.seconds)} timings; "
              f"unscaled queries_per_s {(len(records) - failed) / sum(wall):.4f}, "
              f"query_p50_ms {statistics.median(wall) * 1000:.2f}")
        if tracer is not None:
            metrics = trace_metrics(tracer, records, passes, qps)
        else:
            setup_s, cold_ms = fresh.finish()
            metrics = {
                "queries_per_s": (qps, "1/s"),
                "query_p50_ms": (statistics.median(typical) * 1000, "ms"),
                "query_p90_ms": (statistics.quantiles(typical, n=10)[8] * 1000, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "cold_start_ms": (cold_ms, "ms"),
            }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:>14.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        work.close()


def trace_metrics(tracer, records, passes: int, qps: float) -> dict:
    from tracing import metric_names
    times = [r[3] for r in records]
    summary = tracer.summarize(times, [r[1] for r in records])
    values = dict(summary["metrics"], **{"trace.queries_per_s": qps})
    # self_s and the checks below are in unscaled wall time.
    query_s = sum(times) / passes
    print(f"self time of the spans vs query time: gap "
          f"{summary['self_gap_s'] * 1000:.3f} ms of {sum(times) * 1000:.1f} ms "
          f"(largest per query {summary['max_query_gap_s'] * 1e6:.1f} us)")
    print("module shares of query time: " + ", ".join(
        f"{m} {s / query_s:.1%}" for m, s in
        sorted(summary["module_self_s"].items(), key=lambda kv: -kv[1])))
    if not summary["calls_repeat"]:
        print("WARNING: call counts differ between passes", file=sys.stderr)
    return {name: (values[name], unit) for name, unit in metric_names()}


if __name__ == "__main__":
    sys.exit(main())
