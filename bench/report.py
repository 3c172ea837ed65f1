"""Run every workload once untraced and twice traced, and summarize.

    python3 bench/report.py [--seed 1] [--seconds 35]

Prints every end-to-end metric by name and unit for each workload, the
tracing overhead (untraced against traced queries_per_s), the per-layer
table with the end-to-end metric and workload each layer should move, and
the workload split the benchmark was designed around.  Exits 1 if a query
failed or a deterministic counter differs between the two traced runs of
the same seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, WORKLOADS
from tracing import LAYERS


def run(workload: str, trace: int, args) -> tuple[int, int, dict]:
    """(attempted, failed, {metric: (value, unit)}) of one run.py run.

    Echoes the traced run's check that span self times add up to query time.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    print("".join(f"  [{workload}] {line}\n" for line in lines if line.startswith("self time")),
          end="")
    result = json.loads(lines[-1])
    return (result["attempted"], result["failed"],
            {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()})


def is_counter(name: str) -> bool:
    return not name.endswith(".self_s") and not name.startswith("trace.")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args()

    ok = True
    plain, traced = {}, {}
    for w in WORKLOADS:
        attempted, failed, plain[w] = run(w, 0, args)
        _, failed_traced, traced[w] = run(w, 1, args)
        _, failed_again, again = run(w, 1, args)
        differ = [k for k in traced[w] if is_counter(k) and traced[w][k] != again[k]]
        overhead = plain[w]["queries_per_s"][0] / traced[w]["trace.queries_per_s"][0]
        print(f"== {w}: {attempted} queries, failed_ratio {failed / attempted:.4f}; "
              f"untraced/traced queries_per_s {overhead:.3f}; counters "
              f"{'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        for name, (value, unit) in plain[w].items():
            print(f"  {name:<16} {value:>12.4f} {unit}")
        ok = ok and not differ and failed + failed_traced + failed_again == 0

    print("\n== per-layer metrics (traced; self_s and counters per pass)")
    print(f"  {'metric':<46}" + "".join(f"{w:>18}" for w in WORKLOADS) + "  should move")
    for module, function, stats, moves, on in LAYERS:
        for stat in stats:
            name = f"{module}.{function}.{stat}"
            cells = "".join(f"{traced[w][name][0]:>18.6g}" for w in WORKLOADS)
            print(f"  {name:<46}{cells}  {moves} on {on}")

    print("\n== workload split (share of summed traced query time)")
    for w in WORKLOADS:
        self_s = {k: v for k, (v, _) in traced[w].items() if k.endswith(".self_s")}
        total = sum(self_s.values())
        by_module: dict[str, float] = {}
        for k, v in self_s.items():
            by_module[k.split(".")[0]] = by_module.get(k.split(".")[0], 0.0) + v
        shares = ", ".join(f"{m} {v / total:.1%}" for m, v in
                           sorted(by_module.items(), key=lambda kv: -kv[1]))
        print(f"  {w}: {shares}")
        if w == "lp-sweep":
            share = self_s["numerics.solve_lp.self_s"] / total
            print(f"    solve_lp self time {share:.1%} of query time "
                  f"(predicted majority: {'met' if share > 0.5 else 'NOT met'})")
        if w == "projection-sweep":
            share = (self_s["numerics.orthogonal_projection.self_s"]
                     + self_s["numerics.solve_linear_system.self_s"]) / total
            lp_calls = traced[w]["numerics.solve_lp.calls"][0]
            print(f"    projection + elimination {share:.1%} of query time, "
                  f"solve_lp calls {lp_calls} (predicted majority and 0: "
                  f"{'met' if share > 0.5 and lp_calls == 0 else 'NOT met'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
