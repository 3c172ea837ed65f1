"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each public function in ``LAYERS`` at every name
it is bound to in the ``icmech`` modules, so calls made through a module
global, an import alias or a deferred import all record a span: its name,
start, end, parent span and query id.  Spans stay in memory; ``summarize``
turns them into per-layer metrics after the run.  A span's self time is
its duration minus the time its child spans cover.

``self_s`` is seconds per pass over the workload's queries.  Counters
(``calls``, ``rows``, ``rank`` and so on) count one pass; each pass runs
the same queries, so they repeat exactly.  They are computed after the run, from the arguments
and results kept for the first pass, outside every span.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# module, function, stats reported, end-to-end metrics it should move, workload
LAYERS = (
    ("numerics", "solve_lp", ("calls", "self_s", "rows", "cols", "value_bits"),
     "queries_per_s, query_p90_ms, peak_rss_mb", "lp-sweep"),
    ("numerics", "orthogonal_projection", ("calls", "self_s", "generators", "dim"),
     "query_p50_ms, queries_per_s", "projection-sweep"),
    ("numerics", "solve_linear_system", ("calls", "self_s"),
     "query_p50_ms, queries_per_s", "projection-sweep"),
    ("numerics", "span_coefficients", ("self_s",), "query_p50_ms", "small-queries"),
    ("numerics", "rank", ("self_s",), "query_p50_ms", "small-queries"),
    ("ic", "ic_polytope", ("self_s", "rows", "rank"), "query_p90_ms", "lp-sweep"),
    ("ic", "check_ic", ("calls", "self_s"), "query_p50_ms", "small-queries"),
    ("ic", "spans", ("self_s",), "query_p50_ms", "small-queries"),
    ("ic", "classify_extremes", ("self_s",), "query_p50_ms", "small-queries"),
    ("profit", "conditional_section_basis", ("self_s", "generators", "rank"),
     "query_p50_ms", "projection-sweep"),
    ("profit", "additivity_test", ("self_s",), "query_p50_ms", "projection-sweep"),
    ("profit", "construct_profitable", ("self_s",), "query_p50_ms", "projection-sweep"),
    ("profit", "transport_criterion", ("self_s",), "queries_per_s", "lp-sweep"),
    ("profit", "orthogonality_rows", ("self_s", "rows", "rank"), "queries_per_s", "lp-sweep"),
    ("profit", "match_your_opponent", ("self_s",), "query_p90_ms", "small-queries"),
    ("profit", "decompose", ("self_s",), "query_p90_ms", "small-queries"),
    ("oracle", "solve_principal", ("self_s",), "query_p90_ms", "lp-sweep"),
    ("oracle", "solve_principal_alloc", ("self_s",), "query_p90_ms", "lp-sweep"),
    ("nalloc", "difference_additive", ("self_s",), "query_p90_ms", "projection-sweep"),
    ("nalloc", "construct_profitable_n", ("self_s",), "query_p90_ms", "projection-sweep"),
    ("nalloc", "check_ic_n", ("calls", "self_s"), "query_p90_ms", "projection-sweep"),
    ("nalloc", "analyze_allocation", ("self_s",), "query_p90_ms", "projection-sweep"),
    ("game", "maximin", ("calls", "self_s"), "query_p90_ms", "small-queries"),
    ("core", "load_instance", ("self_s",), "query_p50_ms", "small-queries"),
    ("core", "load_mechanism", ("self_s",), "query_p50_ms", "small-queries"),
    ("nalloc", "load_allocation", ("self_s",), "query_p50_ms", "small-queries"),
    ("cli", "main", ("calls", "self_s", "refused"), "query_p50_ms, setup_s", "small-queries"),
)

UNITS = {"self_s": "s", "value_bits": "bits"}


def exact_rank(rows) -> int:
    """Rank of a rational matrix by exact elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / top[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], top)]
        rank += 1
    return rank


def _lp_counts(args, kwargs, result) -> dict:
    lp = args[0] if args else kwargs["lp"]
    bounded = sum(lo is not None and up is not None
                  for lo, up in zip(lp.lower, lp.upper))
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in result.x or ()), default=0)
    return {"rows": len(lp.a_eq) + len(lp.a_ub) + bounded, "cols": lp.n,
            "value_bits": bits}


def _projection_counts(args, kwargs, result) -> dict:
    target = args[0] if args else kwargs["target"]
    gens = args[1] if len(args) > 1 else kwargs["generators"]
    return {"generators": len(gens), "dim": len(target)}


def _row_counts(args, kwargs, result) -> dict:
    return {"rows": len(result), "rank": exact_rank(result)}


def _generator_counts(args, kwargs, result) -> dict:
    return {"generators": len(result), "rank": exact_rank(result)}


COUNTERS = {
    "numerics.solve_lp": _lp_counts,
    "numerics.orthogonal_projection": _projection_counts,
    "ic.ic_polytope": _row_counts,
    "profit.orthogonality_rows": _row_counts,
    "profit.conditional_section_basis": _generator_counts,
    "cli.main": lambda args, kwargs, result: {"refused": int(result == 2)},
}
MAX_COUNTERS = {"value_bits"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in table order."""
    out = [(f"{m}.{f}.{s}", UNITS.get(s, "count"))
           for m, f, stats, _, _ in LAYERS for s in stats]
    return out + [("trace.queries_per_s", "1/s")]


class Tracer:
    """Records spans of calls into ``LAYERS`` while installed."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, query]
        self.query: int | None = None
        self.first_pass = True
        self._stack: list[int] = []
        self._samples: list[tuple] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        targets = {}
        for module, function, *_ in LAYERS:
            fn = getattr(sys.modules.get(f"icmech.{module}"), function, None)
            if fn is not None:
                targets[id(fn)] = (fn, self._wrap(f"{module}.{function}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "icmech" and not modname.startswith("icmech."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None:  # ids are unique while ``targets`` holds fn
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, samples = self.spans, self._stack, self._samples
        counted = name in COUNTERS

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counted and self.first_pass:
                samples.append((name, args, kwargs, result))
            return result
        return traced

    def summarize(self, query_times: list[float], query_pass: list[int]) -> dict:
        """Per-layer metrics plus the checks the run prints.

        ``self_s`` is seconds per pass, averaged over the passes run;
        counters count the first pass.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        self_by_query = [0.0] * len(query_times)
        calls = Counter()
        for i, (name, start, end, _, query) in enumerate(self.spans):
            own = end - start - child[i]
            self_by_name[name] += own
            self_by_query[query] += own
            calls[(query_pass[query], name)] += 1

        counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        for name, args, kwargs, result in self._samples:
            for stat, value in COUNTERS[name](args, kwargs, result).items():
                if stat in MAX_COUNTERS:
                    counts[name][stat] = max(counts[name][stat], value)
                else:
                    counts[name][stat] += value

        passes = max(query_pass) + 1
        metrics = {}
        for module, function, stats, _, _ in LAYERS:
            name = f"{module}.{function}"
            for stat in stats:
                if stat == "self_s":
                    value = self_by_name[name] / passes
                elif stat == "calls":
                    value = calls[(0, name)]
                else:
                    value = counts[name][stat]
                metrics[f"{name}.{stat}"] = value
        names = {n for _, n in calls}
        steady = all(calls[(p, n)] == calls[(0, n)]
                     for p in range(passes) for n in names)
        gaps = [t - s for t, s in zip(query_times, self_by_query)]
        modules: dict[str, float] = defaultdict(float)
        for name, seconds in self_by_name.items():
            modules[name.split(".")[0]] += seconds / passes
        return {"metrics": metrics, "calls_repeat": steady,
                "self_gap_s": sum(gaps), "max_query_gap_s": max(gaps, default=0.0),
                "module_self_s": dict(modules)}
