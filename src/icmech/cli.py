"""Batch command-line front end.

One analysis per invocation; reports are emitted as JSON (exact rationals
as strings) or as a plain text table.  Every verdict carries a ``basis``
field naming the mathematical criterion that produced it, so reports can
be audited.  Exit codes: 0 success, 2 precondition refusal (the input is
well-formed but outside an operation's regime), 1 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fixtures
from .core import (Instance, Mechanism, NoneCertificate, PreconditionError,
                   SchemaError, TypeSpace, check_profile_count, dumps_canonical,
                   instance_to_dict, load_instance, load_json_dict,
                   load_mechanism, to_nested_strings)
from .game import maximin, obedience_check
from .ic import check_ic, classify_extremes, spans
from .nalloc import (AllocationInstance, AllocationMechanism,
                     allocation_to_dict, analyze_allocation, check_ic_n,
                     load_allocation, load_allocation_mechanism)
from .oracle import generate, solve_principal, solve_principal_alloc
from .profit import (additivity_test, construct_profitable, decompose,
                     match_your_opponent, orthogonal, transport_criterion)


def jsonable(obj):
    """Recursively convert report values to JSON-ready data; Fractions
    become exact strings."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return to_nested_strings(obj)
    if isinstance(obj, dict):
        return {_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def _key(k) -> str:
    if isinstance(k, tuple):
        return "|".join(str(p) for p in k)
    return str(k)


def _load_any(path: str):
    data = load_json_dict(path)
    if "vL" in data:
        return "two-option", load_instance(data)
    if "v" in data:
        return "allocation", load_allocation(data)
    raise SchemaError("instance file has neither 'vL' (two-option) nor "
                      "'v' (allocation)")


def _mechanism_json(mech) -> dict:
    if isinstance(mech, Mechanism):
        return {"x": to_nested_strings(mech.x)}
    return {"x": {a: to_nested_strings(part)
                  for a, part in zip(mech.space.agents, mech.x)}}


# ---------------------------------------------------------------------------
# Command handlers: each returns a JSON-ready dict
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> dict:
    kind, inst = _load_any(args.instance)
    if kind == "two-option":
        dist = inst.dist
        return {
            "kind": kind,
            "agents": list(inst.space.agents),
            "shape": list(inst.space.shape),
            "marginals": {a: to_nested_strings(dist.marginal(i))
                          for i, a in enumerate(inst.space.agents)},
            "rank": dist.matrix_rank(),
            "independent": dist.is_independent(),
            "expected_value": str(inst.objective.expected_value),
            "labels_swapped": inst.objective.swapped,
            "basis": "marginals, exact matrix rank, ex-ante expectation",
        }
    return {
        "kind": kind,
        "agents": list(inst.space.agents),
        "shape": list(inst.space.shape),
        "disposal": inst.disposal,
        "marginals": {a: to_nested_strings(m)
                      for a, m in zip(inst.space.agents, inst.marginals)},
        "expected_values": [str(e) for e in inst.expected_values],
        "vbar": str(inst.vbar),
        "unbiased": inst.unbiased,
        "basis": "per-agent expectations under independent types",
    }


def cmd_check_ic(args) -> dict:
    kind, inst = _load_any(args.instance)
    if kind == "two-option":
        mech = load_mechanism(args.mechanism, inst.space)
        rep = check_ic(mech, inst.dist)
        obed = obedience_check(mech, inst.dist)
        assert obed.verdict == rep.verdict
        return {
            "ic": rep.verdict,
            "common_value": None if rep.common_value is None else str(rep.common_value),
            "ex_ante_indifferent": rep.ex_ante_indifferent,
            "uninformative": rep.uninformative,
            "interim": {k: str(v) for k, v in jsonable(rep.interim).items()},
            "violations": [{"agent": v.agent, "type": v.true_type,
                            "deviation": v.deviation, "gain": str(v.gain)}
                           for v in rep.violations],
            "mechanism": _mechanism_json(mech),
            "basis": "interim-equality characterization, cross-checked "
                     "against the obedience view of the auxiliary game",
        }
    mech = load_allocation_mechanism(args.mechanism, inst)
    rep = check_ic_n(mech, inst)
    return {
        "ic": rep.verdict,
        "interim": {k: str(v) for k, v in jsonable(rep.interim).items()},
        "violations": [{"agent": a, "type": t, "deviation": d, "gain": str(g)}
                       for a, t, d, g in rep.violations],
        "mechanism": _mechanism_json(mech),
        "basis": "report-independent interim win probabilities",
    }


def cmd_maximin(args) -> dict:
    if args.instance is not None:
        kind, inst = _load_any(args.instance)
        if kind != "two-option":
            raise PreconditionError("maximin needs a two-option instance")
        space = inst.space
        mech = load_mechanism(args.mechanism, space)
    else:
        data = load_json_dict(args.mechanism)
        if "x" not in data and isinstance(data.get("mechanism"), dict):
            data = data["mechanism"]
        arr = data.get("x")
        if not isinstance(arr, list) or not all(isinstance(row, list) for row in arr):
            raise SchemaError("maximin needs a two-option mechanism array")
        m, n = len(arr), len(arr[0]) if arr else 0
        space = TypeSpace(("l", "r"), (tuple(range(m)), tuple(range(n))))
        mech = load_mechanism(data, space)
    sol = maximin(mech)
    return {
        "value": str(sol.value),
        "maximizer_strategy": {str(t): str(p) for t, p in
                               zip(space.types[0], sol.sigma_maximizer)},
        "minimizer_strategy": {str(t): str(p) for t, p in
                               zip(space.types[1], sol.sigma_minimizer)},
        "basis": "both players' LPs solved exactly; values coincide",
    }


def cmd_spans(args) -> dict:
    _, a = _load_any(args.instance_a)
    _, b = _load_any(args.instance_b)
    if not isinstance(a, Instance) or not isinstance(b, Instance):
        raise PreconditionError("spanning is defined for two-option instances")
    verdict = spans(a.dist, b.dist)
    return {
        "spans": verdict.spans,
        "coefficients": jsonable(verdict.coefficients),
        "witnesses": [list(map(str, w)) for w in verdict.witnesses],
        "basis": "exact solvability of each conditional belief in the "
                 "span of the first distribution's conditionals",
    }


def cmd_classify(args) -> dict:
    _, inst = _load_any(args.instance)
    if not isinstance(inst, Instance):
        raise PreconditionError("classification is defined for two-option instances")
    cls = classify_extremes(inst.dist)
    return {
        "maximal": cls["maximal"],
        "minimal": cls["minimal"],
        "rank": inst.dist.matrix_rank(),
        "independent": inst.dist.is_independent(),
        "basis": "maximal iff full rank; minimal iff independent",
    }


def cmd_additivity(args) -> dict:
    _, inst = _load_any(args.instance)
    if not isinstance(inst, Instance):
        raise PreconditionError("additivity analysis needs a two-option instance")
    rep = additivity_test(inst)
    out = {
        "pi_additive": rep.is_pi_additive,
        "residual": to_nested_strings(rep.w_hat),
        "residual_norm_sq": str(sum(v * v for v in rep.w_hat.reshape(-1))),
        "basis": "projection of the weighted objective onto the "
                 "conditional-section subspace",
    }
    if rep.additive_parts is not None:
        v_l, v_r = rep.additive_parts
        out["additive_parts"] = {"first": to_nested_strings(v_l),
                                 "second": to_nested_strings(v_r)}
    return out


def cmd_construct(args) -> dict:
    _, inst = _load_any(args.instance)
    if not isinstance(inst, Instance):
        raise PreconditionError("construction needs a two-option instance")
    res = construct_profitable(inst)
    if isinstance(res, NoneCertificate):
        return {"profitable": False, "reason": res.reason, "basis": res.method}
    return {
        "profitable": True,
        "payoff": str(res.payoff),
        "epsilon": None if res.epsilon is None else str(res.epsilon),
        "mechanism": _mechanism_json(res.mechanism),
        "interim_value": None if res.ic_report.common_value is None
        else str(res.ic_report.common_value),
        "basis": res.method,
    }


def cmd_transport(args) -> dict:
    _, inst = _load_any(args.instance)
    if not isinstance(inst, Instance):
        raise PreconditionError("transport criterion needs a two-option instance")
    res = transport_criterion(inst)
    return {
        "value": str(res.value),
        "profitable": res.profitable,
        "optimizer": to_nested_strings(res.optimizer.p),
        "transformed_objective": to_nested_strings(res.v_hat),
        "orthogonality_rows": res.orthogonality_rows,
        "independent": res.independent,
        "basis": "equal-marginals transport with correlation-orthogonality rows",
    }


def cmd_orthogonal(args) -> dict:
    _, a = _load_any(args.instance_a)
    _, b = _load_any(args.instance_b)
    if not isinstance(a, Instance) or not isinstance(b, Instance):
        raise PreconditionError("orthogonality is defined for two-option instances")
    return {
        "orthogonal": orthogonal(a.dist, b.dist),
        "basis": "exact zero covariance of conditional-belief updates",
    }


def cmd_decompose(args) -> dict:
    _, inst = _load_any(args.instance)
    if not isinstance(inst, Instance):
        raise PreconditionError("decomposition needs a two-option instance")
    if not inst.dist.is_independent():
        raise PreconditionError("decomposition requires independent types")
    mech = load_mechanism(args.mechanism, inst.space)
    dec = decompose(mech, inst.dist.marginal(0), inst.dist.marginal(1))
    return {
        "q": str(dec.q),
        "terms": len(dec.gammas),
        "gammas": [str(g) for g in dec.gammas],
        "extreme_points": [to_nested_strings(p) for p in dec.extreme_points],
        "basis": "greedy peeling of acyclic-support extreme points",
    }


def cmd_myo(args) -> dict:
    _, inst = _load_any(args.instance)
    if not isinstance(inst, Instance):
        raise PreconditionError("matching analysis needs a two-option instance")
    rep = match_your_opponent(inst)
    return {
        "best_matching": [[str(a), str(b)] for a, b in rep.best_matching],
        "best_value": str(rep.best_value),
        "profitable": rep.profitable,
        "supermodular": rep.supermodular,
        "symmetric_marginals": rep.symmetric,
        "diagonal_sum": str(rep.diagonal_sum),
        "weighted_diagonal": None if rep.diagonal_value is None
        else str(rep.diagonal_value),
        "basis": rep.criterion,
    }


def cmd_alloc_n(args) -> dict:
    kind, inst = _load_any(args.instance)
    if kind != "allocation":
        raise PreconditionError("alloc-n needs an allocation instance")
    res = analyze_allocation(inst)
    out = {
        "profitable": res["profitable"],
        "vbar": str(res["vbar"]),
        "exact_iff": res["exact_iff"],
        "basis": res["method"],
    }
    if "payoff" in res:
        out["payoff"] = str(res["payoff"])
    if "note" in res:
        out["note"] = res["note"]
    rep = res.get("report")
    if rep is not None and getattr(rep, "mechanism", None) is not None:
        mech = rep.mechanism
        if inst.disposal and mech.space != inst.space:
            # The construction ran on the dummy-agent extension; emit the
            # disposal mechanism on the original agents so it round-trips.
            parts = [p.reshape(inst.space.shape) for p in mech.x[:-1]]
            mech = AllocationMechanism(inst.space, parts, disposal=True)
        out["mechanism"] = _mechanism_json(mech)
        if getattr(rep, "witness", None) is not None:
            out["witness"] = str(rep.witness)
    if "certificate" in res:
        out["certificate"] = res["certificate"]
    return out


def cmd_oracle(args) -> dict:
    kind, inst = _load_any(args.instance)
    if kind == "two-option":
        res = solve_principal(inst)
        basis = "direct LP over the interim-equality polytope"
    else:
        res = solve_principal_alloc(inst)
        basis = "direct LP over the interim win-probability constraints"
    return {
        "value": str(res.value),
        "profitable": res.profitable,
        "baseline": str(res.baseline),
        "mechanism": _mechanism_json(res.mechanism),
        "basis": basis,
    }


def cmd_generate(args) -> dict:
    inst = generate(args.seed, _parse_shape(args.shape), args.kind,
                    k=args.k, zero_mean=args.zero_mean, disposal=args.disposal)
    if isinstance(inst, AllocationInstance):
        return allocation_to_dict(inst)
    return instance_to_dict(inst)


def cmd_fixture(args) -> dict:
    inst = fixtures.fixture(args.name)
    if isinstance(inst, AllocationInstance):
        return allocation_to_dict(inst)
    return instance_to_dict(inst)


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise SchemaError(f"bad shape {text!r}; write e.g. 2x2 or 2x2x2") from None
    if not parts or any(p < 1 for p in parts):
        raise SchemaError(f"bad shape {text!r}")
    check_profile_count(parts)
    return parts


# ---------------------------------------------------------------------------
# Rendering and dispatch
# ---------------------------------------------------------------------------

def _render_text(data, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(data, list):
        if all(not isinstance(v, (dict, list)) for v in data):
            lines.append(pad + "[" + ", ".join(_scalar(v) for v in data) + "]")
        else:
            for v in data:
                lines.extend(_render_text(v, indent))
    else:
        lines.append(pad + _scalar(data))
    return lines


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return str(v)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = dumps_canonical(report)
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmech",
        description="Exact analysis of mechanisms without transfers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, positionals):
        p = sub.add_parser(name, help=help_)
        for arg, kw in positionals:
            p.add_argument(arg, **kw)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.set_defaults(handler=handler)
        return p

    inst = ("instance", {"help": "instance JSON file"})
    mech = ("mechanism", {"help": "mechanism JSON file"})
    add("inspect", cmd_inspect, "marginals, rank, independence, expectations", [inst])
    add("check-ic", cmd_check_ic, "incentive-compatibility check", [inst, mech])
    add("maximin", cmd_maximin, "value of the auxiliary matrix game",
        [mech, ("instance", {"nargs": "?", "default": None,
                             "help": "optional instance supplying type labels"})])
    add("spans", cmd_spans, "does the first distribution span the second?",
        [("instance_a", {"help": "spanning candidate"}),
         ("instance_b", {"help": "spanned candidate"})])
    add("classify", cmd_classify, "extremes of the spanning preorder", [inst])
    add("additivity", cmd_additivity, "distribution-relative additivity test", [inst])
    add("construct", cmd_construct, "build a profitable mechanism if one exists", [inst])
    add("transport", cmd_transport, "constrained optimal-transport criterion", [inst])
    add("orthogonal", cmd_orthogonal, "zero-covariance test between distributions",
        [("instance_a", {}), ("instance_b", {})])
    add("decompose", cmd_decompose, "extreme-point decomposition of an IC mechanism",
        [inst, mech])
    add("myo", cmd_myo, "match-your-opponent analysis", [inst])
    add("alloc-n", cmd_alloc_n, "n-agent allocation profitability", [inst])
    add("oracle", cmd_oracle, "direct LP solution of the principal's problem", [inst])
    gen = add("generate", cmd_generate, "deterministic random instance",
              [("--seed", {"type": int, "required": True}),
               ("--shape", {"required": True, "help": "e.g. 2x2 or 2x2x2"}),
               ("--kind", {"required": True}),
               ("--k", {"type": int, "default": None,
                        "help": "mixture size for conditionally-independent"})])
    gen.add_argument("--zero-mean", action="store_true")
    gen.add_argument("--disposal", action="store_true")
    add("fixture", cmd_fixture, "emit a canonical instance",
        [("name", {"choices": fixtures.FIXTURE_NAMES})])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except PreconditionError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
