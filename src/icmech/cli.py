"""Batch command-line front end.

One analysis per invocation; reports are emitted as JSON (exact rationals
as strings) or as a plain text table.  Every verdict carries a ``basis``
field naming the mathematical criterion that produced it, so reports can
be audited.  Exit codes: 0 success, 2 precondition refusal (the input is
well-formed but outside an operation's regime), 1 I/O or schema error.

Each handler imports the modules it runs, so a command loads only what it
needs: ``inspect`` on a two-option file loads ``core`` and ``numerics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fixtures
from .core import (Instance, Mechanism, NoneCertificate, PreconditionError,
                   SchemaError, TypeSpace, check_profile_count, dumps_canonical,
                   instance_to_dict, load_any, load_mechanism,
                   load_mechanism_json, to_nested_strings)
from .numerics import require


def jsonable(obj):
    """Recursively convert report values to JSON-ready data; Fractions
    become exact strings.  ``_emit`` runs it once on every report."""
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


def _two_option(refusal: str, *paths: str) -> list[Instance]:
    """The two-option instances in ``paths``, all loaded before any is
    refused; an allocation among them is refused with ``refusal``."""
    insts = [load_any(path) for path in paths]
    if not all(isinstance(inst, Instance) for inst in insts):
        raise PreconditionError(refusal)
    return insts


def _instance_dict(inst) -> dict:
    if isinstance(inst, Instance):
        return instance_to_dict(inst)
    from .nalloc import allocation_to_dict
    return allocation_to_dict(inst)


def _mechanism_json(mech) -> dict:
    if isinstance(mech, Mechanism):
        return {"x": mech.x}
    return {"x": dict(zip(mech.space.agents, mech.x))}


# ---------------------------------------------------------------------------
# Command handlers: each returns a report dict for ``_emit``
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> dict:
    inst = load_any(args.instance)
    if isinstance(inst, Instance):
        dist = inst.dist
        return {
            "kind": "two-option",
            "agents": inst.space.agents,
            "shape": inst.space.shape,
            "marginals": dict(zip(inst.space.agents, dist.marginals())),
            "rank": dist.matrix_rank(),
            "independent": dist.is_independent(),
            "expected_value": inst.objective.expected_value,
            "labels_swapped": inst.objective.swapped,
            "basis": "marginals, exact matrix rank, ex-ante expectation",
        }
    return {
        "kind": "allocation",
        "agents": inst.space.agents,
        "shape": inst.space.shape,
        "disposal": inst.disposal,
        "marginals": dict(zip(inst.space.agents, inst.marginals)),
        "expected_values": inst.expected_values,
        "vbar": inst.vbar,
        "unbiased": inst.unbiased,
        "basis": "per-agent expectations under independent types",
    }


def cmd_check_ic(args) -> dict:
    inst = load_any(args.instance)
    if isinstance(inst, Instance):
        from .game import obedience_check
        from .ic import check_ic
        mech = load_mechanism(args.mechanism, inst.space)
        rep = check_ic(mech, inst.dist)
        obed = obedience_check(mech, inst.dist)
        require(obed.verdict == rep.verdict, "IC",
                "the obedience view agrees with the interim equalities")
        two_option = {"common_value": rep.common_value,
                      "ex_ante_indifferent": rep.ex_ante_indifferent,
                      "uninformative": rep.uninformative}
        basis = ("interim-equality characterization, cross-checked against "
                 "the obedience view of the auxiliary game")
    else:
        from .nalloc import check_ic_n, load_allocation_mechanism
        mech = load_allocation_mechanism(args.mechanism, inst)
        rep = check_ic_n(mech, inst)
        two_option = {}
        basis = "report-independent interim win probabilities"
    return {
        "ic": rep.verdict,
        **two_option,
        "interim": rep.interim,
        "violations": [{"agent": v.agent, "type": v.true_type,
                        "deviation": v.deviation, "gain": v.gain}
                       for v in rep.violations],
        "mechanism": _mechanism_json(mech),
        "basis": basis,
    }


def cmd_maximin(args) -> dict:
    from .game import maximin
    if args.instance is not None:
        [inst] = _two_option("maximin needs a two-option instance", args.instance)
        space = inst.space
        mech = load_mechanism(args.mechanism, space)
    else:
        data = load_mechanism_json(args.mechanism)
        arr = data.get("x")
        if not isinstance(arr, list) or not all(isinstance(row, list) for row in arr):
            raise SchemaError("maximin needs a two-option mechanism array")
        m, n = len(arr), len(arr[0]) if arr else 0
        check_profile_count((m, n))
        space = TypeSpace(("l", "r"), (tuple(range(m)), tuple(range(n))))
        mech = load_mechanism(data, space)
    sol = maximin(mech)
    return {
        "value": sol.value,
        "maximizer_strategy": dict(zip(space.types[0], sol.sigma_maximizer)),
        "minimizer_strategy": dict(zip(space.types[1], sol.sigma_minimizer)),
        "basis": "the maximizer's LP solved exactly; the minimizer's "
                 "strategy read off its duals",
    }


def cmd_spans(args) -> dict:
    from .ic import spans
    a, b = _two_option("spanning is defined for two-option instances",
                       args.instance_a, args.instance_b)
    verdict = spans(a.dist, b.dist)
    return {
        "spans": verdict.spans,
        "coefficients": verdict.coefficients,
        "witnesses": [list(map(str, w)) for w in verdict.witnesses],
        "basis": "exact solvability of each conditional belief in the "
                 "span of the first distribution's conditionals",
    }


def cmd_classify(args) -> dict:
    from .ic import classify_extremes
    [inst] = _two_option("classification is defined for two-option instances",
                         args.instance)
    return {**classify_extremes(inst.dist),
            "basis": "maximal iff full rank; minimal iff independent"}


def cmd_additivity(args) -> dict:
    from .profit import additivity_test
    [inst] = _two_option("additivity analysis needs a two-option instance",
                         args.instance)
    rep = additivity_test(inst)
    out = {
        "pi_additive": rep.is_pi_additive,
        "residual": rep.w_hat,
        "residual_norm_sq": sum(v * v for v in rep.w_hat.reshape(-1)),
        "basis": "projection of the weighted objective onto the "
                 "conditional-section subspace",
    }
    if rep.additive_parts is not None:
        v_l, v_r = rep.additive_parts
        out["additive_parts"] = {"first": v_l, "second": v_r}
    return out


def cmd_construct(args) -> dict:
    from .profit import construct_profitable
    [inst] = _two_option("construction needs a two-option instance",
                         args.instance)
    res = construct_profitable(inst)
    if isinstance(res, NoneCertificate):
        return {"profitable": False, "reason": res.reason, "basis": res.method}
    return {
        "profitable": True,
        "payoff": res.payoff,
        "epsilon": res.epsilon,
        "mechanism": _mechanism_json(res.mechanism),
        "interim_value": res.ic_report.common_value,
        "basis": res.method,
    }


def cmd_transport(args) -> dict:
    from .profit import transport_criterion
    [inst] = _two_option("transport criterion needs a two-option instance",
                         args.instance)
    res = transport_criterion(inst)
    return {
        "value": res.value,
        "profitable": res.profitable,
        "optimizer": res.optimizer.p,
        "transformed_objective": res.v_hat,
        "orthogonality_rows": res.orthogonality_rows,
        "independent": res.independent,
        "basis": "equal-marginals transport with correlation-orthogonality rows",
    }


def cmd_orthogonal(args) -> dict:
    from .profit import orthogonal
    a, b = _two_option("orthogonality is defined for two-option instances",
                       args.instance_a, args.instance_b)
    return {
        "orthogonal": orthogonal(a.dist, b.dist),
        "basis": "exact zero covariance of conditional-belief updates",
    }


def cmd_decompose(args) -> dict:
    from .profit import decompose
    [inst] = _two_option("decomposition needs a two-option instance",
                         args.instance)
    if not inst.dist.is_independent():
        raise PreconditionError("decomposition requires independent types")
    mech = load_mechanism(args.mechanism, inst.space)
    dec = decompose(mech, inst.dist.marginal(0), inst.dist.marginal(1))
    return {
        "q": dec.q,
        "terms": len(dec.gammas),
        "gammas": dec.gammas,
        "extreme_points": dec.extreme_points,
        "basis": "greedy peeling of acyclic-support extreme points",
    }


def cmd_myo(args) -> dict:
    from .profit import match_your_opponent
    [inst] = _two_option("matching analysis needs a two-option instance",
                         args.instance)
    rep = match_your_opponent(inst)
    return {
        "best_matching": [[str(a), str(b)] for a, b in rep.best_matching],
        "best_value": rep.best_value,
        "profitable": rep.profitable,
        "supermodular": rep.supermodular,
        "symmetric_marginals": rep.symmetric,
        "diagonal_sum": rep.diagonal_sum,
        "weighted_diagonal": rep.diagonal_value,
        "basis": rep.criterion,
    }


def cmd_alloc_n(args) -> dict:
    from .nalloc import analyze_allocation
    inst = load_any(args.instance)
    if isinstance(inst, Instance):
        raise PreconditionError("alloc-n needs an allocation instance")
    report = analyze_allocation(inst)
    if "mechanism" in report:
        report["mechanism"] = _mechanism_json(report["mechanism"])
    return report


def cmd_oracle(args) -> dict:
    from .oracle import solve_principal, solve_principal_alloc
    inst = load_any(args.instance)
    if isinstance(inst, Instance):
        res = solve_principal(inst)
        basis = "direct LP over the interim-equality polytope"
    else:
        res = solve_principal_alloc(inst)
        basis = "direct LP over the interim win-probability constraints"
    return {
        "value": res.value,
        "profitable": res.profitable,
        "baseline": res.baseline,
        "mechanism": _mechanism_json(res.mechanism),
        "basis": basis,
    }


def cmd_generate(args) -> dict:
    from .oracle import KINDS, generate
    # Only the mixture reads k; another kind would take it into its seed.
    if args.k is not None and args.kind in KINDS and \
            args.kind != "conditionally-independent":
        raise PreconditionError(f"kind {args.kind!r} has no --k; only "
                                "conditionally-independent mixtures read it")
    return _instance_dict(generate(args.seed, _parse_shape(args.shape), args.kind,
                                   k=args.k, zero_mean=args.zero_mean,
                                   disposal=args.disposal))


def cmd_fixture(args) -> dict:
    return _instance_dict(fixtures.fixture(args.name))


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


def _emit(report: dict, args) -> int:
    """Write the report; the exit code, 1 if ``--out`` cannot be written."""
    report = jsonable(report)
    if args.format == "json":
        text = dumps_canonical(report)
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as e:
        print(f"error: cannot write report to '{args.out}': {e.strerror or e}",
              file=sys.stderr)
        return 1
    return 0


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  Reusing it is safe:
    each ``parse_args`` call starts from a fresh ``Namespace`` and applies
    every default, ``handler`` included, again."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
