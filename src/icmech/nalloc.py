"""Allocating one good among n agents with independent types.

Each agent wants the good; the principal's value from giving it to agent i
may depend on everybody's types.  A mechanism is IC exactly when each
agent's interim probability of receiving the good does not depend on his
report.  When the principal is unbiased (equal expected values across
agents), a profitable mechanism exists iff the values fail to be
"difference-additive": v_i - v_j does not split as u_i(type_i) -
u_j(type_j).  Independence gives that test a closed form built from
projections onto the marginals (``belief.difference_residual``).  Free
disposal reduces to the same analysis with an extra dummy agent holding a
singleton type and zero value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .belief import difference_residual, slice_sums
from .core import (JointDist, NoneCertificate, PreconditionError, SchemaError,
                   TypeSpace, array_sum, axis_marginals, constant_array,
                   dumps_canonical, expectation, load_json_dict,
                   parse_rational_array, parse_type_space, product_dist,
                   to_nested_strings, without_zero_types)
from .ic import ICReport, Violation
from .numerics import require

ZERO = Fraction(0)
ONE = Fraction(1)

DISPOSAL_AGENT = "disposal"


@dataclass
class AllocationInstance:
    """Independent-types allocation problem.

    ``values[i]`` is the principal's payoff tensor for allocating to agent
    i, indexed by full type profile.  ``dist`` is the product of the
    per-agent marginals (independence is part of the model here), and
    ``expected_values[i]`` the expectation of ``values[i]`` under it; both
    are computed once, on construction.
    """

    space: TypeSpace
    marginals: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    disposal: bool
    name: str | None = None
    seed: int | None = None
    dist: JointDist = field(init=False, repr=False)
    expected_values: tuple[Fraction, ...] = field(init=False, repr=False,
                                                  compare=False)

    def __post_init__(self):
        if len(self.marginals) != self.space.n_agents or \
                len(self.values) != self.space.n_agents:
            raise SchemaError("need one marginal and one value tensor per agent")
        for v in self.values:
            if v.shape != self.space.shape:
                raise SchemaError("value tensor shape mismatch")
        self.dist = product_dist(self.space, list(self.marginals))
        self.expected_values = tuple(expectation(self.dist, v)
                                     for v in self.values)

    @property
    def n(self) -> int:
        return self.space.n_agents

    def expected_value(self, i: int) -> Fraction:
        return self.expected_values[i]

    @property
    def vbar(self) -> Fraction:
        return max(self.expected_values)

    @property
    def unbiased(self) -> bool:
        evs = self.expected_values
        return all(e == evs[0] for e in evs)


class AllocationMechanism:
    """Per-agent allocation probabilities: x_i >= 0 and the total over
    agents equals 1 (no disposal) or at most 1 (disposal), exactly."""

    def __init__(self, space: TypeSpace, parts, disposal: bool):
        parts = tuple(np.asarray(p, dtype=object) for p in parts)
        if len(parts) != space.n_agents:
            raise SchemaError("need one allocation tensor per agent")
        for p in parts:
            if p.shape != space.shape:
                raise SchemaError("allocation tensor shape mismatch")
            for v in p.reshape(-1):
                if not isinstance(v, Fraction) or v < 0:
                    raise SchemaError("allocation probabilities must be "
                                      "nonnegative rationals")
        totals = list(sum(parts).reshape(-1))
        if disposal and max(totals) > 1:
            raise SchemaError("allocation probabilities exceed 1")
        if not disposal and any(t != 1 for t in totals):
            raise SchemaError("allocation probabilities must sum to "
                              "exactly 1 at every profile")
        self.space = space
        self.x = parts
        self.disposal = disposal


def check_ic_n(x: AllocationMechanism, inst: AllocationInstance) -> ICReport:
    """IC test for allocation mechanisms: interim win probabilities must be
    report-independent for every agent.  Infeasible mechanisms are rejected."""
    if x.space != inst.space:
        raise PreconditionError("mechanism and instance type spaces differ")
    totals = list(sum(x.x).reshape(-1))
    if inst.disposal and max(totals) > 1:
        raise PreconditionError("mechanism infeasible: total exceeds 1")
    if not inst.disposal and any(t != 1 for t in totals):
        raise PreconditionError(
            "mechanism infeasible: the good must always be allocated")
    interim: dict = {}
    violations = []
    for i, agent in enumerate(inst.space.agents):
        # Types are independent, so every type holds the same belief about
        # the others: type b's interim win probability is the same to all.
        vals = list(slice_sums(inst.dist.p * x.x[i], i) / inst.marginals[i])
        labels = inst.space.types[i]
        for label, val in zip(labels, vals):
            interim[(agent, label)] = val
        violations += [Violation(agent, label, label2, val2 - val)
                       for label, val in zip(labels, vals)
                       for label2, val2 in zip(labels, vals) if val2 > val]
    return ICReport(verdict=not violations, violations=violations,
                    interim=interim)


# ---------------------------------------------------------------------------
# Difference-additivity and the explicit construction
# ---------------------------------------------------------------------------

@dataclass
class DifferenceAdditiveReport:
    """Can the value differences v_i - v_n be split into per-type terms?

    ``holds`` iff the weighted differences pi * (v_i - v_n) lie in the
    subspace W of functions pi * (u_i(type_i) - u_n(type_n)); then ``u``
    realizes the split (pairwise splittings for all (i, j) follow), with
    u_n(last type) = 0.  Otherwise ``residual`` is the nonzero component
    orthogonal to W, in the closed form of ``belief.difference_residual``.
    """

    holds: bool
    u: dict | None
    residual: np.ndarray | None


def difference_additive(inst: AllocationInstance) -> DifferenceAdditiveReport:
    """Decide v_i(theta) - v_j(theta) = u_i(theta_i) - u_j(theta_j) by the
    exact closed-form projection of the weighted differences onto W."""
    if inst.n < 2:
        raise PreconditionError("difference-additivity needs at least two agents")
    t = np.array([inst.dist.p * (v - inst.values[-1])
                  for v in inst.values[:-1]], dtype=object)
    eps = difference_residual(inst.dist, t)
    if any(eps.reshape(-1)):
        return DifferenceAdditiveReport(holds=False, u=None, residual=eps)
    u = _split(inst)
    _verify_split(inst, u)
    return DifferenceAdditiveReport(holds=True, u=u, residual=None)


def _split(inst: AllocationInstance) -> dict:
    """u read off d_i = v_i - v_n if it splits: u_i(s) is d_i where agent i
    has type s, the reference agent n its last type and all others their
    first; u_n(s) = u_1(first) - d_1(agent n at s, all others first)."""
    n = inst.n

    def along(i, arr):
        idx = [0] * (n - 1) + [-1]
        idx[i] = slice(None)
        return list(arr[tuple(idx)])

    d = [v - inst.values[-1] for v in inst.values[:-1]]
    cols = [along(i, di) for i, di in enumerate(d)]
    cols.append([cols[0][0] - v for v in along(n - 1, d[0])])
    return {agent: dict(zip(labels, col)) for agent, labels, col
            in zip(inst.space.agents, inst.space.types, cols)}


def _verify_split(inst: AllocationInstance, u: dict) -> None:
    """v_i - v_n = u_i(theta_i) - u_n(theta_n) at every profile, exactly;
    the splits of every v_i - v_j follow."""
    space = inst.space
    terms = [np.array([u[agent][p[i]] for p in space.profiles()],
                      dtype=object).reshape(space.shape)
             for i, agent in enumerate(space.agents)]
    for v, term in zip(inst.values, terms):
        require(((v - inst.values[-1]) == (term - terms[-1])).all(),
                "allocation", "the split reproduces v_i - v_n")


@dataclass
class NAllocReport:
    """A verified profitable allocation mechanism built from the projection
    residual, with its exact audit trail."""

    vbar: Fraction
    profitable: bool
    payoff: Fraction
    mechanism: AllocationMechanism
    alpha: Fraction
    residual: np.ndarray
    ic_report: ICReport
    method: str = "residual-construction"
    witness: object = None


def construct_profitable_n(inst: AllocationInstance):
    """Profitable mechanism for an unbiased no-disposal instance, or a
    certificate that none exists.

    Raises PreconditionError for disposal instances (use ``with_disposal``)
    and for biased principals, whose case the iff does not cover: decide
    those with the direct LP instead (``analyze_allocation`` does).
    """
    if inst.disposal:
        raise PreconditionError("instance allows disposal; use with_disposal")
    rep = difference_additive(inst)
    if rep.holds:
        return NoneCertificate(
            reason="value differences split into per-type terms, so every IC "
                   "mechanism earns exactly what some constant allocation earns",
            method="difference-additive",
            details={"u": rep.u, "vbar": inst.vbar})
    if not inst.unbiased:
        raise PreconditionError(
            "construction requires an unbiased principal (equal expected "
            "values across agents); this instance is biased, so decide via "
            "the direct LP over the IC constraints")
    n = inst.n
    eps = rep.residual
    flat = list(eps.reshape(-1))
    emin = min(flat)
    assert emin < 0  # nonzero residual integrates to zero against pi
    z = eps - emin
    cap = max(z.sum(axis=0).reshape(-1))
    assert cap > 0
    alpha = ONE / cap
    parts = list(z * alpha)
    parts.append(ONE - sum(parts))
    mech = AllocationMechanism(inst.space, parts, disposal=False)
    icr = check_ic_n(mech, inst)
    require(icr.verdict, "allocation", "the constructed mechanism is IC")
    for i, agent in enumerate(inst.space.agents):
        expected = -alpha * emin if i < n - 1 else 1 + (n - 1) * alpha * emin
        for label in inst.space.types[i]:
            require(icr.interim[(agent, label)] == expected, "allocation",
                    "interim win probabilities equal their closed form")
    payoff = _direct_payoff(inst, mech)
    claimed = alpha * sum(v * v for v in flat) + inst.vbar
    require(payoff == claimed, "allocation", "payoff = alpha * |eps|^2 + vbar")
    require(payoff > inst.vbar, "allocation",
            "the constructed mechanism beats vbar")
    return NAllocReport(vbar=inst.vbar, profitable=True, payoff=payoff,
                        mechanism=mech, alpha=alpha, residual=eps,
                        ic_report=icr)


def _direct_payoff(inst: AllocationInstance, mech: AllocationMechanism) -> Fraction:
    return sum((expectation(inst.dist, v * x)
                for v, x in zip(inst.values, mech.x)), ZERO)


# ---------------------------------------------------------------------------
# Free disposal via the dummy-agent reduction
# ---------------------------------------------------------------------------

def add_disposal_agent(inst: AllocationInstance) -> AllocationInstance:
    """No-disposal counterpart: an extra last agent with a singleton type
    and identically zero value absorbs whatever the principal would burn."""
    if not inst.disposal:
        raise PreconditionError("instance already requires full allocation")
    if DISPOSAL_AGENT in inst.space.agents:
        raise PreconditionError(f"agent name {DISPOSAL_AGENT!r} is reserved")
    agents = inst.space.agents + (DISPOSAL_AGENT,)
    types = inst.space.types + ((0,),)
    space = TypeSpace(agents, types)
    margs = inst.marginals + (np.array([ONE], dtype=object),)
    vals = tuple(v.reshape(v.shape + (1,)) for v in inst.values)
    vals = vals + (constant_array(space.shape, 0),)
    return AllocationInstance(space, margs, vals, disposal=False,
                              name=inst.name, seed=inst.seed)


def drop_disposal_agent(mech: AllocationMechanism,
                        inst: AllocationInstance) -> AllocationMechanism:
    """The disposal mechanism on ``inst``'s own agents from a mechanism on
    its dummy-agent extension: the dummy agent's share, and its singleton
    axis, are dropped; what it held is burnt."""
    parts = [p.reshape(inst.space.shape) for p in mech.x[:-1]]
    return AllocationMechanism(inst.space, parts, disposal=True)


def non_constant_witnesses(inst: AllocationInstance) -> list[str]:
    """Agents whose value depends on somebody else's type."""
    return [agent for i, agent in enumerate(inst.space.agents)
            if any(len(set(own)) > 1 for own in np.moveaxis(
                inst.values[i], i, 0).reshape(inst.space.shape[i], -1))]


def with_disposal(inst: AllocationInstance):
    """Profitability analysis under free disposal.

    Runs the no-disposal pipeline on the dummy-agent extension; profitable
    iff some agent's value depends on the other agents' types (exact iff
    when the principal is unbiased with vbar = 0; otherwise only the
    necessity direction applies and construction is refused).
    """
    if not inst.disposal:
        raise PreconditionError("instance does not allow disposal")
    augmented = add_disposal_agent(inst)
    witnesses = non_constant_witnesses(inst)
    result = construct_profitable_n(augmented)
    require(isinstance(result, NoneCertificate) == (not witnesses),
            "allocation",
            "the split exists iff no agent's value moves with others' types")
    if isinstance(result, NoneCertificate):
        return result
    # In the construction regime all expected values are 0, so beating the
    # dummy agent is the same as beating max(0, vbar).
    result.witness = witnesses[0]
    return result


def analyze_allocation(inst: AllocationInstance) -> dict:
    """The ``alloc-n`` report, keys in print order: the verdict, its rule as
    ``basis`` and any mechanism found, on ``inst``'s own agents.

    Unbiased instances (vbar = 0 as well, for disposal) get the exact
    iff treatment; otherwise the condition is only necessary, and when it
    is violated the verdict comes from the direct LP over the IC
    constraints, labelled as outside the iff's regime.
    """
    from .oracle import solve_principal_alloc  # deferred: oracle imports this module

    base = add_disposal_agent(inst) if inst.disposal else inst
    # The construction runs the difference-additivity projection itself and
    # certifies exactly when the split holds; elsewhere it runs here, once.
    if base.unbiased:
        report = with_disposal(inst) if inst.disposal else construct_profitable_n(inst)
        if not isinstance(report, NoneCertificate):
            out = {"profitable": True, "vbar": inst.vbar, "exact_iff": True,
                   "basis": report.method, "payoff": report.payoff,
                   "mechanism": report.mechanism}
            if inst.disposal:
                out.update(mechanism=drop_disposal_agent(report.mechanism, inst),
                           witness=report.witness)
            return out
    if base.unbiased or difference_additive(base).holds:
        return {"profitable": False, "vbar": inst.vbar, "exact_iff": True,
                "basis": "difference-additive",
                "certificate": "no IC mechanism beats a constant allocation"}
    lp = solve_principal_alloc(inst)
    return {"profitable": lp.profitable, "vbar": inst.vbar, "exact_iff": False,
            "basis": "ic-constraints-lp", "payoff": lp.value,
            "note": "biased principal with the splitting condition violated: "
                    "outside the iff regime, decided by the direct LP",
            "mechanism": lp.mechanism}


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def load_allocation(source, *, drop_zero_types: bool = False) -> AllocationInstance:
    """Parse an allocation instance.

    Schema: {"agents": [...], "types": {agent: [labels]},
    "marginals": {agent: [...]} or "pi": full product tensor,
    "v": {agent: tensor}, "disposal": true|false}.
    """
    data = load_json_dict(source)
    space = parse_type_space(data)
    if "v" not in data or not isinstance(data["v"], dict):
        raise SchemaError("allocation instance requires 'v': {agent: tensor}")
    if "disposal" not in data or not isinstance(data["disposal"], bool):
        raise SchemaError("allocation instance requires boolean 'disposal'")
    if "marginals" in data:
        if not isinstance(data["marginals"], dict):
            raise SchemaError("'marginals' must map each agent to its marginal")
        margs = []
        for i, a in enumerate(space.agents):
            if a not in data["marginals"]:
                raise SchemaError(f"'marginals' missing agent {a!r}")
            margs.append(parse_rational_array(data["marginals"][a],
                                              (space.shape[i],), f"marginals[{a}]"))
    elif "pi" in data:
        pi = parse_rational_array(data["pi"], space.shape, "pi")
        if array_sum(pi) != 1:
            raise SchemaError("pi must sum to exactly 1")
        margs = axis_marginals(pi)
        check = product_dist(space, margs).p
        if not (check == pi).all():
            raise SchemaError("pi is not a product of its marginals; "
                              "this analysis assumes independent types")
    else:
        raise SchemaError("allocation instance requires 'marginals' or 'pi'")
    missing = [a for a in space.agents if a not in data["v"]]
    if missing:
        raise SchemaError(f"'v' missing entries for agents {missing}")
    vals = [parse_rational_array(data["v"][a], space.shape, f"v[{a}]")
            for a in space.agents]
    if drop_zero_types:
        space, margs, vals = without_zero_types(space, margs, vals)
    return AllocationInstance(space, tuple(margs), tuple(vals),
                              bool(data["disposal"]),
                              name=data.get("name"), seed=data.get("seed"))


def load_allocation_mechanism(source, inst: AllocationInstance) -> AllocationMechanism:
    """Parse {"x": {agent: tensor}} against an instance."""
    data = load_json_dict(source)
    if "x" not in data and isinstance(data.get("mechanism"), dict):
        data = data["mechanism"]
    if "x" not in data or not isinstance(data["x"], dict):
        raise SchemaError("allocation mechanism requires 'x': {agent: tensor}")
    missing = [a for a in inst.space.agents if a not in data["x"]]
    if missing:
        raise SchemaError(f"'x' missing entries for agents {missing}")
    parts = [parse_rational_array(data["x"][a], inst.space.shape, f"x[{a}]")
             for a in inst.space.agents]
    return AllocationMechanism(inst.space, parts, disposal=inst.disposal)


def allocation_to_dict(inst: AllocationInstance) -> dict:
    out = {
        "agents": list(inst.space.agents),
        "types": {a: list(t) for a, t in zip(inst.space.agents, inst.space.types)},
        "marginals": {a: to_nested_strings(m)
                      for a, m in zip(inst.space.agents, inst.marginals)},
        "v": {a: to_nested_strings(v)
              for a, v in zip(inst.space.agents, inst.values)},
        "disposal": inst.disposal,
    }
    if inst.name is not None:
        out["name"] = inst.name
    if inst.seed is not None:
        out["seed"] = inst.seed
    return out


def dump_allocation(inst: AllocationInstance) -> str:
    return dumps_canonical(allocation_to_dict(inst))
