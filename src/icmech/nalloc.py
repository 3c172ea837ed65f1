"""Allocating one good among n agents with independent types.

Each agent wants the good; the principal's value from giving it to agent i
may depend on everybody's types.  A mechanism is IC exactly when each
agent's interim probability of receiving the good does not depend on their
report.  When the principal is unbiased (equal expected values across
agents), a profitable mechanism exists iff the values fail to be
"difference-additive": v_i - v_j does not split as u_i(type_i) -
u_j(type_j).  Independence gives that test a closed form built from
projections onto the marginals (``belief.difference_residual``).  Free
disposal reduces to the same analysis with an extra dummy agent holding a
singleton type and zero value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .belief import difference_residual, slice_sums
from .core import (JointDist, NoneCertificate, PreconditionError, SchemaError,
                   TypeSpace, check_keys, constant_array, expectation,
                   load_json_dict, load_mechanism_json, parse_rational_array,
                   parse_type_space, per_agent, product_dist, slices,
                   to_nested_strings)
from .ic import ICReport, Violation
from .numerics import integer_row, require

ZERO = Fraction(0)
ONE = Fraction(1)

DISPOSAL_AGENT = "disposal"


@dataclass
class AllocationInstance:
    """Independent-types allocation problem.

    ``values[i]`` is the principal's payoff tensor for allocating to agent
    i, indexed by full type profile.  ``dist`` is the product of the
    per-agent marginals (independence is part of the model here), each a
    probability vector, and
    ``expected_values[i]`` the expectation of ``values[i]`` under it; both
    are computed once, on construction.  ``no_disposal`` is the instance
    every analysis runs on: free disposal reduces to full allocation with
    a dummy agent.
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

    @property
    def vbar(self) -> Fraction:
        return max(self.expected_values)

    @property
    def unbiased(self) -> bool:
        evs = self.expected_values
        return all(e == evs[0] for e in evs)

    @cached_property
    def no_disposal(self) -> AllocationInstance:
        """The instance itself, or under disposal its dummy-agent
        extension, built on first use and kept."""
        return add_disposal_agent(self) if self.disposal else self


class AllocationMechanism:
    """Per-agent allocation probabilities: x_i >= 0 and the total over
    agents equals 1 (no disposal) or at most 1 (disposal), exactly; both
    are checked on the shares' integers (``_share_totals``)."""

    def __init__(self, space: TypeSpace, parts, disposal: bool):
        parts = tuple(np.asarray(p, dtype=object) for p in parts)
        if len(parts) != space.n_agents:
            raise SchemaError("need one allocation tensor per agent")
        for p in parts:
            if p.shape != space.shape:
                raise SchemaError("allocation tensor shape mismatch")
            if not all(isinstance(v, Fraction) for v in p.flat):
                raise SchemaError("allocation probabilities must be "
                                  "nonnegative rationals")
        shares, den, totals = _share_totals(parts)
        if any(v < 0 for _, xs in shares for v in xs):
            raise SchemaError("allocation probabilities must be "
                              "nonnegative rationals")
        if disposal and max(totals) > den:
            raise SchemaError("allocation probabilities exceed 1")
        if not disposal and any(t != den for t in totals):
            raise SchemaError("allocation probabilities must sum to "
                              "exactly 1 at every profile")
        self.space = space
        self.x = parts


def _share_totals(parts) -> tuple[list[tuple[int, list[int]]], int, np.ndarray]:
    """(shares, den, totals): each share's integers over its own
    denominator, (d_i, X_i) from ``integer_row``, and the total of the
    shares at each profile, flat, over their common denominator den."""
    shares = [integer_row(p.reshape(-1)) for p in parts]
    den = math.lcm(*(d for d, _ in shares))
    totals = sum(np.array(xs, dtype=object) * (den // d) for d, xs in shares)
    return shares, den, totals


def check_ic_n(x: AllocationMechanism, inst: AllocationInstance) -> ICReport:
    """IC test for allocation mechanisms: interim win probabilities must be
    report-independent for every agent.  Infeasible mechanisms are rejected.

    The test compares integers: pi's numerators P over one denominator and
    each share's numerators X_i over its own, d_i.  Type b of agent i wins
    with probability W_i(b) / (d_i M_i(b)), W_i the sums of P * X_i and M_i
    those of P over the profiles where agent i has type b.  Fractions are
    made only for the report's interim values and violations."""
    if x.space != inst.space:
        raise PreconditionError("mechanism and instance type spaces differ")
    shape = inst.space.shape
    shares, den, totals = _share_totals(x.x)
    if inst.disposal and max(totals) > den:
        raise PreconditionError("mechanism infeasible: total exceeds 1")
    if not inst.disposal and any(t != den for t in totals):
        raise PreconditionError(
            "mechanism infeasible: the good must always be allocated")
    pi = inst.dist.nums
    interim: dict = {}
    violations = []
    for i, (agent, (d, xs)) in enumerate(zip(inst.space.agents, shares)):
        # Types are independent, so every type holds the same belief about
        # the others: type b's interim win probability is the same to all.
        wins = slice_sums(pi * np.array(xs, dtype=object).reshape(shape), i)
        dens = slice_sums(pi, i) * d
        labels = inst.space.types[i]
        for label, w, s in zip(labels, wins, dens):
            interim[(agent, label)] = Fraction(w, s)
        violations += [Violation(agent, label, label2, Fraction(w2 * s - w * s2, s * s2))
                       for label, w, s in zip(labels, wins, dens)
                       for label2, w2, s2 in zip(labels, wins, dens) if w2 * s > w * s2]
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
    """Profitable mechanism for an unbiased instance, or a certificate that
    none exists.

    Runs on ``inst.no_disposal``, so under free disposal the mechanism is
    on the dummy-agent extension: profitable iff some agent's value
    depends on the other agents' types, and ``witness`` names the first
    such agent.  Raises PreconditionError for biased principals (under
    disposal, vbar = 0 as well), whose case the iff does not cover: decide
    those with the direct LP instead (``analyze_allocation`` does).
    """
    base = inst.no_disposal
    rep = difference_additive(base)
    witnesses = non_constant_witnesses(inst) if inst.disposal else []
    require(not inst.disposal or rep.holds == (not witnesses), "allocation",
            "the split exists iff no agent's value moves with others' types")
    if rep.holds:
        return NoneCertificate(
            reason="value differences split into per-type terms, so every IC "
                   "mechanism earns exactly what some constant allocation earns",
            method="difference-additive",
            details={"u": rep.u, "vbar": base.vbar})
    if not base.unbiased:
        raise PreconditionError(
            "construction requires an unbiased principal (equal expected "
            "values across agents); this instance is biased, so decide via "
            "the direct LP over the IC constraints")
    n = base.n
    eps = rep.residual
    flat = list(eps.reshape(-1))
    emin = min(flat)
    require(emin < 0, "allocation",
            "the nonzero residual, which integrates to 0 against pi, has a "
            "negative entry")
    z = eps - emin
    cap = max(z.sum(axis=0).reshape(-1))
    require(cap > 0, "allocation", "the shifted residual has a positive "
            "profile total")
    alpha = ONE / cap
    parts = list(z * alpha)
    parts.append(ONE - sum(parts))
    mech = AllocationMechanism(base.space, parts, disposal=False)
    icr = check_ic_n(mech, base)
    require(icr.verdict, "allocation", "the constructed mechanism is IC")
    for i, agent in enumerate(base.space.agents):
        expected = -alpha * emin if i < n - 1 else 1 + (n - 1) * alpha * emin
        for label in base.space.types[i]:
            require(icr.interim[(agent, label)] == expected, "allocation",
                    "interim win probabilities equal their closed form")
    payoff = _direct_payoff(base, mech)
    claimed = alpha * sum(v * v for v in flat) + base.vbar
    require(payoff == claimed, "allocation", "payoff = alpha * |eps|^2 + vbar")
    require(payoff > base.vbar, "allocation",
            "the constructed mechanism beats vbar")
    # Under disposal all expected values are 0 here, so beating the dummy
    # agent is the same as beating max(0, vbar).
    return NAllocReport(vbar=base.vbar, profitable=True, payoff=payoff,
                        mechanism=mech, alpha=alpha, residual=eps,
                        ic_report=icr,
                        witness=witnesses[0] if witnesses else None)


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
            if any(len(set(own)) > 1 for own in slices(inst.values[i], i))]


def analyze_allocation(inst: AllocationInstance) -> dict:
    """The ``alloc-n`` report, keys in print order: the verdict, its rule as
    ``basis`` and any mechanism found, on ``inst``'s own agents.

    Unbiased instances (vbar = 0 as well, for disposal) get the exact
    iff treatment; otherwise the condition is only necessary, and when it
    is violated the verdict comes from the direct LP over the IC
    constraints, labelled as outside the iff's regime.
    """
    from .oracle import solve_principal_alloc  # deferred: oracle imports this module

    base = inst.no_disposal
    # The construction runs the difference-additivity projection itself and
    # certifies exactly when the split holds; elsewhere it runs here, once.
    if base.unbiased:
        report = construct_profitable_n(inst)
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

def load_allocation(source) -> AllocationInstance:
    """Parse an allocation instance.

    Schema: {"agents": [...], "types": {agent: [labels]},
    "marginals": {agent: [...]} or "pi": full product tensor, not both,
    "v": {agent: tensor}, "disposal": true|false, "name", "seed"}; any
    other key, and any name in a map that is not an agent's, is refused.
    """
    data = load_json_dict(source)
    check_keys(data, ("agents", "types", "marginals", "pi", "v", "disposal",
                      "name", "seed"), "an allocation instance")
    space = parse_type_space(data)
    if "disposal" not in data or not isinstance(data["disposal"], bool):
        raise SchemaError("allocation instance requires boolean 'disposal'")
    if "marginals" in data and "pi" in data:
        raise SchemaError("allocation instance takes 'marginals' or 'pi', not both")
    if "marginals" in data:
        margs = [parse_rational_array(node, (k,), f"marginals[{a}]")
                 for a, k, node in zip(space.agents, space.shape,
                                       per_agent(data, "marginals", space.agents))]
    elif "pi" in data:
        pi = JointDist.from_fractions(
            space, parse_rational_array(data["pi"], space.shape, "pi"))
        margs = pi.marginals()
        if product_dist(space, margs) != pi:
            raise SchemaError("pi is not a product of its marginals; "
                              "this analysis assumes independent types")
    else:
        raise SchemaError("allocation instance requires 'marginals' or 'pi'")
    vals = [parse_rational_array(node, space.shape, f"v[{a}]")
            for a, node in zip(space.agents, per_agent(data, "v", space.agents))]
    return AllocationInstance(space, tuple(margs), tuple(vals),
                              bool(data["disposal"]),
                              name=data.get("name"), seed=data.get("seed"))


def load_allocation_mechanism(source, inst: AllocationInstance) -> AllocationMechanism:
    """Parse {"x": {agent: tensor}} against an instance."""
    data = load_mechanism_json(source)
    parts = [parse_rational_array(node, inst.space.shape, f"x[{a}]")
             for a, node in zip(inst.space.agents,
                                per_agent(data, "x", inst.space.agents))]
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
