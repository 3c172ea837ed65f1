"""Incentive-compatibility checks and the spanning preorder on distributions.

A two-option mechanism is incentive compatible (IC) under a distribution
exactly when three equivalent conditions hold:

  * the raw truth-telling inequalities, one per (type, report) pair;
  * every interim expectation E[x(report, .) | type] equals the ex-ante
    value E[x], for every type and every report;
  * agents are ex-ante indifferent between reports AND their type
    realizations are uninformative about their interim expectation.

``check_ic`` evaluates all three routes independently and insists they
agree.  The module also decides the spanning preorder (can every interim
belief under one distribution be written as a linear combination of
interim beliefs under another?) and classifies its extreme elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .belief import distinct_nonzero, dot, interim_rows, lift
from .core import (JointDist, Mechanism, PreconditionError, expectation,
                   two_agent)
from .numerics import span_coefficients


@dataclass
class Violation:
    """A profitable deviation: ``agent`` of type ``true_type`` gains ``gain``
    by reporting ``deviation`` instead."""

    agent: str
    true_type: object
    deviation: object
    gain: Fraction


@dataclass
class ICReport:
    """Verdict plus witnesses for an incentive-compatibility check.

    ``interim`` maps (agent, true type, report) to the interim expectation
    E[x(report, .) | true type].  ``gain_weighting`` records whether the
    violation gains are measured against conditional beliefs ("conditional")
    or against the joint distribution ("joint", as in the obedience view of
    the auxiliary game); the two scales differ by the positive factor
    pi_i(type), so the verdicts always coincide.
    """

    verdict: bool
    violations: list[Violation] = field(default_factory=list)
    interim: dict | None = None
    common_value: Fraction | None = None
    ex_ante_indifferent: bool | None = None
    uninformative: bool | None = None
    gain_weighting: str = "conditional"


def interim_table(x: Mechanism, dist: JointDist) -> dict:
    """All interim expectations E[x(report, .) | true type], both agents."""
    two_agent(dist.space)
    space = dist.space
    values = list(x.x.reshape(-1))
    return {(space.agents[i], space.types[i][a], space.types[i][b]):
            dot(row, values)
            for i in range(2) for a, b, row in interim_rows(dist, i)}


def check_ic(x: Mechanism, dist: JointDist) -> ICReport:
    """Full IC check via raw inequalities, interim equalities and the
    indifference/uninformativeness split; the three must agree."""
    two_agent(dist.space)
    if x.space != dist.space:
        raise PreconditionError("mechanism and distribution type spaces differ")
    space = dist.space
    table = interim_table(x, dist)
    ev = expectation(dist, x.x)

    violations: list[Violation] = []
    for i, agent in enumerate(space.agents):
        for true_t in space.types[i]:
            truthful = table[(agent, true_t, true_t)]
            for rep_t in space.types[i]:
                if rep_t == true_t:
                    continue
                deviated = table[(agent, true_t, rep_t)]
                # Agent 0 wants the first option (high x); agent 1 the second.
                gain = deviated - truthful if i == 0 else truthful - deviated
                if gain > 0:
                    violations.append(Violation(agent, true_t, rep_t, gain))
    raw_ok = not violations

    equalities_ok = all(val == ev for val in table.values())

    # Ex-ante indifference: E[x(report, .)] under the prior belief is
    # identical across reports.
    values = list(x.x.reshape(-1))
    ex_ante = [[dot(lift(space.shape, i, b, dist.marginal(1 - i)), values)
                for b in range(space.shape[i])] for i in range(2)]
    ex_ante_ok = all(v == vals[0] for vals in ex_ante for v in vals)
    uninformative_ok = all(table[(agent, true_t, rep_t)] == ex_ante[i][b]
                           for i, agent in enumerate(space.agents)
                           for true_t in space.types[i]
                           for b, rep_t in enumerate(space.types[i]))

    split_ok = ex_ante_ok and uninformative_ok
    assert raw_ok == equalities_ok == split_ok, "IC routes disagree (bug)"
    return ICReport(verdict=raw_ok, violations=violations, interim=table,
                    common_value=ev if raw_ok else None,
                    ex_ante_indifferent=ex_ante_ok,
                    uninformative=uninformative_ok)


def ic_polytope(dist: JointDist) -> list[list[Fraction]]:
    """Homogeneous equality rows characterizing the IC mechanisms.

    Each row r (over flat profile indices) encodes
    sum_{other} pi(other | type) * x(report, other) - E_pi[x] = 0.
    Duplicate and identically-zero rows are dropped; together with
    0 <= x <= 1 these rows cut out exactly the IC polytope.
    """
    two_agent(dist.space)
    pi_flat = list(dist.p.reshape(-1))
    return distinct_nonzero([c - p for c, p in zip(row, pi_flat)]
                            for i in range(2)
                            for _, _, row in interim_rows(dist, i))


@dataclass
class SpanningVerdict:
    """Outcome of a spanning test between two distributions.

    When ``spans`` holds, ``coefficients[(agent, t)]`` gives, for the
    belief that type t holds under the spanned distribution, the weight
    placed on each conditioning type's belief under the spanning one; the
    stored weights reproduce the target belief exactly.  Otherwise
    ``witnesses`` lists every (agent, type) whose belief is unreachable.
    """

    spans: bool
    coefficients: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


def spans(pi: JointDist, pi_tilde: JointDist) -> SpanningVerdict:
    """Does ``pi`` span ``pi_tilde``?  Exact rank/solvability test.

    True iff for each agent every interim belief under ``pi_tilde`` is a
    linear combination of that agent's interim beliefs under ``pi``.
    """
    two_agent(pi.space)
    if pi.space != pi_tilde.space:
        raise PreconditionError("spanning requires a common type space")
    space = pi.space
    coefficients: dict = {}
    witnesses: list = []
    for i, agent in enumerate(space.agents):
        gens = [list(row) for row in pi.conditional(i)]
        cond_tilde = pi_tilde.conditional(i)
        for a, t in enumerate(space.types[i]):
            target = list(cond_tilde[a])
            coeffs = span_coefficients(target, gens)
            if coeffs is None:
                witnesses.append((agent, t))
            else:
                coefficients[(agent, t)] = {
                    tt: c for tt, c in zip(space.types[i], coeffs)}
    ok = not witnesses
    return SpanningVerdict(spans=ok,
                           coefficients=coefficients if ok else {},
                           witnesses=witnesses)


def classify_extremes(pi: JointDist) -> dict:
    """Place a distribution within the spanning preorder.

    Maximal elements are exactly the full-rank distributions (rank equal to
    the smaller type count: their beliefs span everything spanning them);
    minimal elements are exactly the independent distributions.
    """
    two_agent(pi.space)
    r = pi.matrix_rank()
    return {"maximal": r == min(pi.space.shape),
            "minimal": pi.is_independent()}
