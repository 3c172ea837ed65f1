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

import numpy as np

from .belief import beliefs, distinct_nonzero, ic_rows, interim
from .core import (JointDist, Mechanism, PreconditionError, expectation,
                   two_agent)
from .numerics import require, span_coefficients

ZERO = Fraction(0)


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

    For two-option mechanisms ``interim`` maps (agent, true type, report)
    to the interim expectation E[x(report, .) | true type].  For
    allocations (``nalloc.check_ic_n``) it maps (agent, report) to the
    agent's interim win probability, which independent types make the same
    for every true type; the other optional fields stay None.
    """

    verdict: bool
    violations: list[Violation] = field(default_factory=list)
    interim: dict | None = None
    common_value: Fraction | None = None
    ex_ante_indifferent: bool | None = None
    uninformative: bool | None = None


def check_ic(x: Mechanism, dist: JointDist) -> ICReport:
    """Full IC check via raw inequalities, interim equalities and the
    indifference/uninformativeness split; the three must agree."""
    two_agent(dist.space)
    if x.space != dist.space:
        raise PreconditionError("mechanism and distribution type spaces differ")
    space = dist.space
    tables = [interim(dist, i, x.x) for i in range(2)]
    ev = expectation(dist, x.x)

    # Agent L holds the first option with probability x, agent R the second
    # with 1 - x; type a gains held[a, b] - held[a, a] by reporting b.
    violations = [Violation(space.agents[i], space.types[i][a], space.types[i][b], gain)
                  for i, held in enumerate((tables[0], 1 - tables[1]))
                  for (a, b), gain in np.ndenumerate(held - held.diagonal()[:, None])
                  if gain > 0]
    raw_ok = not violations

    equalities_ok = all((table == ev).all() for table in tables)

    # Ex-ante indifference: the prior expectations x . pi_R and pi_L . x of
    # the reports are all equal; uninformativeness: every type's interim
    # expectations are the prior ones.
    ml, mr = dist.marginals()
    ex_ante = [x.x.dot(mr), ml.dot(x.x)]
    ex_ante_ok = all((vals == vals[0]).all() for vals in ex_ante)
    uninformative_ok = all((table == vals).all()
                           for table, vals in zip(tables, ex_ante))

    split_ok = ex_ante_ok and uninformative_ok
    require(raw_ok == equalities_ok == split_ok, "IC",
            "the three IC routes agree")
    table = {(agent, types[a], types[b]): value
             for agent, types, tab in zip(space.agents, space.types, tables)
             for (a, b), value in np.ndenumerate(tab)}
    return ICReport(verdict=raw_ok, violations=violations, interim=table,
                    common_value=ev if raw_ok else None,
                    ex_ante_indifferent=ex_ante_ok,
                    uninformative=uninformative_ok)


def ic_polytope(dist: JointDist) -> list[list[Fraction]]:
    """Homogeneous equality rows characterizing the IC mechanisms of n
    agents, over the first n - 1 agents' shares, block by block and flat
    over profiles; the last agent holds 1 - their sum (agent R's 1 - x in
    the two-option problem).  Agent i < n - 1 has its ``ic_rows`` on block
    i, the last agent its ``ic_rows`` on every block: negated, which a
    homogeneous row does not notice.  Duplicate and zero rows are dropped."""
    size = dist.space.n_profiles
    blocks = dist.space.n_agents - 1
    rows = [[ZERO] * (i * size) + gap + [ZERO] * ((blocks - 1 - i) * size)
            for i in range(blocks) for gap in ic_rows(dist, i)]
    rows += [gap * blocks for gap in ic_rows(dist, blocks)]
    # The agents' rows can coincide, for example under a diagonal pi.
    return distinct_nonzero(rows)


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
        gens = beliefs(pi, i)
        for t, target in zip(space.types[i], beliefs(pi_tilde, i)):
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
    minimal elements are exactly the independent distributions.  The exact
    ``rank`` and ``independent`` verdicts they rest on come back too.
    """
    two_agent(pi.space)
    r = pi.matrix_rank()
    independent = pi.is_independent()
    return {"maximal": r == min(pi.space.shape), "minimal": independent,
            "rank": r, "independent": independent}
