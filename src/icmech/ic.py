"""Incentive-compatibility checks and the spanning preorder on distributions.

A two-option mechanism is incentive compatible (IC) under a distribution
exactly when three equivalent conditions hold:

  * the raw truth-telling inequalities, one per (type, report) pair;
  * every interim expectation E[x(report, .) | type] equals the ex-ante
    value E[x], for every type and every report;
  * agents are ex-ante indifferent between reports AND their type
    realizations are uninformative about their interim expectation.

``check_ic`` evaluates all three routes independently and insists they
agree.  The second route, as LP rows over the shares of any number of
agents, is the one IC row family ``belief.value_rows``.  The module also
decides the spanning preorder (can every interim belief under one
distribution be written as a linear combination of interim beliefs under
another?) on the two distributions' integer slices ``core.slices``, each
target solved over the spanning distribution's basis slices
(``JointDist.basis``), and classifies its extreme elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import ZERO, JointDist, Mechanism, PreconditionError, slices, two_agent
from .numerics import integer_row, require, solve_linear_system


@dataclass
class Violation:
    """A profitable deviation: ``agent`` of type ``true_type`` gains ``gain``
    by reporting ``deviation`` instead."""

    agent: str
    true_type: object
    deviation: object
    gain: Fraction


class _BuiltOnRead:
    """A dataclass field, None by default, that may be given as a function
    of no arguments: it is called on the first read and its result kept."""

    def __set_name__(self, owner, name):
        self.name = "_" + name

    def __get__(self, obj, owner=None):
        if obj is not None and callable(obj.__dict__[self.name]):
            obj.__dict__[self.name] = obj.__dict__[self.name]()
        return None if obj is None else obj.__dict__[self.name]

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass
class ICReport:
    """Verdict plus witnesses for an incentive-compatibility check.

    For two-option mechanisms ``interim`` maps (agent, true type, report)
    to the interim expectation E[x(report, .) | true type]; ``check_ic``
    builds that table only when it is first read.  For allocations
    (``nalloc.check_ic_n``) it maps (agent, report) to the agent's interim
    win probability, which independent types make the same for every true
    type; the other optional fields stay None.
    """

    verdict: bool
    violations: list[Violation] = field(default_factory=list)
    interim: dict | None = _BuiltOnRead()
    common_value: Fraction | None = None
    ex_ante_indifferent: bool | None = None
    uninformative: bool | None = None


def check_ic(x: Mechanism, dist: JointDist) -> ICReport:
    """Full IC check via raw inequalities, interim equalities and the
    indifference/uninformativeness split; the three must agree.

    The routes compare integers: pi's numerators P over their sum S
    (``dist.nums`` over ``dist.den``) and x's numerators X over theirs,
    d.  Agent L's interim table is P X^T, agent R's P^T X, row a over d
    times the row or column sum of P at a, and E[x] is the sum of P * X
    over S d."""
    two_agent(dist.space)
    if x.space != dist.space:
        raise PreconditionError("mechanism and distribution type spaces differ")
    space = dist.space
    total, pi = dist.den, dist.nums
    den, xs = integer_row(x.x.reshape(-1))
    xs = np.array(xs, dtype=object).reshape(space.shape)
    tables = [pi.dot(xs.T), pi.T.dot(xs)]
    scales = [pi.sum(axis=1), pi.sum(axis=0)]
    ev = (pi * xs).sum()

    # Agent L holds the first option with probability x, agent R the second
    # with 1 - x; so type a of L gains table[a, b] - table[a, a] by
    # reporting b, and type a of R the negated difference.
    violations = [Violation(space.agents[i], space.types[i][a], space.types[i][b],
                            Fraction(gain, scale[a] * den))
                  for i, (table, scale, sign) in enumerate(zip(tables, scales, (1, -1)))
                  for (a, b), gain in np.ndenumerate(sign * (table - table.diagonal()[:, None]))
                  if gain > 0]
    raw_ok = not violations

    # table[a, b] / (scale[a] d) == ev / (S d), cross-multiplied.
    equalities_ok = all((table * total == scale[:, None] * ev).all()
                        for table, scale in zip(tables, scales))

    # Ex-ante indifference: the prior expectations x . pi_R and pi_L . x of
    # the reports, over S d, are all equal; uninformativeness: every type's
    # interim expectations are the prior ones.
    ex_ante = [xs.dot(scales[1]), scales[0].dot(xs)]
    ex_ante_ok = all((vals == vals[0]).all() for vals in ex_ante)
    uninformative_ok = all((table * total == np.multiply.outer(scale, vals)).all()
                           for table, scale, vals in zip(tables, scales, ex_ante))

    split_ok = ex_ante_ok and uninformative_ok
    require(raw_ok == equalities_ok == split_ok, "IC",
            "the three IC routes agree")

    def interim() -> dict:
        return {(agent, types[a], types[b]): Fraction(value, scale[a] * den)
                for agent, types, tab, scale in zip(space.agents, space.types,
                                                    tables, scales)
                for (a, b), value in np.ndenumerate(tab)}

    return ICReport(verdict=raw_ok, violations=violations, interim=interim,
                    common_value=Fraction(ev, total * den) if raw_ok else None,
                    ex_ante_indifferent=ex_ante_ok,
                    uninformative=uninformative_ok)


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

    A belief is a pi-slice over its sum, so the test solves
    sum_a c'_a P(a, .) = P~(t, .) over the integer slices of pi's and
    pi_tilde's numerators and takes c_a = c'_a P_i(a) / P~_i(t), with
    P_i and P~_i the slice sums: positive scalings of the columns and the
    target change neither the kept columns nor solvability.  The solve is
    over the basis slices ``pi.basis(i)``; every other type's c_a is 0.
    """
    two_agent(pi.space)
    if pi.space != pi_tilde.space:
        raise PreconditionError("spanning requires a common type space")
    space = pi.space
    coefficients: dict = {}
    witnesses: list = []
    for i, agent in enumerate(space.agents):
        gens, targets = slices(pi.nums, i), slices(pi_tilde.nums, i)
        basis = pi.basis(i)
        masses = gens.sum(axis=1)
        for t, target in zip(space.types[i], targets):
            solved = solve_linear_system(gens[basis].T.tolist(), list(target))
            if solved is None:
                witnesses.append((agent, t))
            else:
                coeffs, total = dict(zip(basis, solved)), sum(target)
                coefficients[(agent, t)] = {
                    tt: coeffs[a] * mass / total if a in coeffs else ZERO
                    for a, (tt, mass) in enumerate(zip(space.types[i], masses))}
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
