"""When can the principal beat her best constant decision?

Four complementary tools for the two-option problem:

* ``additivity_test`` splits the weighted objective w = v*pi along the
  subspace U = col(pi) (x) R^n + R^m (x) row(pi) spanned by the
  conditional-belief sections: its residual is the Kronecker product
  (I - Q_col) w (I - Q_row) of the projectors off pi's column and row
  spaces.  w in U means every IC mechanism earns exactly the best constant
  payoff.
* ``construct_profitable`` turns a nonzero projection residual into an
  explicit IC mechanism with strictly positive payoff (valid when the
  principal is ex-ante indifferent; otherwise it defers to the direct LP).
* ``transport_criterion`` reformulates existence as a constrained optimal
  transport problem over distributions with the instance's marginals,
  orthogonal to the instance's correlation structure.  Its rows are read
  off pi (``belief.transport_rows``), independent, r(m + n) - r^2 of them
  for r = rank(pi); at full rank they leave the one point pi_L (x) pi_R
  and no LP runs.  The count of belief-update rows it reports is read off
  pi's integer slices ``core.slices``.
* ``decompose`` writes any IC mechanism under independence as a nonnegative
  combination of transportation-polytope extreme points, each the vertex
  the exact engine finds inside the support left to peel, and
  ``match_your_opponent`` specializes that picture to square instances:
  its assignment LP is the same transportation LP with unit marginals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .belief import kronecker_residual, transport_rows
from .core import (Instance, JointDist, Mechanism, NoneCertificate,
                   PreconditionError, arrays_equal, constant_array,
                   expectation, product_dist, slices, two_agent)
from .ic import ICReport, check_ic
from .numerics import LinearProgram, integer_row, require, solve_lp
from .oracle import solve_principal

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Additivity relative to the type distribution
# ---------------------------------------------------------------------------

@dataclass
class AdditivityReport:
    """Split of w = v*pi along U = col(pi) (x) R^n + R^m (x) row(pi).

    ``w_hat`` is the residual (I - Q_col) w (I - Q_row), where Q_col and
    Q_row project orthogonally onto pi's column and row spaces; ``u_hat``
    is the projection w - w_hat onto U.  ``is_pi_additive`` iff the
    residual vanishes.  Under independence an additive split of v itself
    is returned whenever it exists.
    """

    w: np.ndarray
    u_hat: np.ndarray
    w_hat: np.ndarray
    is_pi_additive: bool
    additive_parts: tuple[np.ndarray, np.ndarray] | None = None


def additivity_test(instance: Instance) -> AdditivityReport:
    """Is the objective additive relative to the instance's distribution?"""
    two_agent(instance.space)
    w = instance.v * instance.dist.p
    w_hat = kronecker_residual(instance.dist, w)
    additive = not any(w_hat.reshape(-1))
    parts = None
    if additive and instance.dist.is_independent():
        parts = _additive_split(instance.v)
        require(parts is not None, "profit",
                "a pi-additive objective under independence splits additively")
    return AdditivityReport(w=w, u_hat=w - w_hat, w_hat=w_hat,
                            is_pi_additive=additive, additive_parts=parts)


def _additive_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split v(s,t) = v_l(s) + v_r(t) if possible (anchored at cell (0,0))."""
    v_l = v[:, 0].copy()
    v_r = v[0, :] - v[0, 0]
    if (v != np.add.outer(v_l, v_r)).any():
        return None
    return v_l, v_r


# ---------------------------------------------------------------------------
# Explicit construction from the projection residual
# ---------------------------------------------------------------------------

@dataclass
class ConstructionResult:
    """A verified profitable mechanism.

    ``payoff`` equals E[v * x] exactly; for the residual construction it is
    epsilon * sum of squared residuals and ``epsilon`` is the largest step
    keeping the mechanism inside [0, 1].
    """

    mechanism: Mechanism
    payoff: Fraction
    ic_report: ICReport
    epsilon: Fraction | None = None
    method: str = "residual-construction"


def construct_profitable(instance: Instance):
    """Build a profitable mechanism, or certify that none exists.

    In the ex-ante indifferent regime (E[v] = 0) the mechanism
    x = epsilon * (residual - min residual) is IC with payoff
    epsilon * sum(residual^2) > 0 whenever the objective is not
    pi-additive.  Outside that regime the question is decided by the
    direct LP over the IC polytope and the result is labelled as such.
    """
    two_agent(instance.space)
    if instance.objective.expected_value != 0:
        return _oracle_fallback(instance)
    report = additivity_test(instance)
    if report.is_pi_additive:
        return NoneCertificate(
            reason="objective is additive relative to the distribution: "
                   "every IC mechanism earns the best constant payoff",
            method="zero-projection-residual",
            details={"additivity": report})
    w_hat = report.w_hat
    flat = [w_hat[idx] for idx in np.ndindex(*w_hat.shape)]
    lo, hi = min(flat), max(flat)
    # The nonzero residual is orthogonal to U's nonnegative generators,
    # so it takes both signs.
    require(lo < 0 < hi, "profit", "the residual takes both signs")
    epsilon = ONE / (hi - lo)
    x = Mechanism(instance.space, (w_hat - lo) * epsilon)
    icr = check_ic(x, instance.dist)
    require(icr.verdict, "profit", "the constructed mechanism is IC")
    require(icr.common_value == -epsilon * lo, "profit",
            "the common interim value is -epsilon * min residual")
    payoff = epsilon * sum(v * v for v in flat)
    require(payoff == expectation(instance.dist, instance.v * x.x), "profit",
            "payoff = epsilon * |residual|^2")
    require(payoff > 0, "profit", "the payoff is positive")
    return ConstructionResult(mechanism=x, payoff=payoff, ic_report=icr,
                              epsilon=epsilon)


def _oracle_fallback(instance: Instance):
    res = solve_principal(instance)
    if res.profitable:
        return ConstructionResult(mechanism=res.mechanism, payoff=res.value,
                                  ic_report=res.ic_report,
                                  epsilon=None, method="ic-polytope-lp")
    return NoneCertificate(
        reason="principal is not ex-ante indifferent; the LP over the IC "
               "polytope attains no payoff above the best constant decision",
        method="ic-polytope-lp",
        details={"lp_value": res.value})


# ---------------------------------------------------------------------------
# Constrained optimal transport criterion
# ---------------------------------------------------------------------------

@dataclass
class TransportResult:
    """Optimum of max E_q[v_hat] over q with the instance's marginals,
    subject to q being correlation-orthogonal to the instance's
    distribution.  Positive value iff a profitable mechanism exists."""

    value: Fraction
    optimizer: JointDist
    v_hat: np.ndarray
    orthogonality_rows: int
    independent: bool

    @property
    def profitable(self) -> bool:
        return self.value > 0


def transport_criterion(instance: Instance) -> TransportResult:
    """Existence of a profitable mechanism as an optimal transport value.

    The LP runs over ``belief.transport_rows``; at full rank,
    r = min(m, n), those rows leave the one point pi_L (x) pi_R and no LP
    runs.  ``orthogonality_rows`` counts each distinct nonzero belief
    update lifted on each own-type slice of its agent: lifts on different
    slices are disjoint, and a nonzero update, of mean 0 under the other
    agent's marginal, has two nonzeros at least, so no lift of one agent's
    is the other's.  The update pi(t | s) - pi_i(t) about agent i's type
    t is (D P(t, s) - P_i(t) P_o(s)) / (D P_o(s)), with P = ``dist.nums``
    over D and slice sums P_i, P_o: the denominator is the same for every
    t, so the distinct nonzero integer rows are counted.

    v_hat = v pi / (pi_L (x) pi_R) is V P D / (d P_L P_R) with V the
    values' integers over d, so the LP's objective is integers over
    d lcm(P_L) lcm(P_R); the optimizer is the LP's point, nums over den."""
    two_agent(instance.space)
    dist = instance.dist
    space = instance.space
    den, sums = dist.den, dist.marginal_nums
    scale, vals = integer_row(instance.v.reshape(-1))
    lcms = [math.lcm(*s) for s in sums]
    scale *= lcms[0] * lcms[1]
    weights = [v * p * den * (lcms[0] // a) * (lcms[1] // b)
               for v, p, (a, b) in zip(vals, dist.nums.flat, itertools.product(*sums))]
    v_hat = np.array([Fraction(w, scale) if w else ZERO for w in weights],
                     dtype=object).reshape(space.shape)
    ortho = 0
    for i, k in enumerate(space.shape):
        scaled = den * slices(dist.nums, i) - np.multiply.outer(sums[i], sums[1 - i])
        ortho += k * len({tuple(row) for row in scaled if any(row)})

    if dist.matrix_rank() == min(space.shape):
        # q = pi_L (x) pi_R, and sum v_hat q = E_pi[v].
        optimizer = JointDist(space, den * den, np.multiply.outer(*sums))
        value = expectation(dist, instance.v)
    else:
        sol = solve_lp(LinearProgram(objective=weights, scale=scale,
                                     a_eq=transport_rows(dist), upper=[1] * len(weights)))
        optimizer = JointDist(space, sol.den,
                              np.array(sol.nums, dtype=object).reshape(space.shape))
        value = sol.value
    return TransportResult(value=value, optimizer=optimizer,
                           v_hat=v_hat, orthogonality_rows=ortho,
                           independent=dist.is_independent())


def orthogonal(pi: JointDist, pi_tilde: JointDist) -> bool:
    """Exact zero-covariance test between two equal-marginal distributions.

    Cov(pi(t | other), pi_tilde(t' | other)), taken over the other agent's
    type, is sum_other (pi(t | other) - pi_i(t)) * pi_tilde(t', other) when
    the marginals agree: a belief update of pi applied to pi_tilde's slice
    t'.  With the marginals equal, every such sum vanishes iff pi_tilde
    meets every row of ``belief.transport_rows(pi)``.
    """
    two_agent(pi.space)
    if pi.space != pi_tilde.space:
        raise PreconditionError("orthogonality requires a common type space")
    if not all(arrays_equal(pi.marginal(i), pi_tilde.marginal(i))
               for i in range(2)):
        raise PreconditionError("orthogonality requires equal marginals")
    # q = Q / D meets the row (s, nz, b) iff sum a Q = b D.
    flat, den = pi_tilde.nums.reshape(-1), pi_tilde.den
    return all(sum(a * flat[j] for j, a in nz) == b * den
               for _, nz, b in transport_rows(pi))


# ---------------------------------------------------------------------------
# Extreme-point decomposition of IC mechanisms under independence
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """x = sum_j gamma_j * P_j / (pi_l x pi_r) with gamma_j >= 0 and each
    P_j an extreme point (acyclic support) of the fixed-marginals polytope."""

    q: Fraction
    gammas: list[Fraction]
    extreme_points: list[np.ndarray]
    f: np.ndarray


def decompose(x: Mechanism, marginal_l, marginal_r) -> Decomposition:
    """Decompose an IC mechanism (under independent types) into extreme
    points of the transportation polytope; rejects non-IC input."""
    ml = np.asarray(marginal_l, dtype=object)
    mr = np.asarray(marginal_r, dtype=object)
    space = x.space
    two_agent(space)
    dist = product_dist(space, [ml, mr])
    icr = check_ic(x, dist)
    if not icr.verdict:
        v = icr.violations[0]
        raise PreconditionError(
            f"mechanism is not IC under the independent distribution: agent "
            f"{v.agent!r} of type {v.true_type!r} gains {v.gain} by reporting "
            f"{v.deviation!r}")
    outer = np.multiply.outer(ml, mr)
    f = outer * x.x
    q = sum(f[idx] for idx in np.ndindex(*f.shape))
    if q == 0:
        return Decomposition(q=ZERO, gammas=[], extreme_points=[], f=f)
    d = f / q
    terms = _peel_transport_polytope(d, ml, mr)
    gammas = [q * lam for lam, _ in terms]
    points = [p for _, p in terms]
    recon = sum((p * g for g, p in zip(gammas, points)),
                constant_array(space.shape, 0))
    require(arrays_equal(recon, f), "profit",
            "the extreme points reconstruct pi_l * pi_r * x")
    return Decomposition(q=q, gammas=gammas, extreme_points=points, f=f)


def support_is_acyclic(mat: np.ndarray) -> bool:
    """Does the support, as edges between rows and columns, hold no cycle?
    A point of a transportation polytope is an extreme point iff it does;
    the peeling checks each engine vertex with it."""
    m, n = mat.shape
    support = {(i, j) for i in range(m) for j in range(n) if mat[i, j] != 0}
    return _pruned_support(support) == set()


def _pruned_support(support: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Repeatedly strip cells that are alone in their row or column; what
    survives is exactly the union of the support's cycles."""
    cells = set(support)
    changed = True
    while changed:
        changed = False
        for axis in (0, 1):
            counts: dict[int, list] = {}
            for cell in cells:
                counts.setdefault(cell[axis], []).append(cell)
            for group in counts.values():
                if len(group) == 1:
                    cells.discard(group[0])
                    changed = True
    return cells


def _extreme_point_within_support(r: np.ndarray, ml, mr) -> np.ndarray:
    """An extreme point of the fixed-marginals polytope whose support is
    contained in support(r): the vertex the engine finds with a zero
    objective over r's nonzero cells."""
    cells = [cell for cell in np.ndindex(*r.shape) if r[cell] != 0]
    p, _ = _transport_vertex(cells, ml, mr, [ZERO] * len(cells))
    require(arrays_equal(p.sum(axis=1), ml) and arrays_equal(p.sum(axis=0), mr),
            "profit", "the peeled point keeps the marginals")
    require((p >= 0).all(), "profit", "the peeled point is nonnegative")
    return p


def _transport_vertex(cells, ml, mr, objective) -> tuple[np.ndarray, Fraction]:
    """Maximize objective . p over the transportation polytope with row
    sums ml and column sums mr, p = 0 off ``cells``: the optimal basic
    solution ``solve_lp`` returns, as an m x n array, and its value.  A
    basic solution is an extreme point, so its support is acyclic."""
    # Row (axis, t): the cells where that axis is t sum to p / q = marg.
    rows = [(marg.denominator, [(c, marg.denominator) for c, cell in enumerate(cells)
                                if cell[axis] == t], marg.numerator)
            for axis, margs in enumerate((ml, mr)) for t, marg in enumerate(margs)]
    scale, cost = integer_row(objective)
    sol = solve_lp(LinearProgram(objective=cost, scale=scale, a_eq=rows,
                                 upper=[1] * len(cells)))
    p = constant_array((len(ml), len(mr)), 0)
    for cell, value in zip(cells, sol.x):
        p[cell] = value
    return p, sol.value


def _peel_transport_polytope(d: np.ndarray, ml, mr) -> list[tuple[Fraction, np.ndarray]]:
    """Convex decomposition of d (marginals ml, mr) into extreme points.

    Greedy peeling: take the engine's vertex of the polytope restricted
    to the current support, remove as much of it as possible, repeat.  The
    vertex's acyclic support is checked independently of the engine.  Each
    pass empties at least one support cell, so at most m*n terms appear.
    """
    m, n = d.shape
    r = d.copy()
    s = ONE
    terms: list[tuple[Fraction, np.ndarray]] = []
    while any(r[i, j] != 0 for i in range(m) for j in range(n)):
        p = _extreme_point_within_support(r, ml, mr)
        # p is a vertex, and each step removes a positive share of the
        # remaining mass, s, at most.
        require(support_is_acyclic(p), "profit",
                "the peeled point's support is acyclic")
        cells = sum(1 for i in range(m) for j in range(n) if p[i, j] != 0)
        require(cells <= m + n - 1, "profit",
                "the peeled point has at most m + n - 1 cells")
        lam = min(r[i, j] / p[i, j]
                  for i in range(m) for j in range(n) if p[i, j] != 0)
        require(0 < lam <= s, "profit", "each peel removes a share in (0, s]")
        terms.append((lam, p))
        r = r - p * lam
        s = s - lam
    require(s == 0, "profit", "the peeling uses up the whole mass")
    return terms


# ---------------------------------------------------------------------------
# Match-your-opponent analysis on square instances
# ---------------------------------------------------------------------------

@dataclass
class MatchingReport:
    """Best matching mechanism and the resulting profitability verdict.

    ``best_value`` is sum_t pi_l(t) pi_r(m(t)) v(t, m(t)) for the best
    bijection m, read off the assignment LP; on ties, ``best_matching`` may
    be any optimal bijection.  ``criterion`` names the rule behind
    ``profitable``: with uniform marginals the sign of ``best_value`` is
    exact; with merely symmetric marginals and a supermodular objective the
    diagonal rule sum_t pi_l(t) v(t,t) > 0 decides; otherwise the direct LP
    over the IC polytope does.
    """

    best_matching: list[tuple]
    best_value: Fraction
    profitable: bool
    criterion: str
    supermodular: bool
    symmetric: bool
    diagonal_value: Fraction | None = None
    diagonal_sum: Fraction | None = None


def is_supermodular(v: np.ndarray) -> bool:
    """Increasing differences across every 2x2 minor, in the given order."""
    m, n = v.shape
    for i, i2 in itertools.combinations(range(m), 2):
        for j, j2 in itertools.combinations(range(n), 2):
            if v[i2, j2] + v[i, j] < v[i, j2] + v[i2, j]:
                return False
    return True


def match_your_opponent(instance: Instance) -> MatchingReport:
    """Search bijective 'match the other report' mechanisms on a square,
    independent instance; rejects correlated or non-square input."""
    two_agent(instance.space)
    m, n = instance.space.shape
    if m != n:
        raise PreconditionError("matching analysis requires equal type counts")
    if not instance.dist.is_independent():
        raise PreconditionError("matching analysis requires independent types")
    ml, mr = instance.dist.marginals()
    v = instance.v

    best_perm, best_value = _best_matching_lp(v, ml, mr)

    symmetric = arrays_equal(ml, mr) and \
        instance.space.types[0] == instance.space.types[1]
    supermod = is_supermodular(v)
    uniform = all(p == Fraction(1, n) for p in ml) and \
        all(p == Fraction(1, n) for p in mr)
    diagonal_sum = sum(v[t, t] for t in range(n))
    diagonal_value = None
    if symmetric:
        diagonal_value = sum(ml[t] * v[t, t] for t in range(n))

    if uniform:
        profitable = best_value > 0
        criterion = "best-matching-sign (uniform marginals)"
        if supermod:
            # Supermodularity makes the diagonal the best matching, so the
            # two verdicts provably coincide; check anyway.
            require((diagonal_sum > 0) == profitable, "profit",
                    "the diagonal rule agrees with the best matching")
    elif symmetric and supermod:
        profitable = diagonal_value > 0
        criterion = "diagonal-rule (symmetric marginals, supermodular)"
    else:
        profitable = solve_principal(instance).profitable
        criterion = "ic-polytope-lp (matching sign not decisive here)"

    labels = instance.space.types[0]
    other = instance.space.types[1]
    matching = [(labels[t], other[best_perm[t]]) for t in range(n)]
    return MatchingReport(best_matching=matching, best_value=best_value,
                          profitable=profitable, criterion=criterion,
                          supermodular=supermod, symmetric=symmetric,
                          diagonal_value=diagonal_value,
                          diagonal_sum=diagonal_sum)


def _best_matching_lp(v, ml, mr):
    """Assignment LP: optimum of the weighted matching over the Birkhoff
    polytope, the transportation polytope with unit marginals; a basic
    optimal solution is a permutation."""
    n = v.shape[0]
    cells = list(np.ndindex(n, n))
    p, value = _transport_vertex(cells, [ONE] * n, [ONE] * n,
                                 [ml[i] * mr[j] * v[i, j] for i, j in cells])
    perm = []
    for i in range(n):
        js = [j for j in range(n) if p[i, j] == 1]
        require(len(js) == 1, "profit", "the assignment LP optimum is a permutation")
        perm.append(js[0])
    return tuple(perm), value
