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
  pi's integer slices ``belief.slices``.
* ``decompose`` writes any IC mechanism under independence as a nonnegative
  combination of transportation-polytope extreme points, and
  ``match_your_opponent`` specializes that picture to square instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .belief import (dot, kronecker_residual, marginal_rows, slices,
                     transport_rows, type_basis)
from .core import (Instance, JointDist, Mechanism, NoneCertificate,
                   PreconditionError, arrays_equal, constant_array,
                   expectation, product_dist, two_agent)
from .ic import ICReport, check_ic
from .numerics import LinearProgram, require, solve_lp
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
    t, so the distinct nonzero integer rows are counted."""
    two_agent(instance.space)
    dist = instance.dist
    shape = instance.space.shape
    ml, mr = dist.marginals()
    v_hat = instance.v * dist.p / np.multiply.outer(ml, mr)
    ortho = 0
    for i, k in enumerate(shape):
        nums = slices(dist.nums, i)
        scaled = dist.den * nums - np.multiply.outer(nums.sum(axis=1), nums.sum(axis=0))
        ortho += k * len({tuple(row) for row in scaled if any(row)})

    row_basis = type_basis(dist, 0)
    if len(row_basis) == min(shape):
        q = np.multiply.outer(ml, mr)
        value = expectation(dist, instance.v)  # sum v_hat * q = E_pi[v]
    else:
        rows, rhs = transport_rows(dist, (row_basis, type_basis(dist, 1)))
        sol = solve_lp(LinearProgram(objective=list(v_hat.reshape(-1)),
                                     a_eq=rows, b_eq=rhs, upper=[ONE] * v_hat.size))
        q = np.array(sol.x, dtype=object).reshape(shape)
        value = sol.value
    return TransportResult(value=value,
                           optimizer=JointDist.from_fractions(instance.space, q),
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
    rows, rhs = transport_rows(pi, (type_basis(pi, 0), type_basis(pi, 1)))
    flat = list(pi_tilde.p.reshape(-1))
    return all(dot(row, flat) == b for row, b in zip(rows, rhs))


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


def _extract_cycle(cells: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """One cycle inside a pruned support, as a closed alternating cell list.

    Cells are edges of the bipartite graph whose nodes are (axis, index):
    rows are axis 0, columns axis 1.  Every node of a pruned support has at
    least two cells, so a walk that starts at the first cell's row and
    leaves each node by its first cell (lexicographic order) other than the
    one it arrived by must revisit a node; the cells since that node's
    first visit form the cycle, consecutive cells sharing a node.
    """
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for cell in sorted(cells):
        for axis in (0, 1):
            adj.setdefault((axis, cell[axis]), []).append(cell)
    node, arrival = (0, min(cells)[0]), None
    visited: dict[tuple[int, int], int] = {}
    path: list[tuple[int, int]] = []
    while node not in visited:
        visited[node] = len(path)
        arrival = next(cell for cell in adj[node] if cell != arrival)
        path.append(arrival)
        node = (1 - node[0], arrival[1 - node[0]])
    cycle = path[visited[node]:]
    require(len(cycle) % 2 == 0, "profit", "the support cycle is even")
    return cycle


def _cancel_one_cycle(mat: np.ndarray) -> bool:
    """If the support has a cycle, push mass around one to empty the
    smallest-valued cell on it (lexicographic tie-break).  Marginals are
    untouched.  Returns True if a cancellation happened."""
    m, n = mat.shape
    support = {(i, j) for i in range(m) for j in range(n) if mat[i, j] != 0}
    cyclic = _pruned_support(support)
    if not cyclic:
        return False
    cycle = _extract_cycle(cyclic)
    target = min(cycle, key=lambda c: (mat[c], c))
    delta = mat[target]
    sign = 1 if cycle.index(target) % 2 == 0 else -1
    for k, cell in enumerate(cycle):
        step = delta if (k % 2 == 0) else -delta
        mat[cell] = mat[cell] - sign * step
    require(mat[target] == 0, "profit", "cycle cancelling empties its target cell")
    return True


def _extreme_point_within_support(r: np.ndarray, scale: Fraction,
                                  ml, mr) -> np.ndarray:
    """An extreme point of the fixed-marginals polytope whose support is
    contained in support(r): rescale and cancel cycles until acyclic."""
    p = r / scale
    while _cancel_one_cycle(p):
        pass
    m, n = p.shape
    require(all(sum(p[i, j] for j in range(n)) == ml[i] for i in range(m)) and
            all(sum(p[i, j] for i in range(m)) == mr[j] for j in range(n)),
            "profit", "the peeled point keeps the marginals")
    require(all(v >= 0 for row in p for v in row), "profit",
            "the peeled point is nonnegative")
    return p


def _peel_transport_polytope(d: np.ndarray, ml, mr) -> list[tuple[Fraction, np.ndarray]]:
    """Convex decomposition of d (marginals ml, mr) into extreme points.

    Greedy peeling: build an extreme point inside the current support,
    remove as much of it as possible, repeat.  Each pass empties at least
    one support cell, so at most m*n terms appear.
    """
    m, n = d.shape
    r = d.copy()
    s = ONE
    terms: list[tuple[Fraction, np.ndarray]] = []
    while any(r[i, j] != 0 for i in range(m) for j in range(n)):
        p = _extreme_point_within_support(r, s, ml, mr)
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
    polytope; a basic optimal solution is a permutation."""
    n = v.shape[0]
    objective = [ml[i] * mr[j] * v[i, j] for i in range(n) for j in range(n)]
    sol = solve_lp(LinearProgram(objective=objective, a_eq=marginal_rows((n, n)),
                                 b_eq=[ONE] * (2 * n), upper=[ONE] * (n * n)))
    perm = []
    for i in range(n):
        js = [j for j in range(n) if sol.x[i * n + j] == 1]
        require(len(js) == 1, "profit", "the assignment LP optimum is a permutation")
        perm.append(js[0])
    return tuple(perm), sol.value
