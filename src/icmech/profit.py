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
  orthogonal to the instance's correlation structure.
* ``decompose`` writes any IC mechanism under independence as a nonnegative
  combination of transportation-polytope extreme points, and
  ``match_your_opponent`` specializes that picture to square instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .belief import (distinct_nonzero, kronecker_residual, lift, update_rows,
                     updates)
from .core import (Instance, JointDist, Mechanism, NoneCertificate,
                   PreconditionError, arrays_equal, constant_array,
                   expectation, product_dist, two_agent)
from .ic import ICReport, check_ic
from .numerics import LinearProgram, solve_lp

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
        assert parts is not None  # pi-additive + independent => v additive
    return AdditivityReport(w=w, u_hat=w - w_hat, w_hat=w_hat,
                            is_pi_additive=additive, additive_parts=parts)


def _additive_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split v(s,t) = v_l(s) + v_r(t) if possible (anchored at cell (0,0))."""
    m, n = v.shape
    v_l = np.array([v[s, 0] for s in range(m)], dtype=object)
    v_r = np.array([v[0, t] - v[0, 0] for t in range(n)], dtype=object)
    for s in range(m):
        for t in range(n):
            if v[s, t] != v_l[s] + v_r[t]:
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
    assert lo < 0 < hi  # residual is orthogonal to positive generators
    epsilon = ONE / (hi - lo)
    x = Mechanism(instance.space, (w_hat - lo) * epsilon)
    icr = check_ic(x, instance.dist)
    assert icr.verdict
    assert icr.common_value == -epsilon * lo
    payoff = epsilon * sum(v * v for v in flat)
    assert payoff == expectation(instance.dist, instance.v * x.x)
    assert payoff > 0
    return ConstructionResult(mechanism=x, payoff=payoff, ic_report=icr,
                              epsilon=epsilon)


def _oracle_fallback(instance: Instance):
    from .oracle import solve_principal  # deferred: oracle builds on this module's siblings
    res = solve_principal(instance)
    if res.profitable:
        return ConstructionResult(mechanism=res.mechanism, payoff=res.value,
                                  ic_report=check_ic(res.mechanism, instance.dist),
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


def orthogonality_rows(pi: JointDist) -> list[list[Fraction]]:
    """Equality rows sum_other (pi(t|other) - pi_i(t)) * q(t', other) = 0
    over flattened q, for all agents and type pairs (t, t').

    Zero and duplicate rows are dropped (independent pi yields none)."""
    two_agent(pi.space)
    return distinct_nonzero(row for i in range(2) for row in update_rows(pi, i))


def transport_criterion(instance: Instance) -> TransportResult:
    """Existence of a profitable mechanism as an optimal transport value."""
    two_agent(instance.space)
    dist = instance.dist
    m, n = instance.space.shape
    ml, mr = dist.marginals()
    indep = dist.is_independent()
    v_hat = instance.v * dist.p / np.multiply.outer(ml, mr)

    objective = [v_hat[i, j] for i in range(m) for j in range(n)]
    # Marginal rows: the mass on each own-type slice of each agent.
    shape = instance.space.shape
    a_eq = [lift(shape, i, t, [ONE] * shape[1 - i])
            for i in range(2) for t in range(shape[i])]
    b_eq = list(ml) + list(mr)
    ortho = [] if indep else orthogonality_rows(dist)
    a_eq.extend(ortho)
    b_eq.extend([ZERO] * len(ortho))

    sol = solve_lp(LinearProgram(objective=objective, a_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        # The independent coupling is always feasible; anything else is a bug.
        raise RuntimeError(f"transport LP reported {sol.status}")
    q = np.array(sol.x, dtype=object).reshape(m, n)
    assert [sum(q[i, j] for j in range(n)) for i in range(m)] == list(ml)
    assert [sum(q[i, j] for i in range(m)) for j in range(n)] == list(mr)
    optimizer = JointDist(instance.space, q)
    for row in ortho:
        assert sum(c * x for c, x in zip(row, sol.x)) == 0
    return TransportResult(value=sol.value, optimizer=optimizer, v_hat=v_hat,
                           orthogonality_rows=len(ortho), independent=indep)


def orthogonal(pi: JointDist, pi_tilde: JointDist) -> bool:
    """Exact zero-covariance test between two equal-marginal distributions.

    Checks Cov(pi(t | other), pi_tilde(t' | other)) = 0 for every type pair
    of every agent, the covariance being taken over the other agent's type.
    """
    two_agent(pi.space)
    if pi.space != pi_tilde.space:
        raise PreconditionError("orthogonality requires a common type space")
    for i in range(2):
        if not arrays_equal(pi.marginal(i), pi_tilde.marginal(i)):
            raise PreconditionError("orthogonality requires equal marginals")
    for i in range(2):
        weights = pi.marginal(1 - i)
        for update in updates(pi, i):
            for update_tilde in updates(pi_tilde, i):
                if sum(u * ut * p for u, ut, p
                       in zip(update, update_tilde, weights)) != 0:
                    return False
    return True


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
    recon = constant_array(space.shape, 0)
    for g, p in zip(gammas, points):
        recon = recon + p * g
    assert arrays_equal(recon, f)
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

    Cells are edges of the bipartite row/column graph; a depth-first walk
    (lexicographic edge order, so deterministic) finds a cycle, returned so
    that consecutive cells share a node and the list has even length.
    """
    adj: dict[tuple, list[tuple[int, int]]] = {}
    for cell in sorted(cells):
        adj.setdefault(("r", cell[0]), []).append(cell)
        adj.setdefault(("c", cell[1]), []).append(cell)

    def across(cell, node):
        return ("c", cell[1]) if node[0] == "r" else ("r", cell[0])

    on_path: dict[tuple, int] = {}
    path_cells: list[tuple[int, int]] = []
    result: list[tuple[int, int]] = []

    def dfs(node, in_cell) -> bool:
        on_path[node] = len(path_cells)
        for cell in adj[node]:
            if cell == in_cell:
                continue
            nxt = across(cell, node)
            if nxt in on_path:
                result.extend(path_cells[on_path[nxt]:] + [cell])
                return True
            path_cells.append(cell)
            if dfs(nxt, cell):
                return True
            path_cells.pop()
        del on_path[node]
        return False

    found = dfs(("r", min(cells)[0]), None)
    assert found and len(result) % 2 == 0
    return result


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
    assert len(cycle) % 2 == 0
    target = min(cycle, key=lambda c: (mat[c], c))
    delta = mat[target]
    sign = 1 if cycle.index(target) % 2 == 0 else -1
    for k, cell in enumerate(cycle):
        step = delta if (k % 2 == 0) else -delta
        mat[cell] = mat[cell] - sign * step
    assert mat[target] == 0
    return True


def _extreme_point_within_support(r: np.ndarray, scale: Fraction,
                                  ml, mr) -> np.ndarray:
    """An extreme point of the fixed-marginals polytope whose support is
    contained in support(r): rescale and cancel cycles until acyclic."""
    p = r / scale
    while _cancel_one_cycle(p):
        pass
    m, n = p.shape
    assert all(sum(p[i, j] for j in range(n)) == ml[i] for i in range(m))
    assert all(sum(p[i, j] for i in range(m)) == mr[j] for j in range(n))
    assert all(v >= 0 for row in p for v in row)
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
        assert support_is_acyclic(p)
        cells = sum(1 for i in range(m) for j in range(n) if p[i, j] != 0)
        assert cells <= m + n - 1
        lam = min(r[i, j] / p[i, j]
                  for i in range(m) for j in range(n) if p[i, j] != 0)
        assert 0 < lam <= s
        terms.append((lam, p))
        r = r - p * lam
        s = s - lam
    assert s == 0
    return terms


# ---------------------------------------------------------------------------
# Match-your-opponent analysis on square instances
# ---------------------------------------------------------------------------

@dataclass
class MatchingReport:
    """Best matching mechanism and the resulting profitability verdict.

    ``best_value`` is sum_t pi_l(t) pi_r(m(t)) v(t, m(t)) for the best
    bijection m.  ``criterion`` names the rule behind ``profitable``:
    with uniform marginals the sign of ``best_value`` is exact; with merely
    symmetric marginals and a supermodular objective the diagonal rule
    sum_t pi_l(t) v(t,t) > 0 decides; otherwise the transport criterion is
    consulted.
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

    if n <= 8:
        best_perm, best_value = _best_matching_enumerate(v, ml, mr)
    else:
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
            assert (diagonal_sum > 0) == profitable
    elif symmetric and supermod:
        profitable = diagonal_value > 0
        criterion = "diagonal-rule (symmetric marginals, supermodular)"
    else:
        from .oracle import solve_principal  # deferred import
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


def _best_matching_enumerate(v, ml, mr):
    n = v.shape[0]
    best_perm = None
    best_value = None
    for perm in itertools.permutations(range(n)):
        val = sum(ml[t] * mr[perm[t]] * v[t, perm[t]] for t in range(n))
        if best_value is None or val > best_value:
            best_perm, best_value = perm, val
    return best_perm, best_value


def _best_matching_lp(v, ml, mr):
    """Assignment LP: optimum of the weighted matching over the Birkhoff
    polytope; a basic optimal solution is a permutation."""
    n = v.shape[0]
    objective = [ml[i] * mr[j] * v[i, j] for i in range(n) for j in range(n)]
    a_eq = [lift((n, n), i, t, [ONE] * n) for i in range(2) for t in range(n)]
    sol = solve_lp(LinearProgram(objective=objective, a_eq=a_eq,
                                 b_eq=[ONE] * (2 * n)))
    assert sol.status == "optimal"
    perm = []
    for i in range(n):
        js = [j for j in range(n) if sol.x[i * n + j] == 1]
        assert len(js) == 1
        perm.append(js[0])
    return tuple(perm), sol.value
