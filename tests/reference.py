"""Reference implementations the tests compare the library against.

The row and generator builders are written as explicit profile loops:
they are the hand-rolled builders the library used before it built every
row family on ``icmech.belief``; the property tests require the library's
rows to equal them entry for entry and in order.  ``w_generators`` and
``orthogonal_projection`` are the generic Gram-matrix projection that the
closed-form additivity residuals are checked against.
``distinct_nonzero`` is the dedupe keyed on the rows' own Fraction tuples
that the integer-keyed one in ``icmech.belief`` replaced.
``enumerate_vertices`` is a brute-force LP oracle for cross-checking the
simplex, and ``simplex`` is the Fraction tableau with Bland's rule, explicit
bound rows and the duals recovered by a second elimination, whose status
and optimal value the bounded-variable engine in ``icmech.numerics`` must
reproduce.  ``fold_duals`` and ``check_primal`` are the result checks of
``solve_lp`` redone in Fractions over the LP's rational rows; the integer
checks over the LP's scaled rows must give the same multipliers, values
and verdicts.  ``best_matching_enumerate`` tries every bijection, the oracle
for the assignment LP behind ``match_your_opponent``.  ``conditional``
divides pi by its marginals, independently of ``icmech.belief``, and
``extract_cycle_dfs`` is the depth-first cycle search that the
decomposition's walk along a pruned support must reproduce.
"""

import itertools
from fractions import Fraction

import numpy as np

from icmech.numerics import LinearProgram, rank, require, solve_linear_system

ZERO = Fraction(0)
ONE = Fraction(1)


def conditional(dist, i):
    """Two agents: row a is the belief over the other agent's types held by
    type a of agent i, pi's entries divided by the marginal."""
    mat = dist.p if i == 0 else dist.p.T
    marg = dist.marginal(i)
    return np.array([[mat[a, s] / marg[a] for s in range(mat.shape[1])]
                     for a in range(mat.shape[0])], dtype=object)


def conditional_section_basis(dist):
    """Generators of U: indicator-of-own-type times a conditional belief,
    one per (own type a, conditioning type b) and per agent, flattened
    row-major."""
    m, n = dist.space.shape
    gens = []
    cond_l = conditional(dist, 0)
    cond_r = conditional(dist, 1)
    for a in range(m):
        for b in range(m):
            g = [ZERO] * (m * n)
            for s in range(n):
                g[a * n + s] = cond_l[b, s]
            gens.append(g)
    for a in range(n):
        for b in range(n):
            g = [ZERO] * (m * n)
            for s in range(m):
                g[s * n + a] = cond_r[b, s]
            gens.append(g)
    return gens


def ic_polytope(dist):
    space = dist.space
    n = space.n_profiles
    shape = space.shape
    pi_flat = [dist.p[np.unravel_index(k, shape)] for k in range(n)]
    rows = []
    seen = set()
    for i in range(2):
        cond = conditional(dist, i)
        for a in range(shape[i]):
            for b in range(shape[i]):
                row = [-p for p in pi_flat]
                for s in range(shape[1 - i]):
                    idx = (b, s) if i == 0 else (s, b)
                    row[idx[0] * shape[1] + idx[1]] += cond[a, s]
                key = tuple(row)
                if any(v != 0 for v in row) and key not in seen:
                    seen.add(key)
                    rows.append(row)
    return rows


def distinct_nonzero(rows):
    out = []
    seen = set()
    for row in rows:
        key = tuple(row)
        if any(row) and key not in seen:
            seen.add(key)
            out.append(row)
    return out


def orthogonality_rows(pi):
    m, n = pi.space.shape
    marg = pi.marginals()
    rows = []
    seen = set()
    for i in range(2):
        other = 1 - i
        cond_other = conditional(pi, other)
        k_i, k_other = pi.space.shape[i], pi.space.shape[other]
        for t in range(k_i):
            update = [cond_other[s, t] - marg[i][t] for s in range(k_other)]
            if all(u == 0 for u in update):
                continue
            for t_prime in range(k_i):
                row = [ZERO] * (m * n)
                for s in range(k_other):
                    idx = (t_prime, s) if i == 0 else (s, t_prime)
                    row[idx[0] * n + idx[1]] = update[s]
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    return rows


def interim_rows_alloc(inst):
    n = inst.n
    shape = inst.space.shape
    size = inst.space.n_profiles
    prob = inst.dist.p
    idx_list = list(np.ndindex(*shape))

    def others_weight(idx, agent):
        w = ONE
        for j, p in enumerate(idx):
            if j != agent:
                w *= inst.marginals[j][p]
        return w

    rows = []
    seen = set()
    for agent in range(n):
        for pos in range(shape[agent]):
            row = [ZERO] * ((n - 1) * size)
            for flat, idx in enumerate(idx_list):
                for block in range(n - 1):
                    coeff = ZERO
                    if agent < n - 1:
                        if block == agent:
                            if idx[agent] == pos:
                                coeff += others_weight(idx, agent)
                            coeff -= prob[idx]
                    else:
                        if idx[agent] == pos:
                            coeff += others_weight(idx, agent)
                        coeff -= prob[idx]
                    if coeff != 0:
                        row[block * size + flat] += coeff
            key = tuple(row)
            if any(c != 0 for c in row) and key not in seen:
                seen.add(key)
                rows.append(row)
    return rows


def w_generators(inst):
    """Generators of W for an allocation instance, one per (agent j, type
    t), as flat vectors on {1..n-1} x profiles: pi on the profiles where
    agent j has type t, in block j for j < n, and with a minus sign in
    every block for the reference agent n.  Returns (generators, keys)
    with keys (agent, type label), so that span coefficients are u_j(t)."""
    n = inst.n
    size = inst.space.n_profiles
    idx_list = list(np.ndindex(*inst.space.shape))
    gens, keys = [], []
    for j in range(n):
        for pos, label in enumerate(inst.space.types[j]):
            g = [ZERO] * ((n - 1) * size)
            for flat, idx in enumerate(idx_list):
                if idx[j] != pos:
                    continue
                for block in range(n - 1):
                    if j == n - 1:
                        g[block * size + flat] = -inst.dist.p[idx]
                    elif block == j:
                        g[block * size + flat] = inst.dist.p[idx]
            gens.append(g)
            keys.append((inst.space.agents[j], label))
    return gens, keys


def orthogonal_projection(target, generators):
    """Project ``target`` onto span(generators) under the standard dot product.

    Returns (projection, residual) with ``target = projection + residual``
    and ``residual . g = 0`` exactly for every generator g.  Rank-deficient
    generator sets are fine: the normal equations are solved by elimination,
    which never needs square roots.
    """
    target = list(target)
    gens = [list(g) for g in generators]
    for g in gens:
        if len(g) != len(target):
            raise ValueError("generator dimension mismatch")
    if not gens:
        return [ZERO] * len(target), target
    k = len(gens)
    gram = [[sum(gi * gj for gi, gj in zip(gens[i], gens[j])) for j in range(k)]
            for i in range(k)]
    beta = [sum(gi * t for gi, t in zip(gens[i], target)) for i in range(k)]
    coeffs = solve_linear_system(gram, beta)
    # The normal equations are always consistent (beta lies in range(gram)).
    assert coeffs is not None
    proj = [sum(coeffs[j] * gens[j][i] for j in range(k))
            for i in range(len(target))]
    resid = [t - p for t, p in zip(target, proj)]
    for g in gens:
        assert sum(r * gi for r, gi in zip(resid, g)) == 0
    return proj, resid


def best_matching_enumerate(v, ml, mr):
    """The bijection m maximising sum_t ml[t] * mr[m(t)] * v[t, m(t)], first
    in lexicographic order among ties, and its value."""
    n = v.shape[0]
    best_perm = None
    best_value = None
    for perm in itertools.permutations(range(n)):
        val = sum(ml[t] * mr[perm[t]] * v[t, perm[t]] for t in range(n))
        if best_value is None or val > best_value:
            best_perm, best_value = perm, val
    return best_perm, best_value


def extract_cycle_dfs(cells):
    """A cycle of the bipartite row/column graph whose edges are ``cells``,
    by a depth-first search in lexicographic edge order from the first
    cell's row, as a closed alternating cell list."""
    adj = {}
    for cell in sorted(cells):
        adj.setdefault(("r", cell[0]), []).append(cell)
        adj.setdefault(("c", cell[1]), []).append(cell)

    def across(cell, node):
        return ("c", cell[1]) if node[0] == "r" else ("r", cell[0])

    on_path = {}
    path_cells = []
    result = []

    def dfs(node, in_cell):
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

    dfs(("r", min(cells)[0]), None)
    return result


def enumerate_vertices(lp: LinearProgram) -> list[list[Fraction]]:
    """Brute-force vertex enumeration for small LPs (test oracle).

    Tries every way of making n constraints active among equalities,
    inequalities and bounds, solves the square system and keeps feasible
    points.  Exponential; only for cross-checking the simplex on tiny
    instances.
    """
    n = lp.n
    cand_rows: list[tuple[list[Fraction], Fraction]] = []
    for row, rhs in zip(lp.a_eq, lp.b_eq):
        cand_rows.append((list(row), rhs))
    optional: list[tuple[list[Fraction], Fraction]] = []
    for row, rhs in zip(lp.a_ub, lp.b_ub):
        optional.append((list(row), rhs))
    for j in range(n):
        if lp.lower[j] is not None:
            unit = [ZERO] * n
            unit[j] = ONE
            optional.append((unit, lp.lower[j]))
        if lp.upper[j] is not None:
            unit = [ZERO] * n
            unit[j] = ONE
            optional.append((unit, lp.upper[j]))
    vertices: list[list[Fraction]] = []
    seen: set[tuple] = set()
    rank_eq = rank([r for r, _ in cand_rows]) if cand_rows else 0
    need = max(n - rank_eq, 0)
    for combo in itertools.combinations(range(len(optional)), need):
        rows = [r for r, _ in cand_rows] + [optional[i][0] for i in combo]
        rhs = [b for _, b in cand_rows] + [optional[i][1] for i in combo]
        if rank(rows) < n:
            continue
        x = solve_linear_system(rows, rhs)
        if x is None:
            continue
        ok = all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(lp.a_eq, lp.b_eq))
        ok = ok and all(sum(a * v for a, v in zip(row, x)) <= b
                        for row, b in zip(lp.a_ub, lp.b_ub))
        ok = ok and all((lp.lower[j] is None or x[j] >= lp.lower[j]) and
                        (lp.upper[j] is None or x[j] <= lp.upper[j])
                        for j in range(n))
        if not ok:
            continue
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            vertices.append(x)
    return vertices


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's rule."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows          # each row: coefficients + rhs (last entry)
        self.basis = basis
        self.pivots = 0

    def pivot(self, r: int, c: int, obj: list[Fraction]) -> None:
        self.pivots += 1
        prow = self.rows[r]
        piv = prow[c]
        if piv != 1:
            prow = [v / piv for v in prow]
            self.rows[r] = prow
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                f = row[c]
                self.rows[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        if obj[c] != 0:
            f = obj[c]
            obj[:] = [a - f * b if b else a for a, b in zip(obj, prow)]
        self.basis[r] = c

    def run(self, obj: list[Fraction], ncols: int) -> int | None:
        """Simplex iterations until optimal (returns None) or unbounded
        (returns the offending entering column)."""
        while True:
            enter = next((j for j in range(ncols) if obj[j] > 0), None)
            if enter is None:
                return None
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return enter
            self.pivot(leave, enter, obj)


def _reduced_objective(cost, tab: _Tableau, width: int) -> list[Fraction]:
    """Objective row (reduced costs + negated value) priced out over the basis."""
    obj = list(cost) + [ZERO]
    for row, b in zip(tab.rows, tab.basis):
        cb = cost[b]
        if cb != 0:
            obj = [a - cb * v if v else a for a, v in zip(obj, row)]
    assert len(obj) == width + 1
    return obj


def _basis_duals(a, cost, basis) -> list[Fraction]:
    """Dual vector y solving y . A_B = c_B for the final basis.

    ``a`` holds the pristine (pre-pivot) standard-form rows, which have
    full row rank, so A_B is square and nonsingular.  Only the basis
    columns are read, so the rows may carry artificial columns and the rhs.
    """
    at = [[row[b] for row in a] for b in basis]
    y = solve_linear_system(at, [cost[b] for b in basis])
    require(y is not None, "exact LP", "the basis matrix is nonsingular")
    return y


def simplex(rows, crash, cost, ncols, boxed):
    """``icmech.numerics._simplex``'s contract over Fractions, with Bland's
    rule and an explicit row s_j + t_j = 1 for every boxed column j, its
    slack t_j starting basic.  Only the duals of ``rows`` come back: the
    caller folds the bound multipliers from the residual."""
    width = len(cost)
    nrows = len(rows)
    boxed = sorted(boxed)
    nbox = len(boxed)
    rhs = [Fraction(row[-1]) for row in rows] + [ONE] * nbox
    a = [[Fraction(v) for v in row[:-1]] + [ZERO] * nbox for row in rows]
    for k, j in enumerate(boxed):
        bound = [ZERO] * (width + nbox)
        bound[j] = bound[width + k] = ONE
        a.append(bound)
    crash = list(crash) + [width + k for k in range(nbox)]
    status, point, y, value, pivots = _bland_simplex(
        a, rhs, crash, list(cost) + [ZERO] * nbox)
    if point is not None:
        point = point[:width]
    if y is not None:
        y = y[:nrows]
    return status, point, y, value, (pivots, 0)


def _bland_simplex(rows, rhs, crash, cost):
    """Two-phase Bland simplex: max cost . s  s.t.  rows s = rhs >= 0,
    s >= 0; duals by eliminating the final basis matrix."""
    width = len(cost)
    art_rows = [i for i, start in enumerate(crash) if start is None]
    nart = len(art_rows)
    tab_rows = [list(row) + [ZERO] * nart + [b] for row, b in zip(rows, rhs)]
    basis = list(crash)
    for k, i in enumerate(art_rows):
        tab_rows[i][width + k] = ONE
        basis[i] = width + k
    # Pivots replace tableau rows and never mutate them, so this shallow
    # copy keeps the pristine rows for the dual recovery.
    pristine = list(tab_rows)
    tab = _Tableau(tab_rows, basis)
    phase1_cost = [ZERO] * width + [-ONE] * nart
    obj1 = _reduced_objective(phase1_cost, tab, width + nart)
    if obj1[-1] != 0:
        unb = tab.run(obj1, width)
        assert unb is None  # phase-1 objective is bounded above by 0
    if -obj1[-1] < 0:
        y = _basis_duals(pristine, phase1_cost, tab.basis)
        return "infeasible", None, y, None, tab.pivots
    for i in range(len(tab.rows)):
        if tab.basis[i] >= width:
            col = next((j for j in range(width) if tab.rows[i][j] != 0), None)
            require(col is not None, "exact LP",
                    "an artificial variable leaves the basis")
            tab.pivot(i, col, obj1)
    tab.rows = [row[:width] + [row[-1]] for row in tab.rows]
    obj2 = _reduced_objective(cost, tab, width)
    unb = tab.run(obj2, width)
    if unb is not None:
        ray = [ZERO] * width
        ray[unb] = ONE
        for row, b in zip(tab.rows, tab.basis):
            ray[b] = -row[unb]
        return "unbounded", ray, None, None, tab.pivots
    x_std = [ZERO] * width
    for row, b in zip(tab.rows, tab.basis):
        x_std[b] = row[-1]
    y = _basis_duals(pristine, cost, tab.basis)
    return "optimal", x_std, y, -obj2[-1], tab.pivots


def check_primal(lp: LinearProgram, x: list[Fraction]) -> None:
    """x meets every row and bound of ``lp``, summed in Fractions."""
    require(all(sum(a * v for a, v in zip(row, x) if a and v) == rhs
                for row, rhs in zip(lp.a_eq, lp.b_eq)), "exact LP",
            "primal equality rows")
    require(all(sum(a * v for a, v in zip(row, x) if a and v) <= rhs
                for row, rhs in zip(lp.a_ub, lp.b_ub)), "exact LP",
            "primal inequality rows")
    require(all((lo is None or v >= lo) and (up is None or v <= up)
                for v, lo, up in zip(x, lp.lower, lp.upper)), "exact LP",
            "primal bounds")


def fold_duals(lp, y, row_specs, factor, objective):
    """``icmech.numerics._fold_duals`` over the LP's rational rows in
    Fractions: the duals y of the scaled tableau rows, times ``factor``,
    on the original rows; the bound multipliers mu (upper) and nu (lower)
    with A^T dual + mu - nu = objective; and the dual objective value.
    Returns (dual_eq, dual_ub, mu, nu, value)."""
    duals = {"eq": [ZERO] * len(lp.a_eq), "ub": [ZERO] * len(lp.a_ub)}
    for (kind, idx), yi, f in zip(row_specs, y, factor):
        duals[kind][idx] = yi * f
    dual_eq, dual_ub = duals["eq"], duals["ub"]
    mu = [ZERO] * lp.n
    nu = [ZERO] * lp.n
    g = [ZERO] * lp.n
    for row, d in zip(lp.a_eq + lp.a_ub, dual_eq + dual_ub):
        if d:
            for j, a in enumerate(row):
                if a:
                    g[j] += d * a
    for j in range(lp.n):
        r = objective[j] - g[j]
        if r > 0:
            mu[j] = r
        else:
            nu[j] = -r
    require(all(v >= 0 for v in dual_ub), "exact LP",
            "inequality duals are nonnegative")
    require(all(v >= 0 for v in mu) and all(v >= 0 for v in nu), "exact LP",
            "bound multipliers are nonnegative")
    require(all((mu[j] == 0 or lp.upper[j] is not None) and
                (nu[j] == 0 or lp.lower[j] is not None) for j in range(lp.n)),
            "exact LP", "bound multipliers sit on finite bounds")
    value = sum(d * b for d, b in zip(dual_eq, lp.b_eq)) + \
        sum(d * b for d, b in zip(dual_ub, lp.b_ub)) + \
        sum(mu[j] * lp.upper[j] for j in range(lp.n) if mu[j] != 0) - \
        sum(nu[j] * lp.lower[j] for j in range(lp.n) if nu[j] != 0)
    return dual_eq, dual_ub, mu, nu, value


def recording_fold(fold, folds: list):
    """Wrap ``icmech.numerics._fold_duals``: each call appends (its result,
    ``fold_duals`` of the same duals) to ``folds``."""
    def wrapper(lp, int_rows, y, row_specs, factor, objective):
        got = fold(lp, int_rows, y, row_specs, factor, objective)
        folds.append((got, fold_duals(lp, y, row_specs, factor, objective)))
        return got
    return wrapper
