"""Exact rational linear algebra and linear programming.

Everything in this module is exact rational arithmetic (``Fraction``s, or
ints over exact denominators), so feasibility, optimality, rank and
orthogonality are decided by exact equality, not by tolerances.  The LP
solver is a two-phase bounded-variable tableau simplex.  Pricing enters
the largest reduced cost (Dantzig) and falls back to Bland's lowest-index
rule after as many consecutive degenerate pivots as the tableau has rows,
which rules out cycling and keeps every answer and every pivot count
deterministic.

Speed comes from doing less exact work, never from tolerances.  A
variable with both bounds finite becomes a column bounded by 1 with no
row of its own (Dantzig's upper-bounding technique): the ratio test also
stops where a basic boxed variable reaches 1 or the entering one reaches
its own bound, and a variable at its upper bound is complemented.  A
fraction-free integer presolve drops equality rows that earlier rows
combine to, after that substitution.  Inequality rows start with their
slack basic (a slack crash basis), so only equality rows and rows with a
negative right-hand side carry an artificial, and phase 1 is skipped
when that start is already feasible, as it is for every LP over the IC
polytope, whose equality rows are homogeneous.  Each tableau row holds
Python ints over its own denominator in lowest terms, and a pivot updates
only the rows whose pivot-column entry is nonzero.  The duals are read
off the final objective row, where the starting unit columns carry
B^-1.  Every result is checked exactly, in Fractions, before it is
returned (primal feasibility, strong duality, the Farkas gap, an
unbounded ray's direction), and a failed check raises ``RuntimeError``,
also under ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Convert ints, rational strings ("1/4", "0.25") or Fractions exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {value!r} to an exact rational")


# ---------------------------------------------------------------------------
# Exact Gaussian elimination: rank, linear systems, span tests
# ---------------------------------------------------------------------------

def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce a copy of ``rows``; returns (reduced rows, pivot columns)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][col]
        if piv != 1:
            mat[r] = [v / piv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                row_i, row_r = mat[i], mat[r]
                mat[i] = [a - f * b if b else a for a, b in zip(row_i, row_r)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return mat, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix (list of rows)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    return len(_echelon(rows)[1])


def solve_linear_system(a: Sequence[Sequence[Fraction]],
                        b: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of ``a x = b`` (free variables set to 0), or None.

    Returns None when the system is inconsistent.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = _echelon(aug)
    # A pivot in the rhs column means 0 == nonzero.
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, col in enumerate(pivots):
        x[col] = red[i][n]
    return x


def span_coefficients(vector: Sequence[Fraction],
                      generators: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """Coefficients c with ``vector = sum c_j * generators[j]``, or None."""
    if not generators:
        return [] if all(v == 0 for v in vector) else None
    a = [[generators[j][i] for j in range(len(generators))]
         for i in range(len(vector))]
    return solve_linear_system(a, list(vector))


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

@dataclass
class LinearProgram:
    """max objective . x  s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  lower <= x <= upper.

    All data rational.  A bound of None means unbounded on that side.
    """

    objective: list[Fraction]
    a_eq: list[list[Fraction]] = field(default_factory=list)
    b_eq: list[Fraction] = field(default_factory=list)
    a_ub: list[list[Fraction]] = field(default_factory=list)
    b_ub: list[Fraction] = field(default_factory=list)
    lower: list[Fraction | None] | None = None
    upper: list[Fraction | None] | None = None

    def __post_init__(self):
        n = len(self.objective)
        if self.lower is None:
            self.lower = [ZERO] * n
        if self.upper is None:
            self.upper = [None] * n
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound length mismatch")
        for row_set, rhs in ((self.a_eq, self.b_eq), (self.a_ub, self.b_ub)):
            if len(row_set) != len(rhs):
                raise ValueError("constraint/rhs length mismatch")
            for row in row_set:
                if len(row) != n:
                    raise ValueError("constraint row length mismatch")
        for lo, up in zip(self.lower, self.upper):
            if lo is not None and up is not None and lo > up:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return len(self.objective)


@dataclass
class LPSolution:
    """Outcome of an exact LP solve.

    For status "optimal": ``x`` satisfies every constraint exactly and
    ``value == objective . x``; ``dual_eq``/``dual_ub`` together with the
    per-variable ``reduced_costs`` form a dual solution whose objective
    equals ``value`` (strong duality, verified inside the solver).

    For "unbounded": ``ray`` is a feasible improving direction.
    For "infeasible": ``certificate`` is a Farkas combination proving it.

    ``pivots`` counts the simplex pivots of every phase, drive-out
    included, and ``flips`` the steps that only move the entering variable
    to its other bound.  The pricing rule is deterministic, so both are
    functions of the input, and a change to the engine that adds pivots
    shows without timing.
    """

    status: str
    value: Fraction | None = None
    x: list[Fraction] | None = None
    dual_eq: list[Fraction] | None = None
    dual_ub: list[Fraction] | None = None
    reduced_costs: list[Fraction] | None = None
    ray: list[Fraction] | None = None
    certificate: dict | None = None
    pivots: int = 0
    flips: int = 0


class _Tableau:
    """Dense bounded-variable simplex tableau over Python ints.

    Row i is ``rows[i] / dens[i]`` over its own denominator, in lowest
    terms: a pivot updates only the rows with a nonzero entry in its
    column and divides each updated row and its denominator by their gcd,
    so the integers stay as small as the rational entries allow and every
    division is exact.  The objective row passed along is ``obj /
    objden``.  The columns in ``boxed`` are bounded by 1; one in
    ``flipped`` holds the complement 1 - z of its variable z, so every
    nonbasic variable sits at 0.

    Pricing enters the largest positive reduced cost, the lowest index on
    ties (Dantzig); after as many consecutive degenerate pivots as there
    are rows it enters the lowest index (Bland) until the next
    nondegenerate step, which rules out cycling.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], boxed: set[int]):
        self.rows = rows          # each row: coefficients + rhs (last entry)
        self.dens = [1] * len(rows)
        self.objden = 1
        self.basis = basis
        self.boxed = boxed
        self.flipped: set[int] = set()
        self.pivots = 0
        self.flips = 0

    def objective(self, cost: list[int]) -> list[int]:
        """Objective row (reduced costs + negated value) over the basis, in
        units of 1/objden.  A flipped column's cost changes sign and adds
        to the value."""
        cost = [-c if j in self.flipped else c for j, c in enumerate(cost)]
        den = math.lcm(*self.dens)
        obj = [den * c for c in cost] + [den * sum(cost[j] for j in self.flipped)]
        for row, d, b in zip(self.rows, self.dens, self.basis):
            cb = cost[b]
            if cb:
                f = cb * (den // d)
                obj = [a - f * v for a, v in zip(obj, row)]
        require(len(obj) == len(cost) + 1, "exact LP",
                "the objective row spans the tableau")
        self.objden = den
        return obj

    def pivot(self, r: int, c: int, obj: list[int] | None) -> None:
        """Pivot on row r, column c, updating ``obj`` too if given."""
        self.pivots += 1
        # The pivot row over its own pivot entry, in lowest terms; that
        # entry is negative only in the drive-out or right after a basic
        # variable was flipped.
        prow, q = _lowest_terms(self.rows[r], self.rows[r][c])
        dens = self.dens
        for i, row in enumerate(self.rows):
            f = row[c]
            if f and i != r:
                self.rows[i], dens[i] = _lowest_terms(
                    [q * a - f * b for a, b in zip(row, prow)], dens[i] * q)
        if obj is not None:
            f = obj[c]
            obj[:], self.objden = _lowest_terms(
                [q * a - f * b for a, b in zip(obj, prow)], self.objden * q)
        self.rows[r], dens[r] = prow, q
        self.basis[r] = c

    def flip(self, c: int, obj: list[int]) -> None:
        """Substitute 1 - z for the boxed variable z of column c: negate the
        column and subtract it from the rhs, in every row and in ``obj``.
        A basic column is flipped only to leave at once: the pivot on its
        row, whose entry is now negative, negates that row back."""
        self.flipped ^= {c}
        for row in self.rows:
            a = row[c]
            if a:
                row[-1] -= a
                row[c] = -a
        obj[-1] -= obj[c]
        obj[c] = -obj[c]

    def run(self, obj: list[int], ncols: int) -> int | None:
        """Simplex iterations until optimal (returns None) or unbounded
        (returns the offending entering column); columns from ``ncols`` on
        never enter."""
        degenerate = 0
        while True:
            if degenerate < len(self.rows):
                best = max(obj[:ncols], default=0)
                enter = obj.index(best) if best > 0 else None
            else:
                enter = next((j for j in range(ncols) if obj[j] > 0), None)
            if enter is None:
                return None
            # Ratio test: a basic variable falls to 0 (entry > 0) or a boxed
            # one rises to 1 (entry < 0); a boxed entering variable stops at
            # its own bound 1 first on ties, which is a flip.
            leave, dnm = None, 1
            num = 1 if enter in self.boxed else None   # the step is num / dnm
            for i, row in enumerate(self.rows):
                a, t = row[enter], row[-1]
                if a < 0 and self.basis[i] in self.boxed:
                    a, t = -a, self.dens[i] - t
                if a <= 0:
                    continue
                if num is not None:
                    lhs, rhs = t * dnm, num * a
                    if lhs > rhs or lhs == rhs and (
                            leave is None or self.basis[i] > self.basis[leave]):
                        continue
                leave, num, dnm = i, t, a
            if num is None:
                return enter
            if leave is None:
                self.flips += 1
                self.flip(enter, obj)
                degenerate = 0
                continue
            degenerate = degenerate + 1 if num == 0 else 0
            if self.rows[leave][enter] < 0:   # leaves at its upper bound
                self.flip(self.basis[leave], obj)
            self.pivot(leave, enter, obj)


def _lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    """``row / den`` with the gcd divided out and the denominator > 0."""
    g = math.gcd(den, *row)
    if den < 0:
        g = -g
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def require(ok: bool, kind: str, what: str) -> None:
    """Raise ``RuntimeError("<kind> check failed: <what>")`` unless ``ok``:
    a result-carrying check that, unlike ``assert``, also runs under
    ``python -O``."""
    if not ok:
        raise RuntimeError(f"{kind} check failed: {what}")


def _integer_row(vals: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``vals`` scaled to integers by s, the lcm of its denominators: (s, ints)."""
    scale = math.lcm(*(v.denominator for v in vals))
    return scale, [v.numerator * (scale // v.denominator) for v in vals]


def _independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the integer rows that no earlier rows combine to.

    Fraction-free: each row is reduced against the rows kept so far by
    cross-multiplication, dividing out the gcd after every step.  Rows
    are augmented with their rhs, so a row that is inconsistent with
    earlier ones (its left side dependent, its rhs not) is kept.
    """
    kept: list[int] = []
    reduced: list[tuple[int, list[int]]] = []   # (leading column, integer row)
    for i, vec in enumerate(rows):
        for lead, prow in reduced:
            f = vec[lead]
            if f:
                p = prow[lead]
                vec = [p * a - f * c if c else p * a for a, c in zip(vec, prow)]
                g = math.gcd(*vec)
                if g > 1:
                    vec = [a // g for a in vec]
        lead = next((c for c, a in enumerate(vec) if a), None)
        if lead is not None:
            reduced.append((lead, vec))
            kept.append(i)
    return kept


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve an LP exactly; deterministic for a given input.

    Never approximates: the answer is the exact rational optimum, or an
    infeasibility/unboundedness certificate.
    """
    # --- conversion to standard form: x_j = offset + sum coeff * s_col ----
    # lower bound only: x = lo + s; upper only: x = up - s; free: x = s - s';
    # both bounds: x = lo + (up - lo) z with z a boxed column, 0 <= z <= 1,
    # which gets no row of its own (a fixed variable's column is zero).
    var_map: list[tuple[Fraction, list[tuple[int, Fraction]]]] = []
    boxed: set[int] = set()
    ncols = 0
    for lo, up in zip(lp.lower, lp.upper):
        if lo is not None and up is not None:
            boxed.add(ncols)
            var_map.append((lo, [(ncols, up - lo)]))
        elif lo is not None:
            var_map.append((lo, [(ncols, ONE)]))
        elif up is not None:
            var_map.append((up, [(ncols, -ONE)]))
        else:
            var_map.append((ZERO, [(ncols, ONE), (ncols + 1, -ONE)]))
        ncols += len(var_map[-1][1])

    # The substituted row [coefficients | rhs] in integers, scaled once: by
    # the lcm of the row's denominators times ``unit``, which clears the
    # denominators of every offset and coefficient of the map.
    unit = math.lcm(*(v.denominator for offset, cols in var_map
                      for v in (offset, *(k for _, k in cols))))
    int_map = [(int(offset * unit), [(col, int(k * unit)) for col, k in cols])
               for offset, cols in var_map]

    def scaled(row: Sequence[Fraction], rhs: Fraction) -> tuple[int, list[int]]:
        scale, vec = _integer_row([*row, rhs])
        out = [0] * ncols
        b = vec[-1] * unit
        for a, (offset, cols) in zip(vec, int_map):
            if a:
                b -= a * offset
                for col, k in cols:
                    out[col] = a * k
        out.append(b)
        return scale * unit, out

    # Equality rows that earlier ones combine to, after the substitution,
    # are left out; their duals are 0.  Every <= row gets a slack, kept at
    # +-1 when the row is scaled.
    eq = [scaled(row, rhs) for row, rhs in zip(lp.a_eq, lp.b_eq)]
    kept = _independent_rows([vec for _, vec in eq])
    ub = [scaled(row, rhs) for row, rhs in zip(lp.a_ub, lp.b_ub)]
    row_specs = [("eq", i) for i in kept] + [("ub", i) for i in range(len(ub))]
    nslack = len(ub)
    rows: list[list[int]] = []
    # Slack crash basis: a row whose slack keeps its +1 after the sign
    # normalisation starts with that slack basic; the others need an
    # artificial column.  factor[i] maps the dual of tableau row i back
    # onto its original row.
    crash: list[int | None] = []
    factor: list[int] = []
    for (kind, i), (scale, vec) in zip(row_specs, [eq[i] for i in kept] + ub):
        row = vec[:-1] + [0] * nslack + vec[-1:]
        start = None
        if kind == "ub":
            start = ncols + i
            row[start] = 1
        if row[-1] < 0:
            row = [-v for v in row]
            scale, start = -scale, None
        rows.append(row)
        crash.append(start)
        factor.append(scale)

    cost = [ZERO] * (ncols + nslack)
    for c, (_, cols) in zip(lp.objective, var_map):
        for col, k in cols:
            cost[col] += c * k
    const_term = sum(c * offset for c, (offset, _) in zip(lp.objective, var_map))

    status, point, y, value_std, (pivots, flips) = _simplex(
        rows, crash, cost, ncols, boxed)
    if status == "infeasible":
        # The phase-1 duals combine the constraints to the zero row while
        # the same combination of right-hand sides is negative: 0 <= gap < 0.
        dual_eq, dual_ub, mu, nu, gap = _fold_duals(
            lp, y, row_specs, factor, [ZERO] * lp.n)
        require(gap < 0, "exact LP", "Farkas gap is negative")
        cert = {"dual_eq": dual_eq, "dual_ub": dual_ub,
                "upper_multipliers": mu, "lower_multipliers": nu, "gap": gap}
        return LPSolution(status="infeasible", certificate=cert,
                          pivots=pivots, flips=flips)
    if status == "unbounded":
        ray = _map_point(point, var_map, shift=False)
        _check_ray(lp, ray)
        return LPSolution(status="unbounded", ray=ray, pivots=pivots, flips=flips)

    x = _map_point(point, var_map)
    value = sum(c * v for c, v in zip(lp.objective, x))
    require(value == value_std + const_term, "exact LP", "objective value identity")
    dual_eq, dual_ub, mu, nu, dual_value = _fold_duals(
        lp, y, row_specs, factor, lp.objective)
    require(dual_value == value, "exact LP", "strong duality")
    _check_primal(lp, x)
    return LPSolution(status="optimal", value=value, x=x,
                      dual_eq=dual_eq, dual_ub=dual_ub,
                      reduced_costs=[u - d for u, d in zip(mu, nu)],
                      pivots=pivots, flips=flips)


def _simplex(rows: list[list[int]], crash: list[int | None],
             cost: list[Fraction], ncols: int, boxed: set[int]):
    """Two-phase bounded-variable simplex: max cost . s  s.t.  rows s = rhs,
    s >= 0 and s_j <= 1 for j in ``boxed``.

    ``rows`` are integer rows over the columns of ``cost`` plus the rhs
    (last entry, >= 0); columns past ``ncols`` are slacks, and
    ``crash[i]`` is row i's starting slack, or None for an artificial.
    Returns (status, point, y, value, (pivots, flips)): the optimal vertex
    or an improving ray, and the duals of ``rows``, the Farkas multipliers
    if infeasible.
    """
    width = len(cost)
    art_rows = [i for i, start in enumerate(crash) if start is None]
    nart = len(art_rows)
    tab_rows = [row[:-1] + [0] * nart + row[-1:] for row in rows]
    basis = list(crash)
    for k, i in enumerate(art_rows):
        tab_rows[i][width + k] = 1
        basis[i] = width + k
    start = list(basis)           # row i's unit column: B^-1 builds up there
    tab = _Tableau(tab_rows, basis, boxed)

    def duals(obj, cost, scale):
        # Read off the tableau: column start[i] has reduced cost c_j - y_i
        # (obj and cost are scaled by ``scale``, obj over objden as well).
        return [Fraction(cost[j] * tab.objden - obj[j], scale * tab.objden)
                for j in start]

    # --- phase 1: every artificial costs -1 ------------------------------
    cost1 = [0] * width + [-1] * nart
    obj1 = tab.objective(cost1)
    # obj1[-1] is the artificials' total.  At 0 the crash basis is already
    # phase-1 optimal (every oracle LP: its equality rows are homogeneous).
    # Entering candidates exclude the artificial columns: once an
    # artificial leaves the basis it stays out.
    if obj1[-1] != 0:
        require(tab.run(obj1, width) is None, "exact LP",
                "the phase-1 objective is bounded")
    counts = (tab.pivots, tab.flips)
    if obj1[-1] > 0:
        return "infeasible", None, duals(obj1, cost1, 1), None, counts

    # Drive the artificials, all at level 0, out of the basis.  With the
    # dependent equality rows gone and phase 1 feasible, the standard-form
    # matrix has full row rank, so every such row has a pivot column.
    for i in range(len(tab.rows)):
        if tab.basis[i] >= width:
            col = next((j for j in range(width) if tab.rows[i][j] != 0), None)
            require(col is not None, "exact LP",
                    "an artificial variable leaves the basis")
            tab.pivot(i, col, None)

    # --- phase 2: the artificial columns stay, barred from entering ------
    scale2, cost2 = _integer_row(cost)
    cost2 += [0] * nart
    obj2 = tab.objective(cost2)
    unb = tab.run(obj2, width)
    counts = (tab.pivots, tab.flips)
    if unb is not None:
        # A boxed basic variable would have stopped the ray, so its entry
        # is 0 and flipped columns need no sign change.
        ray = [ZERO] * width
        ray[unb] = ONE
        for row, d, b in zip(tab.rows, tab.dens, tab.basis):
            ray[b] = Fraction(-row[unb], d)
        return "unbounded", ray, None, None, counts
    # A flipped column holds 1 - z.
    x_std = [ZERO] * width
    for row, d, b in zip(tab.rows, tab.dens, tab.basis):
        x_std[b] = Fraction(row[-1], d)
    x_std = [ONE - v if j in tab.flipped else v for j, v in enumerate(x_std)]
    return ("optimal", x_std, duals(obj2, cost2, scale2),
            Fraction(-obj2[-1], scale2 * tab.objden), counts)


def _map_point(s: list[Fraction], var_map, shift: bool = True) -> list[Fraction]:
    """Standard-form point (or, without the shift, direction) to x."""
    return [(offset if shift else ZERO) + sum(k * s[col] for col, k in cols)
            for offset, cols in var_map]


def _check_primal(lp: LinearProgram, x: list[Fraction]) -> None:
    require(all(sum(a * v for a, v in zip(row, x) if a and v) == rhs
                for row, rhs in zip(lp.a_eq, lp.b_eq)), "exact LP",
            "primal equality rows")
    require(all(sum(a * v for a, v in zip(row, x) if a and v) <= rhs
                for row, rhs in zip(lp.a_ub, lp.b_ub)), "exact LP",
            "primal inequality rows")
    require(all((lo is None or v >= lo) and (up is None or v <= up)
                for v, lo, up in zip(x, lp.lower, lp.upper)), "exact LP",
            "primal bounds")


def _check_ray(lp: LinearProgram, d: list[Fraction]) -> None:
    require(all(sum(a * v for a, v in zip(row, d)) == 0 for row in lp.a_eq),
            "exact LP", "ray keeps the equality rows")
    require(all(sum(a * v for a, v in zip(row, d)) <= 0 for row in lp.a_ub),
            "exact LP", "ray keeps the inequality rows")
    require(all((lo is None or v >= 0) and (up is None or v <= 0)
                for v, lo, up in zip(d, lp.lower, lp.upper)),
            "exact LP", "ray keeps the bounds")
    require(sum(c * v for c, v in zip(lp.objective, d)) > 0, "exact LP", "ray improves")


def _fold_duals(lp, y, row_specs, factor, objective):
    """Fold the duals y of the scaled tableau rows back onto the original
    constraints (row i's dual times ``factor[i]``).

    Bound multipliers mu (upper) and nu (lower) absorb what the row duals
    leave of ``objective``, so that A^T dual + mu - nu = objective.
    Returns (dual_eq, dual_ub, mu, nu, dual objective value) after checking
    the multipliers' signs exactly.  Equality rows absent from
    ``row_specs`` get dual 0.
    """
    duals = {"eq": [ZERO] * len(lp.a_eq), "ub": [ZERO] * len(lp.a_ub)}
    for (kind, idx), yi, f in zip(row_specs, y, factor):
        duals[kind][idx] = yi * f
    dual_eq, dual_ub = duals["eq"], duals["ub"]
    mu = [ZERO] * lp.n   # upper-bound duals
    nu = [ZERO] * lp.n   # lower-bound duals
    g = [ZERO] * lp.n    # A^T dual, over the nonzero duals and coefficients
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
