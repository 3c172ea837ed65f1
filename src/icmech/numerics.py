"""Exact rational linear algebra and linear programming.

Everything in this module is exact rational arithmetic (``Fraction``s, or
ints over a common denominator), so feasibility, optimality, rank and
orthogonality are decided by exact equality, not by tolerances.  The LP
solver is a two-phase tableau simplex with Bland's anti-cycling rule
(lowest-index pivoting), which makes every answer and every pivot count
deterministic and termination guaranteed.

Speed comes from doing less exact work, never from tolerances.  Before
the tableau is built, a fraction-free integer presolve drops equality
rows that earlier rows combine to.  Inequality rows start with their
slack basic (a slack crash basis), so only equality rows and rows with a
negative right-hand side carry an artificial, and phase 1 is skipped
when that start is already feasible, as it is for every LP over the IC
polytope, whose equality rows are homogeneous.  The tableau holds Python
ints over one common denominator and pivots integer-preserving (Bareiss),
and the duals are read off its final objective row, where the starting
unit columns carry B^-1.  Every result is checked exactly, in Fractions,
before it is returned (primal feasibility, strong duality, the Farkas
gap, an unbounded ray's direction), and a failed check raises
``RuntimeError``, also under ``python -O``.
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


def in_span(vector: Sequence[Fraction],
            generators: Sequence[Sequence[Fraction]]) -> bool:
    """True iff ``vector`` is a linear combination of ``generators``."""
    return span_coefficients(vector, generators) is not None


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
    included.  Under Bland's rule it is a deterministic function of the
    input, so a change to the engine that adds pivots shows without timing.
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


class _Tableau:
    """Dense simplex tableau over Python ints with Bland's rule.

    Integer-preserving (Bareiss) pivoting: the tableau, and the objective
    row passed along, is ``rows / den`` with ``den`` > 0 the basis
    determinant up to sign, so every entry stays an integer minor.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows          # each row: coefficients + rhs (last entry)
        self.basis = basis
        self.den = 1
        self.pivots = 0

    def pivot(self, r: int, c: int, obj: list[int]) -> None:
        self.pivots += 1
        prow = self.rows[r]
        if prow[c] < 0:   # drive-out only: negates the new tableau, den > 0
            prow = self.rows[r] = [-v for v in prow]
        p, den = prow[c], self.den
        for i, row in enumerate(self.rows):
            if i != r:
                self.rows[i] = _bareiss(row, prow, p, den, c)
        obj[:] = _bareiss(obj, prow, p, den, c)
        self.den = p
        self.basis[r] = c

    def run(self, obj: list[int], ncols: int) -> int | None:
        """Simplex iterations until optimal (returns None) or unbounded
        (returns the offending entering column)."""
        while True:
            enter = next((j for j in range(ncols) if obj[j] > 0), None)
            if enter is None:
                return None
            leave = None
            num, dnm = 0, 1           # the best ratio so far, num / dnm
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    lhs, rhs = row[-1] * dnm, num * a
                    if leave is None or lhs < rhs or \
                            (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, num, dnm = i, row[-1], a
            if leave is None:
                return enter
            self.pivot(leave, enter, obj)


def _bareiss(row: list[int], prow: list[int], p: int, den: int, c: int) -> list[int]:
    """``(p * row - row[c] * prow) / den``; the division is exact."""
    f = row[c]
    if f:
        return [(p * a - f * b) // den for a, b in zip(row, prow)]
    return [p * a // den for a in row]


def _reduced_objective(cost: list[int], tab: _Tableau, width: int) -> list[int]:
    """Objective row (reduced costs + negated value) over the basis, times den."""
    obj = [tab.den * c for c in cost] + [0]
    for row, b in zip(tab.rows, tab.basis):
        cb = cost[b]
        if cb:
            obj = [a - cb * v for a, v in zip(obj, row)]
    _check(len(obj) == width + 1, "the objective row spans the tableau")
    return obj


def _check(ok: bool, what: str) -> None:
    """Raise unless an exact LP check holds; unlike ``assert``, this
    survives ``python -O``."""
    if not ok:
        raise RuntimeError(f"exact LP check failed: {what}")


def _independent_rows(rows: Sequence[Sequence[Fraction]],
                      rhs: Sequence[Fraction]) -> list[int]:
    """Indices of the rows of ``[rows | rhs]`` that no earlier rows combine to.

    Fraction-free: each augmented row is scaled to integers by the lcm of
    its denominators, then reduced against the rows kept so far by
    cross-multiplication, dividing out the gcd after every step.  A row
    that is inconsistent with earlier ones (its left side dependent, its
    rhs not) is kept.
    """
    kept: list[int] = []
    reduced: list[tuple[int, list[int]]] = []   # (leading column, integer row)
    for i, (row, b) in enumerate(zip(rows, rhs)):
        vals = list(row) + [b]
        scale = math.lcm(*(v.denominator for v in vals))
        vec = [v.numerator * (scale // v.denominator) for v in vals]
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
    n = lp.n

    # --- conversion to standard form: A s = b, s >= 0 --------------------
    # Per original variable: how it maps to standard variables.
    #   ("shift", l):  x = l + s
    #   ("negshift", u): x = u - s
    #   ("split", None): x = s_plus - s_minus
    var_map: list[tuple] = []
    col_of: list[tuple[int, int | None]] = []  # (primary col, secondary col)
    ncols = 0
    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None:
            var_map.append(("shift", lo))
            col_of.append((ncols, None))
            ncols += 1
        elif up is not None:
            var_map.append(("negshift", up))
            col_of.append((ncols, None))
            ncols += 1
        else:
            var_map.append(("split", None))
            col_of.append((ncols, ncols + 1))
            ncols += 2

    # Row bookkeeping: ("eq", i) / ("ub", i) / ("bnd", j) plus slack columns
    # for every inequality.  Bound rows encode x_j <= upper_j for variables
    # that also carry a finite lower bound.  Equality rows that earlier ones
    # combine to are left out; their duals are 0.
    row_specs: list[tuple[str, int]] = []
    raw_rows: list[tuple[list[Fraction], Fraction]] = []

    def expand(row: Sequence[Fraction], rhs: Fraction) -> tuple[list[Fraction], Fraction]:
        out = [ZERO] * ncols
        r = rhs
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            kind, val = var_map[j]
            c0, c1 = col_of[j]
            if kind == "shift":
                out[c0] += coeff
                r -= coeff * val
            elif kind == "negshift":
                out[c0] -= coeff
                r -= coeff * val
            else:
                out[c0] += coeff
                out[c1] -= coeff
        return out, r

    for i in _independent_rows(lp.a_eq, lp.b_eq):
        raw_rows.append(expand(lp.a_eq[i], lp.b_eq[i]))
        row_specs.append(("eq", i))
    for i, (row, rhs) in enumerate(zip(lp.a_ub, lp.b_ub)):
        raw_rows.append(expand(row, rhs))
        row_specs.append(("ub", i))
    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None and up is not None:
            unit = [ZERO] * ncols
            unit[col_of[j][0]] = ONE
            raw_rows.append((unit, up - lo))
            row_specs.append(("bnd", j))

    nslack = sum(1 for kind, _ in row_specs if kind != "eq")
    width = ncols + nslack
    a_std: list[list[Fraction]] = []
    b_std: list[Fraction] = []
    row_sign: list[int] = []
    # Slack crash basis: a row whose slack keeps its +1 after the sign
    # normalisation starts with that slack basic; the others need an
    # artificial column.
    crash: list[int | None] = []
    scol = ncols
    for (kind, _), (coeffs, rhs) in zip(row_specs, raw_rows):
        row = list(coeffs) + [ZERO] * nslack
        start = None
        if kind != "eq":
            row[scol] = ONE
            start = scol
            scol += 1
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            row_sign.append(-1)
            start = None
        else:
            row_sign.append(1)
        a_std.append(row)
        b_std.append(rhs)
        crash.append(start)

    cost_std = [ZERO] * width
    for j in range(n):
        kind, _ = var_map[j]
        c0, c1 = col_of[j]
        cj = lp.objective[j]
        if kind == "negshift":
            cost_std[c0] -= cj
        else:
            cost_std[c0] += cj
            if c1 is not None:
                cost_std[c1] -= cj
    const_term = sum(lp.objective[j] * var_map[j][1]
                     for j in range(n) if var_map[j][0] != "split")

    status, point, y, value_std, pivots = _simplex(a_std, b_std, crash, cost_std, ncols)
    if status == "infeasible":
        # The phase-1 duals combine the constraints to the zero row while
        # the same combination of right-hand sides is negative: 0 <= gap < 0.
        dual_eq, dual_ub, mu, nu, gap = _fold_duals(
            lp, y, row_specs, row_sign, [ZERO] * n)
        _check(gap < 0, "Farkas gap is negative")
        cert = {"dual_eq": dual_eq, "dual_ub": dual_ub,
                "upper_multipliers": mu, "lower_multipliers": nu, "gap": gap}
        return LPSolution(status="infeasible", certificate=cert, pivots=pivots)
    if status == "unbounded":
        # A direction maps like a point whose offsets are all 0.
        ray = _map_point(point, [(kind, ZERO) for kind, _ in var_map], col_of, n)
        _check_ray(lp, ray)
        return LPSolution(status="unbounded", ray=ray, pivots=pivots)

    x = _map_point(point, var_map, col_of, n)
    value = sum(c * v for c, v in zip(lp.objective, x))
    _check(value == value_std + const_term, "objective value identity")
    dual_eq, dual_ub, mu, nu, dual_value = _fold_duals(
        lp, y, row_specs, row_sign, lp.objective)
    _check(dual_value == value, "strong duality")
    _check_primal(lp, x)
    return LPSolution(status="optimal", value=value, x=x,
                      dual_eq=dual_eq, dual_ub=dual_ub,
                      reduced_costs=[u - d for u, d in zip(mu, nu)],
                      pivots=pivots)


def _simplex(rows: list[list[Fraction]], rhs: list[Fraction],
             crash: list[int | None], cost: list[Fraction], ncols: int):
    """Two-phase simplex: max cost . s  s.t.  rows s = rhs >= 0, s >= 0.

    Columns past ``ncols`` are slacks; ``crash[i]`` is row i's starting
    slack, or None for an artificial.  Returns (status, point, y, value,
    pivots): the optimal vertex or the ray (its slack entries scaled), and
    the row duals, the Farkas multipliers if infeasible.  Row i is scaled
    to integers by s_i, the lcm of its structural and rhs denominators,
    with its slack or artificial kept at +-1: a positive column rescaling,
    so Bland's path is unchanged.
    """
    width = len(cost)
    scales = [math.lcm(b.denominator, *(v.denominator for v in row[:ncols]))
              for row, b in zip(rows, rhs)]
    art_rows = [i for i, start in enumerate(crash) if start is None]
    nart = len(art_rows)
    tab_rows = [[v.numerator * (s // v.denominator) for v in row[:ncols]] +
                [int(v) for v in row[ncols:]] + [0] * nart +
                [b.numerator * (s // b.denominator)]
                for row, b, s in zip(rows, rhs, scales)]
    basis = list(crash)
    for k, i in enumerate(art_rows):
        tab_rows[i][width + k] = 1
        basis[i] = width + k
    start = list(basis)           # row i's unit column: B^-1 builds up there
    tab = _Tableau(tab_rows, basis)

    def duals(obj, cost, scale):
        # Read off the tableau: column start[i] has reduced cost c_j - y_i/s_i
        # (obj and cost are scaled by ``scale``, obj over den as well).
        return [Fraction(s * (cost[j] * tab.den - obj[j]), scale * tab.den)
                for s, j in zip(scales, start)]

    # --- phase 1: the artificial of row i costs -1/s_i -------------------
    scale1 = math.lcm(*(scales[i] for i in art_rows))
    cost1 = [0] * width + [-(scale1 // scales[i]) for i in art_rows]
    obj1 = _reduced_objective(cost1, tab, width + nart)
    # obj1[-1] is the artificials' total.  At 0 the crash basis is already
    # phase-1 optimal (every oracle LP: its equality rows are homogeneous).
    # Entering candidates exclude the artificial columns: once an
    # artificial leaves the basis it stays out.
    if obj1[-1] != 0:
        _check(tab.run(obj1, width) is None, "the phase-1 objective is bounded")
    if obj1[-1] > 0:
        return "infeasible", None, duals(obj1, cost1, scale1), None, tab.pivots

    # Drive the artificials, all at level 0, out of the basis.  With the
    # dependent equality rows gone and phase 1 feasible, the standard-form
    # matrix has full row rank, so every such row has a pivot column.
    for i in range(len(tab.rows)):
        if tab.basis[i] >= width:
            col = next((j for j in range(width) if tab.rows[i][j] != 0), None)
            _check(col is not None, "an artificial variable leaves the basis")
            tab.pivot(i, col, obj1)

    # --- phase 2: the artificial columns stay, barred from entering ------
    scale2 = math.lcm(*(c.denominator for c in cost))
    cost2 = [c.numerator * (scale2 // c.denominator) for c in cost] + [0] * nart
    obj2 = _reduced_objective(cost2, tab, width + nart)
    unb = tab.run(obj2, width)
    if unb is not None:
        # Scaled slack i is s_i times the slack: scale the ray back by s_i.
        f = next(s for row, s in zip(rows, scales) if row[unb]) \
            if unb >= ncols else 1
        ray = [ZERO] * width
        ray[unb] = ONE
        for row, b in zip(tab.rows, tab.basis):
            ray[b] = Fraction(-f * row[unb], tab.den)
        return "unbounded", ray, None, None, tab.pivots
    x_std = [ZERO] * width
    for row, b in zip(tab.rows, tab.basis):
        x_std[b] = Fraction(row[-1], tab.den)
    return ("optimal", x_std, duals(obj2, cost2, scale2),
            Fraction(-obj2[-1], scale2 * tab.den), tab.pivots)


def _map_point(x_std: list[Fraction], var_map, col_of, n: int) -> list[Fraction]:
    out = []
    for j in range(n):
        kind, val = var_map[j]
        c0, c1 = col_of[j]
        if kind == "shift":
            out.append(val + x_std[c0])
        elif kind == "negshift":
            out.append(val - x_std[c0])
        else:
            out.append(x_std[c0] - x_std[c1])
    return out


def _check_primal(lp: LinearProgram, x: list[Fraction]) -> None:
    _check(all(sum(a * v for a, v in zip(row, x) if a and v) == rhs
               for row, rhs in zip(lp.a_eq, lp.b_eq)), "primal equality rows")
    _check(all(sum(a * v for a, v in zip(row, x) if a and v) <= rhs
               for row, rhs in zip(lp.a_ub, lp.b_ub)), "primal inequality rows")
    _check(all((lo is None or v >= lo) and (up is None or v <= up)
               for v, lo, up in zip(x, lp.lower, lp.upper)), "primal bounds")


def _check_ray(lp: LinearProgram, d: list[Fraction]) -> None:
    _check(all(sum(a * v for a, v in zip(row, d)) == 0 for row in lp.a_eq),
           "ray keeps the equality rows")
    _check(all(sum(a * v for a, v in zip(row, d)) <= 0 for row in lp.a_ub),
           "ray keeps the inequality rows")
    _check(all((lo is None or v >= 0) and (up is None or v <= 0)
               for v, lo, up in zip(d, lp.lower, lp.upper)), "ray keeps the bounds")
    _check(sum(c * v for c, v in zip(lp.objective, d)) > 0, "ray improves")


def _fold_duals(lp, y, row_specs, row_sign, objective):
    """Fold standard-form duals y back onto the original constraints.

    Bound multipliers mu (upper) and nu (lower) absorb what the row duals
    leave of ``objective``, so that A^T dual + mu - nu = objective.
    Returns (dual_eq, dual_ub, mu, nu, dual objective value) after checking
    the multipliers' signs exactly.  Equality rows absent from
    ``row_specs`` get dual 0.
    """
    dual_eq = [ZERO] * len(lp.a_eq)
    dual_ub = [ZERO] * len(lp.a_ub)
    mu = [ZERO] * lp.n   # upper-bound duals
    nu = [ZERO] * lp.n   # lower-bound duals
    for i, ((kind, idx), s) in enumerate(zip(row_specs, row_sign)):
        yi = y[i] * s
        if kind == "eq":
            dual_eq[idx] = yi
        elif kind == "ub":
            dual_ub[idx] = yi
        else:
            mu[idx] += yi
    g = [ZERO] * lp.n    # A^T dual, over the nonzero duals and coefficients
    for row, d in zip(lp.a_eq + lp.a_ub, dual_eq + dual_ub):
        if d:
            for j, a in enumerate(row):
                if a:
                    g[j] += d * a
    for j in range(lp.n):
        r = objective[j] - g[j] - mu[j]
        if r > 0:
            mu[j] += r
        else:
            nu[j] = -r
    _check(all(v >= 0 for v in dual_ub), "inequality duals are nonnegative")
    _check(all(v >= 0 for v in mu) and all(v >= 0 for v in nu),
           "bound multipliers are nonnegative")
    _check(all((mu[j] == 0 or lp.upper[j] is not None) and
               (nu[j] == 0 or lp.lower[j] is not None) for j in range(lp.n)),
           "bound multipliers sit on finite bounds")
    value = sum(d * b for d, b in zip(dual_eq, lp.b_eq)) + \
        sum(d * b for d, b in zip(dual_ub, lp.b_ub)) + \
        sum(mu[j] * lp.upper[j] for j in range(lp.n) if mu[j] != 0) - \
        sum(nu[j] * lp.lower[j] for j in range(lp.n) if nu[j] != 0)
    return dual_eq, dual_ub, mu, nu, value
