"""Exact rational linear algebra and linear programming.

Everything in this module is exact rational arithmetic (``Fraction``s, or
ints over exact denominators), so feasibility, optimality, rank and
orthogonality are decided by exact equality, not by tolerances.  One
fraction-free integer row reduction (``_reduce``) serves ``rank``,
``basis_rows``, ``solve_linear_system`` (and so ``span_coefficients``)
and the LP presolve.  The LP solver is a two-phase bounded-variable
tableau simplex.  Pricing enters the largest reduced cost (Dantzig) and
falls back to Bland's lowest-index rule after as many consecutive
degenerate pivots as the tableau has rows, which rules out cycling and
keeps every answer and every pivot count deterministic.

Every variable has a finite lower bound and is exactly one tableau
column: x_j = lo_j + span_j z_j with z_j >= 0, where span_j is up - lo
for a variable with a finite upper bound and 1 otherwise.

Speed comes from doing less exact work, never from tolerances.  A
variable with both bounds finite becomes a column bounded by 1 with no
row of its own (Dantzig's upper-bounding technique): the ratio test also
stops where a basic boxed variable reaches 1 or the entering one reaches
its own bound, and a variable at its upper bound is complemented.  The
presolve drops equality rows that earlier rows combine to, after that
substitution.  Inequality rows start with their slack basic (a slack
crash basis), so only equality rows and rows with a negative right-hand
side carry an artificial, and phase 1 is skipped when that start is
already feasible, as it is for every LP over the IC polytope, whose
equality rows are homogeneous.  Each tableau row holds
Python ints over its own denominator in lowest terms, and a pivot updates
only the rows whose pivot-column entry is nonzero.  The duals are read
off the final objective row, where the starting unit columns carry
B^-1.

``solve_lp`` returns the exact optimum or raises: every LP the package
builds has one (the principal's problem contains the ex-ante optimal
constant, the transport problem the independent coupling, and the
assignment and maximin LPs are bounded and feasible), so an infeasible
or unbounded LP is a failed check, not an outcome.  Every optimum is
checked exactly before it is returned (primal feasibility, strong
duality, the signs of the duals and bound multipliers, the objective
identity), and a failed check raises ``RuntimeError``, also under
``python -O``.  The primal rows and the dual fold are checked in integers
over the LP's own rows, each scaled to integers once, never over the
tableau, so the checks stay independent of the substitution, the
presolve and the slacks.
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
# Exact elimination: rank, linear systems, span tests
# ---------------------------------------------------------------------------

def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix (list of rows)."""
    return len(basis_rows(rows))


def basis_rows(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices, in order, of the rows that no earlier rows combine to: a
    basis of the row space of a rational matrix."""
    return [i for i, _, _ in _reduce([integer_row(row)[1] for row in rows])]


def solve_linear_system(a: Sequence[Sequence[Fraction]],
                        b: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of ``a x = b`` (free variables set to 0), or None.

    Returns None when the system is inconsistent.  The kept rows of the
    reduction have distinct leads, which are therefore the pivot columns
    of the reduced echelon form: back-substituting from the last lead
    gives the same answer as Gauss-Jordan.
    """
    n = len(a[0]) if a else 0
    x = [ZERO] * n
    reduced = _reduce([integer_row([*row, rhs])[1] for row, rhs in zip(a, b)])
    for _, lead, row in sorted(reduced, key=lambda kept: kept[1], reverse=True):
        # A lead in the rhs column means 0 == nonzero.
        if lead == n:
            return None
        x[lead] = (row[n] - sum(c * v for c, v in zip(row[lead + 1:n], x[lead + 1:])
                                if c)) / Fraction(row[lead])
    return x


def span_coefficients(vector: Sequence[Fraction],
                      generators: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """Coefficients c with ``vector = sum c_j * generators[j]``, or None."""
    if not generators:
        return [] if all(v == 0 for v in vector) else None
    a = [[generators[j][i] for j in range(len(generators))]
         for i in range(len(vector))]
    return solve_linear_system(a, list(vector))


def _reduce(rows: Sequence[Sequence[int]]) -> list[tuple[int, int, list[int]]]:
    """(index, leading column, reduced row) of each integer row that no
    earlier rows combine to.

    Fraction-free: each row is reduced against the rows kept so far by
    cross-multiplication, dividing out the gcd after every step, so it is
    0 at every earlier kept row's lead and the kept rows' leads are
    distinct.  A row augmented with its rhs that is inconsistent with
    earlier ones (its left side dependent, its rhs not) is kept, leading
    in the rhs column.
    """
    kept: list[tuple[int, int, list[int]]] = []
    for i, vec in enumerate(rows):
        for _, lead, prow in kept:
            f = vec[lead]
            if f:
                p = prow[lead]
                vec = [p * a - f * c if c else p * a for a, c in zip(vec, prow)]
                g = math.gcd(*vec)
                if g > 1:
                    vec = [a // g for a in vec]
        lead = next((c for c, a in enumerate(vec) if a), None)
        if lead is not None:
            kept.append((i, lead, vec))
    return kept


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

@dataclass
class LinearProgram:
    """max objective . x  s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  lower <= x <= upper.

    All data rational.  Every lower bound is finite (0 by default); an
    upper bound of None means unbounded above.
    """

    objective: list[Fraction]
    a_eq: list[list[Fraction]] = field(default_factory=list)
    b_eq: list[Fraction] = field(default_factory=list)
    a_ub: list[list[Fraction]] = field(default_factory=list)
    b_ub: list[Fraction] = field(default_factory=list)
    lower: list[Fraction] | None = None
    upper: list[Fraction | None] | None = None

    def __post_init__(self):
        n = len(self.objective)
        if self.lower is None:
            self.lower = [ZERO] * n
        if self.upper is None:
            self.upper = [None] * n
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound length mismatch")
        if any(lo is None for lo in self.lower):
            raise ValueError("every variable needs a finite lower bound")
        for row_set, rhs in ((self.a_eq, self.b_eq), (self.a_ub, self.b_ub)):
            if len(row_set) != len(rhs):
                raise ValueError("constraint/rhs length mismatch")
            for row in row_set:
                if len(row) != n:
                    raise ValueError("constraint row length mismatch")
        for lo, up in zip(self.lower, self.upper):
            if up is not None and lo > up:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return len(self.objective)


@dataclass
class LPSolution:
    """The exact optimum of an LP.

    ``x`` satisfies every constraint exactly and ``value == objective .
    x``; ``dual_eq``/``dual_ub`` together with the per-variable
    ``reduced_costs`` form a dual solution whose objective equals
    ``value`` (strong duality, verified inside the solver).

    ``pivots`` counts the simplex pivots of every phase, drive-out
    included, and ``flips`` the steps that only move the entering variable
    to its other bound.  The pricing rule is deterministic, so both are
    functions of the input, and a change to the engine that adds pivots
    shows without timing.
    """

    value: Fraction
    x: list[Fraction]
    dual_eq: list[Fraction]
    dual_ub: list[Fraction]
    reduced_costs: list[Fraction]
    pivots: int
    flips: int


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

    def run(self, obj: list[int], ncols: int) -> None:
        """Simplex iterations until optimal; columns from ``ncols`` on
        never enter.  An entering column that no row or bound stops raises:
        the LP is unbounded."""
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
            require(num is not None, "exact LP", "the LP is bounded")
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


def integer_row(vals: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``vals`` scaled to integers by s, the lcm of its denominators: (s, ints)."""
    scale = math.lcm(*(v.denominator for v in vals))
    return scale, [v.numerator * (scale // v.denominator) for v in vals]


def solve_lp(lp: LinearProgram) -> LPSolution:
    """The exact rational optimum of an LP; deterministic for a given input.

    Raises ``RuntimeError`` if the LP is infeasible or unbounded: every LP
    the package builds has an optimum.
    """
    # --- standard form: variable j is column j, x_j = lo_j + span_j z_j ---
    # A boxed variable has span up - lo and 0 <= z_j <= 1, a boxed column
    # with no row of its own (a fixed variable's column is zero); any other
    # has span 1 and z_j >= 0.
    ncols = lp.n
    boxed = {j for j, up in enumerate(lp.upper) if up is not None}
    spans = [ONE if up is None else up - lo for lo, up in zip(lp.lower, lp.upper)]

    # The substituted row [coefficients | rhs] in integers, scaled once: by
    # the lcm of the row's denominators times ``unit``, which clears the
    # denominators of every lower bound and span.
    unit = math.lcm(*(v.denominator for v in (*lp.lower, *spans)))
    int_lower = [int(lo * unit) for lo in lp.lower]
    int_spans = [int(k * unit) for k in spans]

    def scaled(scale: int, vec: list[int]) -> tuple[int, list[int]]:
        b = vec[-1] * unit - sum(a * lo for a, lo in zip(vec, int_lower) if a)
        return scale * unit, [a * k for a, k in zip(vec, int_spans)] + [b]

    # Each original row [row | rhs] over integers, (s, ints): the tableau
    # is built from them and the result checks read them.  Equality rows
    # that earlier ones combine to, after the substitution, are left out;
    # their duals are 0.  Every <= row gets a slack, kept at +-1 when the
    # row is scaled.
    int_rows = {"eq": [integer_row([*row, rhs]) for row, rhs in zip(lp.a_eq, lp.b_eq)],
                "ub": [integer_row([*row, rhs]) for row, rhs in zip(lp.a_ub, lp.b_ub)]}
    eq = [scaled(*r) for r in int_rows["eq"]]
    kept = [i for i, _, _ in _reduce([vec for _, vec in eq])]
    ub = [scaled(*r) for r in int_rows["ub"]]
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

    cost = [c * k for c, k in zip(lp.objective, spans)] + [ZERO] * nslack
    const_term = sum(c * lo for c, lo in zip(lp.objective, lp.lower))

    point, y, value_std, (pivots, flips) = _simplex(rows, crash, cost, ncols, boxed)
    x = [lo + k * z for lo, k, z in zip(lp.lower, spans, point)]
    value = sum(c * v for c, v in zip(lp.objective, x))
    require(value == value_std + const_term, "exact LP", "objective value identity")
    dual_eq, dual_ub, mu, nu, dual_value = _fold_duals(
        lp, int_rows, y, row_specs, factor)
    require(dual_value == value, "exact LP", "strong duality")
    _check_primal(lp, int_rows, x)
    return LPSolution(value=value, x=x,
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
    Returns (point, y, value, (pivots, flips)): the optimal vertex, the
    duals of ``rows`` and the optimal value; raises if there is none.
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

    # --- phase 1: every artificial costs -1 ------------------------------
    cost1 = [0] * width + [-1] * nart
    obj1 = tab.objective(cost1)
    # obj1[-1] is the artificials' total.  At 0 the crash basis is already
    # phase-1 optimal (every oracle LP: its equality rows are homogeneous).
    # Entering candidates exclude the artificial columns: once an
    # artificial leaves the basis it stays out.
    if obj1[-1] != 0:
        tab.run(obj1, width)
    require(obj1[-1] == 0, "exact LP", "the LP is feasible")

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
    scale2, cost2 = integer_row(cost)
    cost2 += [0] * nart
    obj2 = tab.objective(cost2)
    tab.run(obj2, width)
    # A flipped column holds 1 - z.
    x_std = [ZERO] * width
    for row, d, b in zip(tab.rows, tab.dens, tab.basis):
        x_std[b] = Fraction(row[-1], d)
    x_std = [ONE - v if j in tab.flipped else v for j, v in enumerate(x_std)]
    # The duals are read off the tableau: column start[i] has reduced cost
    # c_j - y_i (obj2 and cost2 are scaled by scale2, obj2 over objden too).
    den = scale2 * tab.objden
    y = [Fraction(cost2[j] * tab.objden - obj2[j], den) for j in start]
    return x_std, y, Fraction(-obj2[-1], den), (tab.pivots, tab.flips)


def _check_primal(lp: LinearProgram, int_rows, x: list[Fraction]) -> None:
    """x meets the LP's integer rows (s, ints) of ``integer_row``: over
    x's common denominator D, sum a X == b D (<= for ``a_ub`` rows)."""
    den = math.lcm(*(v.denominator for v in x))
    xs = [(j, v.numerator * (den // v.denominator)) for j, v in enumerate(x) if v]

    def lhs(vec):
        return sum(vec[j] * v for j, v in xs)

    require(all(lhs(vec) == vec[-1] * den for _, vec in int_rows["eq"]),
            "exact LP", "primal equality rows")
    require(all(lhs(vec) <= vec[-1] * den for _, vec in int_rows["ub"]),
            "exact LP", "primal inequality rows")
    require(all(v >= lo and (up is None or v <= up)
                for v, lo, up in zip(x, lp.lower, lp.upper)), "exact LP",
            "primal bounds")


def _fold_duals(lp, int_rows, y, row_specs, factor):
    """Fold the duals y of the scaled tableau rows back onto the original
    constraints (row i's dual times ``factor[i]``).

    Bound multipliers mu (upper) and nu (lower) absorb what the row duals
    leave of the objective, so that A^T dual + mu - nu = objective.
    Returns (dual_eq, dual_ub, mu, nu, dual objective value) after checking
    the multipliers' signs exactly.  Equality rows absent from
    ``row_specs`` get dual 0.

    A^T dual and dual . b are summed in integers over the LP's integer
    rows (s, ints): a row's dual d is the multiplier d / s on its ints,
    and the multipliers are brought to one common denominator C.
    """
    duals = {"eq": [ZERO] * len(lp.a_eq), "ub": [ZERO] * len(lp.a_ub)}
    for (kind, idx), yi, f in zip(row_specs, y, factor):
        duals[kind][idx] = yi * f
    dual_eq, dual_ub = duals["eq"], duals["ub"]
    mults = [(Fraction(d.numerator, d.denominator * s), vec)
             for kind in ("eq", "ub")
             for d, (s, vec) in zip(duals[kind], int_rows[kind]) if d]
    den = math.lcm(*(m.denominator for m, _ in mults))
    g = [0] * (lp.n + 1)   # C A^T dual, and C dual . b last
    for m, vec in mults:
        f = m.numerator * (den // m.denominator)
        for j, a in enumerate(vec):
            if a:
                g[j] += f * a
    mu = [ZERO] * lp.n   # upper-bound duals
    nu = [ZERO] * lp.n   # lower-bound duals
    for j, c in enumerate(lp.objective):
        r = Fraction(c.numerator * den - g[j] * c.denominator, c.denominator * den)
        if r > 0:
            mu[j] = r
        else:
            nu[j] = -r
    require(all(v >= 0 for v in dual_ub), "exact LP",
            "inequality duals are nonnegative")
    require(all(v >= 0 for v in mu) and all(v >= 0 for v in nu), "exact LP",
            "bound multipliers are nonnegative")
    require(all(mu[j] == 0 or lp.upper[j] is not None for j in range(lp.n)),
            "exact LP", "bound multipliers sit on finite bounds")
    value = Fraction(g[-1], den) + \
        sum(mu[j] * lp.upper[j] for j in range(lp.n) if mu[j] != 0) - \
        sum(nu[j] * lp.lower[j] for j in range(lp.n) if nu[j] != 0)
    return dual_eq, dual_ub, mu, nu, value
