"""Exact rational linear algebra and linear programming.

Everything in this module is exact rational arithmetic (``Fraction``s, or
ints over exact denominators), so feasibility, optimality, rank and
orthogonality are decided by exact equality, not by tolerances.  One
fraction-free integer row reduction (``_reduce``) serves ``basis_rows``
(behind ``JointDist.basis``, and so every rank of pi) and
``solve_linear_system`` (behind ``ic.spans``).
It and the simplex pivot share one elimination step (``_eliminate``):
q row - f prow with h = gcd(q, f) cancelled first, the classic
cancellation of exact rational arithmetic (Henrici, 1956; Knuth, *TAOCP*
vol. 2, 4.5.1), so the gcd division that follows has less to remove.

The LP solver is one bounded dual simplex on a condensed integer tableau.
Every variable is boxed and is exactly one tableau column: x_j = lo_j +
span_j z_j with 0 <= z_j <= 1 and span_j = up - lo.  Each equality row
gets an artificial column fixed at 0 and each <= row its slack, bounded
below only; these unit columns are the starting basis, and it is dual
feasible once every column of positive cost sits at its upper bound, so
no phase 1 is needed.  The tableau stores only the nonbasic columns (the
condensed form of Koberstein's bounded dual simplex): a basic column is
a unit column, and a pivot gives the leaving variable the entering one's
slot, so a row is as long as the LP has variables, whatever the number
of rows.  A variable at its upper bound is complemented (Dantzig's
upper-bounding technique), so every nonbasic column sits at 0.  The
leaving row is the largest bound violation, and after as many consecutive
degenerate steps as the tableau has rows, the violated row with the
lowest basic variable (Bland), which rules out cycling and keeps every
answer and every pivot count deterministic.  The ratio test enters the
least ratio, the lowest variable index on ties, and flips each boxed
column that it passes while the slope of the dual objective stays
positive: the bound-flipping long step of Fourer (*Notes on the dual
simplex method*, 1994); Koberstein (*The dual simplex method*, 2005) is
the reference design.  An equality row that earlier rows combine to needs no presolve:
its artificial stays basic at 0.  Each tableau row holds Python ints over
its own denominator in lowest terms; a pivot updates only the rows (and
the objective row) whose pivot-slot entry is nonzero, and in each it
cancels gcd(q, f) and subtracts only the pivot row's nonzeros.  Lowest
terms make each row's integers unique, so neither the cancellation nor
the condensed storage changes a stored integer, a pivot or a flip of the
dense tableau.  The duals are read off the final objective row, where the
starting unit columns carry B^-1 (0 where a unit column is basic), as
integers over the objective row's one denominator.

``solve_lp`` returns the exact optimum or raises: every LP the package
builds has one (the principal's problem contains the ex-ante optimal
constant, the transport problem the independent coupling, and the
assignment and maximin LPs are feasible), and a boxed LP cannot be
unbounded, so an infeasible LP is a failed check, not an outcome.  Every
optimum is checked exactly before it is returned (primal feasibility,
strong duality, the signs of the duals and bound multipliers, the
objective identity), and a failed check raises ``RuntimeError``, also
under ``python -O``.  The primal rows, the bounds, the objective value
and the dual fold are checked in integers over the LP's own rows, never
over the tableau, so the checks stay independent of the substitution and
the unit columns; the fold sums A^T dual over the rows' nonzeros, over
the objective row's denominator, and decides the signs of the duals, the
reduced costs and the dual value in integers.

A ``LinearProgram`` is integers, as its builders read them off pi, and
``solve_lp`` stays in integers: the tableau's point comes back as pairs
(t, d) and is put over one common denominator (``LPSolution.den`` and
``.nums``), and ``Fraction``s are made only for the returned
``LPSolution``, one per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)


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
# Exact elimination: row bases and linear systems
# ---------------------------------------------------------------------------

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


def _reduce(rows: Sequence[Sequence[int]]) -> list[tuple[int, int, list[int]]]:
    """(index, leading column, reduced row) of each integer row that no
    earlier rows combine to.

    Fraction-free: each row is reduced against the rows kept so far by
    cross-multiplication (``_eliminate``, the pivot's step), dividing out
    the gcd after every step, so it is
    0 at every earlier kept row's lead and the kept rows' leads are
    distinct.  A row augmented with its rhs that is inconsistent with
    earlier ones (its left side dependent, its rhs not) is kept, leading
    in the rhs column.
    """
    kept: list[tuple[int, int, list[int]]] = []
    nonzeros: list[list[tuple[int, int]]] = []    # each kept row's (j, a)
    for i, vec in enumerate(rows):
        for (_, lead, prow), nz in zip(kept, nonzeros):
            f = vec[lead]
            if f:
                vec = _eliminate(vec, prow[lead], f, nz)[0]
                g = math.gcd(*vec)
                if g > 1:
                    vec = [a // g for a in vec]
        lead = next((c for c, a in enumerate(vec) if a), None)
        if lead is not None:
            kept.append((i, lead, vec))
            nonzeros.append([(j, a) for j, a in enumerate(vec) if a])
    return kept


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

Row = tuple[int, list[tuple[int, int]], int]


@dataclass
class LinearProgram:
    """max (objective / scale) . x  s.t.  the rows of a_eq (=) and of a_ub
    (<=),  lower / unit <= x <= upper / unit, all in integers.

    A row is a triple (s, nz, b), the scale s > 0, the nonzeros nz as
    (column j, a) and the rhs b: the rational row sum_j (a / s) x_j = b / s
    (or <= b / s).  Every variable is boxed, its lower bound 0 by default.
    On construction each scale is divided by the gcd it shares with its
    integers, so s is the lcm of the rational row's denominators and every
    dual is the rational row's.  ``bench/tracing.py`` reads ``a_eq``,
    ``a_ub`` (a triple per row), ``lower``, ``upper`` and ``n``.
    """

    objective: list[int]
    scale: int = 1
    a_eq: list[Row] = field(default_factory=list)
    a_ub: list[Row] = field(default_factory=list)
    lower: list[int] | None = None
    upper: list[int] | None = None
    unit: int = 1

    def __post_init__(self):
        n = len(self.objective)
        if self.lower is None:
            self.lower = [0] * n
        for name, bounds in (("lower", self.lower), ("upper", self.upper)):
            if bounds is None or any(b is None for b in bounds):
                raise ValueError(f"every variable needs a finite {name} bound")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound length mismatch")
        if any(lo > up for lo, up in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")
        if self.scale <= 0 or self.unit <= 0:
            raise ValueError("scales must be positive")
        self.a_eq, self.a_ub = ([_lowest_row(row, n) for row in rows]
                                for rows in (self.a_eq, self.a_ub))
        self.objective, self.scale = _lowest_terms(self.objective, self.scale)
        bounds, self.unit = _lowest_terms([*self.lower, *self.upper], self.unit)
        self.lower, self.upper = bounds[:n], bounds[n:]

    @property
    def n(self) -> int:
        return len(self.objective)


def _lowest_row(row: Row, n: int) -> Row:
    """A row triple over n columns, checked, with s its lcm of denominators."""
    s, nz, b = row
    cols, vals = zip(*nz) if nz else ((), ())
    if s <= 0:
        raise ValueError("scales must be positive")
    if cols and (min(cols) < 0 or max(cols) >= n):
        raise ValueError("column index out of range")
    g = math.gcd(s, b, *vals)
    return row if g == 1 else (s // g, [(j, a // g) for j, a in nz], b // g)


@dataclass
class LPSolution:
    """The exact optimum of an LP.

    ``x`` satisfies every constraint exactly and ``value == objective .
    x``; it is also ``nums`` over the common denominator ``den``, the
    integers the solver checked, for callers that go on in integers.
    ``dual_eq``/``dual_ub`` together with the per-variable
    ``reduced_costs`` form a dual solution whose objective equals
    ``value`` (strong duality, verified inside the solver).

    ``pivots`` counts the dual simplex pivots, and ``flips`` the bound
    flips of its ratio test, each of which moves a variable to its other
    bound without a pivot.  The pricing rule is deterministic, so both are
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
    den: int
    nums: list[int]


class _Tableau:
    """Condensed bounded dual simplex tableau over Python ints.

    Only the nonbasic columns are stored (the condensed tableau of
    Koberstein's bounded dual simplex): slot k of every row holds the
    column of variable ``nonbasic[k]``, and the unit column of row i's
    basic variable ``basis[i]`` is left out, so each row is ncols + 1
    integers whatever the number of rows.  Row i is ``rows[i] / dens[i]``
    over its own denominator, in lowest terms; with its unit entry, which
    is ``dens[i]``, it is the row of the dense tableau, so every stored
    integer is the dense tableau's.  A pivot on slot k of row r makes the
    leaving variable the entering one's slot: row r becomes the row over
    its pivot entry q, with the leaving variable's unit entry in slot k.
    Every other row, the objective row included, with a nonzero entry f
    in slot k takes that slot as 0 (the leaving variable's entry) and
    becomes (q row - f prow) / h over its denominator times q / h,
    h = gcd(q, f), subtracting only at the pivot row's nonzeros, and
    divides the row and its denominator by their remaining gcd.  The
    integers stay as small as the rational entries allow, every division
    is exact, and the result is the same lowest-terms row as without the
    cancellation.  The objective row passed along is ``obj / objden``.
    Variable j is bounded by ``bounds[j]``: 1 for a structural variable,
    None for a slack (bounded below only) and 0 for an artificial, which
    is fixed at 0 and never enters.  A variable in ``flipped`` holds the
    complement bounds[j] - z of its variable z, so every nonbasic variable
    sits at 0, and the basis stays dual feasible: no nonbasic column but
    an artificial has a positive reduced cost.

    The leaving row is the one whose basic variable violates its bounds
    most, the lowest row on ties; after as many consecutive degenerate
    steps as there are rows it is the violated row with the lowest basic
    variable (Bland) until the next nondegenerate step, which rules out
    cycling.  Ties in the ratio test go to the lower variable index.
    """

    def __init__(self, rows: list[list[int]], ncols: int,
                 bounds: list[int | None]):
        self.rows = rows          # each row: ncols slots + rhs (last entry)
        self.dens = [1] * len(rows)
        self.objden = 1
        self.nonbasic = list(range(ncols))
        self.basis = list(range(ncols, ncols + len(rows)))
        self.bounds = bounds
        self.flipped: set[int] = set()
        self.pivots = 0
        self.flips = 0

    def pivot(self, r: int, k: int, obj: list[int]) -> None:
        """Pivot on row r, slot k, updating ``obj`` too: the slot's
        variable enters, and row r's basic variable takes the slot."""
        self.pivots += 1
        rows, dens = self.rows, self.dens
        prow, d = rows[r], dens[r]
        q = prow[k]
        # Row r over its own pivot entry, the leaving variable's unit entry
        # in slot k: the dense row has no common factor, so this is in
        # lowest terms already.
        if q < 0:
            prow = [-v for v in prow]
            q = -q
            d = -d
        prow[k] = d
        # Each updated row becomes (q row - f prow) / h over its
        # denominator times q / h, h = gcd(q, f), with its slot k taken as
        # the leaving variable's 0: only the pivot row's nonzeros take part
        # in the subtraction.
        nz = [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(rows):
            f = row[k]
            if f and i != r:
                row[k] = 0
                new, m = _eliminate(row, q, f, nz)
                rows[i], dens[i] = _lowest_terms(new, dens[i] * m)
        f = obj[k]
        if f:
            obj[k] = 0
            new, m = _eliminate(obj, q, f, nz)
            obj[:], self.objden = _lowest_terms(new, self.objden * m)
        rows[r], dens[r] = prow, q
        self.basis[r], self.nonbasic[k] = self.nonbasic[k], self.basis[r]

    def flip(self, k: int, obj: list[int]) -> None:
        """Substitute u - z for the nonbasic variable z of slot k, u its
        bound: negate the slot and subtract u times it from the rhs, in
        every row and in ``obj``."""
        u = self.bounds[self.nonbasic[k]]
        self.flipped ^= {self.nonbasic[k]}
        for row in self.rows:
            a = row[k]
            if a:
                row[-1] -= u * a
                row[k] = -a
        obj[-1] -= u * obj[k]
        obj[k] = -obj[k]

    def flip_basic(self, r: int) -> None:
        """Substitute u - z for the basic variable z of row r, u its bound:
        the row's rhs loses u times its unit entry, and the row is negated
        so that the unit entry is the denominator again.  No other row
        and not ``obj`` has an entry in a basic column."""
        b = self.basis[r]
        self.flipped ^= {b}
        row = self.rows[r]
        row[-1] -= self.bounds[b] * self.dens[r]
        self.rows[r] = [-v for v in row]

    def leaving(self, bland: bool) -> int | None:
        """The row whose basic variable violates its bounds most (Bland:
        the violated row with the lowest basic variable), or None."""
        leave, most, den = None, 0, 1     # the violation is most / den
        for i, (row, d, b) in enumerate(zip(self.rows, self.dens, self.basis)):
            t, u = row[-1], self.bounds[b]
            excess = -t if t < 0 else 0 if u is None else t - u * d
            if excess > 0 and (leave is None or (
                    b < self.basis[leave] if bland else excess * den > most * d)):
                leave, most, den = i, excess, d
        return leave

    def run(self, obj: list[int]) -> None:
        """Dual simplex iterations until the basis is primal feasible.  A
        violated row that no column can repair raises: the LP is
        infeasible."""
        degenerate = 0
        bounds, nonbasic = self.bounds, self.nonbasic
        while (r := self.leaving(degenerate >= len(self.rows))) is not None:
            if self.rows[r][-1] > 0:
                # Above its bound: flipped, the basic variable is below 0.
                self.flip_basic(r)
            row = self.rows[r]
            # Ratio test: the entering slot has the least ratio
            # obj[k] / row[k] over row[k] < 0, the lowest variable on ties.
            # A boxed variable that the row's violation would carry past
            # its bound is flipped instead (the long step), while the slope
            # of the dual objective stays positive.
            while True:
                enter = None
                for k, a in enumerate(row[:-1]):
                    if a < 0 and bounds[nonbasic[k]] != 0:
                        if enter is None:
                            enter = k
                            continue
                        lhs, rhs = obj[k] * row[enter], obj[enter] * a
                        if lhs < rhs or lhs == rhs and nonbasic[k] < nonbasic[enter]:
                            enter = k
                require(enter is not None, "exact LP", "the LP is feasible")
                u = bounds[nonbasic[enter]]
                if u is None or row[-1] - u * row[enter] >= 0:
                    break
                self.flips += 1
                self.flip(enter, obj)
            degenerate = degenerate + 1 if obj[enter] == 0 else 0
            self.pivot(r, enter, obj)


def _eliminate(row: list[int], q: int, f: int,
               nz: list[tuple[int, int]]) -> tuple[list[int], int]:
    """(q row - f prow) / h and q / h, h = gcd(q, f), the row prow given by
    its nonzeros (j, b).

    Cancelling h first leaves (q / h) row - (f / h) prow: no
    multiplication where q / h = 1, and a factor less for the caller's gcd
    division to find.
    """
    h = math.gcd(q, f)
    if h > 1:
        q //= h
        f //= h
    new = list(row) if q == 1 else [q * a for a in row]
    for j, b in nz:
        new[j] -= f * b
    return new, q


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
    dens = [v.denominator for v in vals]
    scale = math.lcm(*dens)
    return scale, [v.numerator * (scale // d) for v, d in zip(vals, dens)]


def solve_lp(lp: LinearProgram) -> LPSolution:
    """The exact rational optimum of an LP; deterministic for a given input.

    The solve and its checks run in integers: the bounds over ``unit``,
    each row and the objective over their own scales, the point over one
    common denominator and the duals over the final objective row's.
    ``Fraction``s are made only for the returned solution, one per entry.
    Raises ``RuntimeError`` if the LP is infeasible: every LP the package
    builds has an optimum.
    """
    # --- standard form: variable j is column j, x_j = lo_j + span_j z_j ---
    # with span_j = up - lo and 0 <= z_j <= 1 (a fixed variable's column is
    # zero), all over unit.  Row i has its own unit column, variable
    # ncols + i, which starts basic and is not stored: an artificial fixed
    # at 0 for an equality row (one that earlier rows combine to keeps it
    # basic at 0), a slack bounded below only for a <= row.  The
    # substituted row is the LP's row times s unit.
    ncols, unit, lower = lp.n, lp.unit, lp.lower
    spans = [up - lo for lo, up in zip(lower, lp.upper)]
    rows: list[list[int]] = []
    for _, nz, b in lp.a_eq + lp.a_ub:
        row = [0] * ncols + [b * unit - sum(a * lower[j] for j, a in nz)]
        for j, a in nz:
            row[j] += a * spans[j]
        rows.append(row)
    neq = len(lp.a_eq)
    bounds = [1] * ncols + [0] * neq + [None] * (len(rows) - neq)
    # The objective is objective / scale; column j costs c_j span_j times
    # scale unit.
    cost = [c * k for c, k in zip(lp.objective, spans)]

    point, y, value_std, objden, (pivots, flips) = _simplex(rows, cost, bounds)
    # z_j = t_j / d_j, so x_j is (lo_j D + span_j t_j D / d_j) over unit D,
    # D the lcm of the d_j.
    common = math.lcm(*(d for _, d in point))
    nums = [lo * common + k * t * (common // d)
            for (t, d), lo, k in zip(point, lower, spans)]
    den = unit * common
    cx = _check_primal(lp, nums, den)
    # c . x is cx / (scale den), and the tableau's value plus c . lo is
    # the same over scale unit: value_std is over objden.
    const = sum(c * lo for c, lo in zip(lp.objective, lower) if c)
    require((value_std + const * objden) * den == cx * unit * objden, "exact LP",
            "objective value identity")
    value = Fraction(cx, lp.scale * den)
    dual_eq, dual_ub, reduced, dual_value = _fold_duals(lp, y, objden)
    require(dual_value == value, "exact LP", "strong duality")
    return LPSolution(value=value, x=[Fraction(v, den) if v else ZERO for v in nums],
                      dual_eq=dual_eq, dual_ub=dual_ub, reduced_costs=reduced,
                      pivots=pivots, flips=flips, den=den, nums=nums)


def _simplex(rows: list[list[int]], cost: list[int],
             bounds: list[int | None]):
    """Bounded dual simplex: max cost . s  s.t.  [rows | I] (s, t) = rhs,
    0 <= s_j <= bounds[j] and 0 <= t_i <= bounds[len(cost) + i] (no upper
    bound where None).

    ``rows`` are integer rows over the columns of the integer ``cost``
    plus the rhs (last entry, of either sign).  Row i's unit column t_i,
    variable len(cost) + i, is implied, not given, and costs 0: the unit
    columns are the starting basis, which is dual feasible once every
    column of positive cost sits at its upper bound.  Returns (point, y,
    value, den, (pivots, flips)): the optimal vertex s as integer pairs
    (t, d), s_j = t / d with d > 0, and the duals of ``rows`` and the
    optimal value as integers over the one denominator den > 0; raises if
    there is none.
    """
    ncols = len(cost)
    tab = _Tableau([list(row) for row in rows], ncols, bounds)
    obj = [*cost, 0]
    for k, c in enumerate(cost):
        if c > 0:
            tab.flip(k, obj)
    tab.run(obj)
    # A flipped variable holds u - z.
    point = [(bounds[j] if j in tab.flipped else 0, 1) for j in range(ncols)]
    for row, d, b in zip(tab.rows, tab.dens, tab.basis):
        if b < ncols:
            t = row[-1]
            point[b] = (bounds[b] * d - t if b in tab.flipped else t, d)
    # The duals are read off the objective row: t_i costs 0 and has
    # reduced cost -y_i (0 while basic), negated where it is flipped.
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    y = [0 if k is None else obj[k] if j in tab.flipped else -obj[k]
         for j, k in ((j, slot.get(j)) for j in range(ncols, ncols + len(rows)))]
    return point, y, -obj[-1], tab.objden, (tab.pivots, tab.flips)


def _check_primal(lp: LinearProgram, nums: list[int], den: int) -> int:
    """x = nums / den meets the LP's integer rows and bounds: sum a X ==
    b den (<= for the inequality rows) and lo den <= X unit <= up den.
    Returns the objective's integers times X."""
    require(all(sum(a * nums[j] for j, a in nz) == b * den for _, nz, b in lp.a_eq),
            "exact LP", "primal equality rows")
    require(all(sum(a * nums[j] for j, a in nz) <= b * den for _, nz, b in lp.a_ub),
            "exact LP", "primal inequality rows")
    unit = lp.unit
    require(all(lo * den <= v * unit <= up * den
                for v, lo, up in zip(nums, lp.lower, lp.upper)),
            "exact LP", "primal bounds")
    return sum(c * v for c, v in zip(lp.objective, nums) if c)


def _fold_duals(lp: LinearProgram, y: list[int], den: int):
    """Turn the tableau duals y / den of the LP's rows, equality rows
    first, into (dual_eq, dual_ub) and the reduced costs r = objective -
    A^T dual, which the bound multipliers absorb: r_j is the upper bound's
    where positive and minus the lower bound's where negative.  Returns
    (dual_eq, dual_ub, reduced costs, dual objective value) after checking
    the inequality duals' signs exactly.

    Everything is decided in integers over the LP's integer rows and the
    one denominator C = den scale.  Row i of the tableau is its LP row
    times s unit and the cost the objective times scale unit, so the
    row's dual is y_i s / C: the multiplier y_i / C on its nonzeros.  So
    A^T dual is g / C with g = sum y_i a_i, the reduced cost r_j is
    (c_j den - g_j) / C and the dual value has the denominator C unit.
    ``Fraction``s are made only for the duals, the reduced costs and the
    value.
    """
    neq = len(lp.a_eq)
    require(all(v >= 0 for v in y[neq:]), "exact LP",
            "inequality duals are nonnegative")
    rows = lp.a_eq + lp.a_ub
    g = [0] * lp.n     # C A^T dual
    gb = 0             # C dual . b
    for yi, (_, nz, b) in zip(y, rows):
        if yi:
            for j, a in nz:
                g[j] += yi * a
            gb += yi * b
    rden = den * lp.scale
    duals = [Fraction(yi * s, rden) if yi else ZERO
             for yi, (s, _, _) in zip(y, rows)]
    reduced = [ZERO] * lp.n
    value = gb * lp.unit
    for j, (c, gj, lo, up) in enumerate(zip(lp.objective, g, lp.lower, lp.upper)):
        r = c * den - gj
        if r:
            reduced[j] = Fraction(r, rden)
            value += r * (up if r > 0 else lo)
    return duals[:neq], duals[neq:], reduced, Fraction(value, rden * lp.unit)
