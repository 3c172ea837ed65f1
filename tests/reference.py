"""Reference implementations the tests compare the library against.

The row and generator builders are written as explicit profile loops:
they are the hand-rolled builders the library used before it built every
row family on ``icmech.belief``; the property tests require the library's
rows to equal them entry for entry and in order, or, for the IC rows of
``value_rows_loop`` and ``interim_rows_alloc``, to span the same rows.
``w_generators`` and
``orthogonal_projection`` are the generic Gram-matrix projection that the
closed-form additivity residuals are checked against.  ``rank`` and
``solve_linear_system`` are the Fraction Gauss-Jordan elimination that the
integer reduction in ``icmech.numerics`` must agree with; the other
references here use them, so they share no elimination with the library.
``RationalLP`` is an LP in dense Fraction rows, the rational LP that
``icmech.numerics.LinearProgram``'s integer rows stand for; the tests
write their LPs in it, ``integer_lp`` converts one the way the solver
did before its callers built the integer form themselves, and
``rational`` reads an integer LP back.  ``ic_lp`` and ``transport_lp``
are the oracle's and the transport criterion's LPs as the library wrote
them in Fractions (``value_rows_dense``, ``rho``, ``v_hat``, ``lift`` and
the Fraction marginals), whose conversion the LPs built from pi's
integers must equal; ``dense`` spells out integer LP rows, and
``marginal_rows`` are the marginal indicator rows.
``enumerate_vertices`` is a brute-force LP oracle for cross-checking the
simplex, and ``simplex`` is a two-phase primal Fraction tableau with Bland's
rule, explicit bound rows and the duals recovered by a second elimination,
whose status and optimal value the bounded dual simplex in
``icmech.numerics`` must reproduce (where the reference finds no optimum,
the engine raises).  ``fold_duals`` and ``check_primal`` are the result checks of
``solve_lp`` redone in Fractions over the LP's rational rows; the integer
checks over the LP's integer rows must give the same multipliers, values
and verdicts.  ``best_matching_enumerate`` tries every bijection, the oracle
for the assignment LP behind ``match_your_opponent``.  ``conditional``
divides pi by its marginals, independently of ``icmech.belief``, whose
one belief table is pi's integer slices; ``spans`` is the spanning test
over those Fraction beliefs, whose verdict, coefficients and witnesses
``icmech.ic.spans``, solving over the integer slices, must reproduce;
``spans_all_slices`` is that integer test as the library ran it before
it solved over pi's basis slices only: each target solved over every
slice by ``span_coefficients``, with the free variables 0, through
``icmech.numerics.solve_linear_system``;
``orthogonality_rows`` builds the transport criterion's update rows in
Fractions, whose count ``icmech.profit.transport_criterion`` reads off
the integer slices; ``interim`` multiplies the beliefs with a
mechanism's own-type slices, and
``check_ic`` is the IC check over those Fraction tables, which the
integer one in ``icmech.ic`` must reproduce field by field;
``check_ic_n`` is the allocation IC check over Fraction interim win
probabilities, which ``icmech.nalloc.check_ic_n`` must reproduce; and
``support_is_acyclic`` is the union-find cycle test whose verdict the
decomposition's pruning of a support must reproduce.
``joint_marginals`` is ``JointDist``'s validation and marginals in
Fractions, and ``expectation`` the Fraction sum of pi times the values:
``icmech.core`` now computes both from pi's integers over one
denominator.  ``parse_rational`` reads one file entry through
``Fraction(str)`` alone, as the loaders did before they read the plain
forms as two ints.
``random_transport_extreme`` and ``sample_ic_combination`` sample IC
mechanisms under independence from transportation-polytope extreme points,
``sample_ic_vertex`` samples a vertex of any distribution's IC polytope
through the oracle's LP, and ``independent_counterpart`` is the product of
a distribution's marginals, for the property sweeps.
"""

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from icmech.core import (Mechanism, PreconditionError, SchemaError, TypeSpace,
                         constant_array, product_dist, slices, two_agent)
from icmech.ic import ICReport, SpanningVerdict, Violation
from icmech.numerics import (LinearProgram, basis_rows, integer_row, require,
                             solve_linear_system as solve_integer_system)
from icmech.oracle import _ic_optimum, _value

ZERO = Fraction(0)
ONE = Fraction(1)


def _echelon(rows):
    """Gauss-Jordan over Fractions on a copy of ``rows``: (reduced rows,
    pivot columns)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
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
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return mat, pivots


def rank(rows):
    """Exact rank: the number of Gauss-Jordan pivots.  Entries are taken
    as Fractions, so int rows are eliminated exactly too."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    return len(_echelon(rows)[1])


def solve_linear_system(a, b):
    """The solution of ``a x = b`` with every free variable 0, read off the
    reduced echelon form, or None when a pivot falls in the rhs column."""
    n = len(a[0]) if a else 0
    red, pivots = _echelon([list(row) + [rhs] for row, rhs in zip(a, b)])
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, col in enumerate(pivots):
        x[col] = red[i][n]
    return x


def joint_marginals(space, p):
    """The marginals of the Fraction array p, once it passes the checks
    of ``icmech.core.JointDist``, made in Fractions: for an array of pi's
    shape, the same ``SchemaError`` as ``JointDist.from_fractions``."""
    p = np.asarray(p, dtype=object)
    if p.shape != space.shape:
        raise SchemaError(f"pi has shape {p.shape}, expected {space.shape}")
    for v in p.reshape(-1):
        if not isinstance(v, Fraction):
            raise SchemaError("pi entries must be exact rationals")
        if v < 0:
            raise SchemaError("pi entries must be nonnegative")
    if sum(p.reshape(-1), ZERO) != 1:
        raise SchemaError("pi entries must sum to exactly 1")
    margs = [p.sum(axis=tuple(a for a in range(p.ndim) if a != i)) if p.ndim > 1
             else p.copy() for i in range(p.ndim)]
    for agent, m in zip(space.agents, margs):
        if any(v == 0 for v in m):
            raise SchemaError(f"agent {agent!r} has a zero-probability type; "
                              "drop it from the instance")
    return margs


def expectation(dist, values):
    """E[values] under pi: the Fraction sum of pi times the values."""
    return sum((dist.p * values).reshape(-1), ZERO)


def parse_rational(text, where):
    """One string entry of an instance file read by ``Fraction(str)``,
    with the loaders' error text for what it refuses."""
    try:
        return Fraction(text)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise SchemaError(f"{where}: bad rational {text!r} ({e})") from None


def conditional(dist, i):
    """Two agents: row a is the belief over the other agent's types held by
    type a of agent i, pi's entries divided by the marginal."""
    mat = dist.p if i == 0 else dist.p.T
    marg = dist.marginal(i)
    return np.array([[mat[a, s] / marg[a] for s in range(mat.shape[1])]
                     for a in range(mat.shape[0])], dtype=object)


def spans(pi, pi_tilde):
    """``icmech.ic.spans`` in Fractions: each ``conditional`` belief under
    pi_tilde solved as a combination of the ``conditional`` beliefs under
    pi."""
    two_agent(pi.space)
    if pi.space != pi_tilde.space:
        raise PreconditionError("spanning requires a common type space")
    space = pi.space
    coefficients, witnesses = {}, []
    for i, agent in enumerate(space.agents):
        gens = conditional(pi, i)
        for t, target in zip(space.types[i], conditional(pi_tilde, i)):
            coeffs = solve_linear_system(gens.T.tolist(), list(target))
            if coeffs is None:
                witnesses.append((agent, t))
            else:
                coefficients[(agent, t)] = dict(zip(space.types[i], coeffs))
    ok = not witnesses
    return SpanningVerdict(spans=ok, coefficients=coefficients if ok else {},
                           witnesses=witnesses)


def span_coefficients(vector, generators):
    """Coefficients c with ``vector = sum c_j * generators[j]``, or None:
    the library's exact solve over every generator, free variables 0."""
    if not generators:
        return [] if all(v == 0 for v in vector) else None
    a = [[generators[j][i] for j in range(len(generators))]
         for i in range(len(vector))]
    return solve_integer_system(a, list(vector))


def spans_all_slices(pi, pi_tilde):
    """``icmech.ic.spans`` solving each target over all of pi's integer
    slices, not only its basis slices, and rescaling by the slice sums."""
    two_agent(pi.space)
    if pi.space != pi_tilde.space:
        raise PreconditionError("spanning requires a common type space")
    space = pi.space
    coefficients, witnesses = {}, []
    for i, agent in enumerate(space.agents):
        gens, targets = slices(pi.nums, i), slices(pi_tilde.nums, i)
        masses = gens.sum(axis=1)
        for t, target in zip(space.types[i], targets):
            coeffs = span_coefficients(list(target), list(gens))
            if coeffs is None:
                witnesses.append((agent, t))
            else:
                total = sum(target)
                coefficients[(agent, t)] = {
                    tt: c * mass / total
                    for tt, c, mass in zip(space.types[i], coeffs, masses)}
    ok = not witnesses
    return SpanningVerdict(spans=ok, coefficients=coefficients if ok else {},
                           witnesses=witnesses)


def interim(dist, i, arr):
    """Agent i's k x k table E[arr(b, theta_-i) | theta_i = a] (two
    agents), true type a by row and report b by column: the conditional
    beliefs times the transpose of arr's own-type slices."""
    slices = np.moveaxis(arr, i, 0).reshape(arr.shape[i], -1)
    return conditional(dist, i).dot(slices.T)


def check_ic(x, dist):
    """``icmech.ic.check_ic`` in Fractions: the three routes read the
    ``interim`` tables, E[x] and the marginals' prior expectations."""
    two_agent(dist.space)
    if x.space != dist.space:
        raise PreconditionError("mechanism and distribution type spaces differ")
    space = dist.space
    tables = [interim(dist, i, x.x) for i in range(2)]
    ev = expectation(dist, x.x)

    violations = [Violation(space.agents[i], space.types[i][a], space.types[i][b], gain)
                  for i, held in enumerate((tables[0], 1 - tables[1]))
                  for (a, b), gain in np.ndenumerate(held - held.diagonal()[:, None])
                  if gain > 0]
    raw_ok = not violations

    equalities_ok = all((table == ev).all() for table in tables)

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


def check_ic_n(x, inst):
    """``icmech.nalloc.check_ic_n`` in Fractions: type b's interim win
    probability is the sum of pi * x_i over the profiles where agent i has
    type b, divided by b's marginal under pi."""
    if x.space != inst.space:
        raise PreconditionError("mechanism and instance type spaces differ")
    totals = list(sum(x.x).reshape(-1))
    if inst.disposal and max(totals) > 1:
        raise PreconditionError("mechanism infeasible: total exceeds 1")
    if not inst.disposal and any(t != 1 for t in totals):
        raise PreconditionError(
            "mechanism infeasible: the good must always be allocated")
    interim: dict = {}
    violations = []
    for i, agent in enumerate(inst.space.agents):
        arr = inst.dist.p * x.x[i]
        sums = np.moveaxis(arr, i, 0).reshape(arr.shape[i], -1).sum(axis=1)
        vals = list(sums / inst.dist.marginal(i))
        labels = inst.space.types[i]
        for label, val in zip(labels, vals):
            interim[(agent, label)] = val
        violations += [Violation(agent, label, label2, val2 - val)
                       for label, val in zip(labels, vals)
                       for label2, val2 in zip(labels, vals) if val2 > val]
    return ICReport(verdict=not violations, violations=violations,
                    interim=interim)

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


def rho(dist):
    """pi / (pi_L (x) pi_R), cell by cell in Fractions."""
    return dist.p / np.multiply.outer(*dist.marginals())


def v_hat(inst):
    """The transport criterion's objective v pi / (pi_L (x) pi_R), cell by
    cell in Fractions."""
    return inst.v * rho(inst.dist)


def lift(shape, i, b, vec):
    """``icmech.belief.lift`` as a dense flat row: ``vec`` on the profiles
    where agent i's type is at position b, 0 elsewhere."""
    row = [0] * prod(shape)
    inner = prod(shape[i + 1:])
    cells = [(outer * shape[i] + b) * inner + k
             for outer in range(prod(shape[:i])) for k in range(inner)]
    for cell, v in zip(cells, vec):
        row[cell] = v
    return row


def marginal_rows(shape):
    """Row (i, t), agent outer: the indicator of the profiles where agent i
    has type t, so that its product with a flat q is q's marginal mass there."""
    return [lift(shape, i, t, [ONE] * (prod(shape) // k))
            for i, k in enumerate(shape) for t in range(k)]


def dense(rows, width):
    """LP rows (s, nonzeros (j, a), b) of ``icmech.numerics.LinearProgram``
    as dense Fraction rows a / s over ``width`` columns and their
    right-hand sides b / s: (rows, rhs)."""
    out = []
    for s, nz, _ in rows:
        row = [ZERO] * width
        for j, a in nz:
            row[j] += Fraction(a, s)
        out.append(row)
    return out, [Fraction(b, s) for s, _, b in rows]


def value_rows_dense(dist):
    """``icmech.belief.value_rows`` as dense integer rows, the builder the
    library used before it made the LP's nonzeros directly: agent i's row
    for basis type a (``dist.basis(i)``) and report b is the lifted slice
    of pi's numerators at a, over their gcd with D, on the blocks the
    agent's share enters, and minus its sum on those blocks' common
    values."""
    shape = dist.space.shape
    blocks = len(shape) - 1
    rows = []
    for i in range(len(shape)):
        basis = dist.basis(i)
        lines = slices(dist.nums, i)
        on = [i in (k, blocks) for k in range(blocks)]
        for a in basis:
            g = math.gcd(dist.den, *lines[a])
            line = [v // g for v in lines[a]]
            mass = sum(line)
            for b in range(shape[i]):
                if i == blocks == 1 and b in basis:
                    continue
                share = lift(shape, i, b, line)
                off = [0] * len(share)
                rows.append([v for k in on for v in (share if k else off)] +
                            [-mass if k else 0 for k in on])
    return rows


def ic_lp(dist, objective):
    """The oracle's LP over the IC polytope as the library wrote it in
    Fractions: the dense value rows, = 0, over the first n - 1 agents'
    shares and one common value per block, the ``objective`` over the
    shares, and with more than one block one sum row <= 1 per profile."""
    size = dist.space.n_profiles
    blocks = dist.space.n_agents - 1
    rows = value_rows_dense(dist)
    sums = [[int(k % size == flat) for k in range(blocks * size)] + [0] * blocks
            for flat in range(size)] if blocks > 1 else []
    nvars = blocks * (size + 1)
    return RationalLP(objective=list(objective) + [ZERO] * blocks,
                      a_eq=rows, b_eq=[ZERO] * len(rows),
                      a_ub=sums, b_ub=[ONE] * len(sums),
                      lower=[ZERO] * nvars, upper=[ONE] * nvars)


def transport_lp(inst):
    """The transport criterion's LP as the library wrote it in Fractions:
    the rows of ``icmech.belief.transport_rows``, each a basis type's row
    of ``rho`` lifted on one slice, with the Fraction marginal as its rhs,
    and the objective ``v_hat``."""
    dist = inst.dist
    shape = dist.space.shape
    bases = [dist.basis(i) for i in range(2)]
    last = shape[1] - 1
    skip = {last - s for s in basis_rows(list(dist.nums[bases[0], ::-1].T))}
    rows, rhs = [], []
    for i, basis in enumerate(bases):
        lines = np.moveaxis(rho(dist), i, 0)
        marg = dist.marginal(i)
        for a in basis:
            for t in range(shape[i]):
                if i == 0 or t not in skip:
                    rows.append(lift(shape, i, t, lines[a]))
                    rhs.append(marg[t])
    return RationalLP(objective=list(v_hat(inst).reshape(-1)), a_eq=rows, b_eq=rhs,
                      upper=[ONE] * dist.space.n_profiles)


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


def value_rows_loop(dist):
    """The IC rows of n agents under any pi, for every true type a and
    report b, over the first n - 1 agents' shares and one common value per
    block: sum over profiles theta with theta_i = b of
    pi(theta with theta_i = a) x_k(theta), minus pi_i(a) c_k, on block
    k = i for agent i < n - 1 and on every block for the last agent."""
    shape = dist.space.shape
    n = len(shape)
    size = dist.space.n_profiles
    rows = []
    for agent in range(n):
        blocks = [agent] if agent < n - 1 else list(range(n - 1))
        for a in range(shape[agent]):
            weight = sum(dist.p[idx] for idx in np.ndindex(*shape) if idx[agent] == a)
            for b in range(shape[agent]):
                row = [ZERO] * ((n - 1) * (size + 1))
                for flat, idx in enumerate(np.ndindex(*shape)):
                    if idx[agent] == b:
                        own = idx[:agent] + (a,) + idx[agent + 1:]
                        for k in blocks:
                            row[k * size + flat] = dist.p[own]
                for k in blocks:
                    row[(n - 1) * size + k] = -weight
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


def support_is_acyclic(cells):
    """Union-find over the bipartite row/column graph whose edges are
    ``cells``: the support holds a cycle iff some cell joins a row and a
    column that earlier cells already connect."""
    parent = {}

    def root(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for i, j in cells:
        a, b = root(("r", i)), root(("c", j))
        if a == b:
            return False
        parent[a] = b
    return True


@dataclass
class RationalLP:
    """max objective . x  s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  lower <=
    x <= upper, in dense Fraction rows: the rational LP that
    ``icmech.numerics.LinearProgram`` stands for, its lower bounds 0 by
    default.  ``integer_lp`` converts it, and ``rational`` reads a
    ``LinearProgram`` back."""

    objective: list
    a_eq: list = field(default_factory=list)
    b_eq: list = field(default_factory=list)
    a_ub: list = field(default_factory=list)
    b_ub: list = field(default_factory=list)
    lower: list | None = None
    upper: list | None = None

    def __post_init__(self):
        if self.lower is None:
            self.lower = [ZERO] * len(self.objective)

    @property
    def n(self) -> int:
        return len(self.objective)


def sparse_row(row, rhs):
    """[row | rhs] scaled to integers by s, the lcm of its denominators:
    (s, the nonzeros (j, a), the rhs)."""
    nz = [(j, Fraction(a)) for j, a in enumerate(row) if a]
    rhs = Fraction(rhs)
    s = math.lcm(rhs.denominator, *(a.denominator for _, a in nz))
    return (s, [(j, a.numerator * (s // a.denominator)) for j, a in nz],
            rhs.numerator * (s // rhs.denominator))


def integer_lp(lp: RationalLP) -> LinearProgram:
    """``lp`` in the integer form, converted the way the solver once did
    it from the rational rows: each row [row | rhs] over the lcm of its
    denominators (``sparse_row``), the objective over the lcm of its
    denominators, and the bounds over the lcm of theirs."""
    n = lp.n
    unit, bounds = integer_row([Fraction(v) for v in [*lp.lower, *lp.upper]])
    scale, cost = integer_row([Fraction(v) for v in lp.objective])
    return LinearProgram(objective=cost, scale=scale,
                         a_eq=[sparse_row(*r) for r in zip(lp.a_eq, lp.b_eq)],
                         a_ub=[sparse_row(*r) for r in zip(lp.a_ub, lp.b_ub)],
                         lower=bounds[:n], upper=bounds[n:], unit=unit)


def rational(lp: LinearProgram) -> RationalLP:
    """The rational LP that the integer ``lp`` stands for."""
    a_eq, b_eq = dense(lp.a_eq, lp.n)
    a_ub, b_ub = dense(lp.a_ub, lp.n)
    return RationalLP(objective=[Fraction(c, lp.scale) for c in lp.objective],
                      a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                      lower=[Fraction(v, lp.unit) for v in lp.lower],
                      upper=[Fraction(v, lp.unit) for v in lp.upper])


def enumerate_vertices(lp: RationalLP) -> list[list[Fraction]]:
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
        unit = [ZERO] * n
        unit[j] = ONE
        optional.append((unit, lp.lower[j]))
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
        ok = ok and all(lp.lower[j] <= x[j] <= lp.upper[j] for j in range(n))
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


def simplex(rows, cost, bounds):
    """``icmech.numerics._simplex``'s contract over Fractions, solved by a
    two-phase primal simplex with Bland's rule: row i's implied unit
    column is written out as column len(cost) + i, the columns fixed at 0
    are left out, a row with a negative rhs is negated, and every column j
    with an upper bound gets an explicit row s_j + t_j = bounds[j], its
    slack t_j starting basic.  Returns (status, result), result None or
    ``_simplex``'s (point, y, value, den, (pivots, 0)), the point as pairs
    (t, d) and y and value as integers over den; only the duals of
    ``rows`` come back: the caller folds the bound multipliers from the
    residual."""
    nrows = len(rows)
    rows = [[*row[:-1], *(int(k == i) for k in range(nrows)), row[-1]]
            for i, row in enumerate(rows)]
    cost = [*cost, *[0] * nrows]
    width = len(cost)
    cols = [j for j in range(width) if bounds[j] != 0]
    pos = {j: k for k, j in enumerate(cols)}
    boxed = [j for j in cols if bounds[j] is not None]
    ncols = len(cols) + len(boxed)
    signs = [-1 if row[-1] < 0 else 1 for row in rows]
    a = [[Fraction(sign * row[j]) for j in cols] + [ZERO] * len(boxed)
         for sign, row in zip(signs, rows)]
    rhs = [Fraction(sign * row[-1]) for sign, row in zip(signs, rows)]
    # Row i's unit column starts basic where it is a slack left at +1.
    crash = [pos.get(width - nrows + i) if sign > 0 else None
             for i, sign in enumerate(signs)]
    for k, j in enumerate(boxed):
        bound = [ZERO] * ncols
        bound[pos[j]] = bound[len(cols) + k] = ONE
        a.append(bound)
        rhs.append(Fraction(bounds[j]))
        crash.append(len(cols) + k)
    status, point, y, value, pivots = _bland_simplex(
        a, rhs, crash, [cost[j] for j in cols] + [ZERO] * len(boxed))
    if point is None:
        return status, None
    point = [point[pos[j]] if j in pos else ZERO for j in range(width - nrows)]
    point = [(v.numerator, v.denominator) for v in point]
    y = [sign * v for sign, v in zip(signs, y)]
    den = math.lcm(value.denominator, *(v.denominator for v in y))
    return status, (point, [v.numerator * (den // v.denominator) for v in y],
                    value.numerator * (den // value.denominator), den, (pivots, 0))


def _bland_simplex(rows, rhs, crash, cost):
    """Two-phase Bland simplex: max cost . s  s.t.  rows s = rhs >= 0,
    s >= 0; duals by eliminating the final basis matrix.  A row that the
    others combine to keeps its artificial basic at 0 after phase 1; it is
    dropped there, and its dual is 0."""
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
        return "infeasible", None, None, None, tab.pivots
    kept = []
    for i in range(len(tab.rows)):
        if tab.basis[i] >= width:
            col = next((j for j in range(width) if tab.rows[i][j] != 0), None)
            if col is None:
                continue
            tab.pivot(i, col, obj1)
        kept.append(i)
    tab.rows = [tab.rows[i][:width] + [tab.rows[i][-1]] for i in kept]
    tab.basis = [tab.basis[i] for i in kept]
    obj2 = _reduced_objective(cost, tab, width)
    require(tab.run(obj2, width) is None, "exact LP", "the LP is bounded")
    x_std = [ZERO] * width
    for row, b in zip(tab.rows, tab.basis):
        x_std[b] = row[-1]
    y = [ZERO] * len(rows)
    for i, v in zip(kept, _basis_duals([pristine[i] for i in kept], cost, tab.basis)):
        y[i] = v
    return "optimal", x_std, y, -obj2[-1], tab.pivots


def check_primal(lp: RationalLP, x: list[Fraction]) -> None:
    """x meets every row and bound of ``lp``, summed in Fractions."""
    require(all(sum(a * v for a, v in zip(row, x) if a and v) == rhs
                for row, rhs in zip(lp.a_eq, lp.b_eq)), "exact LP",
            "primal equality rows")
    require(all(sum(a * v for a, v in zip(row, x) if a and v) <= rhs
                for row, rhs in zip(lp.a_ub, lp.b_ub)), "exact LP",
            "primal inequality rows")
    require(all(lo <= v <= up for v, lo, up in zip(x, lp.lower, lp.upper)),
            "exact LP", "primal bounds")


def fold_duals(lp, duals):
    """``icmech.numerics._fold_duals`` over the LP's rational rows in
    Fractions: the duals of the LP's rows, equality rows first, split into
    (dual_eq, dual_ub); the bound multipliers mu (upper) and nu (lower)
    with A^T dual + mu - nu = objective; and the dual objective value.
    Returns (dual_eq, dual_ub, mu, nu, value)."""
    dual_eq, dual_ub = duals[:len(lp.a_eq)], duals[len(lp.a_eq):]
    mu = [ZERO] * lp.n
    nu = [ZERO] * lp.n
    g = [ZERO] * lp.n
    for row, d in zip(lp.a_eq + lp.a_ub, dual_eq + dual_ub):
        if d:
            for j, a in enumerate(row):
                if a:
                    g[j] += d * a
    for j in range(lp.n):
        r = lp.objective[j] - g[j]
        if r > 0:
            mu[j] = r
        else:
            nu[j] = -r
    require(all(v >= 0 for v in dual_ub), "exact LP",
            "inequality duals are nonnegative")
    require(all(v >= 0 for v in mu) and all(v >= 0 for v in nu), "exact LP",
            "bound multipliers are nonnegative")
    value = sum(d * b for d, b in zip(dual_eq, lp.b_eq)) + \
        sum(d * b for d, b in zip(dual_ub, lp.b_ub)) + \
        sum(mu[j] * lp.upper[j] for j in range(lp.n) if mu[j] != 0) - \
        sum(nu[j] * lp.lower[j] for j in range(lp.n) if nu[j] != 0)
    return dual_eq, dual_ub, mu, nu, value


def recording_fold(fold, folds: list):
    """Wrap ``icmech.numerics._fold_duals``: each call appends (its result,
    ``fold_duals`` of the same duals over the rational LP, with mu - nu as
    the reduced costs) to ``folds``.  The fold is given the tableau duals
    y / den; row i of the tableau is the LP's row i, (s_i, nonzeros, b_i),
    times s_i unit and the cost the objective times scale unit, so the
    rational row's dual is y_i s_i / (den scale)."""
    def wrapper(lp, y, den):
        got = fold(lp, y, den)
        duals = [Fraction(v * s, den * lp.scale)
                 for v, (s, _, _) in zip(y, lp.a_eq + lp.a_ub)]
        dual_eq, dual_ub, mu, nu, value = fold_duals(rational(lp), duals)
        folds.append((got, (dual_eq, dual_ub, [u - d for u, d in zip(mu, nu)], value)))
        return got
    return wrapper


def random_transport_extreme(rng: random.Random, ml, mr) -> np.ndarray:
    """Random extreme point of the fixed-marginals polytope: greedy fill
    along independently shuffled row and column orders."""
    m, n = len(ml), len(mr)
    rows = list(range(m))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    remaining_r = list(ml)
    remaining_c = list(mr)
    out = constant_array((m, n), 0)
    ri = ci = 0
    while ri < m and ci < n:
        i, j = rows[ri], cols[ci]
        amount = min(remaining_r[i], remaining_c[j])
        out[i, j] = amount
        remaining_r[i] -= amount
        remaining_c[j] -= amount
        if remaining_r[i] == 0:
            ri += 1
        if remaining_c[j] == 0:
            ci += 1
    return out


def sample_ic_combination(space: TypeSpace, ml, mr,
                          rng: random.Random) -> Mechanism:
    """IC mechanism under independence as a nonnegative combination of
    three extreme-point density ratios, scaled into [0, 1]."""
    outer = np.multiply.outer(np.asarray(ml, dtype=object),
                              np.asarray(mr, dtype=object))
    combo = constant_array(space.shape, 0)
    for _ in range(3):
        gamma = Fraction(rng.randint(0, 4), 4)
        combo = combo + random_transport_extreme(rng, ml, mr) / outer * gamma
    top = max(combo[idx] for idx in np.ndindex(*space.shape))
    if top > 1:
        combo = combo / top
    mech = Mechanism(space, combo)
    dist = product_dist(space, [np.asarray(ml, dtype=object),
                                np.asarray(mr, dtype=object)])
    require(check_ic(mech, dist).verdict, "reference",
            "the combination of extreme points is IC")
    return mech


def sample_ic_vertex(dist, rng: random.Random) -> Mechanism:
    """A vertex of the IC polytope: optimize a random objective over it."""
    scale, weights = integer_row([_value(rng) for _ in range(dist.space.n_profiles)])
    x = _ic_optimum(dist, weights, scale)[1]
    mech = Mechanism(dist.space, np.array(x, dtype=object).reshape(dist.space.shape))
    require(check_ic(mech, dist).verdict, "reference", "the LP optimum is IC")
    return mech


def independent_counterpart(dist):
    """Product of a two-agent distribution's marginals (same type space)."""
    two_agent(dist.space)
    return product_dist(dist.space, dist.marginals())
