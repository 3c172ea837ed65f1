"""The belief-space structure shared by the IC, transport and additivity code.

An agent's belief at type a over the other agents' types is pi's slice
at a, pi on the profiles where the agent has type a, divided by that
slice's sum.  So pi's integer numerators ``dist.nums`` over ``dist.den``,
read slice by slice (``core.slices``), are the one belief table, and
``JointDist.basis`` reduces it once per agent: the IC rows, the transport
rows and the spanning test (``ic.spans``) read its basis types, and the
transport criterion's count of update rows reads the slices.  ``lift``
places a slice, or a vector over the other agents' profiles, on one of an
agent's own-type slices, as the nonzeros of a flat row, for any number of
agents, and every row family is built from it.

The IC rows "interim expectation equals ex-ante value" are read off pi
itself, for any number of agents: agent i's rows only for the types in an
echelon basis of its pi-slices (``dist.basis(i)``), with one common
interim value c_k per share block as one more unknown (``value_rows``).
For two agents the rows are independent and there are
rank(pi) * (m + n) - rank(pi)^2 of them.  ``transport_rows`` are the rows
of the transport criterion: with q's marginals fixed, q is
correlation-orthogonal to pi iff every belief update has zero mean on
every own-type slice of q, which pi's basis types say in fewer rows, the
marginals included.  Both are ``numerics.LinearProgram`` rows (scale,
nonzeros, rhs), made from pi's integers with no ``Fraction``.

For two agents the same structure gives the additivity subspace
U = col(pi) (x) R^n + R^m (x) row(pi), whose orthogonal complement is
col(pi)^perp (x) row(pi)^perp; ``kronecker_residual`` projects onto that
complement with r-dimensional bases of pi's column and row spaces,
r = rank(pi).  It works on integer arrays, w's numerators and pi's, with
a fraction-free Gram-Schmidt basis of primitive integer vectors and one
common denominator, and makes ``Fraction``s only for the result.
``difference_residual`` is its closed form for the splits
u_i(theta_i) - u_n(theta_n) of n independent agents, built in
``Fraction``s from ``project_axis``, a projection along one axis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .core import JointDist, slices, two_agent
from .numerics import Row, basis_rows, integer_row


def lift(shape: tuple[int, ...], i: int, b: int, vec) -> list[tuple[int, object]]:
    """The nonzeros (cell, v), flat over profiles (row-major), of the row
    that carries ``vec`` on the slice where agent i's type is at position
    b and is zero elsewhere.

    ``vec`` runs over the other agents' type profiles in row-major order.
    """
    inner = prod(shape[i + 1:])
    cells = ((outer * shape[i] + b) * inner + k
             for outer in range(prod(shape[:i])) for k in range(inner))
    return [(cell, v) for cell, v in zip(cells, vec) if v]


def value_rows(dist: JointDist) -> list[Row]:
    """IC rows of n agents over the first n - 1 agents' shares x_k, block by
    block and flat over profiles, then one common interim value c_k per
    block, taken from pi and each agent's basis types ``dist.basis(i)``.
    Agent i < n - 1 has sum pi(a, .) x_i(b, .) - pi_i(a) c_i = 0 on its own
    block, for a in its basis and every report b.  The last agent holds
    1 - sum_k x_k, so its value is 1 - sum_k c_k and its rows are the same
    row summed over every block and every c_k.  Every row of a type outside
    a basis combines from the basis types' rows.

    For two agents (one block, agent R's share 1 - x, as in the two-option
    problem) the rows are independent once R's rows for reports s in its
    basis T are left out: sum_b pi(b, t) L(a, b) = sum_s pi(a, s) R(t, s)
    for each a in L's basis A and t in T, and the minor pi[A, T] is
    nonsingular, so these r^2 relations give R(t, s) for s in T.  With no
    block (one agent) every row is empty.

    The rows are over the scale 1 with rhs 0, read off pi's numerators P
    over D: a row is P's slice at a and minus its sum, divided by their
    gcd with D, the row as rationals over the lcm of its denominators."""
    shape = dist.space.shape
    blocks = len(shape) - 1
    size = prod(shape)
    rows = []
    for i in range(len(shape)):
        basis = dist.basis(i)
        lines = slices(dist.nums, i)
        on = [k for k in range(blocks) if i in (k, blocks)]
        for a in basis:
            g = gcd(dist.den, *lines[a])
            line = [v // g for v in lines[a]]
            mass = sum(line)
            for b in range(shape[i]):
                if i == blocks == 1 and b in basis:
                    continue
                share = lift(shape, i, b, line)
                rows.append((1, [(k * size + j, v) for k in on for j, v in share] +
                             [(blocks * size + k, -mass) for k in on], 0))
    return rows


def transport_rows(dist: JointDist) -> list[Row]:
    """Independent rows cutting out the q of the transport criterion: pi's
    marginals, and zero mean of every belief update pi(t | s) - pi_L(t) on
    every own-type slice.  With rho = pi / (pi_L (x) pi_R) and the basis
    types A = ``dist.basis(0)``, T = ``dist.basis(1)``: agent L's
    sum_s rho(a, s) q(t, s) = pi_L(t)
    for a in A and every t, then agent R's sum_t rho(t, b) q(t, s) =
    pi_R(s) for b in T and every s outside S, the first r columns from the
    last with pi[A, S] nonsingular.  At rank 1, rho = 1 and these are the
    marginal rows without R's last.

    Other types' rows combine from the basis types', and L's rows summed
    over all types with weights pi_L give the marginal rows.  R's rows for
    s in S follow from the rest: sum_t rho(t, b) L_a(t) =
    sum_s rho(a, s) R_b(s) for a in A and b in T, with L_a and R_b the
    left-hand sides, and pi[A, S] is nonsingular.  In pi's integers, P over
    D with slice sums P_i (own) and P_o, rho(a, s) = P(a, s) D / (P_i(a)
    P_o(s)) and pi_i(t) = P_i(t) / D: a's rows are over P_i(a) lcm(P_o) D."""
    shape = dist.space.shape
    den = dist.den
    bases = (dist.basis(0), dist.basis(1))
    last = shape[1] - 1
    skip = {last - s for s in basis_rows(list(dist.nums[bases[0], ::-1].T))}
    rows = []
    for i, basis in enumerate(bases):
        own, other = dist.marginal_nums[i], dist.marginal_nums[1 - i]
        common = lcm(*other)
        lines = slices(dist.nums, i)
        for a in basis:
            scale = own[a] * common * den
            line = [v * den * den * (common // o) for v, o in zip(lines[a], other)]
            for t in range(shape[i]):
                if i == 0 or t not in skip:
                    rows.append((scale, lift(shape, i, t, line), own[t] * own[a] * common))
    return rows


def _orthogonal_basis(vectors) -> list[tuple[np.ndarray, int]]:
    """Fraction-free Gram-Schmidt over integer vectors: an orthogonal basis
    of span(vectors), each vector primitive (the gcd of its entries is 1),
    with its squared norm; dependent vectors drop out.

    v <- |u|^2 v - (u . v) u removes v's component along u and keeps v
    integer; dividing by the gcd of v's entries keeps them small."""
    basis: list[tuple[np.ndarray, int]] = []
    for v in vectors:
        for u, norm in basis:
            dot_uv = u.dot(v)
            if dot_uv:
                v = norm * v - dot_uv * u
        g = gcd(*v)
        if g:
            v = v // g
            basis.append((v, v.dot(v)))
    return basis


def slice_sums(arr: np.ndarray, i: int) -> np.ndarray:
    """Entry s: the sum of ``arr`` over the profiles where agent i has type s."""
    return slices(arr, i).sum(axis=1)


def project_axis(arr: np.ndarray, axis: int, basis) -> np.ndarray:
    """Project each fibre of ``arr`` along ``axis`` onto the span of
    ``basis``, (vector, squared norm) pairs of orthogonal vectors."""
    moved = np.moveaxis(arr, axis, -1)
    proj = np.zeros_like(moved)
    for u, norm in basis:
        proj = proj + np.multiply.outer(moved.dot(u) / norm, u)
    return np.moveaxis(proj, -1, axis)


def _project_out(arr: np.ndarray, basis) -> tuple[int, np.ndarray]:
    """(L, L (arr - Q arr)), with Q projecting each row of the integer
    array ``arr`` onto the span of ``basis``, orthogonal integer (vector,
    squared norm) pairs; L, the lcm of the squared norms, keeps the result
    integer."""
    scale = lcm(*(norm for _, norm in basis))
    out = arr * scale
    for u, norm in basis:
        out -= np.multiply.outer(arr.dot(u) * (scale // norm), u)
    return scale, out


def kronecker_residual(dist: JointDist, w: np.ndarray) -> np.ndarray:
    """w_hat = (I - Q_col) w (I - Q_row): the component of the m x n array
    w orthogonal to U = col(pi) (x) R^n + R^m (x) row(pi).

    Q_col and Q_row are the orthogonal projectors onto pi's column and row
    spaces, built from rank(pi) basis vectors.  The work is done in
    integers: w's numerators over one denominator, and pi's, which span
    the same spaces as pi.  The result is checked exactly: every row of
    w_hat is orthogonal to row(pi) and every column to col(pi).
    """
    two_agent(dist.space)
    shape = dist.space.shape
    pi = dist.nums
    den, resid = integer_row(np.reshape(w, -1))
    resid = np.array(resid, dtype=object).reshape(shape)
    col_scale, resid = _project_out(resid.T, _orthogonal_basis(pi.T))
    row_scale, resid = _project_out(resid.T, _orthogonal_basis(pi))
    if any(pi.T.dot(resid).reshape(-1)) or any(resid.dot(pi.T).reshape(-1)):
        raise RuntimeError("additivity residual is not orthogonal to the "
                           "row and column spaces of pi")
    den *= col_scale * row_scale
    return np.array([Fraction(v, den) for v in resid.reshape(-1)],
                    dtype=object).reshape(shape)


def difference_residual(dist: JointDist, t: np.ndarray) -> np.ndarray:
    """The component of t = (t_1, ..., t_{n-1}), shaped (n - 1,) + pi's
    shape, orthogonal to W = {(pi * (a_i(theta_i) - b(theta_n)))_i}, for a
    product distribution pi of n >= 2 agents.

    With P_k projecting along axis k onto the marginal p_k, it is
    eps_i = (I - P_Ai) t_i - (P_B - P_pi) sum_j t_j / (n - 1), where
    P_Ai = prod_{k != i} P_k, P_B = prod_{k != n} P_k, P_pi = prod_k P_k;
    for n = 2 it is the Kronecker residual (I - P_1)(I - P_2) t_1.  Checked
    exactly: pi * eps_i sums to 0 on each slice of theta_i, and
    pi * sum_i eps_i on each slice of theta_n.
    """
    n = dist.space.n_agents

    def onto(arr, skip):
        for k, p in enumerate(dist.marginals()):
            if k != skip:
                arr = project_axis(arr, k, [(p, p.dot(p))])
        return arr

    shared = onto(sum(t), n - 1)
    shared = (shared - onto(shared, None)) / (n - 1)
    eps = np.array([ti - onto(ti, i) - shared for i, ti in enumerate(t)],
                   dtype=object)
    if any(any(slice_sums(dist.p * e, i)) for i, e in enumerate(eps)) or \
            any(slice_sums(dist.p * eps.sum(axis=0), n - 1)):
        raise RuntimeError("difference residual is not orthogonal to the "
                           "pi-weighted splits")
    return eps
