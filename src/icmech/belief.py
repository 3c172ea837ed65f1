"""The belief-space structure shared by the IC, transport and additivity code.

An agent's interim expectation of a mechanism is one of the agent's
beliefs over the other agents' types, taken on the slice of profiles
where the agent's own report is fixed: ``interim`` multiplies the belief
table (``beliefs``) with the mechanism's own-type slices.  ``lift``
places a belief on such a slice as a flat row, for any number of agents,
and every row family is built from it: the IC rows "interim expectation
equals ex-ante value" (``ic_rows``), the marginal rows of the transport
and assignment LPs (``marginal_rows``) and the correlation-orthogonality
rows of the transport criterion (``update_rows``).  ``distinct_nonzero``
is the order-preserving dedupe the row builders apply.

For two agents the same structure gives the additivity subspace
U = col(pi) (x) R^n + R^m (x) row(pi), whose orthogonal complement is
col(pi)^perp (x) row(pi)^perp; ``kronecker_residual`` projects onto that
complement with r-dimensional bases of pi's column and row spaces,
r = rank(pi).  ``difference_residual`` is its closed form for the splits
u_i(theta_i) - u_n(theta_n) of n independent agents.  Both residuals are
built from ``project_axis``, a projection along one axis.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable

import numpy as np

from .core import JointDist, two_agent

ZERO = Fraction(0)
ONE = Fraction(1)


def beliefs(dist: JointDist, i: int) -> list[list[Fraction]]:
    """Row a: the belief of agent i's type a over the other agents' type
    profiles, in row-major order."""
    marg = dist.marginal(i)
    return [[p / marg[a] for p in np.reshape(np.take(dist.p, a, axis=i), -1)]
            for a in range(len(marg))]


def lift(shape: tuple[int, ...], i: int, b: int, vec) -> list[Fraction]:
    """Flat row over profiles (row-major) that carries ``vec`` on the slice
    where agent i's type is at position b and is zero elsewhere.

    ``vec`` runs over the other agents' type profiles in row-major order.
    """
    inner = prod(shape[i + 1:])
    cells = ((outer * shape[i] + b) * inner + k
             for outer in range(prod(shape[:i])) for k in range(inner))
    row = [ZERO] * prod(shape)
    for cell, v in zip(cells, vec):
        row[cell] = v
    return row


def interim(dist: JointDist, i: int, arr: np.ndarray) -> np.ndarray:
    """Agent i's k x k table E[arr(b, theta_-i) | theta_i = a], true type a
    by row and report b by column: the belief table times the transpose of
    arr's own-type slices, each over the other agents' profiles."""
    slices = np.moveaxis(arr, i, 0).reshape(arr.shape[i], -1)
    return np.array(beliefs(dist, i), dtype=object).dot(slices.T)


def ic_rows(dist: JointDist, i: int) -> list[list[Fraction]]:
    """Agent i's IC rows r, with r . x = E[x(b, theta_-i) | theta_i = a] - E[x]
    for flat x, true type a outer and report b inner; zero rows and repeats
    are dropped.

    Types with equal beliefs give equal rows, so each distinct belief is
    lifted once, in first-seen order.  The lifts for different reports lie
    on disjoint slices and a belief is never zero, so no two rows left are
    equal."""
    shape = dist.space.shape
    prob = list(dist.p.reshape(-1))
    rows = ([c - p for c, p in zip(lift(shape, i, b, belief), prob)]
            for belief in distinct_nonzero(beliefs(dist, i))
            for b in range(shape[i]))
    return [row for row in rows if any(row)]


def marginal_rows(shape: tuple[int, ...]) -> list[list[Fraction]]:
    """Row (i, t), agent outer: the indicator of the profiles where agent i
    has type t, so that its product with a flat q is q's marginal mass there."""
    return [lift(shape, i, t, [ONE] * (prod(shape) // k))
            for i, k in enumerate(shape) for t in range(k)]


def updates(dist: JointDist, i: int) -> list[list[Fraction]]:
    """Row t: the other agent's belief update about agent i's type t,
    pi(t | s) - pi_i(t), over the other agent's types s (two agents)."""
    two_agent(dist.space)
    prior = dist.marginal(i)
    held = beliefs(dist, 1 - i)
    return [[belief[t] - prior[t] for belief in held]
            for t in range(len(prior))]


def update_rows(dist: JointDist, i: int):
    """Yield each update of ``updates(dist, i)`` placed on every own-type
    slice of agent i, update outer."""
    shape = dist.space.shape
    for update in updates(dist, i):
        for t in range(shape[i]):
            yield lift(shape, i, t, update)


def distinct_nonzero(rows: Iterable[list]) -> list[list]:
    """The rows in first-seen order, without zero rows and repeats.

    A row is keyed on its numerators and denominators: a rational in
    lowest terms is fixed by the two, and hashing the ints is much cheaper
    than ``Fraction.__hash__``, which takes a modular inverse per entry."""
    out: list[list] = []
    seen: set[tuple] = set()
    for row in rows:
        key = tuple([c.numerator for c in row] + [c.denominator for c in row])
        if any(row) and key not in seen:
            seen.add(key)
            out.append(row)
    return out


def dot(row, values) -> Fraction:
    """Exact dot product that skips the row's zero coefficients."""
    return sum((c * v for c, v in zip(row, values) if c), ZERO)


def _orthogonal_basis(vectors) -> list[tuple[np.ndarray, Fraction]]:
    """Exact Gram-Schmidt: an orthogonal basis of span(vectors) with each
    vector's squared norm; dependent vectors drop out."""
    basis: list[tuple[np.ndarray, Fraction]] = []
    for v in vectors:
        for u, norm in basis:
            v = v - u * (u.dot(v) / norm)
        if any(v):
            basis.append((v, v.dot(v)))
    return basis


def slice_sums(arr: np.ndarray, i: int) -> np.ndarray:
    """Entry s: the sum of ``arr`` over the profiles where agent i has type s."""
    return np.moveaxis(arr, i, 0).reshape(arr.shape[i], -1).sum(axis=1)


def project_axis(arr: np.ndarray, axis: int, basis) -> np.ndarray:
    """Project each fibre of ``arr`` along ``axis`` onto the span of
    ``basis``, (vector, squared norm) pairs of orthogonal vectors."""
    moved = np.moveaxis(arr, axis, -1)
    proj = np.zeros_like(moved)
    for u, norm in basis:
        proj = proj + np.multiply.outer(moved.dot(u) / norm, u)
    return np.moveaxis(proj, -1, axis)


def kronecker_residual(dist: JointDist, w: np.ndarray) -> np.ndarray:
    """w_hat = (I - Q_col) w (I - Q_row): the component of the m x n array
    w orthogonal to U = col(pi) (x) R^n + R^m (x) row(pi).

    Q_col and Q_row are the orthogonal projectors onto pi's column and row
    spaces, built from rank(pi) basis vectors.  The result is checked
    exactly: every row of w_hat is orthogonal to row(pi) and every column
    to col(pi).
    """
    two_agent(dist.space)
    pi = dist.p
    resid = np.array(w, dtype=object)
    resid = resid - project_axis(resid, 0, _orthogonal_basis(pi.T))
    resid = resid - project_axis(resid, 1, _orthogonal_basis(pi))
    if any(pi.T.dot(resid).reshape(-1)) or any(resid.dot(pi.T).reshape(-1)):
        raise RuntimeError("additivity residual is not orthogonal to the "
                           "row and column spaces of pi")
    return resid


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
