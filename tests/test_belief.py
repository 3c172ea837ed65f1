"""Property tests: the belief-space builders against explicit-loop references."""

import contextlib
import io
import random
import sys
from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmech import belief, cli, numerics
from icmech.belief import difference_residual, kronecker_residual
from icmech.core import (Instance, JointDist, TypeSpace, constant_array,
                         expectation, load_any, normalize, slices)
from icmech.ic import spans
from icmech.nalloc import (DISPOSAL_AGENT, AllocationInstance,
                           difference_additive)
from icmech.oracle import KINDS as ALL_KINDS, generate
from icmech.profit import support_is_acyclic, transport_criterion

from . import reference
from .reference import independent_counterpart
from .conftest import two_option
from .test_golden import _path
from .test_pools import import_every_module

KINDS = ("independent", "correlated", "full-rank", "conditionally-independent")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def two_agent_instances(draw, shape=None):
    """All four kinds, square and non-square shapes from 1x1 to 5x5 (or
    ``shape``); the independent and k-mixture kinds give rank-deficient pi."""
    shape = shape or (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return generate(draw(st.integers(0, 10**6)), shape,
                    draw(st.sampled_from(KINDS)), k=draw(st.integers(1, 3)))


@PROPERTY
@given(two_agent_instances())
def test_kronecker_residual_equals_projection_over_sections(inst):
    w = inst.v * inst.dist.p
    gens = reference.conditional_section_basis(inst.dist)
    _, resid = reference.orthogonal_projection(list(w.reshape(-1)), gens)
    assert list(kronecker_residual(inst.dist, w).reshape(-1)) == resid


@st.composite
def n_agent_allocations(draw, agents=(2, 4)):
    """Unbiased allocations of 1-4 types per agent, with and without
    disposal, as the analyses and the allocation LP see them: disposal
    instances are extended by the dummy agent, and the extended instance
    has between agents[0] and agents[1] agents."""
    disposal = draw(st.booleans())
    count = draw(st.integers(agents[0] - disposal, agents[1] - disposal))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=count,
                                max_size=count)))
    inst = generate(draw(st.integers(0, 10**6)), shape, "unbiased-n-alloc",
                    disposal=disposal)
    return inst.no_disposal


@st.composite
def additive_allocations(draw):
    """v_i = u_i(theta_i) + h(theta) on the type space and marginals of a
    generated allocation.  With disposal, h = 0 and the dummy agent's u is
    0, so its value stays 0."""
    base = draw(n_agent_allocations())
    rng = random.Random(draw(st.integers(0, 10**6)))
    shape = base.space.shape
    u = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for k in shape]
    h = np.array([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(base.space.n_profiles)],
                 dtype=object).reshape(shape)
    if base.space.agents[-1] == DISPOSAL_AGENT:
        u[-1] = [Fraction(0)]
        h = h * 0
    values = tuple(np.array([u[i][idx[i]] for idx in np.ndindex(*shape)],
                            dtype=object).reshape(shape) + h
                   for i in range(len(shape)))
    return AllocationInstance(base.space, base.marginals, values, False)


def _weighted_differences(inst):
    ref = inst.values[-1]
    return np.array([inst.dist.p * (v - ref) for v in inst.values[:-1]],
                    dtype=object)


@PROPERTY
@given(n_agent_allocations())
def test_difference_residual_equals_projection_over_w(inst):
    t = _weighted_differences(inst)
    gens, _ = reference.w_generators(inst)
    _, resid = reference.orthogonal_projection(list(t.reshape(-1)), gens)
    assert list(difference_residual(inst.dist, t).reshape(-1)) == resid


@PROPERTY
@given(additive_allocations())
def test_split_equals_span_coefficients(inst):
    gens, keys = reference.w_generators(inst)
    coeffs = reference.span_coefficients(
        list(_weighted_differences(inst).reshape(-1)), gens)
    rep = difference_additive(inst)
    assert rep.holds and coeffs is not None
    assert [(agent, label, rep.u[agent][label]) for agent, label in keys] == \
        [(agent, label, c) for (agent, label), c in zip(keys, coeffs)]


@PROPERTY
@given(n_agent_allocations(agents=(2, 2)))
def test_two_agent_difference_residual_is_kronecker(inst):
    t = _weighted_differences(inst)
    assert (difference_residual(inst.dist, t)[0]
            == kronecker_residual(inst.dist, t[0])).all()


def test_difference_residual_check_raises(inst_fx4, monkeypatch):
    # Without the marginal projections nothing is projected out, and the
    # weighted differences of fx4 are not orthogonal to W.
    monkeypatch.setattr(belief, "project_axis",
                        lambda arr, axis, basis: np.zeros_like(arr))
    with pytest.raises(RuntimeError, match="not orthogonal"):
        difference_residual(inst_fx4.dist, _weighted_differences(inst_fx4))


# Types 0 and 1 of the first agent share a belief; under the diagonal pi
# the two agents' IC rows coincide.
SHARED_BELIEF = two_option(TypeSpace(("l", "r"), ((0, 1, 2), (0, 1))),
                           pi=[["1/10", "1/5"], ["1/10", "1/5"], ["3/10", "1/10"]],
                           vL=[["0", "0"]] * 3)
DIAGONAL = two_option(TypeSpace(("l", "r"), ((0, 1, 2), (0, 1, 2))),
                      pi=[["1/3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]],
                      vL=[["0", "0", "0"]] * 3)


@st.composite
def sparse_dists(draw, shape=None):
    """pi with zero cells: weights 0-3 on an m x n grid, m and n from 1 to
    5 (or ``shape``), with the cells (k mod m, k mod n) made positive so
    that every type keeps a positive marginal."""
    m, n = shape or (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    weights = draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n))
    for k in range(max(m, n)):
        weights[k % m * n + k % n] = max(weights[k % m * n + k % n], 1)
    total = sum(weights)
    pi = np.array([Fraction(w, total) for w in weights], dtype=object)
    return JointDist.from_fractions(
        TypeSpace(("l", "r"), (tuple(range(m)), tuple(range(n)))), pi.reshape(m, n))


def zero_objective(dist):
    """The two-option instance on ``dist`` with v = 0."""
    zero = constant_array(dist.space.shape, 0)
    return Instance(dist.space, dist, normalize(zero, zero, dist))


@st.composite
def same_shape_pairs(draw):
    """An ordered pair of distributions of one shape, generated or sparse;
    the second is at times the first or its independent counterpart, which
    the first spans."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    dists = st.one_of(two_agent_instances(shape).map(lambda inst: inst.dist),
                      sparse_dists(shape))
    first = draw(dists)
    second = draw(st.one_of(
        dists, st.sampled_from([first, independent_counterpart(first)])))
    return first, second


@PROPERTY
@given(st.one_of(two_agent_instances(), sparse_dists().map(zero_objective)))
@example(SHARED_BELIEF)
@example(DIAGONAL)
def test_orthogonality_rows_equal_loop_builder(inst):
    # The transport criterion counts the update rows without building them.
    assert transport_criterion(inst).orthogonality_rows == \
        len(reference.orthogonality_rows(inst.dist))


@PROPERTY
@given(same_shape_pairs())
@example((SHARED_BELIEF.dist, independent_counterpart(SHARED_BELIEF.dist)))
@example((independent_counterpart(DIAGONAL.dist), DIAGONAL.dist))
def test_spans_equals_fraction_reference(pair):
    # Solving over pi's integer slices and rescaling gives the verdict,
    # coefficients and witnesses of the Fraction beliefs.
    got, expected = spans(*pair), reference.spans(*pair)
    assert got.spans == expected.spans
    assert got.coefficients == expected.coefficients
    assert all(type(c) is Fraction for row in got.coefficients.values()
               for c in row.values())
    assert got.witnesses == expected.witnesses


@st.composite
def generated_pairs(draw):
    """Two distributions of one shape, 1x1 to 5x5, from every ``generate``
    kind, the allocation kind's product pi included; the second is at
    times the first or its independent counterpart, which the first spans."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    dists = st.builds(lambda seed, kind, k: generate(seed, shape, kind, k=k).dist,
                      st.integers(0, 10**6), st.sampled_from(ALL_KINDS),
                      st.integers(1, 3))
    first = draw(dists)
    second = draw(st.one_of(
        dists, st.sampled_from([first, independent_counterpart(first)])))
    return first, second


# A square and a rectangular pair that span and a pair that does not.
CI_3X4 = generate(7, (3, 4), "conditionally-independent", k=2).dist
GENERATED_PAIRS = [
    (generate(7, (3, 3), "full-rank").dist, generate(7, (3, 3), "unbiased-n-alloc").dist),
    (CI_3X4, independent_counterpart(CI_3X4)),
    (generate(7, (4, 3), "independent").dist, generate(7, (4, 3), "correlated").dist)]


def test_generated_pairs_span_and_do_not():
    assert [spans(*pair).spans for pair in GENERATED_PAIRS] == [True, True, False]


@PROPERTY
@given(generated_pairs())
@example(GENERATED_PAIRS[0])
@example(GENERATED_PAIRS[1])
@example(GENERATED_PAIRS[2])
def test_spans_over_basis_slices_equals_solve_over_all_slices(pair):
    # Solving over pi's basis slices only gives the verdict, the
    # coefficients (0 for every other type, as a Fraction) and the
    # witnesses of the solve over all of pi's slices.
    got, expected = spans(*pair), reference.spans_all_slices(*pair)
    assert got.spans == expected.spans
    assert got.coefficients == expected.coefficients
    assert all(type(c) is Fraction for row in got.coefficients.values()
               for c in row.values())
    assert got.witnesses == expected.witnesses


@pytest.mark.parametrize("command", ["oracle", "transport"])
@pytest.mark.parametrize("name", ["fx1", "fx2", "fx3", "fx5", "ci-3x4", "ci-3x4-zero"])
def test_a_query_reduces_each_agents_slices_at_most_once(monkeypatch, command, name):
    # The LP rows and the full-rank test read the basis types that
    # JointDist.basis keeps; the transport rows also reduce pi's basis rows
    # for S, reversed, once.
    import_every_module()
    calls, real = [], numerics.basis_rows

    def recording_basis_rows(rows):
        calls.append([tuple(row) for row in rows])
        return real(rows)

    for module in list(sys.modules.values()):
        if getattr(module, "basis_rows", None) is real:
            monkeypatch.setattr(module, "basis_rows", recording_basis_rows)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, _path(name)]) == 0
    dist = load_any(_path(name)).dist
    agents = [[tuple(row) for row in slices(dist.nums, i)] for i in range(2)]
    # At full rank only agent L's basis is read, to see that it is full.
    full = reference.rank(dist.nums.tolist()) == min(dist.space.shape)
    reduced = agents[:1] if full else agents
    assert sorted(rows for rows in calls if rows in agents) == sorted(reduced)
    assert len(calls) == len(reduced) + (command == "transport" and not full)


@PROPERTY
@given(st.one_of(two_agent_instances().map(lambda inst: inst.dist),
                 sparse_dists()))
@example(SHARED_BELIEF.dist)
@example(DIAGONAL.dist)
def test_value_rows_are_independent_and_cut_out_the_ic_set(dist):
    m, n = dist.space.shape
    r = reference.rank(dist.p.tolist())
    assert len(dist.basis(0)) == len(dist.basis(1)) == r
    rows = reference.dense(belief.value_rows(dist), m * n + 1)[0]
    assert reference.rank(rows) == len(rows) == m * n - (m - r) * (n - r)
    # Over (x, c) they span the same rows as the reference IC rows with
    # c = E[x], so both cut out the same x, of dimension 1 + (m - r)(n - r).
    ic = [row + [Fraction(0)] for row in reference.ic_polytope(dist)]
    ic.append(list(dist.p.reshape(-1)) + [Fraction(-1)])
    assert reference.rank(ic) == len(rows) == reference.rank(rows + ic)


@PROPERTY
@given(st.one_of(two_agent_instances().map(lambda inst: inst.dist),
                 sparse_dists()))
@example(SHARED_BELIEF.dist)
@example(DIAGONAL.dist)
def test_transport_rows_are_independent_and_cut_out_the_transport_set(dist):
    m, n = dist.space.shape
    r = reference.rank(dist.p.tolist())
    bases = (dist.basis(0), dist.basis(1))
    rows, rhs = reference.dense(belief.transport_rows(dist), m * n)
    assert reference.rank(rows) == len(rows) == len(rhs) == r * (m + n) - r * r
    # With their right-hand sides they span the same rows as the marginal
    # rows and the reference update rows, so both cut out the same q; the
    # independent coupling lies in it.
    ml, mr = dist.marginals()
    ortho = reference.orthogonality_rows(dist)
    ref = [row + [rhs_] for row, rhs_ in
           zip(reference.marginal_rows((m, n)) + ortho,
               list(ml) + list(mr) + [Fraction(0)] * len(ortho))]
    new = [row + [rhs_] for row, rhs_ in zip(rows, rhs)]
    assert reference.rank(ref) == len(rows) == reference.rank(new + ref)
    coupling = list(np.multiply.outer(ml, mr).reshape(-1))
    assert all(sum(c * v for c, v in zip(row, coupling)) == b
               for row, b in zip(rows, rhs))
    # Agent L's rows carry rho = pi / (pi_L (x) pi_R), formed from pi's
    # integers, on one slice each: its basis type's row of the Fraction
    # quotient; agent R's rows a column of it.
    rho = reference.rho(dist)
    for k, row in enumerate(rows):
        q = np.array(row, dtype=object).reshape(m, n)
        if k < r * m:
            a, t = bases[0][k // m], k % m
            assert q[t].tolist() == rho[a].tolist()
        else:
            t = next(s for s in range(n) if any(q[:, s]))
            assert any(q[:, t].tolist() == rho[:, b].tolist() for b in bases[1])
    if r == 1:
        assert (rows, rhs) == (reference.marginal_rows((m, n))[:-1],
                               list(ml) + list(mr)[:-1])


@PROPERTY
@given(n_agent_allocations())
def test_allocation_rows_equal_loop_builder(inst):
    # Over the shares and one common value c_k per block, value_rows span
    # the same rows as the reference interim rows with every c_k = E[x_k],
    # so both cut out the same shares.
    dist, blocks = inst.dist, inst.n - 1
    size = inst.space.n_profiles
    rows = belief.value_rows(dist)
    rows = reference.dense(rows, blocks * (size + 1))[0]
    prob, zero = list(dist.p.reshape(-1)), [Fraction(0)] * size
    ic = [row + [Fraction(0)] * blocks for row in reference.interim_rows_alloc(inst)]
    ic += [[v for j in range(blocks) for v in (prob if j == k else zero)] +
           [Fraction(-1 if j == k else 0) for j in range(blocks)]
           for k in range(blocks)]
    assert reference.rank(ic) == reference.rank(rows) == reference.rank(rows + ic)


@st.composite
def generated_dists(draw):
    """pi of every ``generate`` kind: two agents of 1-5 types, or for the
    allocation kind 1-4 agents of 1-3 types, with and without disposal."""
    kind = draw(st.sampled_from(ALL_KINDS))
    if kind == "unbiased-n-alloc":
        shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        inst = generate(draw(st.integers(0, 10**6)), shape, kind,
                        disposal=draw(st.booleans()))
        return inst.no_disposal.dist
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return generate(draw(st.integers(0, 10**6)), shape, kind,
                    k=draw(st.integers(1, 3))).dist


@PROPERTY
@given(st.one_of(generated_dists(), sparse_dists()), st.integers(0, 10**6))
def test_integer_form_equals_fraction_reference(dist, seed):
    # pi is nums / den in lowest terms, and the marginals and expectations
    # made from the integers are the Fraction ones.
    assert gcd(dist.den, *dist.nums.flat) == 1
    assert all(type(v) is int for v in dist.nums.flat)
    assert all(Fraction(v, dist.den) == q for v, q in zip(dist.nums.flat, dist.p.flat))
    ref = reference.joint_marginals(dist.space, dist.p)
    assert [list(m) for m in dist.marginals()] == [list(m) for m in ref]
    rng = random.Random(seed)
    values = np.array([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(dist.p.size)], dtype=object)
    values = values.reshape(dist.space.shape)
    assert expectation(dist, values) == reference.expectation(dist, values)


@st.composite
def correlated_n_dists(draw):
    """pi of 2-4 agents with 1-3 types each: a mixture of 1-3 products of
    positive weights, so the agents' beliefs are correlated and their
    pi-slices of any rank."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    p = sum(reduce(np.multiply.outer,
                   [np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
                    for k in shape])
            for _ in range(draw(st.integers(1, 3))))
    pi = np.array([Fraction(int(w), int(p.sum())) for w in p.reshape(-1)],
                  dtype=object).reshape(shape)
    agents = tuple(str(i) for i in range(len(shape)))
    return JointDist.from_fractions(
        TypeSpace(agents, tuple(tuple(range(k)) for k in shape)), pi)


@PROPERTY
@given(correlated_n_dists())
def test_value_rows_on_basis_types_equal_every_types_rows(dist):
    # Keeping each agent's rows for its basis types only, and, with two
    # agents, dropping the last agent's basis reports, leaves the row space
    # of every type's rows under correlated beliefs.
    rows = belief.value_rows(dist)
    rows = reference.dense(rows, (dist.space.n_agents - 1) * (dist.space.n_profiles + 1))[0]
    loop = reference.value_rows_loop(dist)
    assert reference.rank(loop) == reference.rank(rows) == reference.rank(rows + loop)


@PROPERTY
@given(two_agent_instances(), st.integers(0, 10**6))
@example(SHARED_BELIEF, 0)
@example(DIAGONAL, 1)
def test_interim_equals_loop_over_conditionals(inst, seed):
    rng = random.Random(seed)
    m, n = inst.space.shape
    x = np.array([[Fraction(rng.randint(0, 6), 6) for _ in range(n)]
                  for _ in range(m)], dtype=object)
    for i, own in enumerate((x, x.T)):
        cond = reference.conditional(inst.dist, i)
        expected = [[sum(cond[a, s] * own[b, s] for s in range(own.shape[1]))
                     for b in range(own.shape[0])] for a in range(own.shape[0])]
        assert reference.interim(inst.dist, i, x).tolist() == expected


@PROPERTY
@given(st.one_of(two_agent_instances().map(lambda inst: inst.dist),
                 sparse_dists()))
@example(generate(7, (3, 5), "independent").dist)
@example(generate(7, (4, 4), "full-rank").dist)
@example(generate(7, (5, 3), "full-rank").dist)
def test_orthogonal_basis_is_primitive_orthogonal_and_spans_pi(dist):
    r = dist.matrix_rank()
    pi = dist.nums
    for vectors in (pi, pi.T):
        basis = belief._orthogonal_basis(vectors)
        assert len(basis) == r
        for k, (u, norm) in enumerate(basis):
            assert gcd(*u) == 1 and norm == u.dot(u)
            assert all(u.dot(v) == 0 for v, _ in basis[k + 1:])
        # With pi's own vectors the basis still has rank r: it spans them.
        rows = [u for u, _ in basis] + list(vectors)
        assert reference.rank([[Fraction(c) for c in row] for row in rows]) == r


def test_residual_check_raises(inst_fx5, monkeypatch):
    # Without the basis nothing is projected out, and w = v*pi of fx5 is
    # not orthogonal to pi's row and column spaces.
    monkeypatch.setattr(belief, "_orthogonal_basis", lambda vectors: [])
    with pytest.raises(RuntimeError, match="not orthogonal"):
        kronecker_residual(inst_fx5.dist, inst_fx5.v * inst_fx5.dist.p)


def test_lift_places_vector_on_own_type_slice():
    row = belief.lift((2, 3, 2), 1, 2, [Fraction(k + 1) for k in range(4)])
    # Profiles (a, 2, c) in row-major order carry the vector over (a, c),
    # and a zero entry of the vector is no nonzero of the row.
    assert row == [(4, 1), (5, 2), (10, 3), (11, 4)]
    assert belief.lift((2, 3, 2), 1, 2, [0, 1, 0, 2]) == [(5, 1), (11, 2)]
    assert reference.lift((2, 3, 2), 1, 2, [1, 2, 3, 4]) == \
        [0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 3, 4]


@st.composite
def supports(draw):
    """A random support in a grid from 1x1 to 6x6, as a 0/1 matrix."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.sets(st.tuples(st.integers(0, m - 1),
                                   st.integers(0, n - 1)), max_size=m * n))
    mat = np.zeros((m, n), dtype=int)
    for cell in cells:
        mat[cell] = 1
    return mat


@PROPERTY
@given(supports())
@example(np.ones((2, 2), dtype=int))
@example(np.eye(3, dtype=int))
def test_pruning_finds_the_cycles_union_find_finds(mat):
    cells = list(zip(*np.nonzero(mat)))
    assert support_is_acyclic(mat) == reference.support_is_acyclic(cells)
