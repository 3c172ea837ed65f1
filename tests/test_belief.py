"""Property tests: the belief-space builders against explicit-loop references."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmech import belief
from icmech.belief import difference_residual, kronecker_residual
from icmech.core import JointDist, TypeSpace
from icmech.ic import ic_polytope
from icmech.nalloc import (DISPOSAL_AGENT, AllocationInstance,
                           add_disposal_agent, difference_additive)
from icmech.numerics import span_coefficients
from icmech.oracle import generate
from icmech.profit import _extract_cycle, _pruned_support, orthogonality_rows

from . import reference
from .conftest import two_option

KINDS = ("independent", "correlated", "full-rank", "conditionally-independent")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def two_agent_instances(draw):
    """All four kinds, square and non-square shapes from 1x1 to 5x5; the
    independent and k-mixture kinds give rank-deficient pi."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return generate(draw(st.integers(0, 10**6)), shape,
                    draw(st.sampled_from(KINDS)), k=draw(st.integers(1, 3)))


@st.composite
def allocation_instances(draw):
    """Unbiased allocations with 2 or 3 agents; disposal instances are
    extended by the dummy agent, as the allocation LP does."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    inst = generate(draw(st.integers(0, 10**6)), shape, "unbiased-n-alloc",
                    disposal=draw(st.booleans()))
    return add_disposal_agent(inst) if inst.disposal else inst


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
    disposal, as the difference-additivity test sees them: disposal
    instances are extended by the dummy agent, and the extended instance
    has between agents[0] and agents[1] agents."""
    disposal = draw(st.booleans())
    count = draw(st.integers(agents[0] - disposal, agents[1] - disposal))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=count,
                                max_size=count)))
    inst = generate(draw(st.integers(0, 10**6)), shape, "unbiased-n-alloc",
                    disposal=disposal)
    return add_disposal_agent(inst) if disposal else inst


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
    coeffs = span_coefficients(list(_weighted_differences(inst).reshape(-1)),
                               gens)
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


@PROPERTY
@given(two_agent_instances())
@example(SHARED_BELIEF)
@example(DIAGONAL)
def test_ic_and_orthogonality_rows_equal_loop_builders(inst):
    assert ic_polytope(inst.dist) == reference.ic_polytope(inst.dist)
    assert orthogonality_rows(inst.dist) == reference.orthogonality_rows(inst.dist)


@PROPERTY
@given(allocation_instances())
def test_allocation_rows_equal_loop_builder(inst):
    assert ic_polytope(inst.dist) == reference.interim_rows_alloc(inst)


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
        assert belief.interim(inst.dist, i, x).tolist() == expected


@st.composite
def row_lists(draw):
    """Rows of one width over a few small rationals, with repeats, zero
    rows and rows that differ from another only in sign."""
    width = draw(st.integers(1, 4))
    entries = st.sampled_from([Fraction(k, d) for k in range(-2, 3)
                               for d in (1, 2, 3)])
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                         max_size=12))
    rows += [[-c for c in row] for row in rows[::2]]
    rows += [list(row) for row in rows[::3]]
    return draw(st.permutations(rows))


@PROPERTY
@given(row_lists())
def test_distinct_nonzero_equals_tuple_keyed_dedupe(rows):
    got, expected = belief.distinct_nonzero(rows), reference.distinct_nonzero(rows)
    assert got == expected
    assert [id(row) for row in got] == [id(row) for row in expected]


def test_residual_check_raises(inst_fx5, monkeypatch):
    # Without the basis nothing is projected out, and w = v*pi of fx5 is
    # not orthogonal to pi's row and column spaces.
    monkeypatch.setattr(belief, "_orthogonal_basis", lambda vectors: [])
    with pytest.raises(RuntimeError, match="not orthogonal"):
        kronecker_residual(inst_fx5.dist, inst_fx5.v * inst_fx5.dist.p)


def test_beliefs_of_a_single_agent():
    # The other agents' profiles are the one empty profile, held for sure.
    space = TypeSpace(("1",), ((0, 1, 2),))
    dist = JointDist(space, np.array([Fraction(1, 6), Fraction(1, 3),
                                      Fraction(1, 2)], dtype=object))
    assert belief.beliefs(dist, 0) == [[1], [1], [1]]


def test_lift_places_vector_on_own_type_slice():
    row = belief.lift((2, 3, 2), 1, 2, [Fraction(k + 1) for k in range(4)])
    # Profiles (a, 2, c) in row-major order carry the vector over (a, c).
    assert [k for k, v in enumerate(row) if v] == [4, 5, 10, 11]
    assert [row[k] for k in (4, 5, 10, 11)] == [1, 2, 3, 4]


@st.composite
def pruned_supports(draw):
    """The cycles of a random support in a grid from 2x2 to 6x6.  The
    support has at least m + n cells, more than a forest on the m + n rows
    and columns can have, so it holds a cycle."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = draw(st.sets(st.tuples(st.integers(0, m - 1),
                                   st.integers(0, n - 1)), min_size=m + n))
    return _pruned_support(cells)


@PROPERTY
@given(pruned_supports())
def test_cycle_walk_equals_depth_first_search(cells):
    assert _extract_cycle(cells) == reference.extract_cycle_dfs(cells)
