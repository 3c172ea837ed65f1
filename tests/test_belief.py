"""Property tests: the belief-space builders against explicit-loop references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmech import belief
from icmech.belief import kronecker_residual
from icmech.ic import ic_polytope
from icmech.nalloc import add_disposal_agent
from icmech.numerics import orthogonal_projection
from icmech.oracle import _interim_rows_alloc, generate
from icmech.profit import orthogonality_rows

from . import reference

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
    _, resid = orthogonal_projection(list(w.reshape(-1)), gens)
    assert list(kronecker_residual(inst.dist, w).reshape(-1)) == resid


@PROPERTY
@given(two_agent_instances())
def test_ic_and_orthogonality_rows_equal_loop_builders(inst):
    assert ic_polytope(inst.dist) == reference.ic_polytope(inst.dist)
    assert orthogonality_rows(inst.dist) == reference.orthogonality_rows(inst.dist)


@PROPERTY
@given(allocation_instances())
def test_allocation_rows_equal_loop_builder(inst):
    assert _interim_rows_alloc(inst) == reference.interim_rows_alloc(inst)


def test_residual_check_raises(inst_fx5, monkeypatch):
    # Without the basis nothing is projected out, and w = v*pi of fx5 is
    # not orthogonal to pi's row and column spaces.
    monkeypatch.setattr(belief, "_orthogonal_basis", lambda vectors: [])
    with pytest.raises(RuntimeError, match="not orthogonal"):
        kronecker_residual(inst_fx5.dist, inst_fx5.v * inst_fx5.dist.p)


def test_lift_places_vector_on_own_type_slice():
    row = belief.lift((2, 3, 2), 1, 2, [Fraction(k + 1) for k in range(4)])
    # Profiles (a, 2, c) in row-major order carry the vector over (a, c).
    assert [k for k, v in enumerate(row) if v] == [4, 5, 10, 11]
    assert [row[k] for k in (4, 5, 10, 11)] == [1, 2, 3, 4]
