import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmech.core import (MAX_AGENTS, JointDist, SchemaError, TypeSpace,
                         constant_array, dumps_canonical, expectation,
                         instance_to_dict, load_instance, load_mechanism,
                         normalize, parse_rational_array, parse_type_space,
                         product_dist)
from icmech.fixtures import FIXTURE_NAMES, fixture, fixture_path
from icmech.nalloc import allocation_to_dict, load_allocation

from . import reference

F = Fraction
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


class TestTypeSpace:
    def test_profile_order_row_major(self):
        ts = TypeSpace(("l", "r"), ((-1, 1), ("a", "b", "c")))
        profiles = list(ts.profiles())
        assert profiles[0] == (-1, "a")
        assert profiles[1] == (-1, "b")
        assert profiles[-1] == (1, "c")
        for p, idx in zip(profiles, np.ndindex(*ts.shape)):
            assert p == tuple(labels[k] for labels, k in zip(ts.types, idx))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            TypeSpace(("l", "r"), ((1, 1), (0, 1)))

    def test_empty_agent_rejected(self):
        with pytest.raises(SchemaError):
            TypeSpace(("l", "r"), ((), (0,)))


class TestJointDist:
    def test_uniform_marginals(self, inst_fx1):
        ml, mr = inst_fx1.dist.marginals()
        assert list(ml) == [F(1, 2), F(1, 2)]
        assert list(mr) == [F(1, 2), F(1, 2)]

    def test_correlated_conditional(self, inst_fx2):
        # Belief of the second agent's low type about the first agent's types.
        cond_r = reference.conditional(inst_fx2.dist, 1)
        assert cond_r[0][1] == F(3, 4)  # P(first = 1 | second = -1)

    def test_independent_conditionals_equal_marginal(self, inst_fx1):
        cond = reference.conditional(inst_fx1.dist, 0)
        mr = inst_fx1.dist.marginal(1)
        for row in cond:
            assert list(row) == list(mr)

    def test_sum_must_be_one(self):
        ts = TypeSpace(("l", "r"), ((0, 1), (0, 1)))
        bad = parse_rational_array([["1/2", "1/2"], ["1/2", "1/2"]], (2, 2), "pi")
        with pytest.raises(SchemaError):
            JointDist.from_fractions(ts, bad)

    def test_negative_rejected(self):
        ts = TypeSpace(("l", "r"), ((0, 1), (0, 1)))
        bad = parse_rational_array([["-1/4", "1/2"], ["1/2", "1/4"]], (2, 2), "pi")
        with pytest.raises(SchemaError):
            JointDist.from_fractions(ts, bad)

    def test_zero_marginal_rejected(self):
        ts = TypeSpace(("l", "r"), ((0, 1), (0, 1)))
        bad = parse_rational_array([["1/2", "1/2"], ["0", "0"]], (2, 2), "pi")
        with pytest.raises(SchemaError):
            JointDist.from_fractions(ts, bad)

    @PROPERTY
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
               lambda shape: st.tuples(
                   st.just(tuple(shape)),
                   st.lists(st.integers(-1, 3), min_size=int(np.prod(shape)),
                            max_size=int(np.prod(shape))),
                   st.integers(-1, 1))))
    @example(((2, 2), [1, 1, 0, 0], 0))
    @example(((2, 2), [-1, 2, 1, 1], 0))
    @example(((2, 2), [1, 1, 1, 1], 1))
    def test_refusals_equal_fraction_reference(self, case):
        # Weights w over their sum plus an offset: negative entries, sums
        # other than 1 and zero marginals, each refused with the same
        # message in integers as in Fractions, and the rest accepted with
        # the same marginals.
        shape, weights, offset = case
        total = sum(weights) + offset or 1
        p = np.array([F(w, total) for w in weights], dtype=object).reshape(shape)
        space = TypeSpace(tuple(str(i) for i in range(len(shape))),
                          tuple(tuple(range(k)) for k in shape))

        def outcome(build):
            try:
                return [list(m) for m in build()]
            except SchemaError as e:
                return str(e)

        assert outcome(lambda: JointDist.from_fractions(space, p).marginals()) == \
            outcome(lambda: reference.joint_marginals(space, p))

    def test_rank_and_independence(self, inst_fx1, inst_fx2):
        assert inst_fx1.dist.is_independent()
        assert inst_fx1.dist.matrix_rank() == 1
        assert not inst_fx2.dist.is_independent()
        assert inst_fx2.dist.matrix_rank() == 2

    def test_conditional_reconstructs_joint(self, inst_fx2):
        dist = inst_fx2.dist
        for i in range(2):
            cond = reference.conditional(dist, i)
            marg = dist.marginal(i)
            for a in range(2):
                for s in range(2):
                    idx = (a, s) if i == 0 else (s, a)
                    assert cond[a][s] * marg[a] == dist.p[idx]


class TestNormalize:
    def test_fx1_zero_mean_no_swap(self, inst_fx1):
        assert inst_fx1.objective.expected_value == 0
        assert not inst_fx1.objective.swapped

    def test_identical_options_zero(self, inst_fx1):
        c = constant_array((2, 2), 7)
        obj = normalize(c, c, inst_fx1.dist)
        assert all(v == 0 for v in obj.v.reshape(-1))

    def test_fx2_negative_mean_no_swap(self, inst_fx2):
        assert inst_fx2.objective.expected_value == F(-1, 2)
        assert not inst_fx2.objective.swapped

    def test_swap_when_first_option_preferred(self, inst_fx1):
        vL = constant_array((2, 2), 1)
        vR = constant_array((2, 2), 0)
        obj = normalize(vL, vR, inst_fx1.dist)
        assert obj.swapped
        assert obj.expected_value == -1

    def test_idempotent_and_flag_iff_positive(self):
        rng = random.Random(11)
        ts = TypeSpace(("l", "r"), ((0, 1), (0, 1)))
        dist = product_dist(ts, [parse_rational_array(["1/2", "1/2"], (2,), "p"),
                                 parse_rational_array(["1/3", "2/3"], (2,), "p")])
        for _ in range(30):
            vL = np.array([[F(rng.randint(-4, 4)) for _ in range(2)]
                           for _ in range(2)], dtype=object)
            vR = constant_array((2, 2), 0)
            raw_mean = expectation(dist, vL)
            obj = normalize(vL, vR, dist)
            assert obj.swapped == (raw_mean > 0)
            assert obj.expected_value <= 0
            again = normalize(obj.v, vR, dist)
            assert not again.swapped
            assert (again.v == obj.v).all()


class TestSchema:
    def test_round_trip_byte_identical(self, tmp_path):
        for name in FIXTURE_NAMES:
            text = fixture_path(name).read_text()
            if name == "fx4":
                load, to_dict = load_allocation, allocation_to_dict
            else:
                load, to_dict = load_instance, instance_to_dict
            first = dumps_canonical(to_dict(load(text)))
            second = dumps_canonical(to_dict(load(first)))
            assert text == first == second

    def test_floats_rejected(self):
        data = {"agents": ["l", "r"], "types": {"l": [0, 1], "r": [0, 1]},
                "pi": [[0.25, 0.25], [0.25, 0.25]],
                "vL": [[1, 0], [0, 1]]}
        with pytest.raises(SchemaError, match="floats"):
            load_instance(data)

    def test_missing_field_named(self):
        with pytest.raises(SchemaError, match="vL"):
            load_instance({"agents": ["l", "r"],
                           "types": {"l": [0], "r": [0]}, "pi": [["1"]]})

    def test_bad_rational_named(self):
        data = {"agents": ["l", "r"], "types": {"l": [0], "r": [0]},
                "pi": [["1"]], "vL": [["x/y"]]}
        with pytest.raises(SchemaError, match="vL"):
            load_instance(data)

    # The plain forms -?[0-9]+ and -?[0-9]+/[0-9]+ are read as two ints;
    # every other string goes through Fraction(str).  These are the edge
    # cases of both.
    @PROPERTY
    @given(st.one_of(
        st.sampled_from(["-0", "007/010", "+3", " 1/4", "1/4 ", "1_000", "0.25",
                         "1e3", "1E-3", "1/0", "0/0", "1/-2", "-1/2", "--1", "",
                         "-", "/", "1/", "/2", "\u0663", "1/\u0663", "\uff11",
                         "1\n", "12/34/5", "3/1"]),
        st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True),
        st.text(alphabet="0123456789-+/._ eE\u0663", max_size=8)))
    def test_parse_equals_fraction_str(self, text):
        def outcome(parse):
            try:
                value = parse()
                assert type(value) is Fraction
                return value
            except SchemaError as e:
                return str(e)

        assert outcome(lambda: parse_rational_array([text], (1,), "x")[0]) == \
            outcome(lambda: reference.parse_rational(text, "x"))

    def test_vr_defaults_to_zero(self):
        data = {"agents": ["l", "r"], "types": {"l": [0], "r": [0]},
                "pi": [["1"]], "vL": [["-2"]]}
        inst = load_instance(data)
        assert inst.objective.expected_value == -2

    def test_mechanism_bounds_checked(self, inst_fx1):
        with pytest.raises(SchemaError):
            load_mechanism({"x": [["2", "0"], ["0", "1"]]}, inst_fx1.space)

    def test_mechanism_from_embedded_report(self, inst_fx1):
        data = {"mechanism": {"x": [["1", "0"], ["0", "1"]]}}
        mech = load_mechanism(data, inst_fx1.space)
        assert mech.x[0, 0] == 1

    def test_allocation_pi_must_factor(self):
        data = {"agents": ["1", "2"], "types": {"1": [0, 1], "2": [0, 1]},
                "pi": [["1/8", "3/8"], ["3/8", "1/8"]],
                "v": {"1": [["1", "0"], ["0", "1"]],
                      "2": [["0", "1"], ["1", "0"]]},
                "disposal": False}
        with pytest.raises(SchemaError, match="independent"):
            load_allocation(data)

    def test_allocation_pi_tensor_accepted(self):
        data = {"agents": ["1", "2"], "types": {"1": [0, 1], "2": [0, 1]},
                "pi": [["1/4", "1/4"], ["1/4", "1/4"]],
                "v": {"1": [["1", "0"], ["0", "1"]],
                      "2": [["0", "1"], ["1", "0"]]},
                "disposal": True}
        inst = load_allocation(data)
        assert inst.disposal
        assert list(inst.marginals[0]) == [F(1, 2), F(1, 2)]

    @pytest.mark.parametrize("load, data, agent", [
        (load_instance, {"agents": ["l", "r"], "types": {"l": [0, 1], "r": [0, 1]},
                         "pi": [["1/2", "0"], ["1/2", "0"]],
                         "vL": [["1", "9"], ["2", "9"]]}, "r"),
        (load_allocation, {"agents": ["1", "2"], "types": {"1": ["a", "b"], "2": [0]},
                           "marginals": {"1": ["1", "0"], "2": ["1"]},
                           "v": {"1": [["1"], ["9"]], "2": [["5"], ["9"]]},
                           "disposal": False}, "1"),
    ], ids=["instance", "allocation"])
    def test_zero_probability_type_refused(self, load, data, agent):
        with pytest.raises(SchemaError, match=f"^agent '{agent}' has a zero-probability "
                                              "type; drop it from the instance$"):
            load(data)

    @pytest.mark.parametrize("entry, ok", [
        ("1e1000", True), ("1e-1000", True), ("1e1001", False),
        ("1" * 1000, True), ("1" * 1001, False), (10 ** 999, True),
        (10 ** 1000, False)])
    def test_number_size_bound(self, entry, ok):
        data = {"agents": ["l"], "types": {"l": [0]}, "pi": ["1"],
                "vL": [entry]}
        if ok:
            assert load_instance(data).objective.raw_vL[0] == F(entry)
        else:
            with pytest.raises(SchemaError, match="more than 1000 digits"):
                load_instance(data)

    @pytest.mark.parametrize("shape, ok", [((64, 64), True), ((4097,), False),
                                           ((65, 64), False), ((2,) * 12, True)])
    def test_profile_count_bound(self, shape, ok):
        # Checked on the type lists, before any array is read or built.
        data = {"agents": [f"a{i}" for i in range(len(shape))],
                "types": {f"a{i}": list(range(k)) for i, k in enumerate(shape)}}
        if ok:
            assert parse_type_space(data).shape == shape
        else:
            with pytest.raises(SchemaError, match="at most 4096 are supported"):
                parse_type_space(data)

    @pytest.mark.parametrize("count, ok", [(MAX_AGENTS, True),
                                           (MAX_AGENTS + 1, False), (70, False)])
    def test_agent_count_bound(self, count, ok):
        # One type each, so one profile: the profile bound does not apply.
        data = {"agents": [f"a{i}" for i in range(count)],
                "types": {f"a{i}": [0] for i in range(count)}}
        if ok:
            assert parse_type_space(data).n_agents == count
        else:
            with pytest.raises(SchemaError, match=f"the type space has {count} "
                               f"agents; at most {MAX_AGENTS} are supported"):
                parse_type_space(data)


class TestFixtures:
    def test_fixture_names(self):
        for name in FIXTURE_NAMES:
            inst = fixture(name)
            assert inst.name == name

    def test_fx3_objective_is_product(self, inst_fx3):
        labels = inst_fx3.space.types[0]
        for a, s in enumerate(labels):
            for b, t in enumerate(labels):
                assert inst_fx3.v[a, b] == s * t

    def test_fx4_values_cycle(self, inst_fx4):
        # Allocating to agent i is worth the next agent's type.
        for idx, profile in zip(np.ndindex(*inst_fx4.space.shape),
                                inst_fx4.space.profiles()):
            assert inst_fx4.values[0][idx] == profile[1]
            assert inst_fx4.values[1][idx] == profile[2]
            assert inst_fx4.values[2][idx] == profile[0]
