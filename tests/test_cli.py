import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmech import cli
from icmech.cli import main
from icmech.core import MAX_AGENTS, MAX_PROFILES
from icmech.fixtures import fixture_path

from .test_golden import COMMANDS, LITERAL, _path

FX1 = str(fixture_path("fx1"))
FX2 = str(fixture_path("fx2"))
FX3 = str(fixture_path("fx3"))
FX4 = str(fixture_path("fx4"))
FX5 = str(fixture_path("fx5"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


# A two-option and a two-agent allocation instance, and an IC allocation
# mechanism for the latter.
TWO = {"agents": ["l", "r"], "types": {"l": [0, 1], "r": [0, 1]},
       "pi": [["1/4", "1/4"], ["1/4", "1/4"]], "vL": [["1", "0"], ["0", "1"]]}
ALLOC = {"agents": ["1", "2"], "types": {"1": [0, 1], "2": [0, 1]},
         "marginals": {"1": ["1/2", "1/2"], "2": ["1/2", "1/2"]},
         "v": {"1": [["1", "0"], ["0", "1"]], "2": [["0", "1"], ["1", "0"]]},
         "disposal": False}
HALVES = {"1": [["1/2", "1/2"], ["1/2", "1/2"]], "2": [["1/2", "1/2"], ["1/2", "1/2"]]}


@pytest.fixture
def xstar_file(tmp_path):
    p = tmp_path / "xstar.json"
    p.write_text(json.dumps({"x": [["1", "0"], ["0", "1"]]}))
    return str(p)


class TestCommands:
    def test_oracle_fx1(self, capsys):
        code, rep = run_json(capsys, "oracle", FX1)
        assert code == 0
        assert rep["value"] == "1/2"
        assert rep["profitable"] is True

    def test_oracle_fx2_zero(self, capsys):
        code, rep = run_json(capsys, "oracle", FX2)
        assert code == 0
        assert rep["value"] == "0"
        assert rep["profitable"] is False

    def test_check_ic_verdicts(self, capsys, xstar_file):
        code, rep = run_json(capsys, "check-ic", FX1, xstar_file)
        assert code == 0 and rep["ic"] is True
        code, rep = run_json(capsys, "check-ic", FX2, xstar_file)
        assert code == 0 and rep["ic"] is False
        assert rep["violations"]

    def test_spans_full_rank_over_independent(self, capsys):
        code, rep = run_json(capsys, "spans", FX2, FX1)
        assert code == 0
        assert rep["spans"] is True
        code, rep = run_json(capsys, "spans", FX1, FX2)
        assert rep["spans"] is False

    def test_inspect(self, capsys):
        code, rep = run_json(capsys, "inspect", FX2)
        assert code == 0
        assert rep["rank"] == 2
        assert rep["independent"] is False
        assert rep["expected_value"] == "-1/2"

    def test_classify(self, capsys):
        code, rep = run_json(capsys, "classify", FX2)
        assert rep["maximal"] is True and rep["minimal"] is False

    def test_additivity(self, capsys):
        code, rep = run_json(capsys, "additivity", FX5)
        assert rep["pi_additive"] is True
        code, rep = run_json(capsys, "additivity", FX1)
        assert rep["pi_additive"] is False

    def test_construct(self, capsys):
        code, rep = run_json(capsys, "construct", FX1)
        assert code == 0
        assert rep["profitable"] is True
        assert rep["payoff"] == "1/2"
        assert rep["epsilon"] == "2"

    def test_transport(self, capsys):
        code, rep = run_json(capsys, "transport", FX2)
        assert rep["value"] == "-1/2"
        assert rep["profitable"] is False

    def test_orthogonal(self, capsys):
        code, rep = run_json(capsys, "orthogonal", FX2, FX1)
        assert rep["orthogonal"] is True
        code, rep = run_json(capsys, "orthogonal", FX2, FX2)
        assert rep["orthogonal"] is False

    def test_decompose(self, capsys, xstar_file):
        code, rep = run_json(capsys, "decompose", FX1, xstar_file)
        assert code == 0
        assert rep["q"] == "1/2"
        assert rep["gammas"] == ["1/2"]

    def test_myo(self, capsys):
        code, rep = run_json(capsys, "myo", FX3)
        assert rep["best_value"] == "2/9"
        assert rep["profitable"] is True
        assert rep["diagonal_sum"] == "2"

    def test_alloc_n(self, capsys):
        code, rep = run_json(capsys, "alloc-n", FX4)
        assert code == 0
        assert rep["profitable"] is True
        assert rep["payoff"] == "1/2"

    def test_alloc_n_disposal_mechanism_round_trips(self, capsys, tmp_path):
        data = json.loads(Path(FX4).read_text())
        data["disposal"] = True
        inst_file = tmp_path / "fx4d.json"
        inst_file.write_text(json.dumps(data))
        code, rep = run_json(capsys, "alloc-n", str(inst_file))
        assert code == 0
        assert rep["profitable"] is True
        assert set(rep["mechanism"]["x"]) == {"1", "2", "3"}
        mech_file = tmp_path / "mech.json"
        mech_file.write_text(json.dumps(rep["mechanism"]))
        code, check = run_json(capsys, "check-ic", str(inst_file), str(mech_file))
        assert code == 0
        assert check["ic"] is True

    @pytest.mark.parametrize("disposal, x", [(False, ["1", "1"]), (True, ["0", "0"])])
    def test_oracle_one_agent_allocation(self, capsys, tmp_path, disposal, x):
        # One agent's belief is over the one empty profile of the others.
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "agents": ["1"], "types": {"1": [0, 1]},
            "marginals": {"1": ["1/2", "1/2"]}, "v": {"1": ["1", "-1"]},
            "disposal": disposal}))
        code, rep = run_json(capsys, "oracle", str(path))
        assert code == 0
        assert (rep["value"], rep["profitable"]) == ("0", False)
        assert rep["mechanism"]["x"] == {"1": x}
        # Difference-additivity splits values between two agents; disposal
        # adds the dummy agent that makes a second.
        code = main(["alloc-n", str(path)])
        captured = capsys.readouterr()
        if disposal:
            assert code == 0
        else:
            assert (code, captured.err) == (
                2, "refused: difference-additivity needs at least two agents\n")

    def test_maximin_standalone(self, capsys, xstar_file):
        code, rep = run_json(capsys, "maximin", xstar_file)
        assert code == 0
        assert rep["value"] == "1/2"

    def test_generate_round_trips(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, _ = run(capsys, "generate", "--seed", "4", "--shape", "2x2",
                      "--kind", "full-rank", "--out", str(out))
        assert code == 0
        code, rep = run_json(capsys, "classify", str(out))
        assert rep["maximal"] is True

    def test_fixture_emission(self, capsys):
        code, rep = run_json(capsys, "fixture", "fx3")
        assert code == 0
        assert rep["types"]["l"] == [-1, 0, 1]


class TestContracts:
    def test_exit_code_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"agents\": [\"l\"]}")
        code, out = run(capsys, "inspect", str(bad))
        assert code == 1 and out == ""

    @pytest.mark.parametrize("target", [".", "missing/dir/x.json"])
    def test_unwritable_out_one_line_error(self, capsys, tmp_path, target):
        # A directory, or a file in a missing directory.
        out = tmp_path / target
        code = main(["inspect", FX1, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write report to '{out}': ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, data", [
        ("maximin", {"x": 5}),
        ("maximin", {"x": [5]}),
        ("inspect", {"agents": "lr", "types": {"l": [0], "r": [0]},
                     "pi": [["1"]], "vL": [["0"]]}),
        ("inspect", {"agents": ["l", "r"], "types": {"l": "a", "r": [0]},
                     "pi": [["1"]], "vL": [["0"]]}),
        ("inspect", {"agents": ["1", "2"], "types": {"1": [0], "2": [0]},
                     "marginals": 5, "v": {"1": [["0"]], "2": [["0"]]},
                     "disposal": False}),
        ("inspect", {"agents": ["1", "2"], "types": {"1": [0], "2": [0]},
                     "marginals": "12", "v": {"1": [["0"]], "2": [["0"]]},
                     "disposal": False}),
    ])
    def test_malformed_input_one_line_error(self, capsys, tmp_path, command, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main([command, str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("marginals", [
        {"a": ["1", "1"], "b": ["1/4", "1/4"]},
        {"a": ["-1", "-1"], "b": ["-1/4", "-1/4"]},
        {"a": ["1/2", "1/2"], "b": ["-1", "2"]},
    ], ids=["sum-two", "negative", "negative-summing-to-one"])
    def test_marginals_not_probability_vectors_refused(self, capsys, tmp_path,
                                                       marginals):
        # The first two multiply to a uniform pi that sums to 1.
        bad = tmp_path / "marginals.json"
        bad.write_text(json.dumps({
            "agents": ["a", "b"], "types": {"a": [0, 1], "b": [0, 1]},
            "marginals": marginals,
            "v": {"a": [["1", "0"], ["0", "1"]], "b": [["0", "1"], ["1", "0"]]},
            "disposal": False}))
        agent = next(a for a, m in marginals.items() if m != ["1/2", "1/2"])
        for command in ("inspect", "alloc-n", "oracle"):
            code = main([command, str(bad)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == (f"error: the marginal of agent '{agent}' must "
                                    "be nonnegative and sum to exactly 1\n")

    @pytest.mark.parametrize("entry", ['"1e20000"', '"1e100000000"',
                                       "9" * 5000])
    def test_oversized_number_one_line_error(self, capsys, tmp_path, entry):
        # Exact parsing of these would print a 20001-digit integer, run
        # without end, or exceed the interpreter's integer conversion limit.
        bad = tmp_path / "big.json"
        bad.write_text('{"agents": ["l", "r"], "types": {"l": [0], "r": [0]},'
                       ' "pi": [["1"]], "vL": [[' + entry + ']]}')
        code = main(["inspect", str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "--seed", "1", "--shape", "2000x2000", "--kind", "independent"],
        ["generate", "--seed", "1", "--shape", "65x64", "--kind", "correlated"],
    ])
    def test_too_many_profiles_one_line_error(self, capsys, argv):
        # Refused from the shape alone, before any array is built.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: the type space has ")
        assert captured.err.count("\n") == 1

    def test_too_many_profiles_in_a_bare_mechanism_one_line_error(
            self, capsys, tmp_path):
        # maximin without an instance builds its type space from the array.
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"x": [["0"] * 65] * 65}))
        code = main(["maximin", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: the type space has 4225 profiles; "
                                f"at most {MAX_PROFILES} are supported\n")

    @pytest.mark.parametrize("k", [0, MAX_PROFILES + 1])
    def test_mixture_size_out_of_range_one_line_refusal(self, capsys, k):
        # The work of a k-component mixture grows with k, so k is bounded
        # by the profile limit, like the shape.
        code = main(["generate", "--seed", "1", "--shape", "2x2", "--kind",
                     "conditionally-independent", "--k", str(k)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("refused: conditionally-independent needs "
                                f"1 <= k <= {MAX_PROFILES}\n")

    @pytest.mark.parametrize("kind", ["independent", "correlated",
                                      "full-rank", "conditionally-independent"])
    def test_disposal_for_a_two_agent_kind_one_line_refusal(self, capsys, kind):
        # Only an allocation instance has a disposal option; a two-agent
        # kind must not drop the flag silently.
        k = ["--k", "2"] if kind == "conditionally-independent" else []
        code = main(["generate", "--seed", "1", "--shape", "2x2", "--kind",
                     kind, *k, "--disposal"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"refused: kind {kind!r} has no disposal; "
                                "only unbiased-n-alloc allocations do\n")

    @pytest.mark.parametrize("kind, shape", [
        ("independent", "4x4"), ("correlated", "4x4"), ("full-rank", "2x3"),
        ("unbiased-n-alloc", "2x2x2")])
    def test_k_for_a_kind_without_a_mixture_one_line_refusal(self, capsys, kind, shape):
        # Only the conditionally-independent mixture reads k; another kind
        # would take it into its seed alone and print a different instance
        # of the same kind, whatever rank k asks for.
        code = main(["generate", "--seed", "1", "--shape", shape, "--kind",
                     kind, "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"refused: kind {kind!r} has no --k; only "
                                "conditionally-independent mixtures read it\n")

    def test_too_many_agents_in_shape_one_line_error(self, capsys):
        # Seventy one-type agents make one profile, so only the agent bound
        # stops them before NumPy's dimension limit does.
        code = main(["generate", "--seed", "1", "--shape", "x".join(["1"] * 70),
                     "--kind", "unbiased-n-alloc"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: the type space has 70 agents; "
                                f"at most {MAX_AGENTS} are supported\n")

    def test_too_many_agents_in_file_one_line_error(self, capsys, tmp_path):
        agents = [f"a{i}" for i in range(MAX_AGENTS + 1)]
        value = "0"
        for _ in agents:
            value = [value]
        bad = tmp_path / "many.json"
        bad.write_text(json.dumps({
            "agents": agents, "types": {a: [0] for a in agents},
            "marginals": {a: ["1"] for a in agents},
            "v": {a: value for a in agents}, "disposal": False}))
        for command in ("inspect", "alloc-n", "oracle"):
            code = main([command, str(bad)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == (f"error: the type space has {MAX_AGENTS + 1} "
                                    f"agents; at most {MAX_AGENTS} are supported\n")

    @pytest.mark.parametrize("data", [
        {"agents": [], "types": {}, "pi": [], "vL": []},
        {"agents": [], "types": {}, "marginals": {}, "v": {}, "disposal": False},
    ])
    def test_no_agents_one_line_error(self, capsys, tmp_path, data):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(data))
        for command in ("inspect", "alloc-n", "oracle"):
            code = main([command, str(bad)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == "error: 'agents' must name at least one agent\n"

    @pytest.mark.parametrize("agent, labels, message", [
        ("l", [0, "0", 1, 2], "agent 'l' has type labels that print the same"),
        ("l", ["a|b", "c", "a", "b|c"], "agent 'l': agent names and type labels "
                                        "must not contain '|'"),
        ("l|r", [0, 1, 2, 3], "agent 'l|r': agent names and type labels "
                              "must not contain '|'"),
    ], ids=["printed-duplicate", "bar-in-label", "bar-in-agent"])
    def test_labels_that_would_merge_report_keys_one_line_error(
            self, capsys, tmp_path, agent, labels, message):
        # Report keys print the agent and the labels joined by "|": the
        # first two instances would print fewer interim entries than they
        # have, and the third keys that do not split back into their parts.
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "agents": [agent, "r"], "types": {agent: labels, "r": [0]},
            "pi": [["1/4"]] * 4, "vL": [["1"], ["0"], ["0"], ["1"]]}))
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps({"x": [["1/2"]] * 4}))
        for argv in (["check-ic", str(inst), str(mech)],
                     ["spans", str(inst), str(inst)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_most_agents_with_disposal(self, capsys, tmp_path):
        # Free disposal adds a dummy agent, and the limit leaves room for it.
        path = tmp_path / "widest.json"
        shape = "x".join(["2", "2"] + ["1"] * (MAX_AGENTS - 2))
        assert main(["generate", "--seed", "1", "--shape", shape, "--kind",
                     "unbiased-n-alloc", "--disposal", "--out", str(path)]) == 0
        assert json.loads(path.read_text())["disposal"] is True
        code, rep = run_json(capsys, "inspect", str(path))
        assert code == 0 and len(rep["agents"]) == MAX_AGENTS
        code, built = run_json(capsys, "alloc-n", str(path))
        assert code == 0 and built["profitable"] is True
        code, best = run_json(capsys, "oracle", str(path))
        assert code == 0 and best["profitable"] is True
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps(built["mechanism"]))
        code, check = run_json(capsys, "check-ic", str(path), str(mech))
        assert code == 0 and check["ic"] is True

    def test_deeply_nested_json_one_line_error(self, capsys, tmp_path):
        # The decoder gives up with a RecursionError, not a ValueError.
        bad = tmp_path / "deep.json"
        bad.write_text('{"agents": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = main(["inspect", str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: invalid JSON: ")
        assert captured.err.count("\n") == 1

    def test_json_text_longer_than_a_path(self, capsys):
        text = Path(FX1).read_text().replace("{", "{" + " " * 5000, 1)
        code, rep = run_json(capsys, "inspect", text)
        assert code == 0 and rep["rank"] == 1
        code = main(["inspect", text[:-10]])
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith("error: invalid JSON")

    def test_exit_code_missing_file(self, capsys):
        code, _ = run(capsys, "inspect", "/nonexistent/inst.json")
        assert code == 1

    def test_missing_file_is_not_reported_as_bad_json(self, capsys, tmp_path):
        missing = str(tmp_path / "nope" / "missing.json")
        code = main(["inspect", missing])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: no such file: {missing}\n"

    def test_exit_code_precondition(self, capsys):
        # Matching analysis on a correlated instance is refused, not failed.
        code, _ = run(capsys, "myo", FX2)
        assert code == 2

    def test_float_entries_rejected(self, capsys, tmp_path):
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps({
            "agents": ["l", "r"], "types": {"l": [0], "r": [0]},
            "pi": [[1.0]], "vL": [[0]]}))
        code, _ = run(capsys, "inspect", str(bad))
        assert code == 1

    @pytest.mark.parametrize("argv, data, message", [
        (["inspect"], {"agents": ["l", "r"], "types": {"l": [0, 1], "r": [0, 1]},
                       "pi": [["1/4", "1/4"], ["1/4", "1/4"]],
                       "vL": [[True, "0"], ["0", False]]}, "vL: booleans"),
        (["inspect"], {"agents": ["l", "r"], "types": {"l": [True], "r": [0]},
                       "pi": [["1"]], "vL": [["0"]]}, "ints or strings"),
        (["inspect"], {"agents": ["1", "2"], "types": {"1": [0], "2": [0]},
                       "marginals": {"1": [True], "2": ["1"]},
                       "v": {"1": [["0"]], "2": [["0"]]}, "disposal": False},
         "marginals[1]: booleans"),
        (["check-ic", FX1], {"x": [[True, False], [False, True]]}, "x: booleans"),
        (["maximin"], {"x": [[True, False], [False, True]]}, "x: booleans"),
    ], ids=["values", "labels", "marginals", "check-ic", "maximin"])
    def test_boolean_entries_rejected(self, capsys, tmp_path, argv, data, message):
        # JSON true and false are Python bools, which subclass int.
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps(data))
        code = main(argv + [str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["inspect", {**TWO, "VR": TWO["vL"]}], "['VR']"),
        (["inspect", {**ALLOC, "pi": [["1/2", "0"], ["0", "1/2"]]}],
         "'marginals' or 'pi', not both"),
        (["inspect", {**TWO, "v": ALLOC["v"]}], "['v']"),
        (["inspect", {**TWO, "types": {**TWO["types"], "q": [0]}}], "['q']"),
        (["inspect", {**ALLOC, "marginals": {**ALLOC["marginals"], "3": ["1"]}}],
         "'marginals' has entries for names not in 'agents': ['3']"),
        (["inspect", {**ALLOC, "v": {**ALLOC["v"], "3": [["0", "0"], ["0", "0"]]}}],
         "'v' has entries for names not in 'agents': ['3']"),
        (["check-ic", ALLOC, {"x": {**HALVES, "3": [["0", "0"], ["0", "0"]]}}],
         "'x' has entries for names not in 'agents': ['3']"),
        (["check-ic", TWO, {"x": [["1", "0"], ["0", "1"]], "y": "1"}], "['y']"),
        (["check-ic", TWO, {"ic": True,
                            "mechanism": {"x": [["1", "0"], ["0", "1"]], "note": ""}}],
         "['note']"),
    ], ids=["misspelt-vR", "marginals-and-pi", "vL-and-v", "types-name", "marginals-name",
            "v-name", "x-name", "mechanism-key", "report-mechanism-key"])
    def test_unread_keys_refused(self, capsys, tmp_path, argv, message):
        # Each of these was read with the key or name ignored, and exited 0.
        def written(k, arg):
            if not isinstance(arg, dict):
                return arg
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(arg))
            return str(path)

        code = main([written(k, arg) for k, arg in enumerate(argv)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_report_mechanism_round_trip(self, capsys, tmp_path):
        # Feed the construct report's mechanism back into check-ic.
        code, rep = run_json(capsys, "construct", FX1)
        mech_file = tmp_path / "mech.json"
        mech_file.write_text(json.dumps(rep["mechanism"]))
        code, check = run_json(capsys, "check-ic", FX1, str(mech_file))
        assert code == 0
        assert check["ic"] is True
        # The whole report also works, via its embedded mechanism.
        rep_file = tmp_path / "rep.json"
        rep_file.write_text(json.dumps(rep))
        code, check2 = run_json(capsys, "check-ic", FX1, str(rep_file))
        assert check2["ic"] is True

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "oracle", FX1)
        _, second = run(capsys, "oracle", FX1)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, printed = run(capsys, "oracle", FX1, "--out", str(out))
        assert code == 0
        assert printed == ""
        assert json.loads(out.read_text())["value"] == "1/2"

    def test_text_format(self, capsys):
        code, out = run(capsys, "oracle", FX1, "--format", "text")
        assert code == 0
        assert "value: 1/2" in out


def in_process(capsys, argv):
    """Exit code, stdout and stderr of one ``cli.main`` call; an argparse
    error's ``SystemExit`` gives the exit code."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv):
    """Exit code, stdout and stderr of ``python -m icmech`` on ``argv``."""
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "icmech", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_repeated_calls_match_fresh_processes(self, capsys, tmp_path,
                                                  monkeypatch):
        # The usage text wraps at the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        out = tmp_path / "report.json"
        sequence = [
            ["additivity", FX1],
            ["additivity", FX1, "--format", "text"],
            ["oracle", FX1, "--out", str(out)],
            ["oracle", FX1],
            ["oracle", FX1, "--format", "xml"],
            ["myo", FX2],
            ["inspect", str(tmp_path / "missing.json")],
            ["spans", FX2, FX1],
        ]
        results = []
        for argv in sequence:
            results.append(in_process(capsys, argv))
            if "--out" in argv:
                written = out.read_text()
                out.unlink()
            assert results[-1] == fresh_process(argv), argv
            if "--out" in argv:
                assert out.read_text() == written
        codes = [code for code, _, _ in results]
        assert codes == [0, 0, 0, 0, 2, 2, 1, 0]
        assert results[2][1] == "" and results[3][1] == written
        assert results[4][2].startswith("usage: icmech oracle ")

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in (["inspect", FX1], ["classify", FX2],
                         ["oracle", FX1, "--format", "text"],
                         ["inspect", FX1, "--format", "bad"], ["myo", FX2],
                         ["fixture", "fx4"], ["inspect", FX1]) * 3:
                in_process(capsys, argv)
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()


# Every golden query but those of ``fixture`` and ``generate``, which read
# no file.
FUZZ_QUERIES = [(command, names) for command, queries in sorted(COMMANDS.items())
                if command not in LITERAL for names in queries]
ODD_VALUES = [None, True, -1, 0, 2, 1.5, "", "x", "0", "1", "1/2", "-1/3",
              "1/0", "7", "1e9", [], {}, ["1"], [[]], {"l": "1"}]


def _nodes(tree, path=()):
    """The path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in (tree.items() if isinstance(tree, dict)
                           else enumerate(tree)):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated_queries(draw):
    """A golden query with one of its files mutated one to three times: a
    node replaced by an odd value or deleted; a list item repeated or
    swapped with its first sibling, which keeps pi a distribution; or a
    dict value wrapped in a list.  Returns (command, file texts)."""
    command, names = draw(st.sampled_from(FUZZ_QUERIES))
    texts = [Path(_path(name)).read_text() for name in names]
    target = draw(st.integers(0, len(texts) - 1))
    tree = json.loads(texts[target])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_nodes(tree))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "repeat", "swap"]))
        if op == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[key] = [parent[key]]
        elif op == "repeat":
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent[0], parent[key] = parent[key], parent[0]
    texts[target] = json.dumps(tree)
    return command, texts


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mutated_queries(), st.sampled_from(["json", "text"]))
    def test_mutated_inputs_end_in_a_report_or_one_line(self, query, fmt):
        command, texts = query
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, text in enumerate(texts):
                paths.append(os.path.join(tmp, f"{i}.json"))
                Path(paths[-1]).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *paths, "--format", fmt])
        assert code in (0, 1, 2)
        if code == 0:
            assert err.getvalue() == ""
            if fmt == "json":
                json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
