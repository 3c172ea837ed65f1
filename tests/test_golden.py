"""Golden reports: byte-exact CLI output on the five fixtures.

``inspect``, ``classify``, ``additivity``, ``myo``, ``oracle``,
``construct``, ``transport``, ``alloc-n`` and ``fixture`` run on each of
fx1-fx5, ``alloc-n`` also on the allocation instances under
``tests/golden/instances/``, ``spans`` and ``orthogonal`` on every ordered
pair of fixtures and of the two 3x4 instances there, ``transport`` also on
those two, ``check-ic`` and ``decompose`` on each fixture with
every mechanism of its shape under ``tests/golden/mechanisms/``,
``maximin`` on each two-option mechanism there, and ``generate`` on a
fixed list of seeds, shapes and kinds, refusals included, in json and in
text form; ``fixture`` and ``generate`` take their arguments as written,
the others JSON files.  Each command and format has one file under
``tests/golden/`` holding, per query, the argv, the exit code and the
non-empty streams; refusals are pinned as well as reports.  The test only
reads the files.  After a deliberate change of output, rewrite them with
``PYTHONPATH=src python -m tests.test_golden`` and list every changed file
in CHANGES.md.
"""

import contextlib
import io
import itertools
from pathlib import Path

import pytest

from icmech.cli import main
from icmech.fixtures import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"
MECHANISMS = GOLDEN / "mechanisms"
INSTANCES = GOLDEN / "instances"
FIXTURES = ("fx1", "fx2", "fx3", "fx4", "fx5")
# fx4 with free disposal; a two-agent allocation whose value differences
# split, so nothing is profitable; and a biased one with and without
# disposal, which the direct LP decides.
ALLOCATIONS = ("fx4-disposal", "alloc-additive", "alloc-biased",
               "alloc-biased-disposal")
# Two rank-2 3x4 instances with the same marginals: a generated
# conditionally-independent one, and one with a zero cell.
RECTANGULAR = ("ci-3x4", "ci-3x4-zero")
# Per two-option shape a mechanism that is IC under the independent
# fixtures of that shape, a non-IC one and a constant one; an IC and a
# non-IC allocation mechanism for fx4.
SHAPES = {"fx1": "2x2", "fx2": "2x2", "fx3": "3x3", "fx4": "2x2x2", "fx5": "2x2"}
WITH_MECHANISMS = [(f, m.stem) for f in FIXTURES
                   for m in sorted(MECHANISMS.glob(f"{SHAPES[f]}-*.json"))]
TWO_OPTION_MECHANISMS = [(m.stem,) for shape in ("2x2", "3x3")
                         for m in sorted(MECHANISMS.glob(f"{shape}-*.json"))]
# Each two-agent kind with and without --zero-mean, the allocation kind
# with and without --disposal, a shape refused for its kind and an unknown
# kind.
TWO_AGENT_KINDS = (("independent",), ("correlated",), ("full-rank",),
                   ("conditionally-independent", "--k", "2"))
GENERATED = [("--seed", "7", "--shape", "2x3", "--kind", *kind, *zero_mean)
             for kind in TWO_AGENT_KINDS
             for zero_mean in ((), ("--zero-mean",))]
GENERATED += [("--seed", "7", "--shape", "2x2x2", "--kind", "unbiased-n-alloc"),
              ("--seed", "7", "--shape", "2x2x2", "--kind", "unbiased-n-alloc",
               "--disposal"),
              ("--seed", "7", "--shape", "2x2x2", "--kind", "independent"),
              ("--seed", "7", "--shape", "2x2", "--kind", "no-such-kind")]
COMMANDS = {
    "inspect": [(f,) for f in FIXTURES],
    "classify": [(f,) for f in FIXTURES],
    "additivity": [(f,) for f in FIXTURES],
    "spans": list(itertools.product(FIXTURES, repeat=2))
    + list(itertools.product(RECTANGULAR, repeat=2)),
    "orthogonal": list(itertools.product(FIXTURES, repeat=2))
    + list(itertools.product(RECTANGULAR, repeat=2)),
    "myo": [(f,) for f in FIXTURES],
    "oracle": [(f,) for f in FIXTURES],
    "construct": [(f,) for f in FIXTURES],
    "transport": [(f,) for f in FIXTURES + RECTANGULAR],
    "alloc-n": [(f,) for f in FIXTURES + ALLOCATIONS],
    "maximin": TWO_OPTION_MECHANISMS,
    "fixture": [(f,) for f in FIXTURES],
    "check-ic": WITH_MECHANISMS,
    "decompose": WITH_MECHANISMS,
    "generate": GENERATED,
}
# Commands whose arguments are passed as written rather than as files.
LITERAL = ("fixture", "generate")
FORMATS = ("json", "text")


def golden_text(command: str, fmt: str) -> str:
    """Every query of one command in one format, as the golden file holds it."""
    parts = []
    for names in COMMANDS[command]:
        args = names if command in LITERAL else [_path(n) for n in names]
        argv = [command, *args, "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts.append(f"$ icmech {command} {' '.join(names)} --format {fmt}\n"
                     f"exit {code}\n")
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
            if text:
                parts.append(f"{stream}:\n{text}")
    return "".join(parts)


def _path(name: str) -> str:
    """The JSON file of a fixture, a golden instance or a golden mechanism."""
    if name in FIXTURES:
        return str(fixture_path(name))
    if name in ALLOCATIONS + RECTANGULAR:
        return str(INSTANCES / f"{name}.json")
    return str(MECHANISMS / f"{name}.json")


def golden_path(command: str, fmt: str) -> Path:
    return GOLDEN / f"{command}-{fmt}.txt"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_matches_golden(command, fmt):
    assert golden_text(command, fmt) == golden_path(command, fmt).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in sorted(COMMANDS):
        for fmt in FORMATS:
            golden_path(command, fmt).write_text(golden_text(command, fmt))
