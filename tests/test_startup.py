"""Start-up: ``import icmech`` loads numpy with one OpenBLAS thread and
leaves the environment as it found it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icmech

SRC = Path(icmech.__file__).resolve().parent.parent

PROBE = """
import json, os, subprocess, sys
before = dict(os.environ)
{imports}
child = subprocess.run(
    [sys.executable, "-c",
     "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
    capture_output=True, text=True, check=True).stdout.strip()
task = "/proc/self/task"
print(json.dumps({{
    "unchanged": dict(os.environ) == before,
    "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
    "child_variable": None if child == "None" else child,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


def probe(imports: str = "import icmech", **env) -> dict:
    """Run ``imports`` in a fresh interpreter and report its environment,
    a child's view of OPENBLAS_NUM_THREADS and its thread count."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                          capture_output=True, text=True, timeout=60,
                          env={**base, "PYTHONPATH": str(SRC), **env})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def openblas_numpy() -> bool:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


threads_readable = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and openblas_numpy()),
    reason="thread count read from /proc with an OpenBLAS numpy")


def test_import_leaves_the_environment_as_it_was():
    found = probe()
    assert found["unchanged"]
    assert found["variable"] is None and found["child_variable"] is None


@threads_readable
def test_import_starts_one_thread():
    assert probe()["threads"] == 1


def test_user_setting_is_kept():
    found = probe(OPENBLAS_NUM_THREADS="2")
    assert found["unchanged"]
    assert found["variable"] == "2" and found["child_variable"] == "2"


def test_numpy_imported_first_is_left_alone():
    found = probe("import numpy; import icmech")
    assert found["unchanged"]
    assert found["variable"] is None and found["child_variable"] is None


@threads_readable
def test_numpy_imported_first_keeps_its_threads():
    assert probe("import numpy; import icmech")["threads"] == \
        probe("import numpy")["threads"]


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; the JSON it prints."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_inspect_loads_only_what_it_needs():
    # Each command imports its own modules: inspecting a two-option
    # instance runs no analysis, so no analysis module is loaded.
    found = run_fresh(
        "import contextlib, io, json, sys\n"
        "from icmech import cli\n"
        "from icmech.fixtures import fixture_path\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['inspect', str(fixture_path('fx1'))])\n"
        "print(json.dumps({'code': code, 'loaded': sorted(sys.modules)}))\n")
    assert found["code"] == 0
    for module in ("belief", "game", "ic", "nalloc", "oracle", "profit"):
        assert f"icmech.{module}" not in found["loaded"]


def test_star_import_binds_every_public_name():
    found = run_fresh(
        "import importlib, json\n"
        "import icmech\n"
        "names = {}\n"
        "exec('from icmech import *', names)\n"
        "print(json.dumps({name: names.get(name) is getattr(\n"
        "    importlib.import_module(f'icmech.{icmech._MODULE_OF[name]}'), name)\n"
        "    for name in icmech.__all__}))\n")
    assert len(found) == len(icmech.__all__) and all(found.values())


def test_lp_queries_leave_pi_as_integers():
    # The oracle and the transport criterion read pi's integers only: after
    # both queries on each two-option fixture, below full rank (an LP runs)
    # and at full rank (none runs), the loaded instance has not built the
    # Fraction array ``JointDist.p``.
    found = run_fresh(
        "import contextlib, io, json\n"
        "from icmech import cli, core\n"
        "from icmech.fixtures import fixture_path\n"
        "loaded = []\n"
        "load = core.load_instance\n"
        "def recording_load(data):\n"
        "    loaded.append(load(data))\n"
        "    return loaded[-1]\n"
        "core.load_instance = recording_load\n"
        "codes = []\n"
        "for name in ('fx1', 'fx2', 'fx3', 'fx5'):\n"
        "    for command in ('oracle', 'transport'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            codes.append(cli.main([command, str(fixture_path(name))]))\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'ranks': [inst.dist.matrix_rank() for inst in loaded],\n"
        "                  'built': ['p' in vars(inst.dist) for inst in loaded]}))\n")
    assert found["codes"] == [0] * 8
    assert found["ranks"] == [1, 1, 2, 2, 1, 1, 1, 1]
    assert found["built"] == [False] * 8
