import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icmech import Mechanism, load_instance
from icmech.fixtures import fixture


@pytest.fixture(scope="session")
def inst_fx1():
    return fixture("fx1")


@pytest.fixture(scope="session")
def inst_fx2():
    return fixture("fx2")


@pytest.fixture(scope="session")
def inst_fx3():
    return fixture("fx3")


@pytest.fixture(scope="session")
def inst_fx4():
    return fixture("fx4")


@pytest.fixture(scope="session")
def inst_fx5():
    return fixture("fx5")


def matching_mechanism(space) -> Mechanism:
    """Choose the first option iff the two reports agree (by position)."""
    m, n = space.shape
    arr = np.array([[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                    for i in range(m)], dtype=object)
    return Mechanism(space, arr)


@pytest.fixture
def xstar(inst_fx1):
    return matching_mechanism(inst_fx1.space)


def two_option(space, pi, vL):
    """A two-option instance on ``space`` from nested rationals, through
    ``load_instance``."""
    types = {a: list(t) for a, t in zip(space.agents, space.types)}
    return load_instance({"agents": list(space.agents), "types": types,
                          "pi": pi, "vL": vL})
