"""Canonical worked instances shipped with the package.

fx1  2x2 uniform independent types {-1, 1}, v = s*t.  The matching
     mechanism ("choose the first option iff reports agree") is IC and
     earns 1/2; no constant mechanism earns anything.
fx2  Same objective under the correlated distribution that puts mass
     1/4 + eps on mismatched profiles (eps = 1/8).  Full rank, so only
     constant mechanisms are IC and nothing is profitable.
fx3  3x3 uniform independent, types {-1, 0, 1}, v(s, t) = s*t.  Used for
     the match-your-opponent analysis.
fx4  Three agents, iid uniform on {-1, 1}; allocating to agent i is worth
     the type of the next agent (cyclically).  Unbiased, not
     difference-additive, so a profitable allocation mechanism exists.
fx5  2x2 uniform independent, v = s + t: an additive objective, so no
     profitable mechanism exists despite E[v] = 0.

Each lives as a JSON file next to this module; ``fixture(name)`` loads it
with the same loaders the CLI uses.
"""

from __future__ import annotations

import json
from importlib import resources

from .core import load_any

FIXTURE_NAMES = ("fx1", "fx2", "fx3", "fx4", "fx5")


def fixture(name: str):
    """Load a canonical instance by name ("fx1" .. "fx5")."""
    return load_any(json.loads(fixture_path(name).read_text()))


def fixture_path(name: str):
    """Filesystem path of the shipped JSON file for a fixture."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return resources.files(__package__) / "fixtures" / f"{name}.json"
