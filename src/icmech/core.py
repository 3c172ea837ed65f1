"""Domain types for mechanism design without transfers on finite type spaces.

A problem instance is a finite type space, a joint type distribution with
strictly positive marginals, and the principal's payoff from the first
option relative to the second.  All probabilities and payoffs are exact
rationals (``fractions.Fraction``) end to end; the characterizations this
package checks are exact equalities, and tolerances would blur them.

Arrays are numpy object arrays holding Fractions, indexed by type profile
in row-major agent order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .numerics import frac, rank as matrix_rank_rows

ZERO = Fraction(0)
ONE = Fraction(1)


class SchemaError(ValueError):
    """An instance or mechanism file violates the JSON schema."""


class PreconditionError(ValueError):
    """An operation was invoked outside the regime where its result is defined."""


# ---------------------------------------------------------------------------
# Type space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeSpace:
    """Ordered agents with ordered, distinct type labels per agent.

    Profiles are enumerated row-major in agent order, so profile indices
    are deterministic and match numpy's C order for arrays of shape
    ``self.shape``.
    """

    agents: tuple[str, ...]
    types: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.agents) != len(self.types):
            raise SchemaError("one type list per agent required")
        if len(set(self.agents)) != len(self.agents):
            raise SchemaError("agent names must be distinct")
        for agent, labels in zip(self.agents, self.types):
            if len(labels) < 1:
                raise SchemaError(f"agent {agent!r} has no types")
            if len(set(labels)) != len(labels):
                raise SchemaError(f"agent {agent!r} has duplicate type labels")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.types)

    @property
    def n_profiles(self) -> int:
        out = 1
        for k in self.shape:
            out *= k
        return out

    def profiles(self):
        """Iterate type profiles in row-major (C) order."""
        return itertools.product(*self.types)

    def position(self, agent_index: int, label) -> int:
        try:
            return self.types[agent_index].index(label)
        except ValueError:
            raise KeyError(f"unknown type {label!r} for agent "
                           f"{self.agents[agent_index]!r}") from None

    def agent_index(self, agent: str) -> int:
        try:
            return self.agents.index(agent)
        except ValueError:
            raise KeyError(f"unknown agent {agent!r}") from None


def two_agent(space: TypeSpace) -> None:
    if space.n_agents != 2:
        raise PreconditionError("operation is defined for two-agent instances only")


# ---------------------------------------------------------------------------
# Rational arrays
# ---------------------------------------------------------------------------

def constant_array(shape: tuple[int, ...], value) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr[...] = frac(value)
    return arr


def array_sum(arr: np.ndarray) -> Fraction:
    return sum(arr.reshape(-1), ZERO)


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def to_nested_strings(arr):
    """Nested lists of exact rational strings, for JSON serialization."""
    if isinstance(arr, np.ndarray):
        return [to_nested_strings(sub) for sub in arr]
    return str(arr)


# ---------------------------------------------------------------------------
# Joint distributions
# ---------------------------------------------------------------------------

def axis_marginals(p: np.ndarray) -> list[np.ndarray]:
    """Each agent's marginal of a joint probability array."""
    out = []
    for i in range(p.ndim):
        axes = tuple(a for a in range(p.ndim) if a != i)
        out.append(p.sum(axis=axes) if axes else p.copy())
    return out


class JointDist:
    """Joint type distribution with exact entries and positive marginals.

    Entries are nonnegative and sum to exactly 1.  Every one-dimensional
    marginal is strictly positive (types that cannot occur are rejected at
    construction; drop them first if needed).  Conditionals are exact
    because marginals never vanish.
    """

    def __init__(self, space: TypeSpace, probabilities: np.ndarray):
        probabilities = np.asarray(probabilities, dtype=object)
        if probabilities.shape != space.shape:
            raise SchemaError(f"pi has shape {probabilities.shape}, "
                              f"expected {space.shape}")
        flat = probabilities.reshape(-1)
        for v in flat:
            if not isinstance(v, Fraction):
                raise SchemaError("pi entries must be exact rationals")
            if v < 0:
                raise SchemaError("pi entries must be nonnegative")
        if array_sum(probabilities) != 1:
            raise SchemaError("pi entries must sum to exactly 1")
        self.space = space
        self.p = probabilities
        self._marginals = tuple(axis_marginals(probabilities))
        for agent, m in zip(space.agents, self._marginals):
            if any(v == 0 for v in m):
                raise SchemaError(
                    f"agent {agent!r} has a zero-probability type; "
                    "drop it or pass drop_zero_types=True when loading")

    def marginal(self, i: int) -> np.ndarray:
        return self._marginals[i]

    def marginals(self) -> tuple[np.ndarray, ...]:
        return self._marginals

    def is_independent(self) -> bool:
        two_agent(self.space)
        ml, mr = self._marginals
        return arrays_equal(self.p, np.multiply.outer(ml, mr))

    def matrix_rank(self) -> int:
        two_agent(self.space)
        return matrix_rank_rows([list(row) for row in self.p])

    def independent_counterpart(self) -> "JointDist":
        """Product of this distribution's marginals (same type space)."""
        two_agent(self.space)
        ml, mr = self._marginals
        return JointDist(self.space, np.multiply.outer(ml, mr))

    def __eq__(self, other):
        return isinstance(other, JointDist) and self.space == other.space \
            and arrays_equal(self.p, other.p)


def product_dist(space: TypeSpace, marginals: list[np.ndarray]) -> JointDist:
    """Independent joint distribution from per-agent marginals."""
    return JointDist(space, functools.reduce(np.multiply.outer, marginals))


def expectation(dist: JointDist, values: np.ndarray) -> Fraction:
    return array_sum(dist.p * values)


# ---------------------------------------------------------------------------
# Mechanisms and objectives
# ---------------------------------------------------------------------------

class Mechanism:
    """Map from type profiles to the probability that the first option is
    chosen; every entry lies in [0, 1] exactly."""

    def __init__(self, space: TypeSpace, values: np.ndarray):
        values = np.asarray(values, dtype=object)
        if values.shape != space.shape:
            raise SchemaError(f"mechanism has shape {values.shape}, "
                              f"expected {space.shape}")
        for v in values.reshape(-1):
            if not isinstance(v, Fraction):
                raise SchemaError("mechanism entries must be exact rationals")
            if not (0 <= v <= 1):
                raise SchemaError("mechanism entries must lie in [0, 1]")
        self.space = space
        self.x = values

    def __eq__(self, other):
        return isinstance(other, Mechanism) and self.space == other.space \
            and arrays_equal(self.x, other.x)


def constant_mechanism(space: TypeSpace, value) -> Mechanism:
    return Mechanism(space, constant_array(space.shape, value))


@dataclass
class Objective:
    """Principal's payoff, normalized so the second option is worth 0.

    ``v = raw_vL - raw_vR``; if the raw difference has positive expectation
    the option labels are swapped (v negated, ``swapped`` set) so that the
    second option is the ex-ante preferred one and E[v] <= 0 holds.
    """

    v: np.ndarray
    raw_vL: np.ndarray
    raw_vR: np.ndarray
    swapped: bool
    expected_value: Fraction


def normalize(raw_vL: np.ndarray, raw_vR: np.ndarray, dist: JointDist) -> Objective:
    """Normalize a pair of option payoffs against a distribution."""
    space = dist.space
    raw_vL = np.asarray(raw_vL, dtype=object)
    raw_vR = np.asarray(raw_vR, dtype=object)
    if raw_vL.shape != space.shape or raw_vR.shape != space.shape:
        raise SchemaError("objective arrays must match the type space shape")
    v = raw_vL - raw_vR
    ev = expectation(dist, v)
    swapped = ev > 0
    if swapped:
        v = -v
        ev = -ev
    return Objective(v=v, raw_vL=raw_vL, raw_vR=raw_vR,
                     swapped=swapped, expected_value=ev)


@dataclass
class NoneCertificate:
    """Certificate that no profitable mechanism exists.

    ``method`` names the exact argument that rules one out (for example a
    zero projection residual, or the optimum of the direct LP over the IC
    polytope); ``details`` carries its witnesses.
    """

    reason: str
    method: str
    details: dict = field(default_factory=dict)


@dataclass
class Instance:
    """A full two-option problem: type space, distribution, objective."""

    space: TypeSpace
    dist: JointDist
    objective: Objective
    name: str | None = None
    seed: int | None = None

    @property
    def v(self) -> np.ndarray:
        return self.objective.v


# ---------------------------------------------------------------------------
# JSON schema (exact rational strings)
# ---------------------------------------------------------------------------

def _parse_labels(raw) -> tuple:
    if not isinstance(raw, list):
        raise SchemaError(f"type labels must be given as a list, got {raw!r}")
    labels = []
    for v in raw:
        if isinstance(v, (int, str)):
            labels.append(v)
        else:
            raise SchemaError(f"type labels must be ints or strings, got {v!r}")
    return tuple(labels)


# Bounds an input number's length and decimal exponent: beyond them exact
# parsing and printing do unbounded work.
MAX_DIGITS = 1000
_INT_LIMIT = 10 ** MAX_DIGITS


# Bounds the number of type profiles, checked on the shape before any
# array is built: every array, row family and LP grows with it.
MAX_PROFILES = 4096
# Bounds the number of agents, one array axis each: NumPy's ``dot`` on
# object arrays takes at most 32 axes, and ``nalloc.with_disposal`` adds a
# dummy agent.
MAX_AGENTS = 31


def check_profile_count(shape: tuple[int, ...]) -> None:
    """Refuse a type space with more than ``MAX_AGENTS`` agents or more
    than ``MAX_PROFILES`` profiles."""
    if len(shape) > MAX_AGENTS:
        raise SchemaError(f"the type space has {len(shape)} agents; "
                          f"at most {MAX_AGENTS} are supported")
    count = math.prod(shape)
    if count > MAX_PROFILES:
        raise SchemaError(f"the type space has {count} profiles; "
                          f"at most {MAX_PROFILES} are supported")


def _too_large(node) -> bool:
    if isinstance(node, int):
        return abs(node) >= _INT_LIMIT
    exponent = node.replace("_", "").lower().partition("e")[2].strip()
    exponent = exponent.lstrip("+-")
    return len(node) > MAX_DIGITS or \
        (exponent.isdecimal() and int(exponent) > MAX_DIGITS)


def _parse_rational_nested(node, shape, where: str):
    if len(shape) == 0:
        if isinstance(node, float):
            raise SchemaError(
                f"{where}: floats are not exact; write rationals as strings "
                "like \"1/4\" or \"0.25\"")
        if isinstance(node, (int, str)) and _too_large(node):
            raise SchemaError(f"{where}: a number has more than {MAX_DIGITS} "
                              f"digits or an exponent beyond {MAX_DIGITS}")
        try:
            return frac(node)
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise SchemaError(f"{where}: bad rational {node!r} ({e})") from None
    if not isinstance(node, list) or len(node) != shape[0]:
        raise SchemaError(f"{where}: expected a list of length {shape[0]}")
    return [_parse_rational_nested(child, shape[1:], where) for child in node]


def parse_rational_array(node, shape: tuple[int, ...], where: str) -> np.ndarray:
    data = _parse_rational_nested(node, shape, where)
    arr = np.empty(shape, dtype=object)
    arr[...] = np.array(data, dtype=object).reshape(shape)
    return arr


def parse_type_space(data: dict) -> TypeSpace:
    if "agents" not in data or "types" not in data:
        raise SchemaError("instance requires 'agents' and 'types'")
    if not isinstance(data["agents"], list) or \
            not all(isinstance(a, str) for a in data["agents"]):
        raise SchemaError("'agents' must be a list of agent names")
    if not data["agents"]:
        raise SchemaError("'agents' must name at least one agent")
    if not isinstance(data["types"], dict):
        raise SchemaError("'types' must map each agent to its type labels")
    agents = tuple(data["agents"])
    types_map = data["types"]
    missing = [a for a in agents if a not in types_map]
    if missing:
        raise SchemaError(f"'types' missing entries for agents {missing}")
    types = tuple(_parse_labels(types_map[a]) for a in agents)
    check_profile_count(tuple(len(labels) for labels in types))
    return TypeSpace(agents, types)


def without_zero_types(space: TypeSpace, marginals, arrays) -> tuple:
    """Remove the types whose marginal probability is 0: the smaller type
    space, the marginals on it and each full-profile array restricted to it."""
    keep = [[k for k, p in enumerate(m) if p != 0] for m in marginals]
    for agent, kept in zip(space.agents, keep):
        if not kept:
            raise SchemaError(f"agent {agent!r} has no positive-probability types")
    slicer = np.ix_(*keep)
    new_space = TypeSpace(space.agents,
                          tuple(tuple(labels[k] for k in kept)
                                for labels, kept in zip(space.types, keep)))
    return (new_space, [m[kept] for m, kept in zip(marginals, keep)],
            [arr[slicer] for arr in arrays])


def load_instance(source, *, drop_zero_types: bool = False) -> Instance:
    """Parse a two-option instance from a dict, JSON string or file path.

    Schema: {"agents": [...], "types": {agent: [labels]}, "pi": [[...]],
    "vL": [[...]], "vR": [[...]] (optional, defaults to 0)}, all rationals
    written as exact strings.
    """
    data = load_json_dict(source)
    space = parse_type_space(data)
    if "pi" not in data or "vL" not in data:
        raise SchemaError("two-option instance requires 'pi' and 'vL'")
    pi = parse_rational_array(data["pi"], space.shape, "pi")
    vL = parse_rational_array(data["vL"], space.shape, "vL")
    vR = (parse_rational_array(data["vR"], space.shape, "vR")
          if "vR" in data else constant_array(space.shape, 0))
    if drop_zero_types:
        space, _, (pi, vL, vR) = without_zero_types(
            space, axis_marginals(pi), [pi, vL, vR])
    dist = JointDist(space, pi)
    name = data.get("name")
    seed = data.get("seed")
    return Instance(space, dist, normalize(vL, vR, dist), name=name, seed=seed)


def load_mechanism(source, space: TypeSpace) -> Mechanism:
    """Parse a mechanism ({"x": nested array}) for a given type space.

    Also accepts a report dict that embeds the mechanism under "mechanism".
    """
    data = load_json_dict(source)
    if "x" not in data and isinstance(data.get("mechanism"), dict):
        data = data["mechanism"]
    if "x" not in data:
        raise SchemaError("mechanism requires 'x'")
    node = data["x"]
    if isinstance(node, dict):
        raise SchemaError("per-agent mechanism given; this operation expects "
                          "a single two-option array under 'x'")
    return Mechanism(space, parse_rational_array(node, space.shape, "x"))


def load_json_dict(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        is_file = isinstance(source, (str, Path)) and Path(source).exists()
    except OSError:  # JSON text longer than a file name may be
        is_file = False
    if is_file:
        text = Path(source).read_text()
    elif isinstance(source, str) and source.lstrip()[:1] in ("{", "["):
        text = source
    elif isinstance(source, (str, Path)):
        # Neither an existing file nor JSON text: most likely a mistyped path.
        raise SchemaError(f"no such file: {source}")
    else:
        raise SchemaError(f"cannot load instance from {type(source).__name__}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # too long an integer, too deep
        raise SchemaError(f"invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    return data


def instance_to_dict(inst: Instance) -> dict:
    out = {
        "agents": list(inst.space.agents),
        "types": {a: list(t) for a, t in zip(inst.space.agents, inst.space.types)},
        "pi": to_nested_strings(inst.dist.p),
        "vL": to_nested_strings(inst.objective.raw_vL),
        "vR": to_nested_strings(inst.objective.raw_vR),
    }
    if inst.name is not None:
        out["name"] = inst.name
    if inst.seed is not None:
        out["seed"] = inst.seed
    return out


def dumps_canonical(data: dict) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.

    Serialize-parse-serialize is byte-identical under this form.
    """
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def dump_instance(inst: Instance) -> str:
    return dumps_canonical(instance_to_dict(inst))
