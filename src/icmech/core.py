"""Domain types for mechanism design without transfers on finite type spaces.

A problem instance is a finite type space, a joint type distribution with
strictly positive marginals, and the principal's payoff from the first
option relative to the second.  All probabilities and payoffs are exact
rationals (``fractions.Fraction``) end to end; the characterizations this
package checks are exact equalities, and tolerances would blur them.

Arrays are numpy object arrays holding Fractions, indexed by type profile
in row-major agent order.  A ``JointDist`` also keeps pi over one common
denominator D, its numerators P an int array (``den``, ``nums``),
computed once on construction: its checks, its marginals and
``expectation`` work on them, as do the kernels in ``belief``, ``ic`` and
``nalloc``.  ``JointDist.basis`` is the one reduction of P's slices
(``slices``), the belief table.  The loaders read the plain rational
forms ("-3", "7/12") straight into ints and refuse every key and agent
name they do not read.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .numerics import basis_rows, frac, integer_row

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
    """Ordered agents with ordered type labels per agent that print
    distinctly.

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
            # Reports print labels and join the parts of a key with "|"
            # (``cli._key``), so labels that print the same, or a "|" in a
            # label or an agent name, would merge report entries.
            if len({str(label) for label in labels}) != len(labels):
                raise SchemaError(f"agent {agent!r} has type labels that print the same")
            if "|" in str(agent) or any("|" in str(label) for label in labels):
                raise SchemaError(f"agent {agent!r}: agent names and type labels "
                                  "must not contain '|'")

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

def slices(arr: np.ndarray, i: int) -> np.ndarray:
    """Row s: ``arr`` on the profiles where agent i has type s, flat over
    the other agents' profiles in row-major order."""
    return np.moveaxis(arr, i, 0).reshape(arr.shape[i], -1)


def axis_marginals(p: np.ndarray) -> list[np.ndarray]:
    """Each agent's marginal of a joint probability array, or of any
    array its sums over the profiles where that agent has each type."""
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

    pi is kept as ``nums / den``: ``nums`` an int array of pi's shape and
    ``den`` > 0 with no factor common to all of them, so the pair is
    unique, and ``marginal_nums[i]`` holds agent i's marginal over the same
    ``den``.  ``p`` and ``marginal(i)`` give the same entries as Fractions,
    built on first read, and ``basis(i)`` agent i's basis types, reduced on
    first use.
    """

    def __init__(self, space: TypeSpace, den: int, nums: np.ndarray):
        nums = np.asarray(nums, dtype=object)
        if nums.shape != space.shape:
            raise SchemaError(f"pi has shape {nums.shape}, expected {space.shape}")
        flat = list(nums.reshape(-1))
        if any(v < 0 for v in flat):
            raise SchemaError("pi entries must be nonnegative")
        if sum(flat) != den:
            raise SchemaError("pi entries must sum to exactly 1")
        msums = axis_marginals(nums)
        for agent, sums in zip(space.agents, msums):
            if any(v == 0 for v in sums):
                raise SchemaError(
                    f"agent {agent!r} has a zero-probability type; "
                    "drop it from the instance")
        g = math.gcd(den, *flat)
        if g > 1:
            den, nums = den // g, nums // g
            msums = [sums // g for sums in msums]
        self.space = space
        self.den = den
        self.nums = nums
        self.marginal_nums = tuple(msums)
        self._bases: dict[int, list[int]] = {}

    @functools.cached_property
    def p(self) -> np.ndarray:
        return np.array([Fraction(v, self.den) for v in self.nums.reshape(-1)],
                        dtype=object).reshape(self.space.shape)

    @functools.cached_property
    def _marginals(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array([Fraction(v, self.den) for v in sums], dtype=object)
                     for sums in self.marginal_nums)

    @classmethod
    def from_fractions(cls, space: TypeSpace, probabilities: np.ndarray) -> "JointDist":
        """The distribution with Fraction entries ``probabilities``."""
        probabilities = np.asarray(probabilities, dtype=object)
        flat = probabilities.reshape(-1)
        if not all(isinstance(v, Fraction) for v in flat):
            raise SchemaError("pi entries must be exact rationals")
        den, nums = integer_row(flat)
        return cls(space, den, np.array(nums, dtype=object).reshape(probabilities.shape))

    def marginal(self, i: int) -> np.ndarray:
        return self._marginals[i]

    def marginals(self) -> tuple[np.ndarray, ...]:
        return self._marginals

    def is_independent(self) -> bool:
        """pi == pi_L (x) pi_R, in integers: P D == P_L (x) P_R with P_L
        and P_R the row and column sums of P."""
        two_agent(self.space)
        return arrays_equal(self.nums * self.den,
                            np.multiply.outer(*axis_marginals(self.nums)))

    def basis(self, i: int) -> list[int]:
        """Agent i's types, in increasing order, whose pi-slices the exact
        echelon reduction keeps: a basis of those slices and so of agent i's
        beliefs; for two agents, rank(pi) rows (columns for agent R) of pi.
        Reduced on first use and kept: callers must not change the list."""
        if i not in self._bases:
            self._bases[i] = basis_rows(list(slices(self.nums, i)))
        return self._bases[i]

    def matrix_rank(self) -> int:
        two_agent(self.space)
        return len(self.basis(0))

    def __eq__(self, other):
        return isinstance(other, JointDist) and self.space == other.space \
            and self.den == other.den and arrays_equal(self.nums, other.nums)


def product_dist(space: TypeSpace, marginals: list[np.ndarray]) -> JointDist:
    """Independent joint distribution from per-agent marginals, each
    nonnegative and summing to exactly 1: the outer product of their
    integer numerators over the product of their denominators."""
    dens, nums = [], []
    for agent, marginal in zip(space.agents, marginals):
        den, ints = integer_row(marginal)
        if any(v < 0 for v in ints) or sum(ints) != den:
            raise SchemaError(f"the marginal of agent {agent!r} must be "
                              "nonnegative and sum to exactly 1")
        dens.append(den)
        nums.append(np.array(ints, dtype=object))
    return JointDist(space, math.prod(dens), functools.reduce(np.multiply.outer, nums))


def expectation(dist: JointDist, values: np.ndarray) -> Fraction:
    """E[values] under pi, in integers: sum P V over D d, with V the
    values' integers over one denominator d."""
    den, ints = integer_row(np.reshape(values, -1))
    return Fraction(sum(p * v for p, v in zip(dist.nums.flat, ints) if v),
                    dist.den * den)


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
        if isinstance(v, (int, str)) and not isinstance(v, bool):
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
# object arrays takes at most 32 axes, and the free-disposal reduction
# (``AllocationInstance.no_disposal``) adds a dummy agent.
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
    if len(node) > MAX_DIGITS:
        return True
    if "e" not in node and "E" not in node:  # no other character lowers to "e"
        return False
    exponent = node.replace("_", "").lower().partition("e")[2].strip()
    exponent = exponent.lstrip("+-")
    return exponent.isdecimal() and int(exponent) > MAX_DIGITS


# The plain forms of a rational, in ASCII digits: read as two ints, with
# no pass through ``Fraction(str)``'s regex.  Every other form (decimals,
# exponents, signs, spaces, underscores, other digits) goes through it.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational_nested(node, shape, where: str):
    if len(shape) == 0:
        if isinstance(node, float):
            raise SchemaError(
                f"{where}: floats are not exact; write rationals as strings "
                "like \"1/4\" or \"0.25\"")
        if isinstance(node, bool):
            raise SchemaError(f"{where}: booleans are not numbers; write "
                              "rationals as strings like \"1/4\"")
        if isinstance(node, (int, str)) and _too_large(node):
            raise SchemaError(f"{where}: a number has more than {MAX_DIGITS} "
                              f"digits or an exponent beyond {MAX_DIGITS}")
        plain = _PLAIN_RATIONAL.fullmatch(node) if isinstance(node, str) else None
        try:
            if plain:
                num, den = plain.groups()
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
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


def check_keys(data: dict, allowed: tuple[str, ...], what: str) -> None:
    """Refuse every key of ``data`` outside ``allowed``: a misspelt or
    misplaced key would otherwise be read as an absent one."""
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise SchemaError(f"{what} has unknown key(s) {unknown}; "
                          f"it reads only {list(allowed)}")


def per_agent(data: dict, key: str, agents: tuple[str, ...]) -> list:
    """The entries of the map ``data[key]``, one per agent in order;
    refuses a missing map or agent and a name that is not an agent's."""
    node = data.get(key)
    if not isinstance(node, dict):
        raise SchemaError(f"'{key}' must map each agent to its entry")
    missing = [a for a in agents if a not in node]
    if missing:
        raise SchemaError(f"'{key}' missing entries for agents {missing}")
    unknown = [a for a in node if a not in agents]
    if unknown:
        raise SchemaError(f"'{key}' has entries for names not in 'agents': {unknown}")
    return [node[a] for a in agents]


def parse_type_space(data: dict) -> TypeSpace:
    if "agents" not in data or "types" not in data:
        raise SchemaError("instance requires 'agents' and 'types'")
    if not isinstance(data["agents"], list) or \
            not all(isinstance(a, str) for a in data["agents"]):
        raise SchemaError("'agents' must be a list of agent names")
    if not data["agents"]:
        raise SchemaError("'agents' must name at least one agent")
    agents = tuple(data["agents"])
    types = tuple(_parse_labels(raw) for raw in per_agent(data, "types", agents))
    check_profile_count(tuple(len(labels) for labels in types))
    return TypeSpace(agents, types)


def load_instance(source) -> Instance:
    """Parse a two-option instance from a dict, JSON string or file path.

    Schema: {"agents": [...], "types": {agent: [labels]}, "pi": [[...]],
    "vL": [[...]], "vR": [[...]] (optional, defaults to 0), "name",
    "seed"}, all rationals written as exact strings; any other key is
    refused.
    """
    data = load_json_dict(source)
    check_keys(data, ("agents", "types", "pi", "vL", "vR", "name", "seed"),
               "a two-option instance")
    space = parse_type_space(data)
    if "pi" not in data or "vL" not in data:
        raise SchemaError("two-option instance requires 'pi' and 'vL'")
    pi = parse_rational_array(data["pi"], space.shape, "pi")
    vL = parse_rational_array(data["vL"], space.shape, "vL")
    vR = (parse_rational_array(data["vR"], space.shape, "vR")
          if "vR" in data else constant_array(space.shape, 0))
    dist = JointDist.from_fractions(space, pi)
    name = data.get("name")
    seed = data.get("seed")
    return Instance(space, dist, normalize(vL, vR, dist), name=name, seed=seed)


def load_mechanism_json(source) -> dict:
    """The JSON object of a mechanism ({"x": ...}): the loaded object
    itself, or the one a report embeds under "mechanism"; a key other than
    "x" is refused."""
    data = load_json_dict(source)
    if "x" not in data and isinstance(data.get("mechanism"), dict):
        data = data["mechanism"]
    check_keys(data, ("x",), "a mechanism")
    return data


def load_mechanism(source, space: TypeSpace) -> Mechanism:
    """Parse a mechanism ({"x": nested array}) for a given type space.

    Also accepts a report dict that embeds the mechanism under "mechanism".
    """
    data = load_mechanism_json(source)
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


def load_any(source):
    """A two-option ``Instance`` (a file with "vL") or an
    ``AllocationInstance`` (a file with "v"); ``nalloc`` is imported only
    for the latter."""
    data = load_json_dict(source)
    if "vL" in data:
        return load_instance(data)
    if "v" in data:
        from .nalloc import load_allocation
        return load_allocation(data)
    raise SchemaError("instance file has neither 'vL' (two-option) nor "
                      "'v' (allocation)")


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
