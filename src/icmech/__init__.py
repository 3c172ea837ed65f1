"""Exact analysis of mechanisms without transfers on finite type spaces.

The package decides, with exact rational arithmetic throughout, whether
mechanisms are incentive compatible, how the set of implementable
mechanisms varies with the type distribution, and when a mechanism exists
that beats the principal's best ex-ante decision, for the two-option
problem and for the n-agent allocation problem with independent types.
Its arrays hold exact rationals, never floats, so BLAS is never called:
when this package is the first to import numpy, OpenBLAS starts with one
thread instead of an idle pool.

The public names below are imported from their modules on first use, so
``import icmech`` loads numpy and nothing else of the package.
"""

import os
import sys

# OpenBLAS reads the variable only when it loads; removing it afterwards
# leaves os.environ, and so child processes, as they were.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import importlib

# Each public name and the module it lives in.  A name is imported on first
# use (PEP 562), so a command loads only the modules it needs.
_EXPORTS = {
    "core": ("Instance", "JointDist", "Mechanism", "NoneCertificate", "Objective",
             "TypeSpace", "PreconditionError", "SchemaError",
             "constant_mechanism", "expectation", "load_instance",
             "load_mechanism", "normalize", "product_dist"),
    "game": ("MaximinSolution", "maximin", "obedience_check"),
    "ic": ("ICReport", "SpanningVerdict", "check_ic", "classify_extremes", "spans"),
    "nalloc": ("AllocationInstance", "AllocationMechanism", "analyze_allocation",
               "check_ic_n", "construct_profitable_n", "difference_additive",
               "load_allocation"),
    "numerics": ("LinearProgram", "LPSolution", "solve_linear_system", "solve_lp"),
    "oracle": ("generate", "solve_principal", "solve_principal_alloc"),
    "profit": ("AdditivityReport", "ConstructionResult", "Decomposition",
               "MatchingReport", "TransportResult", "additivity_test",
               "construct_profitable", "decompose", "match_your_opponent",
               "orthogonal", "transport_criterion"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
