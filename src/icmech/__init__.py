"""Exact analysis of mechanisms without transfers on finite type spaces.

The package decides, with exact rational arithmetic throughout, whether
mechanisms are incentive compatible, how the set of implementable
mechanisms varies with the type distribution, and when a mechanism exists
that beats the principal's best ex-ante decision, for the two-option
problem and for the n-agent allocation problem with independent types.
Its arrays hold exact rationals, never floats, so BLAS is never called:
when this package is the first to import numpy, OpenBLAS starts with one
thread instead of an idle pool.
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

from .core import (Instance, JointDist, Mechanism, NoneCertificate, Objective,
                   PreconditionError, SchemaError, TypeSpace,
                   constant_mechanism, expectation, load_instance,
                   load_mechanism, normalize, product_dist)
from .game import MaximinSolution, maximin, obedience_check
from .ic import ICReport, SpanningVerdict, check_ic, classify_extremes, spans
from .nalloc import (AllocationInstance, AllocationMechanism,
                     analyze_allocation, check_ic_n, construct_profitable_n,
                     difference_additive, load_allocation)
from .numerics import (LinearProgram, LPSolution, rank, solve_linear_system,
                       solve_lp)
from .oracle import generate, solve_principal, solve_principal_alloc
from .profit import (AdditivityReport, ConstructionResult, Decomposition,
                     MatchingReport, TransportResult, additivity_test,
                     construct_profitable, decompose, match_your_opponent,
                     orthogonal, transport_criterion)

__all__ = [
    "Instance", "JointDist", "Mechanism", "NoneCertificate", "Objective",
    "TypeSpace", "PreconditionError", "SchemaError",
    "constant_mechanism", "expectation", "load_instance", "load_mechanism",
    "normalize", "product_dist",
    "MaximinSolution", "maximin", "obedience_check",
    "ICReport", "SpanningVerdict", "check_ic", "classify_extremes", "spans",
    "AllocationInstance", "AllocationMechanism", "analyze_allocation",
    "check_ic_n", "construct_profitable_n", "difference_additive",
    "load_allocation",
    "LinearProgram", "LPSolution", "rank",
    "solve_linear_system", "solve_lp",
    "generate", "solve_principal", "solve_principal_alloc",
    "AdditivityReport", "ConstructionResult", "Decomposition",
    "MatchingReport", "TransportResult", "additivity_test",
    "construct_profitable", "decompose", "match_your_opponent", "orthogonal",
    "transport_criterion",
]

__version__ = "0.1.0"
