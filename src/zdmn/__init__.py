"""Discrete memoryless networks whose nodes may transmit without delay.

A network of N nodes is described by an ordered list of channels together
with partitions of the transmit and receive sides that fix the within-slot
generation order.  A node incurs no delay when its received symbol of a slot
is available while encoding its transmitted symbol of the same slot; a delay
profile records one bit per node, and is feasible exactly when every
zero-delay node's transmit block comes strictly after its receive block.

The package computes exact per-cut outer bounds on the achievable-rate
region (in both the unconstrained and the all-delayed settings), simulates
arbitrary table codes slot by slot, checks the Markov structure of the
distributions they induce by exact enumeration of their outcomes,
and reproduces two separations between the zero-delay and all-delayed
regimes: a noisy/noiseless binary pair whose feedback link reaches a full
bit per slot only with a zero-delay node, and an additive-noise relay chain
whose undelayed relay neutralizes the downstream noise.

`import zdmn` loads none of the submodules, and so not numpy either: each
public name below is looked up in its submodule, which is imported on the
first use of any of its names (PEP 562).  The command line likewise loads
only the submodules a subcommand runs.
"""

import importlib

# public name -> the submodule that defines it
_MODULE_OF = {
    **dict.fromkeys(("CutConstraint", "MembershipResult", "RateRegionReport", "RateTuple",
                     "grid_hull", "region_membership"), "bounds"),
    **dict.fromkeys(("DomainError", "ResourceCapError", "SpecIOError", "ZdmnError"), "errors"),
    **dict.fromkeys(("CodebookResult", "GaussianRelayConfig", "RelayTrace",
                     "SeparationReport", "codebook_experiment", "neutralization_rate",
                     "separation_report", "simulate_relay"), "gaussian"),
    **dict.fromkeys(("ChannelTable", "Cut", "DelayProfile", "NetworkSpec", "NodeSet",
                     "Partition", "ValidationReport", "enumerate_cuts",
                     "enumerate_feasible_profiles", "is_feasible", "load_spec", "save_spec",
                     "validate_spec"), "model"),
    **dict.fromkeys(("BUNDLED", "bscfb_spec", "bundled_spec", "causal_relay_spec",
                     "classical_bsc_spec", "deterministic_two_node_spec"), "networks"),
    **dict.fromkeys(("PolarCode",), "polar"),
    **dict.fromkeys(("JointPmf", "binary_entropy", "compose_channels",
                     "conditional_mutual_information", "marginalize"), "probability"),
    **dict.fromkeys(("BscFbRegion", "BscFbSchemeResult", "ErrorReport", "SimTrace",
                     "TableCode", "bscfb_capacity_region", "bscfb_scheme",
                     "check_memoryless_markov", "check_positive_delay_markov",
                     "equivalence_check", "estimate_error", "induced_joint", "load_code",
                     "random_table_code", "run_trial", "save_code"), "simulate"),
}

__all__ = [*_MODULE_OF, "backend_name", "__version__"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # returned, never stored in this module's globals: a name rebound in its
    # submodule later (a tracer's wrapper, say) reads the same through zdmn
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def backend_name() -> str:
    """Name of the array library every kernel runs on."""
    return "numpy"
