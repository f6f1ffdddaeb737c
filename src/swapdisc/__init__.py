"""swapdisc: worst-case discrepancy analysis of balanced defining sets
under adjacent popularity swaps.

Submodules: core (types and balance primitives), adversary (exact worst
case), construct (recursive family and bounds), optsearch (exhaustive
search for optimal sets), graphs (swap/potential graph analysis), cli.
"""

from ._kernels import backend_name
from .core import (
    CompanionPair,
    DefiningSet,
    EMPTY_SWAPS,
    InvalidInput,
    PairType,
    SizeRefused,
    SwapSet,
    apply_swaps,
    canonicalize,
    classify_pair,
    defining_set,
    discrepancy,
    reflect,
    validate_defining_set,
)
from .adversary import AdversaryResult, worst_case

__version__ = "0.1.0"

__all__ = [
    "AdversaryResult",
    "CompanionPair",
    "DefiningSet",
    "EMPTY_SWAPS",
    "InvalidInput",
    "PairType",
    "SizeRefused",
    "SwapSet",
    "apply_swaps",
    "backend_name",
    "canonicalize",
    "classify_pair",
    "defining_set",
    "discrepancy",
    "reflect",
    "validate_defining_set",
    "worst_case",
    "__version__",
]
