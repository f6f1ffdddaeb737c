"""swapdisc: worst-case discrepancy analysis of balanced defining sets
under adjacent popularity swaps.

Submodules: core (types and balance primitives), adversary (exact worst
case), construct (recursive family and bounds), optsearch (exhaustive
search for optimal sets), graphs (swap/potential graph analysis), cli.
"""

from importlib import import_module

from .core import (
    CompanionPair,
    DefiningSet,
    EMPTY_SWAPS,
    InvalidInput,
    PairType,
    SizeRefused,
    SwapSet,
    classify_pair,
    defining_set,
    discrepancy,
    validate_defining_set,
)

__version__ = "0.1.0"

# the engine's names, by the submodule that defines them: resolved on first
# use (PEP 562), so that importing the package (every swapdisc process does)
# compiles no engine
_ENGINE = {"AdversaryResult": "adversary", "worst_case": "adversary", "backend_name": "_kernels"}


def __getattr__(name: str):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ENGINE[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AdversaryResult",
    "CompanionPair",
    "DefiningSet",
    "EMPTY_SWAPS",
    "InvalidInput",
    "PairType",
    "SizeRefused",
    "SwapSet",
    "backend_name",
    "classify_pair",
    "defining_set",
    "discrepancy",
    "validate_defining_set",
    "worst_case",
    "__version__",
]
