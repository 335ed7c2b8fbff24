"""dqeval: rule-based data-quality evaluation for tabular snapshots.

Pipeline: parse a declarative ruleset, load a snapshot, measure each rule
(A compliant of B applicable items), aggregate into property values and
levels, profile them into characteristic levels, and decide certification
eligibility. Reports, improvement manifests, comparisons, and a synthetic
fixture generator with exact oracles round out the toolchain.
"""

__version__ = "0.1.0"

from .errors import (ConflictingPlan, DqError, EvalError, FingerprintMismatch,
                     LoadError, NothingEvaluated, OutOfRange, ParseError,
                     ScopeMismatch, SynthError, UnknownColumn)
from .taxonomy import Characteristic, Property

__all__ = [
    "__version__", "Characteristic", "Property",
    "DqError", "ParseError", "LoadError", "UnknownColumn", "EvalError",
    "OutOfRange", "NothingEvaluated", "FingerprintMismatch",
    "ScopeMismatch", "SynthError", "ConflictingPlan",
]
