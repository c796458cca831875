"""One-time hash-based signatures with proof-of-forgery evidence.

Lamport and Winternitz one-time schemes with an enlarged preimage
space, exhaustive toy-scale forgery, signer-side forgery detection, and
Monte Carlo validation of the detection-probability bounds.
"""

import importlib

from .core import (
    BitString, KeyPair, LamportParams, PublicKey, Signature, WotsParams, derive_wots_params,
)
from .oracle import OracleTag, Seed, chain, oracle_eval
from .pof import DetectionOutcome, PofEvidenceII, detect_forgery, verify_pof2
from .errors import (
    BudgetExceeded,
    DomainError,
    EmptyPreimageSet,
    EntropyError,
    FormatError,
    InvalidParams,
    NotAValidSignature,
    PofsigError,
)

__version__ = "0.1.0"

# Names re-exported from the forger and the experiments, which a command
# that signs, verifies or detects never runs: each module loads on the
# first access to one of its names (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("ForgeryBudget", "PreimageSet", "enumerate_preimages", "forge_lamport", "forge_wots"),
        "adversary"),
    **dict.fromkeys(
        ("BoundsReport", "ExperimentConfig", "ExperimentReport", "ScenarioLog", "fda_bounds",
         "preimage_census", "run_fda_experiment", "run_scenario"),
        "analysis"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)

