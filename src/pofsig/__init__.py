"""One-time hash-based signatures with proof-of-forgery evidence.

Lamport and Winternitz one-time schemes with an enlarged preimage
space, exhaustive toy-scale forgery, signer-side forgery detection, and
Monte Carlo validation of the detection-probability bounds.
"""

from .core import (
    BitString, KeyPair, LamportParams, PublicKey, Signature, WotsParams, derive_wots_params,
)
from .oracle import OracleTag, Seed, chain, oracle_eval
from .pof import (
    DetectionOutcome,
    PofEvidenceI,
    PofEvidenceII,
    detect_forgery,
    verify_pof1,
    verify_pof2,
)
from .adversary import (
    ForgeryBudget,
    PreimageSet,
    enumerate_preimages,
    forge_lamport,
    forge_wots,
)
from .analysis import (
    BoundsReport,
    ExperimentConfig,
    ExperimentReport,
    ScenarioLog,
    fda_bounds,
    preimage_census,
    run_fda_experiment,
    run_scenario,
)
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
