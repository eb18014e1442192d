"""Deleted-point analysis for one-step noisy SGD on linear regression.

Given a training set, a weight vector, and noisy-SGD hyperparameters, this
package scores every point by how distinguishable its deletion makes the
post-step weight distribution, selects the point whose deletion is least
detectable, bounds the resulting risk change and privacy budget, and runs
reproducible multi-step deletion experiments.
"""

__version__ = "0.1.0"

from ._kernels import active_backend
from .bounds import privacy_floor
from .core import (
    Dataset,
    HyperParams,
    load_csv,
    save_csv,
)
from .datagen import GenConfig, generate
from .errors import (
    DegenerateNoise,
    DelpointError,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    EmptyInput,
    FloorViolated,
    InvalidValue,
    NumericOverflow,
    TooManyDeletions,
    WouldEmptyDataset,
    ZeroFeatureNorm,
)
from .gauss import make_rng, phi, phi_inv
from .lossgrad import risk
from .selector import (
    CandidateScore,
    SelectionResult,
    find_perfect_deleted_point,
)
from .sim import (
    ExperimentResult,
    StepConfig,
    run_protocol,
    summarize,
)
from .snr import (
    advantage_target,
    membership_advantage,
)

__all__ = [
    "__version__",
    "active_backend",
    "CandidateScore",
    "Dataset",
    "DegenerateNoise",
    "DelpointError",
    "DimensionMismatch",
    "DomainError",
    "EmptyDataset",
    "EmptyInput",
    "ExperimentResult",
    "FloorViolated",
    "GenConfig",
    "HyperParams",
    "InvalidValue",
    "NumericOverflow",
    "SelectionResult",
    "StepConfig",
    "TooManyDeletions",
    "WouldEmptyDataset",
    "ZeroFeatureNorm",
    "advantage_target",
    "find_perfect_deleted_point",
    "generate",
    "load_csv",
    "make_rng",
    "membership_advantage",
    "phi",
    "phi_inv",
    "privacy_floor",
    "risk",
    "run_protocol",
    "save_csv",
    "summarize",
]
