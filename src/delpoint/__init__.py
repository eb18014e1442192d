"""Deleted-point analysis for one-step noisy SGD on linear regression.

Given a training set, a weight vector, and noisy-SGD hyperparameters, this
package scores every point by how distinguishable its deletion makes the
post-step weight distribution, selects the point whose deletion is least
detectable, bounds the resulting risk change and privacy budget, and runs
reproducible multi-step deletion experiments.
"""

__version__ = "0.1.0"

from ._kernels import active_backend
from .bounds import (
    PrivacyFloor,
    RiskBounds,
    privacy_floor,
    risk_change_bounds,
    risk_change_bounds_floor,
)
from .core import (
    DataPoint,
    Dataset,
    HyperParams,
    SufficientStats,
    delete_point,
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
    IndexOutOfRange,
    InvalidValue,
    NumericOverflow,
    TooManyDeletions,
    WouldEmptyDataset,
    ZeroFeatureNorm,
)
from .gauss import make_rng, phi, phi_inv, sample_gaussian
from .lossgrad import (
    deleted_grad,
    point_grad,
    point_loss,
    risk,
    risk_grad,
)
from .selector import (
    SelectionResult,
    find_perfect_deleted_point,
    rank_candidates,
    selection_to_json,
)
from .sim import (
    ExperimentResult,
    StepConfig,
    empirical_advantage,
    run_protocol,
    sgd_step,
    summarize,
)
from .snr import (
    CandidateScore,
    SnrValue,
    advantage_target,
    membership_advantage,
    membership_error,
    snr_closed_form,
    write_scores_csv,
)

__all__ = [
    "__version__",
    "active_backend",
    "CandidateScore",
    "DataPoint",
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
    "IndexOutOfRange",
    "InvalidValue",
    "NumericOverflow",
    "PrivacyFloor",
    "RiskBounds",
    "SelectionResult",
    "SnrValue",
    "StepConfig",
    "SufficientStats",
    "TooManyDeletions",
    "WouldEmptyDataset",
    "ZeroFeatureNorm",
    "advantage_target",
    "delete_point",
    "deleted_grad",
    "empirical_advantage",
    "find_perfect_deleted_point",
    "generate",
    "load_csv",
    "make_rng",
    "membership_advantage",
    "membership_error",
    "phi",
    "phi_inv",
    "point_grad",
    "point_loss",
    "privacy_floor",
    "rank_candidates",
    "risk",
    "risk_change_bounds",
    "risk_change_bounds_floor",
    "risk_grad",
    "run_protocol",
    "sample_gaussian",
    "save_csv",
    "selection_to_json",
    "sgd_step",
    "snr_closed_form",
    "summarize",
    "write_scores_csv",
]
