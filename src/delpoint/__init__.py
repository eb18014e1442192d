"""Deleted-point analysis for one-step noisy SGD on linear regression.

Given a training set, a weight vector, and noisy-SGD hyperparameters, this
package scores every point by how distinguishable its deletion makes the
post-step weight distribution, selects the point whose deletion is least
detectable, bounds the resulting risk change and privacy budget, and runs
reproducible multi-step deletion experiments.

``import delpoint`` loads no numpy: each public name imports the module
that defines it at its first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each public name but __version__, under the module that defines it
_MODULES = {
    "_kernels": ("active_backend",),
    "bounds": ("privacy_floor",),
    "core": ("Dataset", "HyperParams", "load_csv", "save_csv"),
    "datagen": ("generate",),
    "errors": ("DelpointError", "NumericOverflow"),
    "gauss": ("make_rng", "phi", "phi_inv"),
    "selector": ("find_perfect_deleted_point",),
    "sim": ("ExperimentResult", "StepConfig", "run_protocol", "summarize"),
    "snr": ("advantage_target", "membership_advantage"),
}
_ORIGIN = {name: module for module, names in _MODULES.items()
           for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
