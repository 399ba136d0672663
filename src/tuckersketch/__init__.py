"""Streaming sketches and low-rank Tucker recovery for dense tensors.

The package builds small linear sketches of a large tensor in a single
pass (from whole tensors, entrywise linear updates, mode-aligned slabs,
or shards merged across workers) and reconstructs a low-Tucker-rank
approximation from the sketch alone, with computable error bounds.

Importing the package loads none of its modules: each public name below
loads the module that defines it on first use (PEP 562), so a command
that never makes a map or a recovery does not load the code for them.
"""

import importlib

# The public names of each module.
_EXPORTS = {
    "tensor": (
        "TuckerFactorization",
        "unfold",
        "fold",
        "mode_product",
        "multi_mode_product",
        "inner",
        "fro_norm",
        "khatri_rao",
        "superdiag",
        "tucker_to_dense",
    ),
    "drm": ("DrmSpec", "make_drm", "drm_storage_cost"),
    "sketch": (
        "SketchParams",
        "TuckerSketch",
        "StreamingSketcher",
        "tucker_sketch",
        "sketch_merge",
        "sketch_storage",
        "ParamsMismatchError",
        "RankInfeasibleError",
        "RankDeficientCoreError",
    ),
    "recovery": (
        "FactorBases",
        "RecoveryReport",
        "factor_bases",
        "two_pass_recover",
        "one_pass_recover",
        "fixed_rank_truncate",
        "normalized_error",
        "hosvd",
        "st_hosvd",
        "hooi",
    ),
    "harness": (
        "SyntheticSpec",
        "gen_synthetic",
        "SpectrumProfile",
        "tail_energy",
        "bound_two_pass",
        "bound_one_pass",
        "metrics",
        "run_experiment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
