"""Streaming sketches and low-rank Tucker recovery for dense tensors.

The package builds small linear sketches of a large tensor in a single
pass (from whole tensors, entrywise linear updates, mode-aligned slabs,
or shards merged across workers) and reconstructs a low-Tucker-rank
approximation from the sketch alone, with computable error bounds.
"""

from .tensor import (
    TuckerFactorization,
    fold,
    fro_norm,
    inner,
    khatri_rao,
    mode_product,
    multi_mode_product,
    superdiag,
    tucker_to_dense,
    unfold,
)
from .drm import (
    DrmSpec,
    drm_storage_cost,
    make_drm,
)
from .sketch import (
    ParamsMismatchError,
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    sketch_merge,
    sketch_storage,
    tucker_sketch,
)
from .recovery import (
    FactorBases,
    RankDeficientCoreError,
    RankInfeasibleError,
    RecoveryReport,
    factor_bases,
    fixed_rank_truncate,
    hooi,
    hosvd,
    one_pass_recover,
    st_hosvd,
    two_pass_recover,
)
from .harness import (
    SpectrumProfile,
    SyntheticSpec,
    bound_one_pass,
    bound_two_pass,
    gen_synthetic,
    metrics,
    run_experiment,
    tail_energy,
)

__version__ = "0.1.0"

__all__ = [
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
    "DrmSpec",
    "make_drm",
    "drm_storage_cost",
    "SketchParams",
    "TuckerSketch",
    "StreamingSketcher",
    "tucker_sketch",
    "sketch_merge",
    "sketch_storage",
    "ParamsMismatchError",
    "FactorBases",
    "RecoveryReport",
    "factor_bases",
    "two_pass_recover",
    "one_pass_recover",
    "fixed_rank_truncate",
    "hosvd",
    "st_hosvd",
    "hooi",
    "RankInfeasibleError",
    "RankDeficientCoreError",
    "SyntheticSpec",
    "gen_synthetic",
    "SpectrumProfile",
    "tail_energy",
    "bound_two_pass",
    "bound_one_pass",
    "metrics",
    "run_experiment",
    "__version__",
]
