"""Reconstruction of low-Tucker-rank approximations.

Two routes from a sketch:

* ``two_pass_recover`` re-reads the tensor once: orthonormal bases ``Q_n``
  come from QR of the factor sketches, the core is ``X`` contracted by
  ``Q_n^T`` on every mode (so the reconstruction is the orthogonal
  projection of ``X`` onto the tensor product of the spans).  The core is
  linear in ``X``, so it is summed over last-mode slabs; a tensor file is
  read in slabs of at most 1 MiB (one plane at the least), never held in
  memory whole, so the pass holds little more than its small outputs.  The
  same pass sums ``||X||^2``, so the error of any factorization in the
  spans can be scored without reading ``X`` again.
* ``one_pass_recover`` touches only the sketch: it undoes the core map of
  each mode in the least squares sense, ``W = H x_n pinv(Phi_n^T Q_n)``,
  from one SVD of the small ``s_n x k_n`` system.

Both return a rank-``k`` factorization; ``fixed_rank_truncate`` compresses
that to a target rank ``r`` by running HOOI (or ST-HOSVD, or HOSVD: its
one option is the method) on the small core and absorbing the small
factors, ``P_n = Q_n U_n``.

``hosvd``, ``st_hosvd`` and ``hooi`` also work directly on dense tensors
and double as the comparison baselines; ``hosvd`` is HOOI with no sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .io import read_tensor_slabs
from .sketch import TuckerSketch
from .tensor import (
    TuckerFactorization,
    fro_norm,
    mode_product,
    multi_mode_product,
    per_mode,
    sum_sq,
    unfold,
)

_QR_DIAG_RTOL = 1e-12
_COND_LIMIT = 1e12


class RankInfeasibleError(ValueError):
    """Requested rank exceeds what the data or sketch can support."""


class RankDeficientCoreError(RuntimeError):
    """The one-pass core solve met a numerically rank-deficient system."""


@dataclass(frozen=True)
class FactorBases:
    """Orthonormal bases spanning the factor sketches, one per mode.

    ``qr_diag_ratios`` holds, per mode, ``min |R_ii| / ||V_n||_F`` of the
    QR of the factor sketch (0 for an all-zero sketch).  ``degenerate_modes``
    lists the modes where it is at most 1e-12, whose sketch was numerically
    rank deficient; the basis is still orthonormal (Householder QR) and
    still spans the sketch columns, but its trailing directions are
    arbitrary.
    """

    matrices: tuple[np.ndarray, ...]
    degenerate_modes: tuple[int, ...]
    qr_diag_ratios: tuple[float, ...]


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery did and how well its internal solves went.

    ``qr_diag_ratios`` and ``degenerate_modes`` are those of
    :class:`FactorBases`.  ``core_conditions`` holds, for a one-pass
    recovery, the condition number ``sigma_1 / sigma_k`` of each mode's
    core system ``Phi_n^T Q_n``; ``tensor_sq_norm``, for a two-pass
    recovery, the tensor's sum of squares ``||X||^2``, taken in the same
    pass as the core.
    """

    factorization: TuckerFactorization
    passes: int
    degenerate_modes: tuple[int, ...]
    qr_diag_ratios: tuple[float, ...]
    core_solver_residuals: tuple[float, ...] = ()
    core_conditions: tuple[float, ...] = ()
    tensor_sq_norm: float | None = None


def factor_bases(sk: TuckerSketch) -> FactorBases:
    """Orthonormalize each factor sketch by QR, flagging rank deficiency."""
    mats = []
    ratios = []
    for v in sk.factor_sketches:
        q, r = np.linalg.qr(v, mode="reduced")
        scale = np.linalg.norm(v)
        ratios.append(float(np.abs(np.diag(r)).min() / scale) if scale > 0.0 else 0.0)
        mats.append(q)
    degenerate = tuple(n for n, ratio in enumerate(ratios) if ratio <= _QR_DIAG_RTOL)
    return FactorBases(
        matrices=tuple(mats), degenerate_modes=degenerate, qr_diag_ratios=tuple(ratios)
    )


def two_pass_recover(x, sk: TuckerSketch) -> RecoveryReport:
    """Rank-``k`` recovery using one more pass over the tensor itself.

    ``x`` is an array or the path of a TKTN1 file.  The core sums, over
    last-mode slabs of ``x``, each slab contracted with every ``Q_n^T``,
    the last cut to the slab's rows; the same pass sums the slabs' squares
    into ``tensor_sq_norm``.  A file is read in the recovery slabs of
    :func:`~tuckersketch.io.read_tensor_slabs` (at most 1 MiB, one plane
    at the least); an array is one slab.
    Raises ``ValueError`` naming the slab after which the core is not
    finite (NaN or Inf in the data).
    """
    if isinstance(x, (str, os.PathLike)):
        shape, slabs = read_tensor_slabs(x, recovery=True)
        where = f"{os.fspath(x)}: "
    else:
        a = np.asarray(x, dtype=np.float64)
        shape, slabs, where = a.shape, [(0, a)], ""
    if shape != sk.shape:
        raise ValueError(f"tensor has shape {shape} but sketch covers {sk.shape}")
    bases = factor_bases(sk)
    *head, q_last = bases.matrices
    blocks = [(n, q.T) for n, q in enumerate(head)]
    core = np.zeros(tuple(q.shape[1] for q in bases.matrices), order="F")
    sq = 0.0
    for offset, slab in slabs:
        rows = q_last[offset : offset + slab.shape[-1]]
        core += multi_mode_product(slab, blocks + [(len(head), rows.T)])
        sq += sum_sq(slab)
        if not np.isfinite(core).all():
            raise ValueError(
                f"{where}rows {offset}:{offset + len(rows)} of mode {len(head)} made "
                "the two-pass core non-finite (NaN or Inf in the data)"
            )
    fact = TuckerFactorization(core=core, factors=bases.matrices)
    return RecoveryReport(
        factorization=fact,
        passes=2,
        degenerate_modes=bases.degenerate_modes,
        qr_diag_ratios=bases.qr_diag_ratios,
        tensor_sq_norm=sq,
    )


def one_pass_recover(sk: TuckerSketch) -> RecoveryReport:
    """Rank-``k`` recovery from the sketch alone.

    Regenerates the core maps from the sketch parameters, then for each mode
    solves ``(Phi_n^T Q_n) W = H`` in the least squares sense: one SVD of
    the small system gives its pseudo-inverse, which ``mode_product``
    applies to the core, and its condition number, which the report keeps.
    The residual ``||new x_n Z - H||`` of each solve is taken in the
    back-projection's own buffer.
    Raises :class:`RankDeficientCoreError` when a system is numerically
    singular (condition number past 1e12, or zero).
    """
    bases = factor_bases(sk)
    core = sk.core_sketch
    residuals = []
    conditions = []
    for n, q in enumerate(bases.matrices):
        z = sk.params.phi_matrix(sk.shape, n).T @ q  # (s_n, k_n), s_n >= k_n
        u, sv, vt = np.linalg.svd(z, full_matrices=False)
        if sv[-1] == 0.0 or sv[-1] * _COND_LIMIT < sv[0]:
            rank = int(np.count_nonzero(sv > np.finfo(np.float64).eps * sv[0]))
            raise RankDeficientCoreError(
                f"core solve in mode {n} is rank deficient "
                f"(rank {rank} of {sv.size}); enlarge s_{n} or reseed"
            )
        conditions.append(float(sv[0] / sv[-1]))
        new = mode_product(core, n, vt.T @ (u.T / sv[:, None]))
        back = mode_product(new, n, z)
        back -= core
        residuals.append(fro_norm(back))
        core = new
        del back  # so it is not held beside the next mode's products
    fact = TuckerFactorization(core=core, factors=bases.matrices)
    return RecoveryReport(
        factorization=fact,
        passes=1,
        degenerate_modes=bases.degenerate_modes,
        qr_diag_ratios=bases.qr_diag_ratios,
        core_solver_residuals=tuple(residuals),
        core_conditions=tuple(conditions),
    )


def _leading_left_singular(m: np.ndarray, r: int) -> np.ndarray:
    """First ``r`` left singular vectors, sign-fixed for determinism; past the
    column count of ``m`` the full SVD completes them to ``r`` orthonormal columns."""
    u = np.linalg.svd(m, full_matrices=r > m.shape[1])[0][:, :r]
    top = np.abs(u).argmax(axis=0)
    return u * np.where(u[top, np.arange(r)] < 0, -1.0, 1.0)


def _check_rank(rank, order: int, limits, what: str) -> tuple[int, ...]:
    r = per_mode(rank, order, "rank")
    if any(v < 1 for v in r):
        raise RankInfeasibleError("all rank entries must be >= 1")
    for n, (v, cap) in enumerate(zip(r, limits)):
        if v > cap:
            raise RankInfeasibleError(
                f"rank {v} in mode {n} exceeds the available extent {cap} ({what})"
            )
    return r


def hosvd(x, rank) -> TuckerFactorization:
    """Higher-order SVD: per-mode leading singular vectors, one contraction
    (HOOI with no sweeps)."""
    return hooi(x, rank, max_iters=0)


def st_hosvd(x, rank) -> TuckerFactorization:
    """Sequentially truncated HOSVD: shrink the tensor after each mode."""
    a = np.asarray(x, dtype=np.float64)
    r = _check_rank(rank, a.ndim, a.shape, "tensor extent")
    factors = []
    cur = a
    for n in range(a.ndim):
        u = _leading_left_singular(unfold(cur, n), r[n])
        factors.append(u)
        cur = mode_product(cur, n, u.T)
    return TuckerFactorization(core=cur, factors=tuple(factors))


def hooi(
    x,
    rank,
    max_iters: int = 50,
    tol: float = 1e-6,
    return_objectives: bool = False,
):
    """Higher-order orthogonal iteration from an HOSVD start.

    Alternates per-mode subspace updates; each sweep cannot increase the
    reconstruction error.  Stops when a sweep improves the error by less
    than ``tol * ||x||`` or after ``max_iters`` sweeps.  With
    ``return_objectives=True`` also returns the error after every sweep.
    """
    a = np.asarray(x, dtype=np.float64)
    r = _check_rank(rank, a.ndim, a.shape, "tensor extent")
    factors = [_leading_left_singular(unfold(a, n), r[n]) for n in range(a.ndim)]
    norm_x = fro_norm(a)
    objectives: list[float] = []
    prev = None
    core = None
    for _ in range(max_iters):
        for n in range(a.ndim):
            partial = multi_mode_product(
                a, [(m, factors[m].T) for m in range(a.ndim) if m != n]
            )
            factors[n] = _leading_left_singular(unfold(partial, n), r[n])
        core = multi_mode_product(a, [(n, u.T) for n, u in enumerate(factors)])
        # With orthonormal factors the error splits off the captured energy.
        gap = max(norm_x**2 - fro_norm(core) ** 2, 0.0)
        obj = float(np.sqrt(gap))
        objectives.append(obj)
        if prev is not None and prev - obj <= tol * max(norm_x, 1e-300):
            break
        prev = obj
    if core is None:  # max_iters == 0: the HOSVD start point
        core = multi_mode_product(a, [(n, u.T) for n, u in enumerate(factors)])
    fact = TuckerFactorization(core=core, factors=tuple(factors))
    if return_objectives:
        return fact, objectives
    return fact


def fixed_rank_truncate(
    t: TuckerFactorization, rank, method: str = "hooi"
) -> TuckerFactorization:
    """Compress a factorization to a fixed smaller Tucker rank.

    Runs the chosen method (``hooi``, ``st_hosvd`` or ``hosvd``) with its
    defaults on the small core only, then absorbs its factors into the
    existing ones; the large tensor is never formed.
    """
    # Looked up at call time, so a rebound module function is the one run.
    engines = {"hooi": hooi, "st_hosvd": st_hosvd, "hosvd": hosvd}
    if method not in engines:
        raise ValueError(f"method must be one of {tuple(engines)}")
    r = _check_rank(rank, t.core.ndim, t.core.shape, "core extent")
    inner = engines[method](t.core, r)
    outer = tuple(f @ u for f, u in zip(t.factors, inner.factors))
    return TuckerFactorization(core=inner.core, factors=outer)
