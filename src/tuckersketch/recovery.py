"""Reconstruction of low-Tucker-rank approximations.

Two routes from a sketch:

* ``two_pass_recover`` re-reads the tensor once: orthonormal bases ``Q_n``
  come from QR of the factor sketches, the core is ``X`` contracted by
  ``Q_n^T`` on every mode (so the reconstruction is the orthogonal
  projection of ``X`` onto the tensor product of the spans).  The core is
  linear in ``X``, so it is summed over last-mode slabs; a tensor file is
  read in slabs of at most 1 MiB (one plane at the least), never held in
  memory whole, so the pass holds little more than its small outputs.  The
  same pass sums ``||X||^2``, so ``normalized_error`` scores any
  factorization in the spans without reading ``X`` again; it scores any
  other (a one-pass one), or any whose ``||X||^2`` passed the float range,
  by expanding it beside the slabs of ``X``.
* ``one_pass_recover`` touches only the sketch: it undoes the core map of
  each mode in the least squares sense, ``W = H x_n pinv(Phi_n^T Q_n)``,
  from one SVD of the small ``s_n x k_n`` system.  Every mode but the last
  is undone on each last-mode slab of ``H`` (256 KiB at most), so a
  sketch file's ``H`` is read a slab at a time and never held whole.

Both return a rank-``k`` factorization; ``fixed_rank_truncate`` compresses
that to a target rank ``r`` by running HOOI (or ST-HOSVD, or HOSVD: its
one option is the method) on the small core and absorbing the small
factors, ``P_n = Q_n U_n``.

``hosvd``, ``st_hosvd`` and ``hooi`` also work directly on dense tensors
and double as the comparison baselines; ``hosvd`` is HOOI with no sweeps.
Every step that sums squares works in the units of ``tensor.in_units``, so
recovery commutes with scaling the data by ``2**e``.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .io import SketchHead, read_sketch_slabs, read_tensor_slabs
from .sketch import RankDeficientCoreError, RankInfeasibleError, SketchParams, TuckerSketch
from .tensor import (
    TuckerFactorization,
    all_finite,
    fro_norm,
    in_units,
    mode_product,
    multi_mode_product,
    multi_mode_scratch,
    per_mode,
    sum_sq,
    unfold,
)

_QR_DIAG_RTOL = 1e-12
_COND_LIMIT = 1e12


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

    ``params`` are the sketch's, ``qr_diag_ratios`` and ``degenerate_modes``
    those of :class:`FactorBases`.  ``core_conditions`` holds, for a one-pass
    recovery, the condition number ``sigma_1 / sigma_k`` of each mode's
    core system ``Phi_n^T Q_n``; ``tensor_sq_norm``, for a two-pass
    recovery, the tensor's sum of squares ``||X||^2``, taken in the same
    pass as the core.  ``peak_aux_scalars`` is the working memory of the
    recovery's largest step, counted from shapes as each recovery says.
    """

    factorization: TuckerFactorization
    passes: int
    degenerate_modes: tuple[int, ...]
    qr_diag_ratios: tuple[float, ...]
    params: SketchParams
    core_solver_residuals: tuple[float | None, ...] = ()
    core_conditions: tuple[float, ...] = ()
    tensor_sq_norm: float | None = None
    peak_aux_scalars: int = 0


def factor_bases(sk: TuckerSketch | SketchHead) -> FactorBases:
    """Orthonormalize each factor sketch in units by QR, flagging rank deficiency."""
    mats = []
    ratios = []
    for v in sk.factor_sketches:
        v = in_units(v)[0]
        q, r = np.linalg.qr(v, mode="reduced")
        norm = fro_norm(v)
        ratios.append(float(np.abs(np.diag(r)).min() / norm) if norm > 0.0 else 0.0)
        mats.append(q)
    degenerate = tuple(n for n, ratio in enumerate(ratios) if ratio <= _QR_DIAG_RTOL)
    return FactorBases(
        matrices=tuple(mats), degenerate_modes=degenerate, qr_diag_ratios=tuple(ratios)
    )


def two_pass_recover(x, sk: TuckerSketch | str | os.PathLike) -> RecoveryReport:
    """Rank-``k`` recovery using one more pass over the tensor itself.

    ``x`` is an array or the path of a TKTN1 file, ``sk`` a sketch or the
    path of a TKSK1 file, of which only the factor sketches are kept (the
    file is checked first, its core sketch a slab at a time).  The core
    sums, over last-mode slabs of ``x``, each slab contracted with every
    ``Q_n^T``, the last cut to the slab's rows; the same pass sums the
    slabs' squares into ``tensor_sq_norm``.  A file is read in the recovery
    slabs of :func:`~tuckersketch.io.read_tensor_slabs` (at most 1 MiB, one
    plane at the least); an array is one slab.  ``peak_aux_scalars`` counts
    the largest slab (the array itself, for an array) with its products
    (``tensor.multi_mode_scratch``).
    Raises ``ValueError`` naming the slab after which the core is not
    finite (NaN or Inf in the data).
    """
    sk = read_sketch_slabs(sk)[0]
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
    aux = 0
    for offset, slab in slabs:
        rows = q_last[offset : offset + slab.shape[-1]]
        products = blocks + [(len(head), rows.T)]
        aux = max(aux, slab.size + multi_mode_scratch(slab.shape, products))
        core += multi_mode_product(slab, products)
        with np.errstate(over="ignore"):  # past the float range: scored by expansion
            sq += sum_sq(slab)
        if not all_finite(core):
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
        params=sk.params,
        tensor_sq_norm=sq,
        peak_aux_scalars=aux,
    )


def one_pass_recover(sk: TuckerSketch | str | os.PathLike) -> RecoveryReport:
    """Rank-``k`` recovery from the sketch alone.

    ``sk`` is a sketch or the path of a TKSK1 file, which is checked whole
    before anything is computed.  One SVD of each mode's small system
    ``Phi_n^T Q_n`` (the core maps regenerated from the parameters) gives
    its pseudo-inverse, and the condition number the report keeps.  Then
    ``(Phi_n^T Q_n) W = H`` is solved in the least squares sense, mode by
    mode: modes ``0 .. N-2`` on each last-mode slab of the core sketch
    ``H`` (as :func:`~tuckersketch.io.read_sketch_slabs` reads a file's, or
    views of a sketch's cut alike, so both give the same bits), the last
    mode on the small ``k_0 x ... x k_{N-2} x s_{N-1}`` array the slabs
    make up.  Each mode's residual ``||new x_n Z - H||`` sums the squares
    of its back-projections in the largest unit of the factor sketches; one
    past the float range is None.
    ``peak_aux_scalars`` counts that array and the larger of a slab's step
    (the slab with its products, as :func:`_solve_scratch` counts them) and
    the last mode's.
    Raises :class:`RankDeficientCoreError` when a system is numerically
    singular (condition number past 1e12, or zero).
    """
    sk, slabs = read_sketch_slabs(sk)
    bases = factor_bases(sk)
    solves = []
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
        solves.append((vt.T @ (u.T / sv[:, None]), z))
    unit = max(in_units(v)[1] for v in sk.factor_sketches)
    k = tuple(q.shape[1] for q in bases.matrices)
    last = len(k) - 1
    sq = [0.0] * len(k)
    core = np.empty(k[:-1] + sk.params.s[-1:], order="F")
    step = 0
    for offset, slab in slabs:
        step = max(step, slab.size + _solve_scratch(slab.shape, range(last), k))
        part = slab
        for n in range(last):
            part = _solve(part, n, solves[n], sq, unit)
        core[..., offset : offset + part.shape[-1]] = part
    del slab, part  # the last slab, and with it the file's read buffer
    aux = core.size + max(step, _solve_scratch(core.shape, [last], k))
    core = _solve(core, last, solves[last], sq, unit)
    with np.errstate(over="ignore"):
        residuals = np.ldexp(np.sqrt(sq), unit).tolist()
    fact = TuckerFactorization(core=core, factors=bases.matrices)
    return RecoveryReport(
        factorization=fact,
        passes=1,
        degenerate_modes=bases.degenerate_modes,
        qr_diag_ratios=bases.qr_diag_ratios,
        params=sk.params,
        core_solver_residuals=tuple(r if r < math.inf else None for r in residuals),
        core_conditions=tuple(conditions),
        peak_aux_scalars=aux,
    )


def _solve(cur: np.ndarray, n: int, solve, sq: list, unit: int) -> np.ndarray:
    """``cur x_n pinv``, adding the squares of ``(new x_n Z - cur) / 2**unit`` to ``sq[n]``."""
    pinv, z = solve
    new = mode_product(cur, n, pinv)
    back = mode_product(new, n, z)
    np.ldexp(back, -unit, out=back)
    back -= np.ldexp(cur, -unit)  # both sides in the unit first, so neither overflows
    sq[n] += sum_sq(back)
    return new


def _solve_scratch(shape, modes, k) -> int:
    """Scalars :func:`_solve` holds at its peak over ``modes`` of an input
    of ``shape``, beyond the input: each mode's product, its back-projection
    and its input in the unit, beside the product of the mode before."""
    dims, peak, held = list(shape), 0, 0
    for n in modes:
        cur = math.prod(dims)
        dims[n] = k[n]
        new = math.prod(dims)
        peak = max(peak, held + new + 2 * cur)
        held = new
    return peak


def normalized_error(report: RecoveryReport, fact: TuckerFactorization, path) -> float | None:
    """``||X - X_hat|| / ||X||`` of ``fact``, recovered (perhaps truncated)
    from ``report``, where the TKTN1 file ``path`` holds ``X``, the tensor
    ``report`` recovered; None when ``X`` is zero.  A two-pass report scores
    it from its own pass, unless its ``||X||^2`` is not a finite normal
    double (the squares overflowed or underflowed) or that score has
    cancelled or is not finite; else the file is read in recovery slabs and
    ``fact`` expanded beside each, which holds at any scale of ``X``.
    ``ValueError`` for a shape mismatch, or a sum of squares that is not
    finite (NaN or Inf in ``X``)."""
    sq, score = report.tensor_sq_norm, None
    if sq is not None and sys.float_info.min <= sq < math.inf:
        score = _projected_error(report, fact)
    if score is None or not _PROJECTED_ERROR_FLOOR <= score < math.inf:
        # One-pass, or a two-pass score that cannot be trusted: expand.
        shape, slabs = read_tensor_slabs(path, recovery=True)
        if shape != fact.shape:
            raise ValueError(f"tensor has shape {shape} but sketch covers {fact.shape}")
        score = _expanded_error(slabs, fact)
    return score


def _expanded_error(slabs, fact: TuckerFactorization) -> float | None:
    """``||X - X_hat|| / ||X||`` with both sums of squares taken over the
    last-mode slabs of ``X`` (None when ``X`` is zero); raises ``ValueError``
    when a sum is not finite (NaN or Inf in ``X``).  Each slab is small (a
    recovery slab), so its part of ``X_hat`` is expanded in one piece.  Both
    sums are taken in the units of the core, each slab scaled where it lies."""
    core, unit = in_units(fact.core)
    err = norm = 0.0
    last = fact.core.ndim - 1
    head = list(enumerate(fact.factors[:last]))
    for offset, slab in slabs:
        np.ldexp(slab, -unit, out=slab)
        rows = fact.factors[last][offset : offset + slab.shape[last]]
        diff = multi_mode_product(core, head + [(last, rows)])
        diff -= slab
        err += fro_norm(diff) ** 2
        norm += fro_norm(slab) ** 2
        del diff  # so the next slab's expansion is not made beside this one
    if not math.isfinite(err + norm):
        raise ValueError("the tensor's sum of squares is not finite (NaN or Inf in the data)")
    return math.sqrt(err) / math.sqrt(norm) if norm > 0 else None


# Below this relative error the projected score has lost its digits to the
# subtraction ||X||^2 - ||W||^2 (a noise-free tensor scores anywhere from 0
# to about 2e-8 where the expansion gives 1e-15), so the tensor is read
# again and scored by expansion.  Above it the two agreed within 1e-9
# relative on 13^3, 60^3 and 200^3 tensors (1.3e-10 at 200^3 and an error of
# 1.4e-3); the rounding of ||X||^2 grows with the number of entries, so a
# far larger tensor may need a higher floor.
_PROJECTED_ERROR_FLOOR = 1e-3


def _projected_error(report: RecoveryReport, fact: TuckerFactorization) -> float:
    """``||X - X_hat|| / ||X||`` from a two-pass ``report`` alone: its core
    is ``W = X x_n Q_n^T`` for orthonormal ``Q_n`` whose spans hold every
    factor of ``fact``, so ``||X - X_hat||^2 = ||X||^2 - ||W||^2 +
    ||W - W_hat||^2`` with the small ``W_hat = core x_n (Q_n^T F_n)``.
    ``||X||^2`` must be positive; the score is NaN or Inf when a sum is not
    finite."""
    w, bases, sq = report.factorization.core, report.factorization.factors, report.tensor_sq_norm
    w_hat = multi_mode_product(
        fact.core, [(n, q.T @ f) for n, (q, f) in enumerate(zip(bases, fact.factors))]
    )
    w_hat -= w
    err = sq - sum_sq(w) + sum_sq(w_hat)
    return math.sqrt(max(err, 0.0) / sq)


def one_pass_inflation(k, s) -> float | None:
    """``1 + max_n k_n / (s_n - k_n - 1)``: the factor by which the one-pass
    bound exceeds the two-pass one, or None when some ``s_n <= k_n + 1``,
    where it is undefined."""
    if any(s_n <= k_n + 1 for k_n, s_n in zip(k, s)):
        return None
    return 1.0 + max(k_n / (s_n - k_n - 1) for k_n, s_n in zip(k, s))


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
    """Sequentially truncated HOSVD: shrink ``x``, in units, after each mode."""
    a, unit = in_units(np.asarray(x, dtype=np.float64))
    r = _check_rank(rank, a.ndim, a.shape, "tensor extent")
    factors = []
    cur = a
    for n in range(a.ndim):
        u = _leading_left_singular(unfold(cur, n), r[n])
        factors.append(u)
        cur = mode_product(cur, n, u.T)
    return TuckerFactorization(core=np.ldexp(cur, unit), factors=tuple(factors))


def hooi(
    x,
    rank,
    max_iters: int = 50,
    tol: float = 1e-6,
    return_objectives: bool = False,
):
    """Higher-order orthogonal iteration from an HOSVD start.

    Alternates per-mode subspace updates on ``x`` in units; no sweep can
    increase the reconstruction error.  Stops when a sweep improves it by
    less than ``tol * ||x||`` or after ``max_iters`` sweeps.  With
    ``return_objectives=True`` also returns the error after every sweep.
    """
    a, unit = in_units(np.asarray(x, dtype=np.float64))
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
        if prev is not None and prev - obj <= tol * norm_x:
            break
        prev = obj
    if core is None:  # max_iters == 0: the HOSVD start point
        core = multi_mode_product(a, [(n, u.T) for n, u in enumerate(factors)])
    fact = TuckerFactorization(core=np.ldexp(core, unit), factors=tuple(factors))
    if return_objectives:
        return fact, np.ldexp(objectives, unit).tolist()
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
