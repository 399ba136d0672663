"""Synthetic problem generators, error-bound oracles, and the bench driver.

The bounds implemented here are the runnable form of the recovery
guarantees: with Gaussian maps, the expected squared error of the two-pass
recovery is at most

    min over 1 <= rho_n < k_n - 1 of
        sum_n (1 + rho_n / (k_n - rho_n - 1)) * tail_energy(n, rho_n)

and the one-pass recovery inflates that by ``1 + max_n k_n / (s_n - k_n - 1)``.
Tail energies come from the singular spectra of the unfoldings, so for
synthetic data the bounds are computable exactly and usable as oracles.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .recovery import (
    fixed_rank_truncate,
    hooi,
    hosvd,
    one_pass_inflation,
    one_pass_recover,
    two_pass_recover,
)
from .sketch import tucker_sketch
from .tensor import (
    TuckerFactorization,
    fro_norm,
    per_mode,
    superdiag,
    tucker_to_dense,
    unfold,
)

_SCHEMES = ("low_rank_noise", "sparse_low_rank_noise", "poly_decay")

# rng stream labels inside one data seed
_STREAM_CORE = 1
_STREAM_FACTOR = 10
_STREAM_MASK = 40
_STREAM_NOISE = 90


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic tensor.

    ``gamma`` sets the noise-to-signal ratio for the low-rank schemes,
    ``delta`` the factor row density for the sparse scheme, and ``decay``
    the polynomial rate for ``poly_decay``.
    """

    scheme: str
    side: int
    order: int
    rank: int
    seed: int
    gamma: float = 0.0
    delta: float = 0.2
    decay: float = 1.0

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.order < 2:
            raise ValueError("synthetic tensors need order >= 2")
        if self.side < 1:
            raise ValueError("side must be positive")
        if not 1 <= self.rank <= self.side:
            raise ValueError("rank must satisfy 1 <= rank <= side")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.decay <= 0:
            raise ValueError("decay must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        if self.scheme == "poly_decay":
            side = self.rank + max(self.side - self.rank - 1, 0)
            return (side,) * self.order
        return (self.side,) * self.order


def _noisy(signal: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    if spec.gamma == 0.0:
        return signal
    scale = spec.gamma * fro_norm(signal) / spec.side ** (spec.order / 2)
    noise = rng.gaussians(spec.seed, _STREAM_NOISE, signal.shape)
    noise *= scale
    noise += signal  # the same bits as signal + scale * noise, in place
    return noise


def gen_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Generate the tensor described by ``spec`` (deterministic in the seed)."""
    i, n, r = spec.side, spec.order, spec.rank
    if spec.scheme == "poly_decay":
        # superdiagonal spectrum: r flat entries, then j^-decay for j = 2, ...
        flat = np.ones(r)
        j = np.arange(2, i - r + 1, dtype=np.float64)
        return superdiag(np.concatenate([flat, j**-spec.decay]), n)

    core = rng.uniforms(spec.seed, _STREAM_CORE, r**n).reshape((r,) * n)
    factors = []
    for m in range(n):
        if spec.scheme == "low_rank_noise":
            g = rng.gaussians(spec.seed, _STREAM_FACTOR + m, (i, r))
            factors.append(np.linalg.qr(g)[0])
        else:
            a = rng.uniforms(spec.seed, _STREAM_FACTOR + m, i * r).reshape(i, r)
            keep = rng.uniforms(spec.seed, _STREAM_MASK + m, i) < spec.delta
            factors.append(a * keep[:, None])
    signal = tucker_to_dense(TuckerFactorization(core=core, factors=tuple(factors)))
    return _noisy(signal, spec)


@dataclass(frozen=True)
class SpectrumProfile:
    """Per-mode singular values of the unfoldings, descending."""

    singular_values: tuple[np.ndarray, ...]

    @classmethod
    def from_tensor(cls, x) -> "SpectrumProfile":
        a = np.asarray(x, dtype=np.float64)
        svs = []
        for n in range(a.ndim):
            sv = np.linalg.svd(unfold(a, n), compute_uv=False)
            sv.flags.writeable = False
            svs.append(sv)
        return cls(singular_values=tuple(svs))

    @property
    def order(self) -> int:
        return len(self.singular_values)


def tail_energy(profile: SpectrumProfile, mode: int, rho: int) -> float:
    """Squared energy past the first ``rho`` singular values of one unfolding."""
    if not 0 <= mode < profile.order:
        raise ValueError(f"mode {mode} out of range")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    sv = profile.singular_values[mode]
    return float(np.sum(sv[rho:] ** 2))


def bound_two_pass(profile: SpectrumProfile, k) -> float:
    """Expected squared error bound for the two-pass recovery at sketch size k.

    Returns ``inf`` when some ``k_n < 3`` (no admissible rho exists there).
    """
    kk = per_mode(k, profile.order, "k")
    total = 0.0
    for n, k_n in enumerate(kk):
        if k_n < 3:
            return math.inf
        best = min(
            (1.0 + rho / (k_n - rho - 1)) * tail_energy(profile, n, rho)
            for rho in range(1, k_n - 1)
        )
        total += best
    return total


def bound_one_pass(profile: SpectrumProfile, k, s) -> float:
    """One-pass counterpart: the two-pass bound inflated by the core solve."""
    kk = per_mode(k, profile.order, "k")
    ss = per_mode(s, profile.order, "s")
    inflation = one_pass_inflation(kk, ss)
    if inflation is None:
        raise ValueError(
            f"bound undefined: need s_n > k_n + 1 in every mode, got k={kk}, s={ss}"
        )
    return inflation * bound_two_pass(profile, kk)


def metrics(x, approx, baseline_error: float) -> tuple[float, float]:
    """Normalized error of ``approx`` and its regret against a baseline.

    ``baseline_error`` is an absolute Frobenius error (typically HOOI's);
    regret is how much worse ``approx`` is, in units of ``||x||``.
    """
    a = np.asarray(x, dtype=np.float64)
    if isinstance(approx, TuckerFactorization):
        approx = approx.to_dense()
    b = np.asarray(approx, dtype=np.float64)
    norm = fro_norm(a)
    if norm == 0.0:
        raise ValueError("metrics are undefined for a zero tensor")
    err = fro_norm(a - b)
    return err / norm, (err - baseline_error) / norm


_METHODS = ("hosvd", "hooi", "two_pass", "one_pass")

# Desk-scale cap on the entries of one grid cell's tensor.
_MAX_ELEMENTS = 4_000_000


def run_experiment(
    grid,
    trials: int = 1,
    output=None,
    truncate: bool = False,
) -> list[dict]:
    """Run every (data, sketch) cell in ``grid`` for ``trials`` repetitions.

    Each trial reseeds both the data and the maps from the cell seeds and
    the trial index, so a rerun of the same grid reproduces the same rows.
    Emits one row per cell and method with the mean normalized error, its
    sample standard deviation, the mean regret against rank-``r`` HOOI, and
    (for the sketched methods) the error-scale bound
    ``sqrt(mean(bound / ||X||^2))``.  With ``truncate=True`` the sketched
    recoveries are compressed to rank ``r`` before scoring, matching the
    baselines; by default they are scored at rank ``k``, which is what the
    bounds speak about.  ``output`` is the path of a CSV file to write:
    its columns are the keys of each row, in order.  A grid with no cells
    raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[dict] = []
    for data_spec, params in grid:
        if len(data_spec.shape) != params.order:
            raise ValueError("data order and sketch order differ in one grid cell")
        n_elems = int(np.prod(data_spec.shape, dtype=np.int64))
        if n_elems > _MAX_ELEMENTS:
            raise ValueError(
                f"grid cell would materialize {n_elems} entries, over the "
                f"desk-scale cap {_MAX_ELEMENTS}"
            )
        errs = {m: [] for m in _METHODS}
        regrets = {m: [] for m in _METHODS}
        bounds = {"two_pass": [], "one_pass": []}
        r_vec = (data_spec.rank,) * data_spec.order
        for t in range(trials):
            dspec = replace(data_spec, seed=rng.mix64(data_spec.seed, 3001, t))
            with warnings.catch_warnings():
                # s_n <= 2 k_n was warned about when the cell's params were made.
                warnings.simplefilter("ignore", UserWarning)
                pspec = replace(params, master_seed=rng.mix64(params.master_seed, 3002, t))
            x = gen_synthetic(dspec)
            norm_sq = fro_norm(x) ** 2
            profile = SpectrumProfile.from_tensor(x)

            hooi_fact = hooi(x, r_vec)
            hooi_err = fro_norm(x - tucker_to_dense(hooi_fact))
            hosvd_fact = hosvd(x, r_vec)

            sk = tucker_sketch(x, pspec)
            two = two_pass_recover(x, sk).factorization
            one = one_pass_recover(sk).factorization
            if truncate:
                two = fixed_rank_truncate(two, r_vec)
                one = fixed_rank_truncate(one, r_vec)

            approx = {
                "hosvd": hosvd_fact,
                "hooi": hooi_fact,
                "two_pass": two,
                "one_pass": one,
            }
            for m in _METHODS:
                e, g = metrics(x, approx[m], hooi_err)
                errs[m].append(e)
                regrets[m].append(g)
            bounds["two_pass"].append(bound_two_pass(profile, params.k) / norm_sq)
            try:
                b1 = bound_one_pass(profile, params.k, params.s) / norm_sq
            except ValueError:
                b1 = math.nan
            bounds["one_pass"].append(b1)

        for m in _METHODS:
            e = np.asarray(errs[m])
            if m in bounds:
                err_bound = float(np.sqrt(np.mean(bounds[m])))
            else:
                err_bound = math.nan
            rows.append(
                {
                    "scheme": data_spec.scheme,
                    "side": data_spec.side,
                    "order": data_spec.order,
                    "rank": data_spec.rank,
                    "gamma": data_spec.gamma,
                    "delta": data_spec.delta,
                    "decay": data_spec.decay,
                    "k": "x".join(str(v) for v in params.k),
                    "s": "x".join(str(v) for v in params.s),
                    "omega_kind": params.omega_kind,
                    "phi_kind": params.phi_kind,
                    "method": m,
                    "trials": trials,
                    "mean_err": float(e.mean()),
                    "std_err": float(e.std(ddof=1)) if trials > 1 else 0.0,
                    "mean_regret": float(np.mean(regrets[m])),
                    "err_bound": err_bound,
                }
            )
    if not rows:
        raise ValueError("the grid has no cells")
    if output is not None:
        with open(output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return rows
