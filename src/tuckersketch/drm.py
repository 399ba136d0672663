"""Dimension-reduction maps: Gaussian, sparse sign, SSRFT, and tensor random
projection (TRP).

A map is described by a :class:`DrmSpec` and realized by :func:`make_drm`.
Realizations are deterministic functions of the ``DrmSpec``, so two workers
holding the same one apply the same map without ever exchanging it.  Every kind
supports right application ``m @ Omega`` on an ``(q, in_dim)`` operand, and
``m @ Omega[rows]`` on the rows whose position in an input grid lies in one
block along one axis (what a slab update needs).  Structured kinds (SSRFT,
TRP) apply implicitly and only materialize their dense equivalent on
request, under an entry budget.

TRP column convention: the map acts on a flattened multi-index over
``mode_dims`` with *lower* modes varying fastest (the same order the
package's unfoldings use), so the materialized map is the column-wise
Kronecker product of the per-mode factors taken in descending mode order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import rng
from .tensor import khatri_rao

FACTOR_KINDS = ("gaussian", "sparse_sign", "ssrft", "trp")
"""Every map kind; all of them can serve as factor maps."""
CORE_KINDS = ("gaussian", "sparse_sign", "ssrft")
"""Kinds that can serve as core maps (a single-mode trp is just its factor)."""

# Sub-stream labels inside one map's seed, so the draws for distinct pieces
# of state never overlap.
_STREAM_ENTRIES = 0
_STREAM_PERM1 = 1
_STREAM_PERM2 = 2
_STREAM_SIGN1 = 3
_STREAM_SIGN2 = 4
_STREAM_COORDS = 5
_TRP_FACTOR_TAG = 7

DEFAULT_MATERIALIZE_BUDGET = 1 << 26


class MaterializeBudgetError(ValueError):
    """Raised when materializing a map would exceed the entry budget."""


@dataclass(frozen=True)
class DrmSpec:
    """Parameters that fully determine one dimension-reduction map."""

    kind: str
    in_dim: int
    out_dim: int
    seed: int
    density: float | None = None
    mode_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ValueError(f"unknown drm kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("map dimensions must be positive")
        if self.kind == "ssrft" and self.out_dim > self.in_dim:
            raise ValueError("ssrft cannot expand: out_dim must be <= in_dim")
        if self.kind == "sparse_sign":
            if self.density is None or not 0.0 < self.density <= 1.0:
                raise ValueError("sparse_sign needs a density in (0, 1]")
        elif self.density is not None:
            raise ValueError("density is only meaningful for sparse_sign maps")
        if self.kind == "trp":
            if not self.mode_dims:
                raise ValueError("trp needs non-empty mode_dims")
            dims = tuple(int(d) for d in self.mode_dims)
            if any(d < 1 for d in dims):
                raise ValueError("trp mode_dims must be positive")
            if int(np.prod(dims, dtype=np.int64)) != self.in_dim:
                raise ValueError(
                    f"trp mode_dims {dims} multiply to "
                    f"{int(np.prod(dims, dtype=np.int64))}, not in_dim={self.in_dim}"
                )
            object.__setattr__(self, "mode_dims", dims)
        elif self.mode_dims is not None:
            raise ValueError("mode_dims is only meaningful for trp maps")


@dataclass(frozen=True)
class DrmStorageCost:
    """Scalar count actually stored vs. the dense-equivalent entry count."""

    scalars: float
    dense_equiv: int


def drm_storage_cost(spec: DrmSpec) -> DrmStorageCost:
    """Storage accounting for one map; sparse_sign reports expected nonzeros."""
    dense = spec.in_dim * spec.out_dim
    if spec.kind == "gaussian":
        scalars = float(dense)
    elif spec.kind == "sparse_sign":
        scalars = float(spec.density * dense)
    elif spec.kind == "ssrft":
        # two permutations, two sign vectors, one coordinate list
        scalars = float(4 * spec.in_dim + spec.out_dim)
    else:  # trp
        scalars = float(sum(d * spec.out_dim for d in spec.mode_dims))
    return DrmStorageCost(scalars=scalars, dense_equiv=dense)


class _Drm:
    """Base realization; subclasses fill in apply/materialize."""

    def __init__(self, spec: DrmSpec):
        self.spec = spec

    def apply_right(self, m: np.ndarray) -> np.ndarray:
        """Compute ``m @ Omega`` for an ``(q, in_dim)`` operand."""
        raise NotImplementedError

    def apply_right_rows(self, m, dims, axis: int, rows: slice) -> np.ndarray:
        """Compute ``m @ Omega[R]`` without touching the other rows.

        The input index is read as a multi-index over the grid ``dims``
        (lowest axis fastest, ``prod(dims) == in_dim``), and ``R`` is every
        flat index whose ``axis`` component lies in ``rows``, in the same
        order.  The operand is ``(q, len(R))``.
        """
        raise NotImplementedError

    def materialize(self, max_entries: int = DEFAULT_MATERIALIZE_BUDGET) -> np.ndarray:
        """Dense ``(in_dim, out_dim)`` equivalent, guarded by an entry budget."""
        needed = self.spec.in_dim * self.spec.out_dim
        if needed > max_entries:
            raise MaterializeBudgetError(
                f"materializing a {self.spec.in_dim} x {self.spec.out_dim} map needs "
                f"{needed} entries, over the budget of {max_entries}"
            )
        return self._materialize()

    def _materialize(self) -> np.ndarray:
        raise NotImplementedError

    def _check_block(self, m, dims, axis: int, rows: slice):
        """Validate a row-restricted operand; returns it with ``rows`` resolved."""
        dims = tuple(int(d) for d in dims)
        if int(np.prod(dims, dtype=np.int64)) != self.spec.in_dim:
            raise ValueError(f"grid {dims} does not cover in_dim={self.spec.in_dim}")
        if not 0 <= axis < len(dims):
            raise ValueError(f"axis {axis} out of range for grid {dims}")
        start, stop, step = rows.indices(dims[axis])
        if step != 1 or stop <= start:
            raise ValueError(f"rows {rows} is not a non-empty block of {dims[axis]}")
        block = dims[:axis] + (stop - start,) + dims[axis + 1 :]
        a = _check_operand(m, int(np.prod(block, dtype=np.int64)))
        return a, dims, slice(start, stop)


def _check_operand(m, in_dim: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("operand must be a matrix")
    if a.shape[1] != in_dim:
        raise ValueError(f"operand has {a.shape[1]} columns, map expects {in_dim}")
    return a


class _DenseDrm(_Drm):
    """A map held as its ``(in_dim, out_dim)`` entries: Gaussian or sparse sign.

    Sparse sign entries are +-1/sqrt(density) with probability density, else
    zero.  One raw word decides each entry: the top bits drive the keep/drop
    draw, the low bit the sign.  Realized dense (the point of the kind is
    variance control, not storage).
    """

    def __init__(self, spec: DrmSpec):
        super().__init__(spec)
        shape = (spec.in_dim, spec.out_dim)
        if spec.kind == "gaussian":
            self.entries = rng.gaussians(spec.seed, _STREAM_ENTRIES, shape)
        else:
            words = rng.raw(spec.seed, _STREAM_ENTRIES, spec.in_dim * spec.out_dim)
            u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
            sign = np.where(words & np.uint64(1), 1.0, -1.0)
            vals = np.where(u < spec.density, sign / np.sqrt(spec.density), 0.0)
            self.entries = vals.reshape(shape)

    def apply_right(self, m):
        return _check_operand(m, self.spec.in_dim) @ self.entries

    def apply_right_rows(self, m, dims, axis, rows):
        a, dims, rows = self._check_block(m, dims, axis, rows)
        # A view with the grid axes reversed (C order, so axis 0 of the grid
        # varies fastest); only the selected block is copied.
        grid = self.entries.reshape((*dims[::-1], self.spec.out_dim))
        block = grid[(slice(None),) * (len(dims) - 1 - axis) + (rows,)]
        return a @ block.reshape((-1, self.spec.out_dim))

    def _materialize(self):
        return self.entries.copy()


class _SsrftDrm(_Drm):
    """Subsampled randomized Fourier-type transform.

    Two rounds of (row permutation, sign flip, orthonormal DCT-II) followed
    by a uniform row subsample.  Stored state is just the permutations,
    signs, and coordinates.
    """

    def __init__(self, spec: DrmSpec):
        super().__init__(spec)
        n = spec.in_dim
        self.perm1 = rng.permutation(spec.seed, _STREAM_PERM1, n)
        self.perm2 = rng.permutation(spec.seed, _STREAM_PERM2, n)
        self.sgn1 = rng.signs(spec.seed, _STREAM_SIGN1, n)
        self.sgn2 = rng.signs(spec.seed, _STREAM_SIGN2, n)
        self.coords = rng.index_subset(spec.seed, _STREAM_COORDS, n, spec.out_dim)

    def transform_rows(self, b: np.ndarray) -> np.ndarray:
        """Apply the (out_dim, in_dim) transform to the rows of ``b``."""
        y = scipy.fft.dct(self.sgn1[:, None] * b[self.perm1], type=2, axis=0, norm="ortho")
        y = scipy.fft.dct(self.sgn2[:, None] * y[self.perm2], type=2, axis=0, norm="ortho")
        return y[self.coords]

    def apply_right(self, m):
        a = _check_operand(m, self.spec.in_dim)
        return self.transform_rows(a.T).T

    def apply_right_rows(self, m, dims, axis, rows):
        # No input-side restriction exists: zero-pad this operand to the
        # full grid and transform that.
        a, dims, rows = self._check_block(m, dims, axis, rows)
        full = np.zeros((a.shape[0], *dims), order="F")
        block = full[(slice(None),) * (axis + 1) + (rows,)]
        block[...] = a.reshape(block.shape, order="F")
        return self.apply_right(full.reshape((a.shape[0], -1), order="F"))

    def _materialize(self):
        # The adjoint of the transform applied to the out_dim unit vectors at
        # ``coords``: O(out * in * log(in)) work and a few (in, out) arrays.
        out_dim = self.spec.out_dim
        z = np.zeros((self.spec.in_dim, out_dim))
        z[self.coords, np.arange(out_dim)] = 1.0
        for perm, sgn in ((self.perm2, self.sgn2), (self.perm1, self.sgn1)):
            z = scipy.fft.idct(z, type=2, axis=0, norm="ortho", overwrite_x=True)
            z *= sgn[:, None]
            z = z[np.argsort(perm)]
        return z


def apply_trp_factors(m: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Contract an ``(q, prod(dims))`` operand against TRP factors.

    ``factors[j]`` has shape ``(dims[j], out_dim)``; column ``c`` of the
    implicit map is the Kronecker product (lowest mode fastest) of the
    ``c``-th columns.  Never forms the dense map.
    """
    dims = tuple(f.shape[0] for f in factors)
    a = np.asarray(m, dtype=np.float64)
    t = np.reshape(a, (a.shape[0], *dims), order="F")
    t = np.tensordot(t, factors[-1], axes=([len(dims)], [0]))
    for j in range(len(dims) - 2, -1, -1):
        t = np.einsum("...ac,ac->...c", t, factors[j])
    return t


class _TrpDrm(_Drm):
    """Tensor random projection: Khatri-Rao of per-mode Gaussian factors,
    stored and applied implicitly."""

    def __init__(self, spec: DrmSpec):
        super().__init__(spec)
        self.factors = tuple(
            rng.gaussians(
                rng.mix64(spec.seed, _TRP_FACTOR_TAG, j), _STREAM_ENTRIES, (d, spec.out_dim)
            )
            for j, d in enumerate(spec.mode_dims)
        )

    def apply_right(self, m):
        a = _check_operand(m, self.spec.in_dim)
        return apply_trp_factors(a, self.factors)

    def apply_right_rows(self, m, dims, axis, rows):
        a, dims, rows = self._check_block(m, dims, axis, rows)
        if dims != self.spec.mode_dims:
            raise ValueError(f"grid {dims} is not the trp grid {self.spec.mode_dims}")
        factors = list(self.factors)
        factors[axis] = factors[axis][rows]
        return apply_trp_factors(a, tuple(factors))

    def _materialize(self):
        cols = np.ones((1, self.spec.out_dim))
        return functools.reduce(khatri_rao, reversed(self.factors), cols)


_REALIZERS = {
    "gaussian": _DenseDrm,
    "sparse_sign": _DenseDrm,
    "ssrft": _SsrftDrm,
    "trp": _TrpDrm,
}


def make_drm(spec: DrmSpec) -> _Drm:
    """Realize the map described by ``spec``; same spec, same map, always."""
    return _REALIZERS[spec.kind](spec)
