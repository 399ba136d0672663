"""Dimension-reduction maps: Gaussian, sparse sign, SSRFT, and tensor random
projection (TRP).

A map is described by a :class:`DrmSpec` and realized by :func:`make_drm`.
Realizations are deterministic functions of the ``DrmSpec``, so two workers
holding the same one apply the same map without ever exchanging it.  Every kind
supports right application ``m @ Omega`` on an ``(q, in_dim)`` operand, and
the unfolding product ``unfold(x, mode) @ Omega`` read straight from a tensor,
optionally restricted to the rows of ``Omega`` whose position in the input
grid lies in one block along one axis (what a slab update needs); both
contract the tensor where it lies.  Gaussian, sparse sign and SSRFT maps are
realized as their dense entries.  An SSRFT map's entries are generated once
from the permutations, signs and coordinates that define it
(:class:`SsrftTransform`): at sketch widths far below ``in_dim``, one GEMM
with those entries costs less than two DCTs of the operand.  TRP keeps its
per-mode factors, applies implicitly and only materializes its dense
equivalent on request.

TRP column convention: the map acts on a flattened multi-index over
``mode_dims`` with *lower* modes varying fastest (the same order the
package's unfoldings use), so the materialized map is the column-wise
Kronecker product of the per-mode factors taken in descending mode order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .tensor import contract, contract_scratch, khatri_rao, matmul

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
    """Scalars of the state that regenerates one map in its compact form.

    Gaussian counts its entries, sparse_sign its expected nonzeros, SSRFT
    its two permutations, two sign vectors and coordinates
    (``4 * in_dim + out_dim``), TRP its per-mode factors.  This is not the
    memory a realization holds: :func:`make_drm` holds every kind but TRP
    as its ``in_dim * out_dim`` dense entries.
    """
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


def _grid(spec: DrmSpec, x, mode: int, axis: int | None, rows: slice | None):
    """Validate a tensor operand of the map ``spec``; returns it, the full
    input grid, the grid axis of the block (or None) and ``rows`` resolved."""
    a = np.asarray(x, dtype=np.float64)
    if not 0 <= mode < a.ndim:
        raise ValueError(f"mode {mode} out of range for an order-{a.ndim} tensor")
    dims = a.shape[:mode] + a.shape[mode + 1 :]
    if min(dims, default=1) < 1:
        raise ValueError(f"tensor grid {dims} has an empty axis")
    if axis is None:
        if int(np.prod(dims, dtype=np.int64)) != spec.in_dim:
            raise ValueError(f"tensor grid {dims} does not cover in_dim={spec.in_dim}")
        return a, dims, None, None
    if axis == mode or not 0 <= axis < a.ndim:
        raise ValueError(f"axis {axis} is not a grid axis of mode {mode} in order {a.ndim}")
    g = axis - (axis > mode)
    full, rem = divmod(spec.in_dim, int(np.prod(dims, dtype=np.int64)) // dims[g])
    start, stop, step = rows.indices(full)
    if rem or step != 1 or stop - start != dims[g]:
        raise ValueError(
            f"rows {rows} of the grid axis {g} do not match the tensor's "
            f"extent {dims[g]} on axis {axis} (grid {dims}, in_dim={spec.in_dim})"
        )
    return a, dims[:g] + (full,) + dims[g + 1 :], g, slice(start, stop)


def _check_operand(m, in_dim: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("operand must be a matrix")
    if a.shape[1] != in_dim:
        raise ValueError(f"operand has {a.shape[1]} columns, map expects {in_dim}")
    return a


class _DenseDrm:
    """A map held as its ``(in_dim, out_dim)`` entries: Gaussian, sparse sign
    or SSRFT.

    Sparse sign entries are +-1/sqrt(density) with probability density, else
    zero.  One raw word decides each entry: the top bits drive the keep/drop
    draw, the low bit the sign.  SSRFT entries are those of
    :class:`SsrftTransform`, generated once.
    """

    def __init__(self, spec: DrmSpec):
        self.spec = spec
        shape = (spec.in_dim, spec.out_dim)
        if spec.kind == "gaussian":
            self.entries = rng.gaussians(spec.seed, _STREAM_ENTRIES, shape)
        elif spec.kind == "ssrft":
            self.entries = SsrftTransform(spec).materialize()
        else:
            words = rng.raw(spec.seed, _STREAM_ENTRIES, spec.in_dim * spec.out_dim)
            u = rng.unit_doubles(words)
            sign = np.where(words & np.uint64(1), 1.0, -1.0)
            vals = np.where(u < spec.density, sign / np.sqrt(spec.density), 0.0)
            self.entries = vals.reshape(shape)

    def apply_right(self, m: np.ndarray) -> np.ndarray:
        """Compute ``m @ Omega`` for an ``(q, in_dim)`` operand."""
        return _check_operand(m, self.spec.in_dim) @ self.entries

    def apply_tensor(self, x, mode: int, axis: int | None = None, rows: slice | None = None):
        """Compute ``unfold(x, mode) @ Omega`` straight from the tensor.

        The input grid is the extents of ``x`` other than ``mode`` (lowest
        axis fastest, as in the unfolding).  With ``axis`` and ``rows``,
        ``x`` covers only the block ``rows`` of the grid along its axis
        ``axis`` (the full extent there is what ``in_dim`` leaves), and the
        product is with the rows of ``Omega`` in that block, in order.
        """
        a, dims, g, rows = _grid(self.spec, x, mode, axis, rows)
        w = self.entries
        if g is not None:
            # A view with the grid axes reversed (C order, so axis 0 of the
            # grid varies fastest); only the selected block is copied.
            grid = w.reshape((*dims[::-1], self.spec.out_dim))
            block = grid[(slice(None),) * (len(dims) - 1 - g) + (rows,)]
            w = block.reshape((-1, self.spec.out_dim))
        return contract(a, mode, w)

    def tensor_scratch(self, shape, mode: int) -> int:
        """Scalars of working memory :meth:`apply_tensor` holds at its peak
        for an F-contiguous tensor (or slab) of ``shape``."""
        return contract_scratch(shape, mode, self.spec.out_dim)

    def materialize(self) -> np.ndarray:
        """A copy of the dense ``(in_dim, out_dim)`` entries."""
        return self.entries.copy()


class SsrftTransform:
    """Subsampled randomized Fourier-type transform, by its definition.

    Two rounds of (row permutation, sign flip, orthonormal DCT-II) followed
    by a uniform row subsample.  Its state is just the permutations, signs
    and coordinates.  :meth:`materialize` generates the dense entries that
    an SSRFT map is realized with; :meth:`transform_rows` applies the
    transform itself, the definition those entries are checked against.
    scipy is imported on first use, so commands without an SSRFT map never
    load it.
    """

    def __init__(self, spec: DrmSpec):
        self.spec = spec
        n = spec.in_dim
        self.perm1 = rng.permutation(spec.seed, _STREAM_PERM1, n)
        self.perm2 = rng.permutation(spec.seed, _STREAM_PERM2, n)
        self.sgn1 = rng.signs(spec.seed, _STREAM_SIGN1, n)
        self.sgn2 = rng.signs(spec.seed, _STREAM_SIGN2, n)
        self.coords = rng.index_subset(spec.seed, _STREAM_COORDS, n, spec.out_dim)

    def transform_rows(self, b: np.ndarray) -> np.ndarray:
        """Apply the (out_dim, in_dim) transform to the rows of ``b``.

        Each round gathers into a new array and transforms it in place, so
        at most two operand-sized arrays are alive at once.
        """
        import scipy.fft

        y = b[self.perm1]
        y *= self.sgn1[:, None]
        y = scipy.fft.dct(y, type=2, axis=0, norm="ortho", overwrite_x=True)
        y = y[self.perm2]
        y *= self.sgn2[:, None]
        y = scipy.fft.dct(y, type=2, axis=0, norm="ortho", overwrite_x=True)
        return y[self.coords]

    def materialize(self) -> np.ndarray:
        """The dense ``(in_dim, out_dim)`` map: the adjoint of the transform
        applied to the out_dim unit vectors at ``coords``, in
        O(out * in * log(in)) work and a few (in, out) arrays."""
        import scipy.fft

        out_dim = self.spec.out_dim
        z = np.zeros((self.spec.in_dim, out_dim))
        z[self.coords, np.arange(out_dim)] = 1.0
        for perm, sgn in ((self.perm2, self.sgn2), (self.perm1, self.sgn1)):
            z = scipy.fft.idct(z, type=2, axis=0, norm="ortho", overwrite_x=True)
            z *= sgn[:, None]
            z = z[np.argsort(perm)]
        return z


def apply_trp_factors(x, mode: int, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Contract every axis of the tensor ``x`` but ``mode`` against TRP factors.

    ``factors[j]`` has shape ``(extent, out_dim)`` and belongs to the
    ``j``-th axis other than ``mode``; column ``c`` of the implicit map is
    the Kronecker product (lowest mode fastest) of the ``c``-th columns.
    Returns ``(x.shape[mode], out_dim)``, which is ``unfold(x, mode)`` times
    that map.  The first contraction, on the last axis (axis 0 when ``mode``
    is last), is one GEMM on a view of the F-contiguous tensor; the others
    shrink its ``(out_dim, rest)`` result one axis at a time.  Never forms
    the dense map.
    """
    a = np.asfortranarray(np.asarray(x, dtype=np.float64))
    others = [j for j in range(a.ndim) if j != mode]
    if len(factors) != len(others):
        raise ValueError(f"{len(factors)} factors for {len(others)} axes")
    by_axis = dict(zip(others, factors))
    # One GEMM with the tensor as the right operand: (out_dim, rest).
    if mode != a.ndim - 1:
        t = matmul(by_axis[a.ndim - 1].T, a.reshape((-1, a.shape[-1]), order="F").T)
        rest = list(range(a.ndim - 1))
    else:
        t = matmul(by_axis[0].T, a.reshape((a.shape[0], -1), order="F"))
        rest = list(range(1, a.ndim))
    # t's columns enumerate the remaining axes lowest fastest: as a C array,
    # the column index z, then those axes reversed.
    t = t.reshape((t.shape[0], *[a.shape[j] for j in reversed(rest)]))
    subs = [chr(ord("a") + j) for j in reversed(rest)]
    for j in rest:
        if j == mode:
            continue
        letter = chr(ord("a") + j)
        kept = [c for c in subs if c != letter]
        t = np.einsum(f"z{''.join(subs)},{letter}z->z{''.join(kept)}", t, by_axis[j])
        subs = kept
    return t.T


class _TrpDrm:
    """Tensor random projection: Khatri-Rao of per-mode Gaussian factors,
    stored and applied implicitly."""

    def __init__(self, spec: DrmSpec):
        self.spec = spec
        self.factors = tuple(
            rng.gaussians(
                rng.mix64(spec.seed, _TRP_FACTOR_TAG, j), _STREAM_ENTRIES, (d, spec.out_dim)
            )
            for j, d in enumerate(spec.mode_dims)
        )

    def apply_right(self, m):
        a = _check_operand(m, self.spec.in_dim)
        x = np.reshape(a, (a.shape[0], *self.spec.mode_dims), order="F")
        return apply_trp_factors(x, 0, self.factors)

    def apply_tensor(self, x, mode, axis=None, rows=None):
        a, dims, g, rows = _grid(self.spec, x, mode, axis, rows)
        if dims != self.spec.mode_dims:
            raise ValueError(f"grid {dims} is not the trp grid {self.spec.mode_dims}")
        factors = list(self.factors)
        if g is not None:
            factors[g] = factors[g][rows]
        return apply_trp_factors(a, mode, tuple(factors))

    def tensor_scratch(self, shape, mode):
        # apply_trp_factors' first product: out_dim x (the tensor without
        # its last axis, or without axis 0 when ``mode`` is last).
        shape = tuple(int(d) for d in shape)
        first = 0 if mode == len(shape) - 1 else len(shape) - 1
        return self.spec.out_dim * int(np.prod(shape, dtype=np.int64)) // shape[first]

    def materialize(self) -> np.ndarray:
        """The dense ``(in_dim, out_dim)`` equivalent: the Khatri-Rao product
        of the factors in descending mode order."""
        cols = np.ones((1, self.spec.out_dim))
        return functools.reduce(khatri_rao, reversed(self.factors), cols)


_REALIZERS = {
    "gaussian": _DenseDrm,
    "sparse_sign": _DenseDrm,
    "ssrft": _DenseDrm,
    "trp": _TrpDrm,
}


def make_drm(spec: DrmSpec) -> _DenseDrm | _TrpDrm:
    """Realize the map described by ``spec``; same spec, same map, always."""
    return _REALIZERS[spec.kind](spec)
