"""Dimension-reduction maps: Gaussian, sparse sign, SSRFT, and tensor random
projection (TRP).

A map is described by a :class:`DrmSpec` and realized by :func:`make_drm`.
Realizations are deterministic functions of the ``DrmSpec``, so two workers
holding the same one apply the same map without ever exchanging it.  Every kind
supports right application ``m @ Omega`` on an ``(q, in_dim)`` operand, and
the unfolding product ``unfold(x, mode) @ Omega`` read straight from a tensor,
optionally from a box of it, with the rows of ``Omega`` whose position in
the input grid lies in the box (what a slab update needs, or a box of a
slab record); both contract the tensor where it lies.  Gaussian, sparse
sign and SSRFT maps are realized as their dense entries.  Gaussian and
sparse sign entries are drawn one per counter-stream word, row by row, so
any list of runs of rows is generated alone, a bounded block of words at a
time (``rng.fill``): such a map holds no entries when it is made, and a
product with a box of its input grid generates just the rows the box
covers and drops them (or keeps them for the next product, if asked).  A
box that cuts grid axis ``g`` and no lower one is one run of
``len(rows_g) * prod(dims[:g])`` rows for each of its positions on the axes
above ``g``; a box that cuts only the slowest axis is one run.  The map
realizes itself whole, and keeps the entries, when a whole grid or its
entries are asked for, or once the rows generated for boxes would pass
``in_dim``.  An SSRFT map's entries are
generated when it is made, from the permutations, signs and coordinates
that define it (:class:`SsrftTransform`), with ``numpy.fft``: at sketch
widths far below ``in_dim``, one GEMM with those entries costs less than
two DCTs of the operand.  Only a Gaussian map (or TRP factor, which is
Gaussian) of more than ``rng.NDTRI_PORT_MAX`` (2^20) entries loads scipy,
for ``ndtri``, and it does so when it is made; smaller ones, such as the
core maps and the factor maps of a 200^3 sketch at rank 10, draw through
a bit-exact port (``rng.ndtri_for``).  Likewise only a map, TRP factor or
SSRFT permutation or sign vector of more than ``rng.PHILOX_PORT_MAX``
(2^16) words loads ``numpy.random``, for its ``Philox``, when it is made;
smaller ones, such as the core maps and every TRP factor of the usual
sketches, draw their words through a port with the same words
(``rng.philox_for``).
TRP keeps its per-mode factors, applies implicitly and only materializes
its dense equivalent on request.

TRP column convention: the map acts on a flattened multi-index over
``mode_dims`` with *lower* modes varying fastest (the same order the
package's unfoldings use), so the materialized map is the column-wise
Kronecker product of the per-mode factors taken in descending mode order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .tensor import contract, contract_scratch, khatri_rao, matmul

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
        if self.kind not in _REALIZERS:
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
    """Scalars stored to regenerate one map (see :func:`drm_storage_cost`)."""

    scalars: float


def drm_storage_cost(spec: DrmSpec) -> DrmStorageCost:
    """Scalars of the state that regenerates one map in its compact form.

    Gaussian counts its entries, sparse_sign its expected nonzeros, SSRFT
    its two permutations, two sign vectors and coordinates
    (``4 * in_dim + out_dim``), TRP its per-mode factors.  This is not the
    memory a realization holds: an SSRFT map holds its ``in_dim * out_dim``
    dense entries, and a Gaussian or sparse sign map holds them once it has
    realized itself whole (until then, only the rows of one product, or
    of one kept box).
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
    return DrmStorageCost(scalars=scalars)


def _grid(spec: DrmSpec, x, mode: int, shape, at):
    """Validate a tensor operand of the map ``spec``: the box of a tensor of
    ``shape`` (``x``'s own, if None) that starts at ``at`` (the origin, if
    None).  Returns it, the full input grid and the box on that grid, one
    ``slice`` per grid axis."""
    a = np.asarray(x, dtype=np.float64)
    if not 0 <= mode < a.ndim:
        raise ValueError(f"mode {mode} out of range for an order-{a.ndim} tensor")
    dims = a.shape[:mode] + a.shape[mode + 1 :]
    if min(dims, default=1) < 1:
        raise ValueError(f"tensor grid {dims} has an empty axis")
    full = a.shape if shape is None else tuple(int(d) for d in shape)
    at = (0,) * a.ndim if at is None else tuple(int(o) for o in at)
    if len(full) != a.ndim or len(at) != a.ndim or any(
        o < 0 or o + c > d for o, c, d in zip(at, a.shape, full)
    ):
        raise ValueError(f"a box of extents {a.shape} at {at} does not fit the shape {full}")
    dims = full[:mode] + full[mode + 1 :]
    if math.prod(dims) != spec.in_dim:
        raise ValueError(f"tensor grid {dims} does not cover in_dim={spec.in_dim}")
    box = tuple(slice(o, o + c) for j, (o, c) in enumerate(zip(at, a.shape)) if j != mode)
    return a, dims, box


def _check_operand(m, in_dim: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("operand must be a matrix")
    if a.shape[1] != in_dim:
        raise ValueError(f"operand has {a.shape[1]} columns, map expects {in_dim}")
    return a


# Scalars a realization holds per word of the block it is generating, at
# most, as a product counts them in its ``scratch``, beside the block that
# ``rng.fill`` draws the words into: a run's words as drawn, until they are
# copied in, and then what is derived from them (sparse sign: the sign
# bits and signs, then the uniforms' precursor and the keep mask, 2.0 per
# word; Gaussian: the precursor, or the ndtri port's temporaries, which it
# bounds by working a quarter of a block at a time: 1.0 per word).  The
# port of Philox draws the words of a map of at most rng.PHILOX_PORT_MAX
# words with 3 scalars of temporaries per word of a piece of at most 2^14
# words: 4 per word with the words themselves, less for a block of
# several pieces.
_SCALARS_PER_WORD = 4


def _sparse_signs(density: float):
    """The ``values`` function of ``rng.fill`` that draws sparse sign
    entries: +-1/sqrt(density) with probability density, else zero."""
    scale = 1.0 / np.sqrt(density)
    by_low_bit = np.array([-scale, scale])

    def values(words, dst):
        # The signs first: the uniforms are written over the words.
        sign = by_low_bit.take((words & np.uint64(1)).view(np.int64), mode="clip")
        keep = rng.unit_doubles(words, out=dst) < density
        np.multiply(sign, keep, out=dst)
        dst += 0.0  # a dropped negative sign is -0.0: make it +0.0

    return values


def _block_runs(dims, box) -> list[tuple[int, int]]:
    """The rows ``(start, stop)`` of a map on the grid ``dims`` (axis 0
    fastest) whose position lies in ``box`` (a slice per axis, not all of
    them whole), in the order of the box's own grid: with ``g`` the lowest
    axis the box cuts, one run of ``len(box[g]) * prod(dims[:g])`` rows for
    each position of the box on the axes above ``g``."""
    g = next(j for j, (rows, d) in enumerate(zip(box, dims)) if rows.stop - rows.start < d)
    inner = math.prod(dims[:g])
    starts, stride = [box[g].start * inner], dims[g] * inner
    for rows, d in zip(box[g + 1 :], dims[g + 1 :]):
        starts = [o + p * stride for p in range(rows.start, rows.stop) for o in starts]
        stride *= d
    run = (box[g].stop - box[g].start) * inner
    return [(o, o + run) for o in starts]


class _DenseDrm:
    """A map held as its ``(in_dim, out_dim)`` entries: Gaussian, sparse sign
    or SSRFT.

    Sparse sign entries are +-1/sqrt(density) with probability density, else
    zero.  One raw word decides each entry: the top bits drive the keep/drop
    draw, the low bit the sign.  SSRFT entries are those of
    :class:`SsrftTransform`, generated when the map is made.

    Gaussian and sparse sign entries are generated when first needed.  A
    product with a box of the input grid generates just the rows the box
    covers (runs of rows, see :func:`_block_runs`), until the rows
    generated that way would pass ``in_dim``; a whole grid, or a box past
    that budget, realizes the map whole, once, and the map keeps the
    entries.  So a pass that visits each row once generates each row once,
    and no sequence of requests generates more than twice the map's entries
    in all.  A product asked to ``keep`` its rows holds them until the next
    product, which reuses them if its box is the same.  Each product records
    its working memory in ``scratch`` (see :meth:`apply_tensor`).
    """

    def __init__(self, spec: DrmSpec):
        self.spec = spec
        self.scratch = 0  # scalars the last apply_tensor held at its peak
        self._entries = None
        self._block = None  # (box, rows) kept for the next product
        self._generated = 0  # rows generated for block products so far
        if spec.kind == "ssrft":
            self._entries = SsrftTransform(spec).materialize()
            return
        # Chosen by the whole map, so every row block draws its words, and
        # its normals, with one function.
        self._philox = rng.philox_for(spec.in_dim * spec.out_dim)
        if spec.kind == "gaussian":
            self._values = rng.normals(rng.ndtri_for(spec.in_dim * spec.out_dim))
        else:
            self._values = _sparse_signs(spec.density)

    def _rows(self, runs) -> np.ndarray:
        """The Gaussian or sparse sign entries of the row runs ``runs``
        (``(start, stop)`` pairs), stacked in order, drawn from their words
        in the counter stream."""
        k = self.spec.out_dim
        out = np.empty((sum(stop - start for start, stop in runs), k))
        words = [(start * k, (stop - start) * k) for start, stop in runs]
        return rng.fill(out, self.spec.seed, _STREAM_ENTRIES, words, self._values, self._philox)

    @property
    def entries(self) -> np.ndarray:
        """The dense ``(in_dim, out_dim)`` entries, realized on first use and kept."""
        if self._entries is None:
            self._block = None
            self._entries = self._rows([(0, self.spec.in_dim)])
        return self._entries

    @property
    def held_scalars(self) -> int:
        """Scalars of the entries the map holds: the whole map once it is
        realized, and the rows of a kept box."""
        whole = 0 if self._entries is None else self._entries.size
        return whole + (0 if self._block is None else self._block[1].size)

    def apply_right(self, m: np.ndarray) -> np.ndarray:
        """Compute ``m @ Omega`` for an ``(q, in_dim)`` operand."""
        return _check_operand(m, self.spec.in_dim) @ self.entries

    def apply_tensor(self, x, mode: int, shape=None, at=None, keep: bool = False):
        """Compute ``unfold(x, mode) @ Omega`` straight from the tensor.

        ``x`` is the box of a tensor of ``shape`` (by default, ``x`` is the
        whole tensor) that starts at ``at``.  The input grid is the extents
        of that tensor other than ``mode`` (lowest axis fastest, as in the
        unfolding), and the product is with the rows of ``Omega`` that the
        box covers on it, in order.  With ``keep``, generated rows are held
        for the next product, which reuses them for the same box.  Sets
        ``scratch`` to the scalars held at the product's peak, for an
        F-contiguous ``x``: the entries generated, and the larger of what
        one block of their words needs and the contraction's scratch with
        the copy of a box of kept entries, if one was made.
        """
        a, dims, box = _grid(self.spec, x, mode, shape, at)
        k, in_dim = self.spec.out_dim, self.spec.in_dim
        met = math.prod(a.shape[:mode] + a.shape[mode + 1 :])  # the map rows x meets
        w = self._block[1] if self._block is not None and self._block[0] == box else None
        self._block = None  # rows not reused are dropped before any others are made
        generated = copied = 0
        fits = met < in_dim and self._generated + met <= in_dim
        if w is None and self._entries is None and fits:
            w = self._rows(_block_runs(dims, box))
            self._generated += met
            generated = w.size
        elif w is None:
            generated = 0 if self._entries is not None else in_dim * k
            w = self.entries
            if met < in_dim:
                # A view with the grid axes reversed (C order, so axis 0 of
                # the grid varies fastest).  A box of one run of rows stays a
                # view; any other is copied, even one whose one-row runs
                # reshape to a strided view: matmul may round a product with
                # a strided operand differently, and the box must give the
                # bits of its generated rows.
                grid = w.reshape((*dims[::-1], k))
                w = np.ascontiguousarray(grid[box[::-1]].reshape((-1, k)))
            copied = 0 if np.may_share_memory(w, self._entries) else w.size
        if keep and self._entries is None:
            self._block = (box, w)
        words = _SCALARS_PER_WORD * min(generated, rng.BLOCK_WORDS)
        self.scratch = generated + max(contract_scratch(a.shape, mode, k) + copied, words)
        return contract(a, mode, w)

    def materialize(self) -> np.ndarray:
        """A copy of the dense ``(in_dim, out_dim)`` entries."""
        return self.entries.copy()


class SsrftTransform:
    """Subsampled randomized Fourier-type transform, by its definition.

    Two rounds of (row permutation, sign flip, orthonormal DCT-II) followed
    by a uniform row subsample.  Its state is just the permutations, signs
    and coordinates.  :meth:`materialize` generates the dense entries that
    an SSRFT map is realized with, by a numpy DCT (:func:`_idct`);
    :meth:`transform_rows` applies the transform itself, the definition
    those entries are checked against.  Only :meth:`transform_rows` uses
    scipy (``scipy.fft.dct``, imported on first use), and only tests call
    it, so no command with an SSRFT map loads scipy for it.
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
        out_dim = self.spec.out_dim
        # Held transposed, (out, in), so every pass of the DCT reads
        # contiguous rows; the last gather turns it back into (in, out).
        z = np.zeros((out_dim, self.spec.in_dim))
        z[np.arange(out_dim), self.coords] = 1.0
        z = _idct(z)
        z *= self.sgn2
        z = z.take(_inverse(self.perm2), axis=1)
        z = _idct(z)
        z *= self.sgn1
        return z.T.take(_inverse(self.perm1), axis=0)


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``perm``, by one scatter."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def _idct(y: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-III along the last axis, the inverse of the
    orthonormal DCT-II (``scipy.fft.idct(y, type=2, norm="ortho")``),
    written into ``y``.

    Makhoul's reordering: one real inverse FFT of the half spectrum
    ``(y_k - i y_{n-k}) exp(i pi k / 2n)`` (``y_n = 0``) gives the even
    outputs in order and the odd ones reversed.  The twiddles come from libm
    and the spectrum from real products and sums only, so the result does
    not depend on numpy's SIMD kernels (a fused complex multiply would).
    """
    n = y.shape[-1]
    h = n // 2 + 1
    ang = (np.arange(h) * (math.pi / (2 * n))).tolist()
    cos = np.fromiter(map(math.cos, ang), np.float64, h)
    sin = np.fromiter(map(math.sin, ang), np.float64, h)
    # Rows k > 0 of the orthonormal DCT-II are scaled sqrt(2) above row 0.
    cos[1:] *= math.sqrt(0.5)
    sin[1:] *= math.sqrt(0.5)
    w = np.empty((*y.shape[:-1], h), dtype=np.complex128)
    tail = y[..., : n - h : -1]  # y_{n-k} for k = 1 .. h-1
    np.multiply(y[..., :h], cos, out=w.real)
    w.real[..., 1:] += tail * sin[1:]
    np.multiply(y[..., :h], sin, out=w.imag)
    w.imag[..., 1:] -= tail * cos[1:]
    v = np.fft.irfft(w, n, norm="ortho")
    del w
    y[..., 0::2] = v[..., : (n + 1) // 2]
    y[..., 1::2] = v[..., : (n - 1) // 2 : -1]
    return y


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
    stored and applied implicitly; ``scratch`` as in :class:`_DenseDrm`."""

    def __init__(self, spec: DrmSpec):
        self.spec = spec
        self.scratch = 0
        self.factors = tuple(
            rng.gaussians(
                rng.mix64(spec.seed, _TRP_FACTOR_TAG, j), _STREAM_ENTRIES, (d, spec.out_dim)
            )
            for j, d in enumerate(spec.mode_dims)
        )

    @property
    def held_scalars(self) -> int:
        return sum(f.size for f in self.factors)

    def apply_right(self, m):
        a = _check_operand(m, self.spec.in_dim)
        x = np.reshape(a, (a.shape[0], *self.spec.mode_dims), order="F")
        return apply_trp_factors(x, 0, self.factors)

    def apply_tensor(self, x, mode, shape=None, at=None, keep=False):
        """As :meth:`_DenseDrm.apply_tensor`: each factor takes the box's
        rows of its axis, and ``keep`` has nothing to keep."""
        a, dims, box = _grid(self.spec, x, mode, shape, at)
        if dims != self.spec.mode_dims:
            raise ValueError(f"grid {dims} is not the trp grid {self.spec.mode_dims}")
        factors = tuple(f[rows] for f, rows in zip(self.factors, box))
        # apply_trp_factors' first product: out_dim x (the tensor without
        # its last axis, or without axis 0 when ``mode`` is last).
        self.scratch = self.spec.out_dim * a.size // a.shape[0 if mode == a.ndim - 1 else -1]
        return apply_trp_factors(a, mode, factors)

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
