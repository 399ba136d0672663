"""Dense tensor kernels: unfoldings, mode products, and the Tucker container.

Conventions used throughout the package:

* Tensors are plain ``numpy.ndarray`` objects in float64.
* Modes are 0-based.
* ``unfold(x, n)`` puts mode ``n`` on the rows; its columns enumerate the
  remaining modes with *lower* modes varying fastest, i.e. column index
  ``j = i_0 + i_1 * I_0 + ...`` over the modes other than ``n`` in
  ascending order.  ``fold`` is the exact inverse.
* Fortran order (first index fastest) is the canonical memory layout: it
  is the layout of every payload on disk, so a tensor read from a file is
  contracted where it lies.  :func:`contract` and :func:`mode_product` read
  an F-contiguous tensor in place and copy any other layout to F once, so
  their results do not depend on the input layout; ``mode_product``
  returns F-contiguous tensors, so chained products never copy.
* :func:`matmul` makes every GEMM: when each matrix product has more than
  2**19 multiply-adds and the whole at most 2**24, as one-thread BLAS blocks
  cut from the shapes alone, else as one ``np.matmul`` (called nowhere else).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _as_tensor(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        raise ValueError("expected an array with at least one mode")
    return a


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for an order-{ndim} tensor")


def unfold(x, mode: int) -> np.ndarray:
    """Matricize ``x`` along ``mode``.

    Returns an ``(I_mode, prod(I_other))`` matrix whose columns enumerate
    the remaining modes with lower modes varying fastest.
    """
    a = _as_tensor(x)
    _check_mode(a.ndim, mode)
    return np.reshape(np.moveaxis(a, mode, 0), (a.shape[mode], -1), order="F")


def fold(m, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild a tensor of ``shape`` from its
    mode-``mode`` unfolding."""
    shape = tuple(int(d) for d in shape)
    _check_mode(len(shape), mode)
    a = np.asarray(m, dtype=np.float64)
    rest = shape[:mode] + shape[mode + 1 :]
    expected = (shape[mode], int(np.prod(rest, dtype=np.int64)))
    if a.shape != expected:
        raise ValueError(f"unfolding has shape {a.shape}, expected {expected}")
    full = np.reshape(a, (shape[mode],) + rest, order="F")
    return np.moveaxis(full, 0, mode)


def _fortran(x) -> np.ndarray:
    """``x`` as an F-contiguous float64 array: itself if it is one, else a copy."""
    return np.asfortranarray(_as_tensor(x))


def _split(shape: tuple[int, ...], mode: int) -> tuple[int, int, int]:
    """``(L, I_mode, R)``: the products of the extents before and after ``mode``."""
    return math.prod(shape[:mode]), shape[mode], math.prod(shape[mode + 1 :])


# OpenBLAS keeps a GEMM of up to 2**19 multiply-adds on the calling thread
# and splits a larger one over its threads.  A split GEMM waits for its
# slowest thread, which on a busy machine may be a scheduler time slice
# (milliseconds) away, so a product that threads barely speed up (up to
# 2**24 multiply-adds, a few ms on one core) runs as one-thread blocks
# instead.  A slab update is made of such products.
_ONE_THREAD_MACS = 1 << 19
_SPLIT_MACS = 1 << 24


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for matrices or stacks of them (a matrix is shared by every
    item of a stack), cut as the module docstring says: item by item, each
    in one-thread blocks along its longest side."""
    m, inner = a.shape[-2:]
    n = b.shape[-1]
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    macs = m * inner * n
    if not (_ONE_THREAD_MACS < macs and macs * math.prod(stack) <= _SPLIT_MACS):
        return np.matmul(a, b)
    out = np.empty(stack + (m, n))
    side = max(m, inner, n)
    step = max(1, _ONE_THREAD_MACS * side // macs)
    for t in np.ndindex(stack):
        x, y, z = a[t] if a.ndim > 2 else a, b[t] if b.ndim > 2 else b, out[t]
        if side == m:
            for r in range(0, m, step):
                np.matmul(x[r : r + step], y, out=z[r : r + step])
        elif side == n:
            for c in range(0, n, step):
                np.matmul(x, y[:, c : c + step], out=z[:, c : c + step])
        else:
            np.matmul(x[:, :step], y[:step], out=z)
            for i in range(step, inner, step):
                z += x[:, i : i + step] @ y[i : i + step]
    return out


# A middle-mode contraction runs as a batch of GEMMs whose products are
# summed; batches hold at most this many scalars of products.
_BATCH_SCALARS = 1 << 20


def _batch_len(shape: tuple[int, ...], mode: int, k: int) -> int:
    """Trailing slices per batch of :func:`contract` (0 on an end mode)."""
    lead, extent, trail = _split(shape, mode)
    if lead == 1 or trail == 1:
        return 0
    return max(1, min(trail, _BATCH_SCALARS // (extent * k)))


def contract_scratch(shape, mode: int, k: int) -> int:
    """Scalars in the largest temporary :func:`contract` allocates for a
    tensor of ``shape`` and a ``k``-column ``w``: its batch product."""
    shape = tuple(int(d) for d in shape)
    return _batch_len(shape, mode, k) * shape[mode] * k


def contract(x, mode: int, w) -> np.ndarray:
    """``unfold(x, mode) @ w``, read straight from the tensor's memory.

    ``w`` has one row per column of the unfolding.  With ``x`` viewed as
    ``(L, I_mode, R)`` (the products of the extents before and after
    ``mode``, F order) and ``w`` as ``(R, L, k)``, mode 0 is one GEMM on a
    view, the last mode one GEMM on a transposed view, and a middle mode a
    batch of ``R`` GEMMs, summed.  No copy of ``x`` is made when it is
    F-contiguous.
    """
    a = _fortran(x)
    _check_mode(a.ndim, mode)
    lead, extent, trail = _split(a.shape, mode)
    m = np.asarray(w, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != lead * trail:
        raise ValueError(
            f"w has shape {m.shape}, expected {lead * trail} rows for mode {mode} "
            f"of shape {a.shape}"
        )
    k = m.shape[1]
    x3 = a.reshape((lead, extent, trail), order="F")
    w3 = m.reshape((trail, lead, k))
    if trail == 1:
        return matmul(x3[:, :, 0].T, w3[0])
    if lead == 1:
        return matmul(x3[0], w3[:, 0])
    out = np.zeros((extent, k))
    step = _batch_len(a.shape, mode, k)
    for r0 in range(0, trail, step):
        batch = matmul(x3[:, :, r0 : r0 + step].transpose(2, 1, 0), w3[r0 : r0 + step])
        out += batch.sum(axis=0)
    return out


def mode_product(x, mode: int, matrix) -> np.ndarray:
    """Contract ``matrix`` (``J x I_mode``) against mode ``mode`` of ``x``.

    Equivalent to ``fold(matrix @ unfold(x, mode), mode, new_shape)``.  The
    result is F-contiguous, and an F-contiguous ``x`` is read in place:
    mode 0 is one GEMM, any other mode a stack of GEMMs over the trailing
    modes (one GEMM for the last mode).
    """
    a = _fortran(x)
    _check_mode(a.ndim, mode)
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    if m.shape[1] != a.shape[mode]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but mode {mode} has extent {a.shape[mode]}"
        )
    lead, extent, trail = _split(a.shape, mode)
    x3 = a.reshape((lead, extent, trail), order="F")
    if lead == 1:
        y = matmul(x3[0].T, m.T).T
    else:
        y = matmul(m, x3.transpose(2, 1, 0)).transpose(2, 1, 0)
    new_shape = a.shape[:mode] + (m.shape[0],) + a.shape[mode + 1 :]
    return y.reshape(new_shape, order="F")


def multi_mode_product(x, matrices: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """Apply several mode products ``(mode, matrix)``.

    Modes must be distinct; the result does not depend on the order given.
    The products run from the one that shrinks the tensor most to the one
    that grows it most, so the first, full-size contraction produces the
    smallest intermediate.  Ties go from the highest mode down: the product
    on the last (contiguous) end is one GEMM that reads the F-ordered tensor
    as its right operand, which BLAS handles with the least working memory.
    """
    a = _as_tensor(x)
    pairs = [(mode, np.asarray(m, dtype=np.float64)) for mode, m in matrices]
    seen: set[int] = set()
    for mode, m in pairs:
        if mode in seen:
            raise ValueError(f"mode {mode} given twice")
        seen.add(mode)
        _check_mode(a.ndim, mode)
        if m.ndim != 2:
            raise ValueError("mode_product expects a matrix")
    for mode, m in _product_order(a.shape, pairs):
        a = mode_product(a, mode, m)
    return a


def _product_order(shape, pairs):
    """``(mode, matrix)`` pairs in the order :func:`multi_mode_product`
    applies them to a tensor of ``shape``."""
    return sorted(pairs, key=lambda p: (p[1].shape[0] / shape[p[0]], -p[0]))


def multi_mode_scratch(shape, matrices) -> int:
    """Scalars :func:`multi_mode_product` holds at its peak for a tensor of
    ``shape``, beyond the tensor: each product is made while the one before
    it is alive, so the peak is the largest two consecutive intermediates
    (the first product, and the result, included)."""
    dims, sizes = list(shape), [0]
    for mode, m in _product_order(shape, matrices):
        dims[mode] = m.shape[0]
        sizes.append(math.prod(dims))
    return max(a + b for a, b in zip(sizes, sizes[1:]))


def inner(x, y) -> float:
    """Entrywise inner product of two tensors of identical shape."""
    a = _as_tensor(x)
    b = _as_tensor(y)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def fro_norm(x) -> float:
    """Frobenius norm, any order: the square root of :func:`sum_sq`."""
    return math.sqrt(sum_sq(np.asarray(x, dtype=np.float64)))


def sum_sq(a: np.ndarray) -> float:
    """``||a||^2``, the package's one sum of squares: one dot product of the
    flat view of ``a`` (a copy only if it is not contiguous); inf past the float range."""
    flat = a.ravel(order="K")
    return float(np.dot(flat, flat))


def in_units(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a * 2**-e, e)``, with ``2**e`` the power of two just above the
    largest entry of ``a`` (``e = 0`` when ``a`` is zero or not finite): the
    package's one choice of unit.  Squares of the scaled entries neither
    overflow nor underflow with the scale of ``a``, and scaling by a power
    of two is exact, so a result computed in units and scaled back by
    ``2**e`` has the bits it has at any other scale of ``a``."""
    top = np.abs(a).max()
    e = int(np.frexp(top)[1]) if 0.0 < top < math.inf else 0
    return np.ldexp(a, -e), e


_FINITE_CHUNK = 1 << 15


def all_finite(a: np.ndarray) -> bool:
    """Whether ``a`` holds no NaN or Inf: the package's one such test.  Its
    flat view (a copy only if ``a`` is not contiguous) is tested
    ``_FINITE_CHUNK`` scalars at a time: a 32 KiB temporary, not one byte
    per scalar, and as fast as one whole-array test at a 23^4 core."""
    flat = a.ravel(order="K")
    return all(np.isfinite(flat[i : i + _FINITE_CHUNK]).all()
               for i in range(0, flat.size, _FINITE_CHUNK))


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product; operands must agree in column count."""
    am = np.asarray(a, dtype=np.float64)
    bm = np.asarray(b, dtype=np.float64)
    if am.ndim != 2 or bm.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if am.shape[1] != bm.shape[1]:
        raise ValueError(
            f"column counts differ: {am.shape[1]} vs {bm.shape[1]}"
        )
    return (am[:, None, :] * bm[None, :, :]).reshape((-1, am.shape[1]))


def per_mode(values, order: int, what: str) -> tuple[int, ...]:
    """``values`` as ``order`` ints, one per mode; one value serves every mode."""
    v = tuple(int(x) for x in np.atleast_1d(values))
    if len(v) == 1:
        v *= order
    if len(v) != order:
        raise ValueError(f"{what} has {len(v)} entries but the tensor has {order} modes")
    return v


def superdiag(values, order: int) -> np.ndarray:
    """Order-``order`` tensor with ``values`` on the superdiagonal, zero off it."""
    if order < 2:
        raise ValueError("superdiagonal tensors need order >= 2")
    v = np.asarray(values, dtype=np.float64).ravel()
    out = np.zeros((v.size,) * order)
    idx = np.arange(v.size)
    out[(idx,) * order] = v
    return out


@dataclass(frozen=True)
class TuckerFactorization:
    """A core tensor plus one factor matrix per mode.

    ``factors[n]`` has shape ``(I_n, r_n)`` where ``r_n`` is the extent of
    mode ``n`` of ``core``.  The represented tensor is the core contracted
    with every factor along its mode.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        core = _as_tensor(self.core)
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        if len(factors) != core.ndim:
            raise ValueError(
                f"core has {core.ndim} modes but {len(factors)} factors given"
            )
        for n, f in enumerate(factors):
            if f.ndim != 2:
                raise ValueError(f"factor {n} is not a matrix")
            if f.shape[1] != core.shape[n]:
                raise ValueError(
                    f"factor {n} has {f.shape[1]} columns but core mode {n} "
                    f"has extent {core.shape[n]}"
                )
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def rank(self) -> tuple[int, ...]:
        return self.core.shape

    def to_dense(self) -> np.ndarray:
        return tucker_to_dense(self)


def tucker_to_dense(t: TuckerFactorization) -> np.ndarray:
    """Expand a Tucker factorization to a dense tensor."""
    return multi_mode_product(t.core, list(enumerate(t.factors)))

