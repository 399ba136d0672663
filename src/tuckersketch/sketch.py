"""Linear sketches of tensors: build, update, merge.

A sketch of a tensor ``X`` with order ``N`` holds one factor sketch per
mode, ``V_n = unfold(X, n) @ Omega_n`` of shape ``(I_n, k_n)``, plus a core
sketch ``H = X`` contracted on every mode ``n`` by ``Phi_n^T`` with shape
``(s_1, ..., s_N)``.  All maps are regenerated from ``(master_seed, role,
mode)``, so the sketch is a pure linear function of ``X`` and sketches of
shards simply add.

Every map but a TRP factor map acts as its dense entries, TRP as its
per-mode factors (see ``drm``); each contracts the tensor where it lies.
Every update folds in as a box of the tensor: it asks each map for the
rows the box touches.  A slab is a box cut along one mode, a box of a
stream record one cut along its mode and the last, and a dense update the
box that is the whole tensor.  A Gaussian or sparse sign factor map
generates such rows from its seed, whatever the box, so it need not be held
whole; only a map that the box touches whole (the map of a slab's own mode)
needs every row, and it is contracted last.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor import multi_mode_product, multi_mode_scratch, per_mode

if TYPE_CHECKING:
    from .drm import DrmSpec

FACTOR_KINDS = ("gaussian", "sparse_sign", "ssrft", "trp")
"""Every map kind; all of them can serve as factor maps."""
CORE_KINDS = ("gaussian", "sparse_sign", "ssrft")
"""Kinds that can serve as core maps (a single-mode trp is just its factor)."""

_ROLE_OMEGA = 101
_ROLE_PHI = 202

# check_finite tests this many scalars at a time: a 32 KiB temporary, not one
# byte per scalar of H, and as fast as one whole-array test at a 23^4 core.
_FINITE_CHUNK = 1 << 15


class ParamsMismatchError(ValueError):
    """Raised when combining sketches whose parameters differ."""


class RankInfeasibleError(ValueError):
    """Requested rank exceeds what the data or sketch can support."""


class RankDeficientCoreError(RuntimeError):
    """The one-pass core solve met a numerically rank-deficient system."""


@dataclass(frozen=True)
class SketchParams:
    """Sketch sizes, map kinds, and the master seed they all derive from.

    ``k[n]`` is the factor-sketch width for mode ``n`` and ``s[n]`` the core
    sketch extent; recovery needs ``s_n >= k_n`` and the one-pass error
    guarantee wants ``s_n > 2 k_n`` (a warning, not an error, below that).
    """

    k: tuple[int, ...]
    s: tuple[int, ...]
    master_seed: int
    omega_kind: str = "gaussian"
    phi_kind: str = "gaussian"
    density: float = 0.1

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        s = tuple(int(v) for v in self.s)
        if not k:
            raise ValueError("at least one mode is required")
        if len(k) != len(s):
            raise ValueError(f"k has {len(k)} modes but s has {len(s)}")
        if any(v < 1 for v in k):
            raise ValueError("all k_n must be >= 1")
        if any(sv < kv for kv, sv in zip(k, s)):
            raise ValueError("core sketch needs s_n >= k_n in every mode")
        if self.omega_kind not in FACTOR_KINDS:
            raise ValueError(f"unknown factor map kind {self.omega_kind!r}")
        if self.phi_kind not in CORE_KINDS:
            raise ValueError(
                f"core map kind must be one of {CORE_KINDS}, got {self.phi_kind!r}"
                " (a single-mode trp degenerates to its lone factor)"
            )
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        # Maps see the seed mod 2**64 (rng.mix64); so do comparisons and files.
        object.__setattr__(self, "master_seed", int(self.master_seed) % 2**64)
        if any(sv <= 2 * kv for kv, sv in zip(k, s)):
            warnings.warn(
                "s_n <= 2 k_n in some mode: the sketch still works, but the "
                "one-pass error guarantee needs s_n > 2 k_n",
                UserWarning,
                stacklevel=3,
            )

    @property
    def order(self) -> int:
        return len(self.k)

    @classmethod
    def for_rank(
        cls, rank, master_seed: int, order: int | None = None, **kwargs
    ) -> "SketchParams":
        """Default sizing for a target Tucker rank: k = 2r + 1, s = 2k + 1.

        The paper suggests k = 2r; one more keeps ``bound_two_pass`` finite
        at r = 1, where k = 2 would leave it infinite (it needs k_n >= 3).

        ``rank`` is a scalar or per-mode; ``order`` (needed for a scalar) is checked.
        """
        r = per_mode(rank, np.size(rank) if order is None else order, "rank")
        if any(v < 1 for v in r):
            raise ValueError(f"rank must be >= 1 in every mode, got {r}")
        k = tuple(2 * v + 1 for v in r)
        s = tuple(2 * v + 1 for v in k)
        return cls(k=k, s=s, master_seed=master_seed, **kwargs)

    def _density_for(self, kind: str) -> float | None:
        return self.density if kind == "sparse_sign" else None

    # The map modules load with the first map specified, so a command that
    # makes none (merge, two-pass recovery) does not load them.
    def omega_spec(self, shape: tuple[int, ...], mode: int) -> DrmSpec:
        """Spec of the factor-sketch map for one mode of a tensor of ``shape``."""
        from .drm import DrmSpec
        from .rng import mix64

        rest = tuple(d for m, d in enumerate(shape) if m != mode)
        in_dim = int(np.prod(rest, dtype=np.int64))
        return DrmSpec(
            kind=self.omega_kind,
            in_dim=in_dim,
            out_dim=self.k[mode],
            seed=mix64(self.master_seed, _ROLE_OMEGA, mode),
            density=self._density_for(self.omega_kind),
            mode_dims=rest if self.omega_kind == "trp" else None,
        )

    def phi_spec(self, shape: tuple[int, ...], mode: int) -> DrmSpec:
        """Spec of the core-sketch map for one mode."""
        from .drm import DrmSpec
        from .rng import mix64

        return DrmSpec(
            kind=self.phi_kind,
            in_dim=shape[mode],
            out_dim=self.s[mode],
            seed=mix64(self.master_seed, _ROLE_PHI, mode),
            density=self._density_for(self.phi_kind),
        )

    def phi_matrix(self, shape: tuple[int, ...], mode: int) -> np.ndarray:
        """The core-sketch map for one mode as a dense ``(I_mode, s_mode)`` matrix."""
        from .drm import make_drm

        return make_drm(self.phi_spec(shape, mode)).entries


def _freeze(a: np.ndarray, owned: bool = False) -> np.ndarray:
    """``a`` read-only in F order, the layout of file payloads and of the
    tensor kernels: a copy, so the caller's array stays its own, unless
    nothing else holds ``a`` (``owned``) and it is in F order already."""
    a = np.array(a, order="F", copy=None if owned else True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TuckerSketch:
    """Immutable sketch state: factor sketches plus the core sketch.

    The arrays given are copied, so the caller's stay its own; the package
    passes ``_owned=True`` for arrays nothing else holds (just parsed from
    a file, or just summed), which are made read-only where they lie.
    """

    params: SketchParams
    shape: tuple[int, ...]
    factor_sketches: tuple[np.ndarray, ...]
    core_sketch: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        shape = tuple(int(d) for d in self.shape)
        if len(shape) != self.params.order:
            raise ValueError("shape order does not match params")
        vs = tuple(np.asarray(v, dtype=np.float64) for v in self.factor_sketches)
        if len(vs) != self.params.order:
            raise ValueError("one factor sketch per mode is required")
        for n, v in enumerate(vs):
            want = (shape[n], self.params.k[n])
            if v.shape != want:
                raise ValueError(f"factor sketch {n} has shape {v.shape}, expected {want}")
        h = np.asarray(self.core_sketch, dtype=np.float64)
        if h.shape != self.params.s:
            raise ValueError(f"core sketch has shape {h.shape}, expected {self.params.s}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "factor_sketches", tuple(_freeze(v, _owned) for v in vs))
        object.__setattr__(self, "core_sketch", _freeze(h, _owned))


class StreamingSketcher:
    """Accumulates a sketch from a stream of linear updates in one pass.

    Working state is just the sketch arrays, the factor maps and the dense
    core maps; the tensor itself is never stored.  A Gaussian or sparse
    sign factor map holds no entries when the sketcher is made: a slab
    along mode ``m`` (every piece of a tensor file, every stream piece) gets
    the rows of each map ``Omega_n`` (n != m) that it touches generated for
    it alone, while ``Omega_m``, which acts on the modes the slab covers in
    full, realizes itself whole on first use and is kept, as is a map whose
    rows generated for slabs would pass its ``in_dim`` (see
    ``drm._DenseDrm``).  ``Omega_m`` is contracted after the other modes,
    so the rows they generate are dropped before it is realized.  A box of
    a slab along mode ``m`` != last, cut to a range of last-mode planes
    (``update_slab``'s ``last_offset``), touches no map whole: each map
    generates its rows, and ``Omega_last``, whose rows depend only on the
    box's rows of mode ``m``, keeps them for the next box of the record.
    ``held_map_scalars`` counts the map entries held.  Updates are
    contracted in Fortran order, the layout of every file payload: an
    F-contiguous update is read in place, any other layout is copied to F
    once per update, and the sketch does not depend on the input layout.
    ``peak_aux_scalars`` is the most working memory any single update held
    at once: that F copy, if one was made, the entries of maps realized
    during the update, and the largest step's scratch: the core sketch's
    (the largest pair of consecutive products in its chain, the core
    itself included; see ``tensor.multi_mode_scratch``) or the ``scratch``
    a factor map records for the product it just ran (the rows or whole map
    it generated, with one block of counter-stream words, then the kernel's
    batch product with any block of kept entries it copied, or TRP's first
    contraction).
    """

    def __init__(self, shape, params: SketchParams, *, init: TuckerSketch | None = None):
        shape = tuple(int(d) for d in shape)
        if len(shape) != params.order:
            raise ValueError(
                f"params describe {params.order} modes but shape has {len(shape)}"
            )
        if any(d < 1 for d in shape):
            raise ValueError("all extents must be >= 1")
        for n, (d, kn) in enumerate(zip(shape, params.k)):
            if kn > d:
                raise ValueError(
                    f"factor sketch width k_{n}={kn} exceeds the mode extent {d}"
                )
        from .drm import make_drm

        self.shape = shape
        self.params = params
        self._omegas = [make_drm(params.omega_spec(shape, n)) for n in range(len(shape))]
        self._phis = [params.phi_matrix(shape, n) for n in range(len(shape))]
        if init is not None:
            if init.params != params or init.shape != shape:
                raise ParamsMismatchError(
                    "initial sketch was built under different parameters or shape"
                )
            self._v = [v.copy() for v in init.factor_sketches]
            self._h = init.core_sketch.copy(order="F")
        else:
            self._v = [np.zeros((shape[n], params.k[n])) for n in range(len(shape))]
            self._h = np.zeros(params.s, order="F")
        self.peak_aux_scalars = 0

    def _note_aux(self, count: int) -> None:
        if count > self.peak_aux_scalars:
            self.peak_aux_scalars = int(count)

    def _scale(self, theta1: float) -> None:
        if theta1 != 1.0:
            for v in self._v:
                v *= theta1
            self._h *= theta1

    @staticmethod
    def _fortran(f) -> tuple[np.ndarray, int]:
        """``f`` as an F-contiguous float64 array, and the scalars of the one
        copy made to get it (0 if ``f`` already is one)."""
        a = np.asarray(f, dtype=np.float64, order="F")
        copied = not (isinstance(f, np.ndarray) and np.may_share_memory(a, f))
        return a, a.size if copied else 0

    def update_dense(self, f, theta1: float = 1.0, theta2: float = 1.0) -> None:
        """Fold the linear update ``X <- theta1 * X + theta2 * f`` into the sketch."""
        a, held = self._fortran(f)
        if a.shape != self.shape:
            raise ValueError(f"update has shape {a.shape}, expected {self.shape}")
        self._fold((0,) * a.ndim, a, held, theta1, theta2)

    def update_slab(
        self, mode: int, offset: int, slab, theta1: float = 1.0, theta2: float = 1.0,
        last_offset: int | None = None,
    ) -> None:
        """Fold in an update supported on ``offset:offset+c`` along one mode.

        ``slab`` carries full extents on every other mode, except that with
        ``last_offset``, a slab along a mode other than the last covers only
        planes ``last_offset:last_offset + slab.shape[-1]`` of the last mode:
        a box, as a stream record is read.  Equivalent to ``update_dense`` on
        the zero-padded tensor, at slab cost: each map contracts the slab
        with only the rows of it that the slab touches.
        """
        a, held = self._fortran(slab)
        n_modes = len(self.shape)
        if not 0 <= mode < n_modes:
            raise ValueError(f"mode {mode} out of range")
        if a.ndim != n_modes:
            raise ValueError(f"slab has order {a.ndim}, expected {n_modes}")
        at = {mode: offset}
        if last_offset is not None:
            if mode == n_modes - 1:
                raise ValueError("last_offset cuts a slab along another mode than the "
                                 "last to a box of last-mode planes")
            at[n_modes - 1] = last_offset
        for m in range(n_modes):
            if m not in at and a.shape[m] != self.shape[m]:
                raise ValueError(
                    f"slab extent {a.shape[m]} in mode {m} does not match {self.shape[m]}"
                )
        for m, o in at.items():
            c = a.shape[m]
            if c < 1 or o < 0 or o + c > self.shape[m]:
                raise ValueError(f"rows {o}:{o + c} fall outside extent {self.shape[m]}")
        self._fold(tuple(at.get(m, 0) for m in range(n_modes)), a, held, theta1, theta2)

    def _fold(self, at, a: np.ndarray, held: int, theta1: float, theta2: float) -> None:
        """Scale the sketch by ``theta1`` and add ``theta2`` times the sketch
        of the checked F-contiguous box ``a`` of the tensor that starts at
        ``at``; ``held`` is the scalars of the copy made to get ``a``."""
        self._scale(theta1)
        rows = [slice(o, o + c) for o, c in zip(at, a.shape)]
        cut = {n for n, (c, d) in enumerate(zip(a.shape, self.shape)) if c < d}

        # Core sketch: each Phi_n restricted to the box's rows of mode n (a
        # thin box's block maps c <= s rows to s, so multi_mode_product
        # applies it last).  It comes first, before any factor map realizes
        # itself for good.
        blocks = [(n, p[r].T) for n, (p, r) in enumerate(zip(self._phis, rows))]
        self._note_aux(held + multi_mode_scratch(a.shape, blocks))
        core = multi_mode_product(a, blocks)
        core *= theta2
        self._h += core
        del core

        # Factor sketches: Omega_n contracts the box with the map rows whose
        # multi-index hits it on every cut mode but n.  A map whose grid no
        # mode cuts needs every row (the slab's own mode, or any mode of a
        # dense update), so it comes last, and a map that realizes itself
        # whole for it is not yet held while the others' rows are.  Omega_last
        # keeps its rows for a box cut along the last mode: every box of a
        # record along another mode meets the same rows of it.  A map's
        # scratch counts its own product; entries it realizes count from
        # then on.  Each V_n is its own product, so the order moves no bits.
        before = self.held_map_scalars
        last = len(self.shape) - 1
        for n in sorted(range(len(self._omegas)), key=lambda n: not cut - {n}):
            om = self._omegas[n]
            kept = self.held_map_scalars - before
            part = om.apply_tensor(a, n, self.shape, at, keep=n == last and last in cut)
            self._v[n][rows[n]] += theta2 * part
            self._note_aux(held + kept + om.scratch)

    @property
    def held_map_scalars(self) -> int:
        """Scalars of the map entries the sketcher holds: the dense core
        maps, and what each factor map holds (see ``drm``)."""
        return sum(om.held_scalars for om in self._omegas) + sum(p.size for p in self._phis)

    def check_finite(self, where: str) -> None:
        """Raise ``ValueError`` naming ``where`` if a sketch array holds NaN or
        Inf (no later update removes one).  Each array's flat view is tested
        in chunks, so the test holds no temporary that grows with H."""
        for a in (*self._v, self._h):
            flat = a.ravel(order="K")
            if not all(np.isfinite(flat[i : i + _FINITE_CHUNK]).all()
                       for i in range(0, flat.size, _FINITE_CHUNK)):
                raise ValueError(f"{where} made the sketch non-finite (NaN or Inf in the data)")

    def sketch(self) -> TuckerSketch:
        """Snapshot the accumulated state as an immutable sketch."""
        return TuckerSketch(
            params=self.params,
            shape=self.shape,
            factor_sketches=tuple(self._v),
            core_sketch=self._h,
        )


def tucker_sketch(x, params: SketchParams) -> TuckerSketch:
    """Sketch a fully materialized tensor in one shot."""
    a = np.asarray(x, dtype=np.float64)
    sk = StreamingSketcher(a.shape, params)
    sk.update_dense(a)
    return sk.sketch()


def sum_sketches(pairs) -> TuckerSketch:
    """Sum sketches taken one at a time from an iterator of ``(head, core_slabs)``:
    a ``TuckerSketch`` or ``io.read_sketch_slabs`` head and ``(offset, slab)``
    last-mode slabs of its core.  The first is copied (a ``-0.0`` keeps its
    sign); each later one is checked against it and added slab by slab."""
    first, slabs = next(pairs)
    vs = [np.array(v, order="F") for v in first.factor_sketches]
    h = np.empty(first.params.s, order="F")
    for offset, slab in slabs:
        h[..., offset : offset + slab.shape[-1]] = slab
    for head, slabs in pairs:
        if head.params != first.params:
            raise ParamsMismatchError("sketches were built under different parameters; "
                                      "refusing to merge")
        if head.shape != first.shape:
            raise ParamsMismatchError(f"sketches cover different shapes {first.shape} vs "
                                      f"{head.shape}")
        for v, w in zip(vs, head.factor_sketches):
            v += w
        for offset, slab in slabs:
            h[..., offset : offset + slab.shape[-1]] += slab
    return TuckerSketch(params=first.params, shape=first.shape,
                        factor_sketches=tuple(vs), core_sketch=h, _owned=True)


def sketch_merge(a: TuckerSketch, b: TuckerSketch) -> TuckerSketch:
    """Combine sketches of shards: valid only under identical params and shape."""
    return sum_sketches((sk, ((0, sk.core_sketch),)) for sk in (a, b))


def sketch_storage(sk: TuckerSketch) -> int:
    """Scalar count of the sketch state: sum_n I_n k_n + prod_n s_n."""
    factor = sum(v.size for v in sk.factor_sketches)
    return int(factor + sk.core_sketch.size)
