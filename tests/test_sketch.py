"""Sketch construction, updates, and merges against materialized-map oracles."""

import hashlib
import linecache
import warnings

import numpy as np
import pytest

import tuckersketch.drm as drm_mod
import tuckersketch.sketch as sketch_mod
from tuckersketch.drm import make_drm
from tuckersketch.sketch import (
    ParamsMismatchError,
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    sketch_merge,
    sketch_storage,
    tucker_sketch,
)
from tuckersketch.tensor import multi_mode_product, unfold

SHAPE = (8, 9, 10)


def _tensor(seed=0, shape=SHAPE):
    return np.random.default_rng(seed).normal(size=shape)


def _params(om="gaussian", phi="gaussian", k=(3, 3, 3), s=(8, 8, 8), seed=123):
    return SketchParams(k=k, s=s, master_seed=seed, omega_kind=om, phi_kind=phi, density=0.3)


def _oracle_sketch(x, params):
    """Sketch computed with fully materialized maps."""
    vs = []
    for n in range(x.ndim):
        omega = make_drm(params.omega_spec(x.shape, n)).materialize()
        vs.append(unfold(x, n) @ omega)
    phis = [make_drm(params.phi_spec(x.shape, n)).materialize() for n in range(x.ndim)]
    core = multi_mode_product(x, [(n, p.T) for n, p in enumerate(phis)])
    return vs, core


def _assert_sketch_close(sk, vs, core, tol=1e-12):
    for got, want in zip(sk.factor_sketches, vs):
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * scale)
    scale = max(1.0, float(np.abs(core).max()))
    np.testing.assert_allclose(sk.core_sketch, core, rtol=0, atol=tol * scale)


class TestParams:
    def test_for_rank_sizing(self):
        p = SketchParams.for_rank(5, master_seed=0, order=3)
        assert p.k == (11, 11, 11)
        assert p.s == (23, 23, 23)

    def test_for_rank_checks_the_order(self):
        assert SketchParams.for_rank((1, 2), master_seed=0).k == (3, 5)
        with pytest.raises(ValueError, match="rank has 2 entries but the tensor has 3 modes"):
            SketchParams.for_rank((1, 2), master_seed=0, order=3)

    @pytest.mark.parametrize("rank", [0, -1, (2, 0, 2)], ids=["zero", "negative", "one-mode"])
    def test_for_rank_rejects_a_rank_below_one(self, rank):
        with pytest.raises(ValueError, match=r"rank must be >= 1 in every mode, got \("):
            SketchParams.for_rank(rank, master_seed=0, order=3)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(k=(), s=()), "at least one mode is required"),
        (dict(k=(0, 3), s=(3, 7)), "all k_n must be >= 1"),
        (dict(k=(3,), s=(7,), omega_kind="fourier"), "unknown factor map kind"),
        (dict(k=(3,), s=(7,), density=0.0), "density must lie in"),
        (dict(k=(3,), s=(7,), density=1.5), "density must lie in"),
    ], ids=["no-modes", "k-below-one", "unknown-kind", "density-zero", "density-above-one"])
    def test_rejects_bad_params(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SketchParams(master_seed=0, **kwargs)

    def test_rejects_s_below_k(self):
        with pytest.raises(ValueError):
            SketchParams(k=(4, 4), s=(3, 9), master_seed=0)

    def test_warns_when_one_pass_theory_does_not_apply(self):
        with pytest.warns(UserWarning) as caught:
            SketchParams(k=(4, 4), s=(8, 9), master_seed=0)
        # once, and attributed to the line that built the params
        assert len(caught) == 1
        assert caught[0].filename == __file__
        assert "SketchParams(k=(4, 4), s=(8, 9)" in linecache.getline(__file__, caught[0].lineno)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SketchParams(k=(4, 4), s=(9, 9), master_seed=0)

    def test_rejects_trp_core_map(self):
        with pytest.raises(ValueError):
            SketchParams(k=(4,), s=(9,), master_seed=0, phi_kind="trp")

    def test_rejects_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            SketchParams(k=(4, 4), s=(9,), master_seed=0)

    def test_sketcher_rejects_wide_k(self):
        with pytest.raises(ValueError):
            StreamingSketcher((2, 9, 10), _params())  # k_0=3 > I_0=2

    @pytest.mark.parametrize("shape, message", [
        ((8, 9), "params describe 3 modes but shape has 2"),
        ((8, 0, 10), "all extents must be >= 1"),
    ])
    def test_sketcher_rejects_a_bad_shape(self, shape, message):
        with pytest.raises(ValueError, match=message):
            StreamingSketcher(shape, _params())


_ARRAYS = dict(shape=SHAPE, factor_sketches=tuple(np.zeros((d, 3)) for d in SHAPE),
               core_sketch=np.zeros((8, 8, 8)))


@pytest.mark.parametrize("change, message", [
    (dict(shape=(8, 9)), "shape order does not match params"),
    (dict(factor_sketches=_ARRAYS["factor_sketches"][:2]), "one factor sketch per mode"),
    (dict(factor_sketches=(np.zeros((8, 4)),) + _ARRAYS["factor_sketches"][1:]),
     r"factor sketch 0 has shape \(8, 4\), expected \(8, 3\)"),
    (dict(core_sketch=np.zeros((8, 8, 7))), r"core sketch has shape \(8, 8, 7\)"),
], ids=["order", "count", "factor-shape", "core-shape"])
def test_sketch_rejects_inconsistent_arrays(change, message):
    TuckerSketch(params=_params(), **_ARRAYS)
    with pytest.raises(ValueError, match=message):
        TuckerSketch(params=_params(), **{**_ARRAYS, **change})


@pytest.mark.parametrize("om", ["gaussian", "sparse_sign", "ssrft", "trp"])
@pytest.mark.parametrize("phi", ["gaussian", "sparse_sign", "ssrft"])
def test_sketch_matches_materialized_oracle(om, phi):
    x = _tensor(1)
    params = _params(om, phi)
    vs, core = _oracle_sketch(x, params)
    _assert_sketch_close(tucker_sketch(x, params), vs, core)


def test_sketch_is_deterministic():
    x = _tensor(2)
    a = tucker_sketch(x, _params())
    b = tucker_sketch(x, _params())
    for va, vb in zip(a.factor_sketches, b.factor_sketches):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.core_sketch, b.core_sketch)


def test_sketch_arrays_are_immutable():
    sk = tucker_sketch(_tensor(3), _params())
    with pytest.raises(ValueError):
        sk.factor_sketches[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        sk.core_sketch[0, 0, 0] = 1.0


def test_sketch_leaves_the_callers_arrays_alone():
    params = _params()
    vs = [np.ones((d, k)) for d, k in zip(SHAPE, params.k)]
    h = np.ones(params.s)
    sk = TuckerSketch(params, SHAPE, tuple(vs), h)
    for mine, held in zip([*vs, h], [*sk.factor_sketches, sk.core_sketch]):
        assert mine.flags.writeable
        assert not np.shares_memory(mine, held)
        assert held.flags.f_contiguous and not held.flags.writeable
        mine[(0,) * mine.ndim] = 5.0
        assert held[(0,) * held.ndim] == 1.0


def test_storage_count():
    sk = tucker_sketch(_tensor(4), _params())
    assert sketch_storage(sk) == 8 * 3 + 9 * 3 + 10 * 3 + 8 * 8 * 8


@pytest.mark.parametrize("om", ["gaussian", "sparse_sign", "ssrft", "trp"])
def test_linear_update_is_linear(om):
    x = _tensor(5)
    f = _tensor(6)
    params = _params(om)
    theta1, theta2 = 0.7, -2.5
    acc = StreamingSketcher(SHAPE, params, init=tucker_sketch(x, params))
    acc.update_dense(f, theta1, theta2)
    updated = acc.sketch()
    direct = tucker_sketch(theta1 * x + theta2 * f, params)
    _assert_sketch_close(updated, list(direct.factor_sketches), direct.core_sketch)


def test_zero_sketch_is_identity_for_updates():
    x = _tensor(7)
    params = _params()
    acc = StreamingSketcher(SHAPE, params, init=StreamingSketcher(SHAPE, params).sketch())
    acc.update_dense(x)
    built = acc.sketch()
    direct = tucker_sketch(x, params)
    _assert_sketch_close(built, list(direct.factor_sketches), direct.core_sketch)


@pytest.mark.parametrize("om", ["gaussian", "sparse_sign", "ssrft", "trp"])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_slab_partition_reassembles_full_sketch(om, mode):
    x = _tensor(8)
    params = _params(om)
    acc = StreamingSketcher(SHAPE, params)
    extent = SHAPE[mode]
    cuts = [0, extent // 3, extent // 3 + 1, extent]
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        sel = tuple(
            slice(a, b) if m == mode else slice(None) for m in range(len(SHAPE))
        )
        acc.update_slab(mode, a, x[sel])
    direct = tucker_sketch(x, params)
    _assert_sketch_close(acc.sketch(), list(direct.factor_sketches), direct.core_sketch)


@pytest.mark.parametrize("om", ["gaussian", "sparse_sign", "ssrft", "trp"])
@pytest.mark.parametrize("phi", ["gaussian", "sparse_sign", "ssrft"])
def test_dense_update_is_the_one_last_mode_slab(om, phi):
    x = _tensor(23)
    params = _params(om, phi)
    dense, slab = StreamingSketcher(SHAPE, params), StreamingSketcher(SHAPE, params)
    dense.update_dense(x, 0.5, 2.0)
    slab.update_slab(2, 0, x, 0.5, 2.0)
    for a, b in zip(dense.sketch().factor_sketches, slab.sketch().factor_sketches):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(dense.sketch().core_sketch, slab.sketch().core_sketch)
    assert dense.peak_aux_scalars == slab.peak_aux_scalars


def test_slab_update_respects_thetas():
    x = _tensor(9)
    slab = _tensor(10, (8, 3, 10))
    params = _params()
    acc = StreamingSketcher(SHAPE, params, init=tucker_sketch(x, params))
    acc.update_slab(1, 4, slab, theta1=0.5, theta2=3.0)
    got = acc.sketch()
    padded = np.zeros(SHAPE)
    padded[:, 4:7, :] = slab
    direct = tucker_sketch(0.5 * x + 3.0 * padded, params)
    _assert_sketch_close(got, list(direct.factor_sketches), direct.core_sketch)


def test_slab_validation():
    acc = StreamingSketcher(SHAPE, _params())
    with pytest.raises(ValueError):
        acc.update_slab(1, 7, _tensor(0, (8, 3, 10)))  # 7 + 3 > 9
    with pytest.raises(ValueError):
        acc.update_slab(1, 0, _tensor(0, (7, 3, 10)))  # off-mode extent wrong
    with pytest.raises(ValueError):
        acc.update_slab(3, 0, _tensor(0))
    with pytest.raises(ValueError, match="slab has order 2, expected 3"):
        acc.update_slab(1, 0, _tensor(0, (8, 3)))
    with pytest.raises(ValueError, match=r"update has shape \(8, 9, 11\)"):
        acc.update_dense(_tensor(0, (8, 9, 11)))
    # A box of last-mode planes: only a slab along another mode is cut to
    # one, within the last mode, and without last_offset the last mode is
    # whole.
    with pytest.raises(ValueError, match="last_offset cuts a slab along another mode"):
        acc.update_slab(2, 0, _tensor(0, (8, 9, 4)), 1.0, 1.0, 0)
    with pytest.raises(ValueError, match="rows 8:12 fall outside extent 10"):
        acc.update_slab(1, 0, _tensor(0, (8, 3, 4)), 1.0, 1.0, 8)
    with pytest.raises(ValueError, match="slab extent 4 in mode 2 does not match 10"):
        acc.update_slab(1, 0, _tensor(0, (8, 3, 4)))


@pytest.mark.parametrize("array, index", [("factor", 0), ("core", 0), ("core", -1)])
def test_check_finite_finds_nan_or_inf_in_any_chunk(monkeypatch, array, index):
    # Chunks of 7 scalars: H (8^3) ends in a part chunk, and a factor
    # sketch is tested as well as H.
    monkeypatch.setattr(sketch_mod, "_FINITE_CHUNK", 7)
    acc = StreamingSketcher(SHAPE, _params())
    acc.update_dense(_tensor(0))
    acc.check_finite("update 1")
    target = acc._v[2] if array == "factor" else acc._h
    target.ravel(order="K")[index] = np.inf if index else np.nan
    with pytest.raises(ValueError, match=r"^update 2 made the sketch non-finite "
                       r"\(NaN or Inf in the data\)$"):
        acc.check_finite("update 2")


def test_structured_maps_never_materialize(monkeypatch):
    def boom(self):
        raise AssertionError("dense TRP map materialized during sketching")

    monkeypatch.setattr(drm_mod._TrpDrm, "materialize", boom)
    x = _tensor(11)
    params = _params("trp")
    acc = StreamingSketcher(SHAPE, params)
    acc.update_dense(x)
    acc.update_slab(1, 2, x[:, 2:5, :])
    acc.sketch()


# sha256 of the factor and core sketches folded from slab records, pinned
# before Gaussian and sparse sign factor maps generated the row runs a slab
# touches along every grid axis (they realized themselves whole for any axis
# but the slowest): generated rows and contractions keep the same bits.
# Each record is (mode, start, stop, theta1, theta2); the shapes put a
# factor map past one block of words (rng.BLOCK_WORDS) at order 3.
_SLAB_PINS = {
    ("gaussian", 3, 0): "249f25fb314b15fe69229fa945bce30444457bc03dd3a3f15642152825b2025b",
    ("gaussian", 3, 1): "82cff0f478cd8d2560455a4d7045ba05d9cc07983a331d7b74b8e72bad00d21a",
    ("gaussian", 4, 0): "6d8afa328567a8d727c8d71648e999f7761e223f12629292b2ce85e41488ffc2",
    ("gaussian", 4, 1): "66ff19410c8b76e4a2827adabe88a8cde8c10c90dabe37722d93c23672d1db19",
    ("sparse_sign", 3, 0): "a4e0e9d2a69c29c249913945b5b57317751476f618b17ebe180fae04c5f76cb3",
    ("sparse_sign", 3, 1): "e2e7894819fc89dae009fb0a5bd8fb3c6f53ceb54cba1a24ca4d3a875370b019",
    ("sparse_sign", 4, 0): "ed2d75c55b93579a2b9a047faff0a345e0af54ce9a80f0d36fcbc1d713f0a115",
    ("sparse_sign", 4, 1): "738f7ee36ab0ce4fcde52b449cb8763698da54d94104b8a7d1a3604be4e86783",
}
_BUDGET_PINS = {
    "gaussian": "ff680f6330ade5dae7a2ad52bc863d3db7355b63d934718a9d103450a14ec178",
    "sparse_sign": "6847e8948b17b4163ab89cbc42e809c53e46569f89ae3cafbe72958797dc3bf0",
}


def _slab_digest(kind, shape, records, rank):
    params = SketchParams.for_rank(rank, master_seed=31, order=len(shape),
                                   omega_kind=kind, phi_kind=kind)
    x = np.random.default_rng(len(shape)).normal(size=shape)
    acc = StreamingSketcher(shape, params)
    for mode, start, stop, theta1, theta2 in records:
        sel = (slice(None),) * mode + (slice(start, stop),)
        acc.update_slab(mode, start, x[sel], theta1, theta2)
    sk = acc.sketch()
    h = hashlib.sha256()
    for a in (*sk.factor_sketches, sk.core_sketch):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, order, mode", sorted(_SLAB_PINS))
def test_slab_records_fold_to_pinned_bytes(kind, order, mode):
    shape, rank = {3: ((100, 90, 80), 5), 4: ((20, 18, 16, 14), 2)}[order]
    records = [(mode, 3, 11, 1.0, 1.0), (mode, 11, 12, 0.5, 2.0)]
    assert _slab_digest(kind, shape, records, rank) == _SLAB_PINS[kind, order, mode]


@pytest.mark.parametrize("kind", sorted(_BUDGET_PINS))
def test_mode_0_records_past_the_row_budget_fold_to_pinned_bytes(kind):
    # Three records cover mode 0 once, so Omega_1 and Omega_2 generate each
    # of their rows once; the fourth would pass in_dim and realizes them.
    records = [(0, 0, 10, 1.0, 1.0), (0, 10, 20, 0.5, 1.0), (0, 20, 30, 1.0, -1.0),
               (0, 5, 15, 2.0, 1.0)]
    assert _slab_digest(kind, (30, 20, 16), records, 2) == _BUDGET_PINS[kind]


# Each update's own peak_aux_scalars, pass by pass, and the final
# held_map_scalars, pinned while a second method of each map predicted the
# scratch of its product (now each product records its own).  Two passes
# fold a one-row slab and two wider ones along every mode, so the second
# meets factor maps that keep their entries: a block of them is copied out
# for the contraction unless it is one run of rows, and an SSRFT map keeps
# its entries from the start.  k = 1-3, s = 2k + 1, Gaussian core maps.
_AUX_PINS = {
    ("gaussian", (6, 5, 4), 1): (119, "120 90 135 174 93 93 36 36 48",
                                      "56 85 123 60 93 93 36 36 48"),
    ("gaussian", (6, 5, 4), 2): (223, "220 215 260 324 223 223 150 150 175",
                                      "170 215 260 174 223 223 150 150 175"),
    ("gaussian", (6, 5, 4), 3): (327, "412 481 550 474 489 489 392 392 441",
                                      "412 481 550 416 489 489 392 392 441"),
    ("gaussian", (12, 9, 10), 1): (411, "540 700 840 828 636 636 36 144 180",
                                        "126 630 756 159 636 636 36 144 180"),
    ("gaussian", (12, 9, 10), 2): (791, "990 950 1140 1536 780 780 150 280 350",
                                        "240 800 960 270 780 780 150 280 350"),
    ("gaussian", (12, 9, 10), 3): (1171, "1440 1200 1440 2244 1019 1019 392 539 588",
                                         "482 1038 1212 512 1019 1019 392 539 588"),
    ("sparse_sign", (6, 5, 4), 1): (119, "120 90 135 174 93 93 36 36 48",
                                         "56 85 123 60 93 93 36 36 48"),
    ("sparse_sign", (6, 5, 4), 2): (223, "220 215 260 324 223 223 150 150 175",
                                         "170 215 260 174 223 223 150 150 175"),
    ("sparse_sign", (6, 5, 4), 3): (327, "412 481 550 474 489 489 392 392 441",
                                         "412 481 550 416 489 489 392 392 441"),
    ("sparse_sign", (12, 9, 10), 1): (411, "540 700 840 828 636 636 36 144 180",
                                           "126 630 756 159 636 636 36 144 180"),
    ("sparse_sign", (12, 9, 10), 2): (791, "990 950 1140 1536 780 780 150 280 350",
                                           "240 800 960 270 780 780 150 280 350"),
    ("sparse_sign", (12, 9, 10), 3): (1171, "1440 1200 1440 2244 1019 1019 392 539 588",
                                            "482 1038 1212 512 1019 1019 392 539 588"),
    ("ssrft", (6, 5, 4), 1): (119, "56 85 123 60 93 93 36 36 48",
                                   "56 85 123 60 93 93 36 36 48"),
    ("ssrft", (6, 5, 4), 2): (223, "170 215 260 174 223 223 150 150 175",
                                   "170 215 260 174 223 223 150 150 175"),
    ("ssrft", (6, 5, 4), 3): (327, "412 481 550 416 489 489 392 392 441",
                                   "412 481 550 416 489 489 392 392 441"),
    ("ssrft", (12, 9, 10), 1): (411, "126 630 756 159 636 636 36 144 180",
                                     "126 630 756 159 636 636 36 144 180"),
    ("ssrft", (12, 9, 10), 2): (791, "240 800 960 270 780 780 150 280 350",
                                     "240 800 960 270 780 780 150 280 350"),
    ("ssrft", (12, 9, 10), 3): (1171, "482 1038 1212 512 1019 1019 392 539 588",
                                      "482 1038 1212 512 1019 1019 392 539 588"),
    ("trp", (6, 5, 4), 1): (75, "56 85 123 60 93 93 36 36 48",
                                "56 85 123 60 93 93 36 36 48"),
    ("trp", (6, 5, 4), 2): (135, "170 215 260 174 223 223 150 150 175",
                                 "170 215 260 174 223 223 150 150 175"),
    ("trp", (6, 5, 4), 3): (195, "412 481 550 416 489 489 392 392 441",
                                 "412 481 550 416 489 489 392 392 441"),
    ("trp", (12, 9, 10), 1): (155, "180 630 756 159 636 636 108 144 180",
                                   "180 630 756 159 636 636 108 144 180"),
    ("trp", (12, 9, 10), 2): (279, "270 800 960 270 780 780 216 280 350",
                                   "270 800 960 270 780 780 216 280 350"),
    ("trp", (12, 9, 10), 3): (403, "482 1038 1212 512 1019 1019 392 539 588",
                                   "482 1038 1212 512 1019 1019 392 539 588"),
    ("gaussian", (5, 4, 3, 4), 2): (576, "798 971 971 940 810 995 830 830 830 750 750 875",
                                         "798 971 971 810 810 995 830 830 830 750 750 875"),
    ("sparse_sign", (5, 4, 3, 4), 2): (576, "798 971 971 940 810 995 830 830 830 750 750 875",
                                            "798 971 971 810 810 995 830 830 830 750 750 875"),
    ("ssrft", (5, 4, 3, 4), 2): (576, "798 971 971 810 810 995 830 830 830 750 750 875",
                                      "798 971 971 810 810 995 830 830 830 750 750 875"),
    ("trp", (5, 4, 3, 4), 2): (176, "798 971 971 810 810 995 830 830 830 750 750 875",
                                    "798 971 971 810 810 995 830 830 830 750 750 875"),
}


@pytest.mark.parametrize("kind, shape, k", sorted(_AUX_PINS))
def test_every_update_accounts_its_scratch_as_pinned(kind, shape, k):
    n = len(shape)
    params = SketchParams(k=(k,) * n, s=(2 * k + 1,) * n, master_seed=5, omega_kind=kind)
    x = np.ones(shape, order="F")
    acc = StreamingSketcher(shape, params)
    peaks = []
    for _ in range(2):
        for mode, d in enumerate(shape):
            for start, stop in [(0, 1), (1, (d + 1) // 2), ((d + 1) // 2, d)]:
                acc.peak_aux_scalars = 0  # so each value is one update's own
                acc.update_slab(mode, start, x[(slice(None),) * mode + (slice(start, stop),)])
                peaks.append(acc.peak_aux_scalars)
    held, *passes = _AUX_PINS[kind, shape, k]
    assert peaks == [int(v) for p in passes for v in p.split()]
    assert acc.held_map_scalars == held


class TestMerge:
    def test_merge_adds_shards(self):
        params = _params()
        xa, xb = _tensor(12), _tensor(13)
        merged = sketch_merge(tucker_sketch(xa, params), tucker_sketch(xb, params))
        direct = tucker_sketch(xa + xb, params)
        _assert_sketch_close(merged, list(direct.factor_sketches), direct.core_sketch)

    def test_merge_is_commutative_and_associative(self):
        params = _params()
        sks = [tucker_sketch(_tensor(s), params) for s in (14, 15, 16)]
        ab_c = sketch_merge(sketch_merge(sks[0], sks[1]), sks[2])
        a_bc = sketch_merge(sks[0], sketch_merge(sks[1], sks[2]))
        ba_c = sketch_merge(sketch_merge(sks[1], sks[0]), sks[2])
        for lhs in (a_bc, ba_c):
            _assert_sketch_close(
                lhs, list(ab_c.factor_sketches), ab_c.core_sketch, tol=1e-12
            )

    def test_merge_rejects_mismatched_params(self):
        x = _tensor(17)
        base = tucker_sketch(x, _params(seed=1))
        for other in [
            tucker_sketch(x, _params(seed=2)),
            tucker_sketch(x, _params(om="sparse_sign", seed=1)),
            tucker_sketch(x, _params(k=(5, 5, 5), s=(11, 11, 11), seed=1)),
        ]:
            with pytest.raises(ParamsMismatchError):
                sketch_merge(base, other)

    def test_merge_rejects_mismatched_shape(self):
        params = _params()
        a = tucker_sketch(_tensor(18), params)
        b = tucker_sketch(_tensor(19, (10, 9, 8)), params)
        with pytest.raises(ParamsMismatchError):
            sketch_merge(a, b)


def test_init_resumes_from_existing_sketch():
    params = _params()
    x, f = _tensor(20), _tensor(21)
    acc = StreamingSketcher(SHAPE, params, init=tucker_sketch(x, params))
    acc.update_dense(f)
    direct = tucker_sketch(x + f, params)
    _assert_sketch_close(acc.sketch(), list(direct.factor_sketches), direct.core_sketch)


def test_init_requires_matching_params():
    with pytest.raises(ParamsMismatchError):
        StreamingSketcher(SHAPE, _params(seed=1), init=tucker_sketch(_tensor(22), _params(seed=2)))
