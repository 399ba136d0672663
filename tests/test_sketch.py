"""Sketch construction, updates, and merges against materialized-map oracles."""

import warnings

import numpy as np
import pytest

import tuckersketch.drm as drm_mod
from tuckersketch.drm import make_drm
from tuckersketch.sketch import (
    ParamsMismatchError,
    SketchParams,
    StreamingSketcher,
    sketch_merge,
    sketch_storage,
    tucker_sketch,
    zero_sketch,
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

    def test_rejects_s_below_k(self):
        with pytest.raises(ValueError):
            SketchParams(k=(4, 4), s=(3, 9), master_seed=0)

    def test_warns_when_one_pass_theory_does_not_apply(self):
        with pytest.warns(UserWarning):
            SketchParams(k=(4, 4), s=(8, 9), master_seed=0)
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
    acc = StreamingSketcher(SHAPE, params, init=zero_sketch(SHAPE, params))
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
