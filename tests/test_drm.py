"""Dimension-reduction map tests: determinism, oracles, and the Monte-Carlo
checks behind the error analysis."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

import tuckersketch.tensor as tensor_mod
from tuckersketch import rng
from tuckersketch.tensor import unfold
from tuckersketch.drm import (
    DrmSpec,
    SsrftTransform,
    apply_trp_factors,
    drm_storage_cost,
    make_drm,
)

ALL_SPECS = [
    DrmSpec("gaussian", 24, 5, seed=10),
    DrmSpec("sparse_sign", 24, 5, seed=11, density=0.4),
    DrmSpec("ssrft", 24, 5, seed=12),
    DrmSpec("trp", 24, 5, seed=13, mode_dims=(4, 6)),
]


def test_rng_streams_are_frozen():
    # pinned values: a change here means previously written sketch files
    # can no longer be regenerated from their seeds
    assert rng.raw(0, 0, 3).tolist() == [
        213000021201967259,
        4455796210202625458,
        2055444239878205049,
    ]
    assert rng.mix64(1, 2, 3) == 7702586659592502839
    np.testing.assert_allclose(
        rng.uniforms(7, 1, 2), [0.8824668302545413, 0.36903833467548414], rtol=0, atol=1e-16
    )
    np.testing.assert_allclose(
        rng.gaussians(7, 2, 2), [-0.34100879470827106, -0.2536267378858919], rtol=0, atol=1e-15
    )
    assert rng.permutation(9, 0, 6).tolist() == [0, 2, 4, 5, 1, 3]


def _old_unit_doubles(words):
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def test_unit_doubles_keep_every_value_below_the_top():
    edges = np.array(
        [0, 1, 2**11 - 1, 2**11, 2**52, 2**63, 2**64 - 2**12, 2**64 - 2**11 - 1],
        dtype=np.uint64,
    )
    words = np.concatenate([rng.raw(3, 4, 100_000), edges])
    words = words[words < np.uint64(2**64 - 2**11)]
    got = rng.unit_doubles(words)
    assert np.array_equal(got.view(np.uint64), _old_unit_doubles(words).view(np.uint64))
    assert got.max() < 1.0 and got.min() > 0.0


def test_top_raw_word_stays_below_one(monkeypatch):
    top = np.array([2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    assert np.all(_old_unit_doubles(top) == 1.0)  # the formula alone rounds up
    assert np.all(rng.unit_doubles(top) == 1.0 - 2.0**-53)
    monkeypatch.setattr(rng, "raw", lambda seed, stream, count: np.full(count, top[1]))
    assert np.all(rng.uniforms(0, 0, 3) < 1.0)
    assert np.all(np.isfinite(rng.gaussians(0, 0, (2, 2))))
    # The sparse sign kind reads the same words: at density 1 the top word
    # is kept too (as 1.0 it failed the u < density draw).
    e = make_drm(DrmSpec("sparse_sign", 3, 2, seed=1, density=1.0)).entries
    assert np.all(e == 1.0)


def test_rng_distinct_streams_differ():
    a = rng.raw(5, 0, 8)
    b = rng.raw(5, 1, 8)
    c = rng.raw(6, 0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_index_subset_bounds():
    got = rng.index_subset(3, 0, 10, 4)
    assert len(set(got.tolist())) == 4
    assert all(0 <= v < 10 for v in got)
    with pytest.raises(ValueError):
        rng.index_subset(3, 0, 4, 5)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_same_spec_same_map(spec):
    m = np.random.default_rng(0).normal(size=(7, spec.in_dim))
    a = make_drm(spec).apply_right(m)
    b = make_drm(spec).apply_right(m)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_different_seed_different_map(spec):
    m = np.random.default_rng(0).normal(size=(7, spec.in_dim))
    from dataclasses import replace

    a = make_drm(spec).apply_right(m)
    b = make_drm(replace(spec, seed=spec.seed + 1)).apply_right(m)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_apply_matches_materialize(spec):
    m = np.random.default_rng(1).normal(size=(9, spec.in_dim))
    got = make_drm(spec).apply_right(m)
    ref = m @ make_drm(spec).materialize()
    assert got.shape == (9, spec.out_dim)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("axis,rows", [(0, slice(1, 3)), (1, slice(0, 6)), (1, slice(5, 6))])
def test_apply_rows_matches_materialized_rows(spec, axis, rows):
    # flat index i0 + 4 * i1 over the (4, 6) grid; keep those with i_axis in rows
    dims = (4, 6)
    grid = np.arange(24).reshape(dims, order="F")
    block = grid[(slice(None),) * axis + (rows,)]
    keep = block.ravel(order="F")
    # mode 0 of x is the operand's row index; axes 1 and 2 are the grid block
    x = np.random.default_rng(2).normal(size=(3, *block.shape))
    d = make_drm(spec)
    got = d.apply_tensor(x, 0, axis=axis + 1, rows=rows)
    ref = x.reshape((3, -1), order="F") @ d.materialize()[keep]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_apply_rows_rejects_bad_blocks(spec):
    d = make_drm(spec)
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 4, 2)), 0, axis=2, rows=slice(0, 3))  # needs 3 rows
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 5, 2)), 0, axis=2, rows=slice(0, 2))  # grid misses in_dim
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 4, 2)), 0, axis=3, rows=slice(0, 2))
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 4, 0)), 0, axis=2, rows=slice(3, 3))


def test_spec_validation():
    with pytest.raises(ValueError):
        DrmSpec("fourier", 8, 4, seed=0)
    with pytest.raises(ValueError):
        DrmSpec("ssrft", 8, 9, seed=0)  # cannot expand
    with pytest.raises(ValueError):
        DrmSpec("sparse_sign", 8, 4, seed=0)  # missing density
    with pytest.raises(ValueError):
        DrmSpec("sparse_sign", 8, 4, seed=0, density=1.5)
    with pytest.raises(ValueError):
        DrmSpec("gaussian", 8, 4, seed=0, density=0.5)
    with pytest.raises(ValueError):
        DrmSpec("trp", 8, 4, seed=0, mode_dims=(3, 3))  # product mismatch
    with pytest.raises(ValueError):
        DrmSpec("trp", 8, 4, seed=0)  # missing dims
    with pytest.raises(ValueError):
        DrmSpec("gaussian", 0, 4, seed=0)


class TestGaussian:
    def test_moments(self):
        d = make_drm(DrmSpec("gaussian", 500, 40, seed=3))
        e = d.entries
        assert abs(e.mean()) < 5 / np.sqrt(e.size)
        assert abs(e.var() - 1.0) < 0.05


class TestSparseSign:
    def test_value_set_and_density(self):
        density = 0.3
        d = make_drm(DrmSpec("sparse_sign", 400, 50, seed=4, density=density))
        e = d.entries
        scale = 1 / np.sqrt(density)
        vals = set(np.unique(np.round(e, 12)).tolist())
        assert vals <= {0.0, scale, -scale} or vals <= {round(v, 12) for v in (0.0, scale, -scale)}
        frac = np.count_nonzero(e) / e.size
        sigma = np.sqrt(density * (1 - density) / e.size)
        assert abs(frac - density) < 5 * sigma

    def test_column_energy_matches_gaussian_scale(self):
        # E ||column||^2 = in_dim for both kinds
        d = make_drm(DrmSpec("sparse_sign", 300, 80, seed=5, density=0.25))
        energies = (d.entries**2).sum(axis=0)
        assert abs(energies.mean() - 300) / 300 < 0.1


class TestSsrft:
    def test_square_map_is_orthogonal(self):
        d = SsrftTransform(DrmSpec("ssrft", 32, 32, seed=6))
        omega = d.materialize()
        np.testing.assert_allclose(omega @ omega.T, np.eye(32), atol=1e-10)
        x = np.random.default_rng(2).normal(size=(32, 3))
        y = d.transform_rows(x)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0), rtol=1e-12
        )

    def test_sides_are_transposes(self):
        spec = DrmSpec("ssrft", 20, 7, seed=7)
        d, realized = SsrftTransform(spec), make_drm(spec)
        m = np.random.default_rng(3).normal(size=(20, 4))
        rows = d.transform_rows(m)
        cols = realized.apply_right(m.T)
        np.testing.assert_allclose(rows, cols.T, atol=1e-12)

    def test_materialize_memory_is_linear_in_input(self):
        # the dense map is 20000 x 43 (6.9 MB); transforming an identity of
        # the input size would need 3.2 GB
        d = SsrftTransform(DrmSpec("ssrft", 20000, 43, seed=8))
        tracemalloc.start()
        try:
            omega = d.materialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * omega.nbytes
        x = np.random.default_rng(4).normal(size=(20000, 2))
        np.testing.assert_allclose(omega.T @ x, d.transform_rows(x), atol=1e-10)

    def test_transform_matches_out_of_place_rounds(self):
        d = SsrftTransform(DrmSpec("ssrft", 50, 9, seed=9))
        b = np.random.default_rng(5).normal(size=(50, 6))
        y = scipy.fft.dct(d.sgn1[:, None] * b[d.perm1], type=2, axis=0, norm="ortho")
        y = scipy.fft.dct(d.sgn2[:, None] * y[d.perm2], type=2, axis=0, norm="ortho")
        before = b.copy()
        np.testing.assert_array_equal(d.transform_rows(b), y[d.coords])
        np.testing.assert_array_equal(b, before)  # the operand is left alone

    def test_transform_memory_is_two_operands(self):
        d = SsrftTransform(DrmSpec("ssrft", 20000, 43, seed=8))
        b = np.random.default_rng(6).normal(size=(20000, 30))
        tracemalloc.start()
        try:
            d.transform_rows(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * b.nbytes

    def test_subsample_energy_monte_carlo(self):
        # E ||Xi x||^2 = (out/in) ||x||^2; 2000 fresh seeds, 10% band
        x = rng.gaussians(55, 0, 64)
        x /= np.linalg.norm(x)
        total = 0.0
        for trial in range(2000):
            d = SsrftTransform(DrmSpec("ssrft", 64, 16, seed=rng.mix64(808, trial)))
            total += float((d.transform_rows(x[:, None]) ** 2).sum())
        mean = total / 2000
        assert abs(mean - 0.25) <= 0.1 * 0.25

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_slab_rows_match_transform_of_padded_unfolding(self, mode):
        # The realized map restricted to a slab's rows equals the transform
        # of the zero-padded slab's unfolding.
        shape = (5, 6, 7)
        dims = tuple(d for j, d in enumerate(shape) if j != mode)
        spec = DrmSpec("ssrft", int(np.prod(dims)), 4, seed=rng.mix64(31, mode))
        realized, ref = make_drm(spec), SsrftTransform(spec)
        x = np.random.default_rng(mode).normal(size=shape)
        for axis in (j for j in range(3) if j != mode):
            rows = slice(1, shape[axis] - 2)
            sel = (slice(None),) * axis + (rows,)
            padded = np.zeros(shape)
            padded[sel] = x[sel]
            got = realized.apply_tensor(x[sel], mode, axis=axis, rows=rows)
            want = ref.transform_rows(unfold(padded, mode).T).T
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestTrp:
    def test_implicit_matches_materialized(self):
        for dims in [(3, 4), (2, 3, 4), (5, 1, 2)]:
            spec = DrmSpec("trp", int(np.prod(dims)), 6, seed=8, mode_dims=dims)
            d = make_drm(spec)
            m = np.random.default_rng(4).normal(size=(5, spec.in_dim))
            np.testing.assert_allclose(
                d.apply_right(m), m @ d.materialize(), atol=1e-12
            )

    def test_materialized_column_is_kron_lowest_fastest(self):
        spec = DrmSpec("trp", 6, 3, seed=9, mode_dims=(2, 3))
        d = make_drm(spec)
        omega = d.materialize()
        a0, a1 = d.factors
        for c in range(3):
            # row index = i0 + i1 * 2, so the mode-0 factor varies fastest
            np.testing.assert_allclose(omega[:, c], np.kron(a1[:, c], a0[:, c]), atol=1e-13)

    def test_apply_factors_direct(self):
        a0 = np.random.default_rng(5).normal(size=(3, 4))
        a1 = np.random.default_rng(6).normal(size=(5, 4))
        m = np.random.default_rng(7).normal(size=(2, 15))
        got = apply_trp_factors(m.reshape((2, 3, 5), order="F"), 0, (a0, a1))
        ref = np.zeros((2, 4))
        for c in range(4):
            ref[:, c] = m @ np.kron(a1[:, c], a0[:, c])
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_split_first_product_matches_materialized(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_ONE_THREAD_MACS", 8)  # split every product
        x = np.asfortranarray(np.random.default_rng(8).normal(size=(2, 3, 4, 5)))
        for mode in range(x.ndim):
            dims = tuple(d for j, d in enumerate(x.shape) if j != mode)
            d = make_drm(DrmSpec("trp", int(np.prod(dims)), 4, seed=3, mode_dims=dims))
            got = apply_trp_factors(x, mode, d.factors)
            np.testing.assert_allclose(got, unfold(x, mode) @ d.materialize(), atol=1e-12)


def test_storage_cost():
    assert drm_storage_cost(DrmSpec("gaussian", 30, 7, seed=0)).scalars == 210
    assert drm_storage_cost(DrmSpec("sparse_sign", 30, 10, seed=0, density=0.2)).scalars == pytest.approx(60)
    assert drm_storage_cost(DrmSpec("ssrft", 30, 7, seed=0)).scalars == 4 * 30 + 7
    cost = drm_storage_cost(DrmSpec("trp", 30, 7, seed=0, mode_dims=(5, 6)))
    assert cost.scalars == (5 + 6) * 7
    assert cost.dense_equiv == 210


class TestGaussianExpectations:
    def test_pinv_second_moment(self):
        # E ||pinv(G1) G2 B||_F^2 = q/(t-q-1) ||B||_F^2 with B = I_p:
        # t=15, q=5, p=3 gives 5/9 * 3 = 5/3
        trials = 600
        g1 = rng.gaussians(2024, 0, (trials, 15, 5))
        g2 = rng.gaussians(2024, 1, (trials, 15, 3))
        vals = [
            float((np.linalg.lstsq(g1[i], g2[i], rcond=None)[0] ** 2).sum())
            for i in range(trials)
        ]
        target = 5 / 9 * 3
        assert abs(np.mean(vals) - target) <= 0.15 * target

    def test_range_finder_error_bound(self):
        # E ||(I - P_Y) A||_F^2 <= (1 + k/(p-1)) * tail_k for Y = A @ Omega;
        # flat tail makes the bound informative, so check both sides
        mdim, ndim, k, p = 30, 40, 5, 4
        sv = np.concatenate([np.ones(k), 0.1 * np.ones(mdim - k)])
        u = np.linalg.qr(rng.gaussians(77, 0, (mdim, mdim)))[0]
        v = np.linalg.qr(rng.gaussians(77, 1, (ndim, mdim)))[0]
        a = u @ np.diag(sv) @ v.T
        tail = float((sv[k:] ** 2).sum())
        bound = (1 + k / (p - 1)) * tail
        errs = []
        for trial in range(400):
            omega = rng.gaussians(rng.mix64(99, trial), 0, (ndim, k + p))
            q = np.linalg.qr(a @ omega)[0]
            errs.append(np.linalg.norm(a - q @ (q.T @ a)) ** 2)
        mean = float(np.mean(errs))
        assert tail <= mean <= 1.1 * bound
