"""Recovery tests: bases, exactness on exact-rank data, baseline algorithms,
fixed-rank truncation, and the rotation/truncation commutation."""

import numpy as np
import pytest

from tuckersketch.harness import SyntheticSpec, gen_synthetic
from tuckersketch.recovery import (
    RankDeficientCoreError,
    RankInfeasibleError,
    factor_bases,
    fixed_rank_truncate,
    hooi,
    hosvd,
    one_pass_recover,
    st_hosvd,
    two_pass_recover,
)
from tuckersketch.sketch import SketchParams, tucker_sketch
from tuckersketch.tensor import (
    TuckerFactorization,
    fro_norm,
    multi_mode_product,
    tucker_to_dense,
)


def _exact_rank_tensor(side=16, order=3, rank=3, seed=0):
    return gen_synthetic(
        SyntheticSpec("low_rank_noise", side, order, rank, seed=seed, gamma=0.0)
    )


def _noisy_tensor(side=16, order=3, rank=3, seed=0, gamma=1.0):
    return gen_synthetic(
        SyntheticSpec("low_rank_noise", side, order, rank, seed=seed, gamma=gamma)
    )


def _orthonormal(rows, cols, seed):
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(rows, cols)))[0]


class TestFactorBases:
    def test_bases_are_orthonormal_and_span_sketch(self):
        x = _noisy_tensor(seed=1)
        sk = tucker_sketch(x, SketchParams(k=(5, 5, 5), s=(11, 11, 11), master_seed=3))
        bases = factor_bases(sk)
        assert bases.degenerate_modes == ()
        for q, v in zip(bases.matrices, sk.factor_sketches):
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
            # range(V) is inside span(Q)
            resid = v - q @ (q.T @ v)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v)

    def test_rank_deficient_sketch_is_flagged(self):
        x = _exact_rank_tensor(rank=2, seed=2)  # rank 2 < k
        sk = tucker_sketch(x, SketchParams(k=(6, 6, 6), s=(13, 13, 13), master_seed=4))
        bases = factor_bases(sk)
        assert bases.degenerate_modes == (0, 1, 2)
        for q in bases.matrices:
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)


class TestTwoPass:
    def test_full_width_sketch_reconstructs_exactly(self):
        # k_n = I_n makes Q_n square orthonormal, so the projection is the identity
        x = np.random.default_rng(5).normal(size=(6, 7, 5))
        with pytest.warns(UserWarning):
            params = SketchParams(k=(6, 7, 5), s=(8, 9, 7), master_seed=5)
        report = two_pass_recover(x, tucker_sketch(x, params))
        assert report.passes == 2
        err = fro_norm(x - report.factorization.to_dense()) / fro_norm(x)
        assert err <= 1e-10

    def test_exact_rank_recovery(self):
        x = _exact_rank_tensor(seed=6)
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=6, order=3))
        report = two_pass_recover(x, sk)
        assert fro_norm(x - report.factorization.to_dense()) <= 1e-9 * fro_norm(x)

    def test_shape_mismatch_rejected(self):
        x = _exact_rank_tensor(seed=7)
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=7, order=3))
        with pytest.raises(ValueError):
            two_pass_recover(x[:-1], sk)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_data_names_the_slab(self):
        x = _exact_rank_tensor(seed=7)
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=7, order=3))
        x[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="rows 0:16 of mode 2 made the two-pass core non-finite"):
            two_pass_recover(x, sk)


class TestOnePass:
    def test_exact_rank_recovery(self):
        x = _exact_rank_tensor(seed=8)
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=8, order=3))
        report = one_pass_recover(sk)
        assert report.passes == 1
        assert len(report.core_solver_residuals) == 3
        assert all(r >= 0 for r in report.core_solver_residuals)
        assert fro_norm(x - report.factorization.to_dense()) <= 1e-8 * fro_norm(x)

    def test_core_conditions_match_the_core_systems(self):
        x = _noisy_tensor(seed=12)
        sk = tucker_sketch(x, SketchParams.for_rank(2, master_seed=12, order=3))
        report = one_pass_recover(sk)
        bases = factor_bases(sk)
        want = [np.linalg.cond(sk.params.phi_matrix(sk.shape, n).T @ q)
                for n, q in enumerate(bases.matrices)]
        assert len(report.core_conditions) == 3
        np.testing.assert_allclose(report.core_conditions, want, rtol=1e-10)
        assert two_pass_recover(x, sk).core_conditions == ()

    def test_core_shape_is_k(self):
        x = _noisy_tensor(seed=9)
        params = SketchParams(k=(4, 5, 6), s=(9, 11, 13), master_seed=9)
        fact = one_pass_recover(tucker_sketch(x, params)).factorization
        assert fact.rank == (4, 5, 6)
        assert fact.shape == x.shape

    def test_singular_core_solve_raises(self):
        # force Phi^T Q to be numerically rank deficient: a sparse core map
        # this sparse keeps whole columns of Phi at zero
        x = _noisy_tensor(seed=10)
        with pytest.warns(UserWarning):
            params = SketchParams(
                k=(5, 5, 5),
                s=(6, 6, 6),
                master_seed=11,
                phi_kind="sparse_sign",
                density=0.01,
            )
        with pytest.raises(RankDeficientCoreError, match="mode"):
            one_pass_recover(tucker_sketch(x, params))


class TestHosvdFamily:
    def test_hosvd_factors_and_core_contract(self):
        x = _noisy_tensor(seed=12)
        fact = hosvd(x, (3, 4, 2))
        assert fact.rank == (3, 4, 2)
        for u in fact.factors:
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
        want_core = multi_mode_product(x, [(n, u.T) for n, u in enumerate(fact.factors)])
        np.testing.assert_allclose(fact.core, want_core, atol=1e-12)

    def test_hosvd_exact_on_exact_rank(self):
        x = _exact_rank_tensor(seed=13)
        fact = hosvd(x, (3, 3, 3))
        assert fro_norm(x - fact.to_dense()) <= 1e-10 * fro_norm(x)

    def test_st_hosvd_exact_on_exact_rank(self):
        x = _exact_rank_tensor(seed=14)
        fact = st_hosvd(x, (3, 3, 3))
        assert fro_norm(x - fact.to_dense()) <= 1e-10 * fro_norm(x)
        for u in fact.factors:
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)

    def test_rank_above_extent_rejected(self):
        x = _noisy_tensor(seed=15)
        for algo in (hosvd, st_hosvd, hooi):
            with pytest.raises(RankInfeasibleError):
                algo(x, (17, 3, 3))

    def test_scalar_rank_broadcasts(self):
        x = _noisy_tensor(seed=16)
        assert hosvd(x, 3).rank == (3, 3, 3)


class TestHooi:
    def test_objectives_non_increasing_and_below_hosvd(self):
        x = _noisy_tensor(seed=17)
        fact, objectives = hooi(x, (3, 3, 3), max_iters=8, tol=0.0, return_objectives=True)
        assert len(objectives) >= 2
        slack = 1e-10 * fro_norm(x)
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur <= prev + slack
        hosvd_err = fro_norm(x - hosvd(x, (3, 3, 3)).to_dense())
        assert objectives[-1] <= hosvd_err * (1 + 1e-12) + slack
        got_err = fro_norm(x - fact.to_dense())
        assert got_err == pytest.approx(objectives[-1], rel=1e-8, abs=1e-10)

    def test_exact_on_exact_rank(self):
        x = _exact_rank_tensor(seed=18)
        fact = hooi(x, (3, 3, 3))
        assert fro_norm(x - fact.to_dense()) <= 1e-10 * fro_norm(x)

    def test_deterministic(self):
        x = _noisy_tensor(seed=19)
        a = hooi(x, (3, 3, 3))
        b = hooi(x, (3, 3, 3))
        np.testing.assert_array_equal(a.core, b.core)
        for ua, ub in zip(a.factors, b.factors):
            np.testing.assert_array_equal(ua, ub)


class TestFixedRank:
    def test_truncated_factors_stay_orthonormal(self):
        x = _noisy_tensor(seed=20)
        sk = tucker_sketch(x, SketchParams(k=(6, 6, 6), s=(13, 13, 13), master_seed=20))
        fact = two_pass_recover(x, sk).factorization
        small = fixed_rank_truncate(fact, (3, 3, 3))
        assert small.rank == (3, 3, 3)
        for p in small.factors:
            np.testing.assert_allclose(p.T @ p, np.eye(3), atol=1e-10)

    def test_rank_above_core_rejected(self):
        x = _noisy_tensor(seed=21)
        sk = tucker_sketch(x, SketchParams(k=(4, 4, 4), s=(9, 9, 9), master_seed=21))
        fact = two_pass_recover(x, sk).factorization
        with pytest.raises(RankInfeasibleError):
            fixed_rank_truncate(fact, (5, 4, 4))

    def test_same_rank_truncation_is_lossless(self):
        x = _noisy_tensor(seed=22)
        sk = tucker_sketch(x, SketchParams(k=(4, 4, 4), s=(9, 9, 9), master_seed=22))
        fact = two_pass_recover(x, sk).factorization
        same = fixed_rank_truncate(fact, (4, 4, 4))
        np.testing.assert_allclose(
            same.to_dense(), fact.to_dense(), atol=1e-10 * fro_norm(x)
        )

    def test_st_hosvd_route_close_to_hooi_route(self):
        x = _noisy_tensor(seed=23)
        sk = tucker_sketch(x, SketchParams(k=(6, 6, 6), s=(13, 13, 13), master_seed=23))
        fact = two_pass_recover(x, sk).factorization
        e_hooi = fro_norm(x - fixed_rank_truncate(fact, 3, method="hooi").to_dense())
        e_st = fro_norm(x - fixed_rank_truncate(fact, 3, method="st_hosvd").to_dense())
        assert e_hooi <= e_st * (1 + 1e-6)

    def test_bad_method_rejected(self):
        x = _noisy_tensor(seed=24)
        sk = tucker_sketch(x, SketchParams(k=(4, 4, 4), s=(9, 9, 9), master_seed=24))
        fact = two_pass_recover(x, sk).factorization
        with pytest.raises(ValueError):
            fixed_rank_truncate(fact, 3, method="als")


class TestTruncateRotateCommutation:
    """Truncating a core then rotating it into the big space gives the same
    tensor as rotating first and truncating the result, when the best
    fixed-rank approximation is computable."""

    def test_matrix_case_with_svd_oracle(self):
        # order 2: Eckart-Young makes the best rank-r truncation exact
        rng = np.random.default_rng(25)
        w = rng.normal(size=(6, 7))
        q1 = _orthonormal(15, 6, seed=26)
        q2 = _orthonormal(17, 7, seed=27)
        r = 3

        def svd_truncate(m, r):
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            return (u[:, :r] * s[:r]) @ vt[:r]

        rotated_then_truncated = svd_truncate(q1 @ w @ q2.T, r)
        truncated_then_rotated = q1 @ svd_truncate(w, r) @ q2.T
        scale = np.linalg.norm(w)
        assert (
            np.linalg.norm(rotated_then_truncated - truncated_then_rotated)
            <= 1e-10 * scale
        )

    def test_order_three_constructed_instance(self):
        # a superdiagonal core with separated weights has a computable best
        # rank-r truncation (keep the top diagonal entries)
        from tuckersketch.tensor import superdiag

        w = superdiag([1.0, 0.6, 0.35, 0.2, 0.1], 3)
        qs = tuple(_orthonormal(12, 5, seed=28 + n) for n in range(3))
        big = TuckerFactorization(core=w, factors=qs)
        r = (2, 2, 2)

        truncate_first = fixed_rank_truncate(big, r)
        rotate_first = hooi(tucker_to_dense(big), r)
        np.testing.assert_allclose(
            tucker_to_dense(truncate_first),
            tucker_to_dense(rotate_first),
            atol=1e-10,
        )
