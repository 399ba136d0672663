"""Recovery tests: bases, exactness on exact-rank data, the error score of a
tensor file, baseline algorithms, fixed-rank truncation, and the
rotation/truncation commutation."""

import math
import warnings

import numpy as np
import pytest

from tuckersketch import io as tkio
from tuckersketch import recovery
from tuckersketch.harness import SyntheticSpec, gen_synthetic
from tuckersketch.io import read_sketch, write_sketch, write_tensor
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
from tuckersketch.sketch import SketchParams, TuckerSketch, tucker_sketch
from tuckersketch.tensor import (
    TuckerFactorization,
    fro_norm,
    mode_product,
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
        assert len(bases.qr_diag_ratios) == 3 and min(bases.qr_diag_ratios) > 1e-6
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

    def test_ratios_are_min_diag_over_the_norm(self):
        x = _noisy_tensor(seed=6)
        sk = tucker_sketch(x, SketchParams(k=(5, 4, 6), s=(11, 9, 13), master_seed=7))
        for ratio, v in zip(factor_bases(sk).qr_diag_ratios, sk.factor_sketches):
            r = np.linalg.qr(v, mode="r")
            assert ratio == pytest.approx(np.abs(np.diag(r)).min() / np.linalg.norm(v),
                                          rel=1e-15)

    def test_huge_sketch_keeps_its_ratios(self):
        # Entries past about 1e154 overflow the plain sum of squares ||V_n||^2,
        # which read every ratio 0 and every mode degenerate.
        x = _noisy_tensor(side=13, seed=5)
        params = SketchParams.for_rank(2, 3, order=3)
        want = factor_bases(tucker_sketch(x, params)).qr_diag_ratios
        sk = tucker_sketch(x * 1e200, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bases = factor_bases(sk)
        assert bases.degenerate_modes == ()
        assert min(bases.qr_diag_ratios) > 0.0
        np.testing.assert_allclose(bases.qr_diag_ratios, want, rtol=1e-12)

    def test_reports_carry_the_qr_diag_ratios(self):
        # k above the true rank in mode 1 only: its sketch has rank 2 < 6
        core = np.random.default_rng(2).normal(size=(4, 2, 4))
        factors = tuple(_orthonormal(16, r, seed) for seed, r in enumerate(core.shape))
        x = tucker_to_dense(TuckerFactorization(core=core, factors=factors))
        sk = tucker_sketch(x, SketchParams(k=(4, 6, 4), s=(13, 13, 13), master_seed=4))
        for report in (one_pass_recover(sk), two_pass_recover(x, sk)):
            ratios = report.qr_diag_ratios
            assert report.degenerate_modes == (1,)
            assert ratios[1] <= 1e-12 and min(ratios[0], ratios[2]) > 1e-6
            for n, v in enumerate(sk.factor_sketches):
                r = np.linalg.qr(v, mode="r")
                want = np.abs(np.diag(r)).min() / np.linalg.norm(v)
                np.testing.assert_allclose(ratios[n], want, rtol=1e-12, atol=1e-30)


    @pytest.mark.parametrize("sketches", ["random", "degenerate", "all-zero"])
    def test_bases_are_orthonormal_to_rounding(self, sketches):
        # Scoring a recovery from its projection needs Q_n^T Q_n = I.
        params = SketchParams.for_rank(3, master_seed=5, order=3)
        shape = (16, 12, 9)
        gen = np.random.default_rng(6)
        vs = [gen.normal(size=(d, k)) for d, k in zip(shape, params.k)]
        if sketches == "degenerate":  # rank 2 of 7, and one zero column
            vs = [v[:, :2] @ gen.normal(size=(2, v.shape[1])) for v in vs]
            vs[1][:, 3] = 0.0
        elif sketches == "all-zero":
            vs = [np.zeros_like(v) for v in vs]
        sk = TuckerSketch(params, shape, tuple(vs), gen.normal(size=params.s))
        for q in factor_bases(sk).matrices:
            assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13


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


    @pytest.mark.parametrize("source", ["array", "file"])
    def test_report_keeps_the_sum_of_squares(self, tmp_path, monkeypatch, source):
        # Taken in the pass that makes the core: 11 pieces of one plane.
        x = np.random.default_rng(8).normal(size=(9, 8, 7, 11))
        sk = tucker_sketch(x, SketchParams.for_rank(2, master_seed=8, order=4))
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        monkeypatch.setattr(tkio, "_RECOVER_SLAB_SCALARS", 9 * 8 * 7)
        report = two_pass_recover(x if source == "array" else path, sk)
        assert report.tensor_sq_norm == pytest.approx(np.sum(x * x), rel=1e-13)
        assert one_pass_recover(sk).tensor_sq_norm is None

    @pytest.mark.parametrize("planes, pieces", [(1, 11), (3, 4), (11, 1)],
                             ids=["1-plane", "3-planes", "whole"])
    def test_file_equals_in_memory(self, tmp_path, monkeypatch, planes, pieces):
        # Order 4, last mode 11: pieces of 1 plane, of 3 planes (the last
        # of 2), or the whole tensor, all summed into the same core.
        x = np.random.default_rng(8).normal(size=(9, 8, 7, 11))
        sk = tucker_sketch(x, SketchParams.for_rank(2, master_seed=8, order=4))
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        monkeypatch.setattr(tkio, "_RECOVER_SLAB_SCALARS", planes * 9 * 8 * 7)
        assert len(list(tkio.read_tensor_slabs(path, recovery=True)[1])) == pieces
        got = two_pass_recover(path, sk).factorization
        want = two_pass_recover(x, sk).factorization
        assert np.abs(got.core - want.core).max() <= 1e-12 * np.abs(want.core).max()
        for a, b in zip(got.factors, want.factors):
            np.testing.assert_array_equal(a, b)


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


def _whole_core_solve(sk):
    """The one-pass core and residuals solved on the whole core sketch,
    mode by mode."""
    core, residuals = sk.core_sketch, []
    for n, q in enumerate(factor_bases(sk).matrices):
        z = sk.params.phi_matrix(sk.shape, n).T @ q
        new = mode_product(core, n, np.linalg.pinv(z))
        residuals.append(fro_norm(mode_product(new, n, z) - core))
        core = new
    return core, residuals


def _same_report(a, b):
    """Whether two recoveries agree to the bit."""
    fa, fb = a.factorization, b.factorization
    return (fa.core.tobytes("F") == fb.core.tobytes("F")
            and all(x.tobytes() == y.tobytes() for x, y in zip(fa.factors, fb.factors))
            and a.core_solver_residuals == b.core_solver_residuals
            and a.core_conditions == b.core_conditions
            and a.peak_aux_scalars == b.peak_aux_scalars)


class TestOnePassFromAFile:
    """``one_pass_recover`` of a TKSK1 path reads the core sketch in
    last-mode slabs; of a sketch, it cuts the core into views of the same
    slabs, so both give the same bits."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("phi", ["gaussian", "sparse_sign", "ssrft"])
    @pytest.mark.parametrize("omega", ["same", "trp"])
    def test_a_file_and_its_sketch_recover_alike(self, tmp_path, monkeypatch, order, phi,
                                                 omega):
        # s = 7 in every mode, in slabs of 2 planes: 4 slabs, the last of 1.
        monkeypatch.setattr(tkio, "_SKETCH_SLAB_SCALARS", 2 * 7 ** (order - 1))
        x = _noisy_tensor(side=8, order=order, rank=2, seed=order)
        params = SketchParams(k=(3,) * order, s=(7,) * order, master_seed=order,
                              omega_kind=phi if omega == "same" else omega, phi_kind=phi,
                              density=0.5)
        path = tmp_path / "x.tksk"
        write_sketch(path, tucker_sketch(x, params))
        assert [v.shape[-1] for _, v in tkio.read_sketch_slabs(path)[1]] == [2, 2, 2, 1]
        sk = read_sketch(path)
        got = one_pass_recover(path)
        assert _same_report(got, one_pass_recover(sk))
        core, residuals = _whole_core_solve(sk)
        want = np.abs(core).max()
        assert np.abs(got.factorization.core - core).max() <= 1e-10 * want
        np.testing.assert_allclose(got.core_solver_residuals, residuals, rtol=1e-10)

    def test_a_core_plane_past_the_slab_size_is_one_slab(self, tmp_path):
        # 182 x 182 planes (33,124 scalars) pass the 2^15 of a slab: five
        # slabs of one plane.
        x = _noisy_tensor(side=4, order=3, rank=2, seed=3)
        params = SketchParams(k=(2, 2, 2), s=(182, 182, 5), master_seed=3)
        path = tmp_path / "x.tksk"
        write_sketch(path, tucker_sketch(x, params))
        shapes = [v.shape for _, v in tkio.read_sketch_slabs(path)[1]]
        assert shapes == [(182, 182, 1)] * 5
        got = one_pass_recover(path)
        assert _same_report(got, one_pass_recover(read_sketch(path)))
        core, residuals = _whole_core_solve(read_sketch(path))
        assert np.abs(got.factorization.core - core).max() <= 1e-10 * np.abs(core).max()
        np.testing.assert_allclose(got.core_solver_residuals, residuals, rtol=1e-10)

    def test_two_pass_reads_the_factor_sketches_of_a_path(self, tmp_path):
        x = _noisy_tensor(side=9, order=3, rank=2, seed=4)
        path = tmp_path / "x.tksk"
        write_sketch(path, tucker_sketch(x, SketchParams.for_rank(2, master_seed=4, order=3)))
        assert _same_report(two_pass_recover(x, path), two_pass_recover(x, read_sketch(path)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_damaged_file_fails_before_anything_is_computed(self, tmp_path, monkeypatch):
        # A NaN in the last of 4 core slabs: neither recovery makes a core
        # map or opens the tensor.
        monkeypatch.setattr(tkio, "_SKETCH_SLAB_SCALARS", 2 * 49)
        x = _noisy_tensor(side=9, order=3, rank=2, seed=5)
        sk = tucker_sketch(x, SketchParams(k=(3,) * 3, s=(7,) * 3, master_seed=5))
        core = sk.core_sketch.copy()
        core[2, 3, 6] = np.nan
        path = tmp_path / "x.tksk"
        write_sketch(path, TuckerSketch(sk.params, sk.shape, sk.factor_sketches, core))

        def computed(*args, **kwargs):
            raise AssertionError("computed before the sketch file was checked")

        monkeypatch.setattr(SketchParams, "phi_matrix", computed)
        monkeypatch.setattr(recovery, "read_tensor_slabs", computed)
        with pytest.raises(tkio.FileFormatError, match="non-finite values in the core sketch"):
            one_pass_recover(path)
        with pytest.raises(tkio.FileFormatError, match="non-finite values in the core sketch"):
            two_pass_recover(tmp_path / "x.tktn", path)

    def test_peak_aux_scalars_counts_the_largest_step(self):
        # Order 4, k = 11, s = 23: slabs of 2 planes of 23^3.  A slab
        # (24,334) with its mode-0 product (11,638) and back-projection
        # (24,334) is the largest slab step, 60,306; the last mode's step
        # on the 11^3 x 23 array (30,613) holds its product (14,641) and
        # back-projection (30,613), 45,254.  So 30,613 + 60,306.
        shape = (30, 30, 30, 30)
        params = SketchParams.for_rank(5, master_seed=4, order=4)
        gen = np.random.default_rng(5)
        vs = tuple(gen.normal(size=(d, k)) for d, k in zip(shape, params.k))
        sk = TuckerSketch(params, shape, vs, gen.normal(size=params.s))
        assert one_pass_recover(sk).peak_aux_scalars == 90_919


class TestNormalizedError:
    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        """A writer of 13^3 tensor files read in recovery slabs of 3 planes."""
        monkeypatch.setattr(tkio, "_RECOVER_SLAB_SCALARS", 3 * 13 * 13)

        def write(x, name="x.tktn"):
            write_tensor(tmp_path / name, x)
            return tmp_path / name

        return write

    @pytest.fixture
    def expansions(self, monkeypatch):
        """The factorizations ``_expanded_error`` scores, in call order."""
        expand, seen = recovery._expanded_error, []

        def counted(slabs, fact):
            seen.append(fact)
            return expand(slabs, fact)

        monkeypatch.setattr(recovery, "_expanded_error", counted)
        return seen

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_a_noisy_tensor_scores_its_residual(self, files, expansions, mode):
        # One-pass expands; two-pass scores from its own pass alone.
        x = _noisy_tensor(side=13, seed=9, gamma=0.1)
        path = files(x)
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=9, order=3))
        report = two_pass_recover(path, sk) if mode == "two-pass" else one_pass_recover(sk)
        fact = fixed_rank_truncate(report.factorization, 2)
        want = fro_norm(x - fact.to_dense()) / fro_norm(x)
        assert recovery.normalized_error(report, fact, path) == pytest.approx(want, rel=1e-9)
        assert len(expansions) == (1 if mode == "one-pass" else 0)

    def test_a_cancelled_projection_is_expanded(self, files, expansions):
        # An exact recovery's projected error is below 1e-3, all rounding.
        x = _exact_rank_tensor(side=13, seed=9)
        path = files(x)
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=9, order=3))
        report = two_pass_recover(path, sk)
        assert recovery.normalized_error(report, report.factorization, path) <= 1e-9
        assert expansions == [report.factorization]

    @pytest.mark.parametrize("exp", [530, -560])
    def test_squares_past_the_float_range_are_expanded(self, files, expansions, exp):
        # ||X||^2 of x * 2^530 overflows, and of x * 2^-560 underflows to 0,
        # so the two-pass pass cannot score; the expansion scores as for x.
        x = _noisy_tensor(side=13, seed=9, gamma=0.1)
        params = SketchParams.for_rank(3, master_seed=9, order=3)
        plain = two_pass_recover(files(x), tucker_sketch(x, params))
        want = recovery.normalized_error(plain, plain.factorization, files(x))
        scaled = np.ldexp(x, exp)
        path = files(scaled, "scaled.tktn")
        report = two_pass_recover(path, tucker_sketch(scaled, params))
        assert report.tensor_sq_norm in (math.inf, 0.0)
        got = recovery.normalized_error(report, report.factorization, path)
        assert got == pytest.approx(want, rel=1e-9)
        assert expansions == [report.factorization]

    def test_a_zero_tensor_scores_none_and_a_wrong_shape_fails(self, files):
        x = np.zeros((13, 13, 13))
        sk = tucker_sketch(x, SketchParams.for_rank(3, master_seed=9, order=3))
        report = two_pass_recover(files(x), sk)
        assert recovery.normalized_error(report, report.factorization, files(x)) is None
        with pytest.raises(ValueError, match=r"tensor has shape \(13, 13, 12\) but sketch"):
            recovery.normalized_error(report, report.factorization,
                                      files(x[..., :12], "short.tktn"))


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

    def test_hosvd_is_hooi_with_no_sweeps(self):
        x = _noisy_tensor(seed=16)
        a, b = hosvd(x, (3, 4, 2)), hooi(x, (3, 4, 2), max_iters=0)
        np.testing.assert_array_equal(a.core, b.core)
        for ua, ub in zip(a.factors, b.factors):
            np.testing.assert_array_equal(ua, ub)

    def test_rank_above_the_other_modes_product(self):
        # 9 > 3 * 2: no tensor has multilinear rank (9, 3, 2), so the mode-0
        # factor is padded past the columns of its unfolding, and the best
        # (9, 3, 2) approximation is a (6, 3, 2) one.
        x = _noisy_tensor(side=20, seed=25, gamma=0.1)
        rank = (9, 3, 2)
        inner = TuckerFactorization(
            core=np.random.default_rng(25).normal(size=(10, 10, 10)),
            factors=tuple(_orthonormal(20, 10, seed=25 + n) for n in range(3)),
        )
        for fact in (hooi(x, rank), hosvd(x, rank), st_hosvd(x, rank),
                     fixed_rank_truncate(inner, rank)):
            assert fact.rank == rank
            for u, r in zip(fact.factors, rank):
                assert u.shape == (20, r)
                np.testing.assert_allclose(u.T @ u, np.eye(r), atol=1e-10)
        e_above = fro_norm(x - hooi(x, rank).to_dense())
        e_fit = fro_norm(x - hooi(x, (6, 3, 2)).to_dense())
        assert e_above == pytest.approx(e_fit, rel=1e-9)


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

    @pytest.mark.filterwarnings("error")
    def test_any_scale(self):
        # Squared, a core of 2^530 overflows and one of 2^-530 goes
        # subnormal; in units, every sweep is the sweep at 2^0 scaled.
        core = np.random.default_rng(0).standard_normal((7, 7, 7))
        want, objectives = hooi(core, 2, return_objectives=True)
        assert len(objectives) == 30
        assert objectives[-1] == pytest.approx(16.70082539211655, rel=1e-12)
        for exp in (530, -530):
            got, scaled = hooi(np.ldexp(core, exp), 2, return_objectives=True)
            assert scaled == [math.ldexp(v, exp) for v in objectives]
            _assert_scaled(got, want, exp)


def _assert_scaled(got: TuckerFactorization, want: TuckerFactorization, exp: int):
    """``got`` is ``want`` with its core times ``2^exp``, bit for bit."""
    np.testing.assert_array_equal(got.core, np.ldexp(want.core, exp))
    for a, b in zip(got.factors, want.factors):
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("error")
class TestScaling:
    """Recovery commutes with scaling the data by 2^e: the sketch, the cores
    and the residuals scale by 2^e, the factors and the scale-free numbers
    keep their bits, far past where plain squares overflow or underflow."""

    @pytest.fixture(params=["low-rank-3d", "normal-4d"])
    def case(self, request):
        if request.param == "low-rank-3d":
            x = _noisy_tensor(side=12, rank=2, seed=8, gamma=0.1)
            params = SketchParams(k=(4, 5, 4), s=(9, 11, 9), master_seed=9)
        else:
            x = np.random.default_rng(10).standard_normal((6, 7, 5, 6))
            params = SketchParams(k=(3, 3, 2, 3), s=(7, 7, 5, 7), master_seed=11)
        return x, params

    @pytest.mark.parametrize("exp", [-530, 530])
    def test_recovery_scales_exactly(self, case, exp):
        x, params = case
        sk, sk_e = tucker_sketch(x, params), tucker_sketch(np.ldexp(x, exp), params)
        np.testing.assert_array_equal(sk_e.core_sketch, np.ldexp(sk.core_sketch, exp))
        for a, b in zip(sk_e.factor_sketches, sk.factor_sketches):
            np.testing.assert_array_equal(a, np.ldexp(b, exp))

        one, one_e = one_pass_recover(sk), one_pass_recover(sk_e)
        _assert_scaled(one_e.factorization, one.factorization, exp)
        assert one_e.core_solver_residuals == tuple(
            math.ldexp(v, exp) for v in one.core_solver_residuals)
        assert one_e.qr_diag_ratios == one.qr_diag_ratios
        assert one_e.core_conditions == one.core_conditions

        two = two_pass_recover(x, sk).factorization
        _assert_scaled(two_pass_recover(np.ldexp(x, exp), sk_e).factorization, two, exp)

        for method in ("hooi", "hosvd", "st_hosvd"):
            _assert_scaled(fixed_rank_truncate(one_e.factorization, 2, method),
                           fixed_rank_truncate(one.factorization, 2, method), exp)


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

    @pytest.mark.parametrize("method", ["hooi", "st_hosvd", "hosvd"])
    def test_each_method_runs_that_engine_on_the_core(self, method):
        x = _noisy_tensor(seed=26)
        sk = tucker_sketch(x, SketchParams(k=(6, 6, 6), s=(13, 13, 13), master_seed=26))
        fact = two_pass_recover(x, sk).factorization
        inner = {"hooi": hooi, "st_hosvd": st_hosvd, "hosvd": hosvd}[method](fact.core, 3)
        got = fixed_rank_truncate(fact, 3, method=method)
        np.testing.assert_array_equal(got.core, inner.core)
        for p, f, u in zip(got.factors, fact.factors, inner.factors):
            np.testing.assert_array_equal(p, f @ u)


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
