"""Synthetic generators, bound oracles, metrics, and the experiment driver."""

import csv
import math
import warnings

import numpy as np
import pytest

from tuckersketch.harness import (
    SpectrumProfile,
    SyntheticSpec,
    bound_one_pass,
    bound_two_pass,
    gen_synthetic,
    metrics,
    one_pass_inflation,
    run_experiment,
    tail_energy,
)
from tuckersketch.sketch import SketchParams
from tuckersketch.tensor import fro_norm, unfold


class TestGenerators:
    def test_deterministic(self):
        spec = SyntheticSpec("low_rank_noise", 12, 3, 3, seed=5, gamma=0.5)
        np.testing.assert_array_equal(gen_synthetic(spec), gen_synthetic(spec))

    def test_shapes(self):
        assert gen_synthetic(SyntheticSpec("low_rank_noise", 9, 3, 2, seed=0)).shape == (9, 9, 9)
        assert gen_synthetic(
            SyntheticSpec("sparse_low_rank_noise", 9, 2, 2, seed=0)
        ).shape == (9, 9)

    def test_low_rank_noise_rank_and_noise_level(self):
        spec = SyntheticSpec("low_rank_noise", 20, 3, 4, seed=6, gamma=0.1)
        clean = gen_synthetic(SyntheticSpec("low_rank_noise", 20, 3, 4, seed=6, gamma=0.0))
        noisy = gen_synthetic(spec)
        # the clean part has exact multilinear rank 4
        sv = np.linalg.svd(unfold(clean, 0), compute_uv=False)
        assert sv[4] <= 1e-10 * sv[0]
        # noise-to-signal ratio concentrates near gamma
        ratio = fro_norm(noisy - clean) / fro_norm(clean)
        assert abs(ratio - 0.1) <= 0.02

    def test_sparse_scheme_signal_sparsity(self):
        # nonzero fraction of the clean signal concentrates around delta^order
        delta, side, order = 0.2, 40, 3
        var_factor = 1.0
        for _ in range(order):
            var_factor *= delta**2 + delta * (1 - delta) / side
        sigma = math.sqrt(var_factor - delta ** (2 * order))
        for seed in (1, 2, 3):
            x = gen_synthetic(
                SyntheticSpec("sparse_low_rank_noise", side, order, 5, seed=seed, delta=delta)
            )
            frac = np.count_nonzero(x) / x.size
            assert abs(frac - delta**order) <= 3 * sigma

    def test_sparse_factors_not_orthonormal(self):
        # the clean sparse signal keeps raw uniform magnitudes, so entries
        # are nonnegative (orthonormalization would break that)
        x = gen_synthetic(SyntheticSpec("sparse_low_rank_noise", 15, 3, 3, seed=7))
        assert x.min() >= 0.0
        assert x.max() > 0.0

    def test_poly_decay_values(self):
        x = gen_synthetic(SyntheticSpec("poly_decay", 8, 3, 3, seed=0, decay=1.0))
        assert x.shape == (7, 7, 7)
        want = [1.0, 1.0, 1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5]
        got = [x[i, i, i] for i in range(7)]
        np.testing.assert_allclose(got, want, rtol=1e-15)
        off = x.copy()
        for i in range(7):
            off[i, i, i] = 0.0
        assert np.count_nonzero(off) == 0

    def test_poly_decay_exponent(self):
        x = gen_synthetic(SyntheticSpec("poly_decay", 10, 2, 2, seed=0, decay=2.0))
        assert x[2, 2] == pytest.approx(2.0**-2.0)
        assert x[3, 3] == pytest.approx(3.0**-2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec("cauchy", 8, 3, 2, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec("low_rank_noise", 8, 1, 2, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec("low_rank_noise", 8, 3, 9, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec("low_rank_noise", 8, 3, 2, seed=0, gamma=-1.0)
        with pytest.raises(ValueError):
            SyntheticSpec("sparse_low_rank_noise", 8, 3, 2, seed=0, delta=0.0)
        with pytest.raises(ValueError, match="side must be positive"):
            SyntheticSpec("low_rank_noise", 0, 3, 2, seed=0)
        with pytest.raises(ValueError, match="decay must be positive"):
            SyntheticSpec("poly_decay", 8, 3, 2, seed=0, decay=0.0)


class TestSpectrumAndBounds:
    def _profile(self):
        # hand-built spectra so every bound is enumerable by brute force
        return SpectrumProfile(
            singular_values=(
                np.array([4.0, 2.0, 1.0, 0.5, 0.25]),
                np.array([3.0, 3.0, 0.1, 0.1]),
            )
        )

    def test_tail_energy_enumeration(self):
        p = self._profile()
        assert tail_energy(p, 0, 0) == pytest.approx(sum(v**2 for v in (4, 2, 1, 0.5, 0.25)))
        assert tail_energy(p, 0, 2) == pytest.approx(1 + 0.25 + 0.0625)
        assert tail_energy(p, 0, 5) == 0.0
        assert tail_energy(p, 0, 99) == 0.0
        with pytest.raises(ValueError):
            tail_energy(p, 2, 0)
        with pytest.raises(ValueError):
            tail_energy(p, 0, -1)

    def test_two_pass_bound_matches_brute_force(self):
        p = self._profile()
        k = (4, 3)
        got = bound_two_pass(p, k)
        want = 0.0
        for n, k_n in enumerate(k):
            want += min(
                (1 + rho / (k_n - rho - 1)) * tail_energy(p, n, rho)
                for rho in range(1, k_n - 1)
            )
        assert got == pytest.approx(want, rel=1e-12)

    def test_two_pass_bound_small_k_is_infinite(self):
        assert bound_two_pass(self._profile(), (2, 3)) == math.inf

    def test_one_pass_bound_inflation(self):
        p = self._profile()
        k, s = (4, 3), (9, 11)
        delta = max(4 / (9 - 4 - 1), 3 / (11 - 3 - 1))
        assert bound_one_pass(p, k, s) == pytest.approx((1 + delta) * bound_two_pass(p, k))

    def test_one_pass_bound_undefined(self):
        with pytest.raises(ValueError):
            bound_one_pass(self._profile(), (4, 3), (5, 4))

    def test_one_pass_inflation(self):
        assert one_pass_inflation((4, 3), (9, 11)) == 1 + 4 / 4
        assert one_pass_inflation((4, 3), (9, 4)) is None  # s_1 = k_1 + 1

    def test_from_tensor_descending(self):
        x = np.random.default_rng(1).normal(size=(6, 7, 8))
        p = SpectrumProfile.from_tensor(x)
        assert p.order == 3
        for n, sv in enumerate(p.singular_values):
            assert len(sv) == min(x.shape[n], x.size // x.shape[n])
            assert np.all(np.diff(sv) <= 1e-12)


class TestMetrics:
    def test_values(self):
        x = np.ones((3, 3))
        approx = np.zeros((3, 3))
        err, regret = metrics(x, approx, baseline_error=1.5)
        assert err == pytest.approx(1.0)
        assert regret == pytest.approx((3.0 - 1.5) / 3.0)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((2, 2)), np.zeros((2, 2)), baseline_error=0.0)


class TestRunExperiment:
    def _grid(self):
        data = SyntheticSpec("low_rank_noise", 10, 3, 2, seed=3, gamma=0.5)
        params = SketchParams(k=(5, 5, 5), s=(11, 11, 11), master_seed=4)
        return [(data, params)]

    def test_rows_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows_a = run_experiment(self._grid(), trials=2, output=a)
        run_experiment(self._grid(), trials=2, output=b)
        assert a.read_bytes() == b.read_bytes()
        assert len(rows_a) == 4  # one row per method
        methods = {r["method"] for r in rows_a}
        assert methods == {"hosvd", "hooi", "two_pass", "one_pass"}
        for r in rows_a:
            assert r["mean_err"] >= 0
            if r["method"] in ("two_pass", "one_pass"):
                assert math.isfinite(r["err_bound"])
            else:
                assert math.isnan(r["err_bound"])

    def test_hooi_rows_have_zero_regret(self):
        rows = run_experiment(self._grid(), trials=1)
        hooi_row = next(r for r in rows if r["method"] == "hooi")
        assert hooi_row["mean_regret"] == pytest.approx(0.0, abs=1e-15)

    def test_csv_header(self, tmp_path):
        out = tmp_path / "bench.csv"
        run_experiment(self._grid(), trials=1, output=out)
        header = out.read_text().splitlines()[0]
        assert header == (
            "scheme,side,order,rank,gamma,delta,decay,k,s,omega_kind,phi_kind,"
            "method,trials,mean_err,std_err,mean_regret,err_bound"
        )

    def test_output_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        rows = run_experiment(self._grid(), trials=1, output=out)
        with open(out, newline="") as fh:
            assert list(csv.DictReader(fh)) == [{k: str(v) for k, v in r.items()} for r in rows]

    def test_empty_grid_is_refused(self, tmp_path):
        out = tmp_path / "bench.csv"
        with pytest.raises(ValueError, match="no cells"):
            run_experiment([], trials=1, output=out)
        assert not out.exists()

    def test_rejects_no_trials_and_mismatched_orders(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_experiment(self._grid(), trials=0)
        data = SyntheticSpec("low_rank_noise", 10, 4, 2, seed=3)
        params = SketchParams(k=(5, 5, 5), s=(11, 11, 11), master_seed=4)
        with pytest.raises(ValueError, match="data order and sketch order differ"):
            run_experiment([(data, params)], trials=1)

    def test_one_pass_bound_is_nan_where_undefined(self):
        data = SyntheticSpec("low_rank_noise", 10, 3, 2, seed=3, gamma=0.5)
        with pytest.warns(UserWarning, match="s_n <= 2 k_n"):
            params = SketchParams(k=(3, 3, 3), s=(4, 4, 4), master_seed=4)
        rows = run_experiment([(data, params)], trials=1)
        bounds = {r["method"]: r["err_bound"] for r in rows}
        assert math.isnan(bounds["one_pass"])
        assert math.isfinite(bounds["two_pass"])

    def test_trials_do_not_warn_again(self):
        data = SyntheticSpec("low_rank_noise", 10, 3, 2, seed=3, gamma=0.5)
        with pytest.warns(UserWarning, match="s_n <= 2 k_n"):
            params = SketchParams(k=(5, 5, 5), s=(9, 9, 9), master_seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_experiment([(data, params)], trials=3)
        assert {r["s"] for r in rows} == {"9x9x9"}

    def test_desk_scale_guard(self):
        data = SyntheticSpec("low_rank_noise", 300, 3, 2, seed=0)
        params = SketchParams(k=(5, 5, 5), s=(11, 11, 11), master_seed=0)
        with pytest.raises(ValueError, match="desk-scale"):
            run_experiment([(data, params)], trials=1)

    def test_truncated_scores_use_rank_r(self):
        rows = run_experiment(self._grid(), trials=1, truncate=True)
        two = next(r for r in rows if r["method"] == "two_pass")
        # truncated two-pass cannot beat HOOI by construction, so regret >= ~0
        assert two["mean_regret"] >= -1e-9
