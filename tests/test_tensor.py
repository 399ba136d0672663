"""Tensor kernel tests against brute-force index-enumeration oracles."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersketch.tensor as tensor_mod
from tuckersketch.tensor import (
    TuckerFactorization,
    contract,
    fold,
    fro_norm,
    inner,
    khatri_rao,
    matmul,
    mode_product,
    multi_mode_product,
    per_mode,
    superdiag,
    tucker_to_dense,
    unfold,
)

# every shape with order <= 3 and extents up to (3, 4, 5)
SMALL_SHAPES = (
    [(i,) for i in range(1, 4)]
    + [(i, j) for i in range(1, 4) for j in range(1, 5)]
    + [(i, j, k) for i in range(1, 4) for j in range(1, 5) for k in range(1, 6)]
)


def _filled(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape)


def unfold_oracle(x, mode):
    """Column j enumerates the remaining modes, lower modes fastest."""
    shape = x.shape
    rest = [m for m in range(x.ndim) if m != mode]
    out = np.zeros((shape[mode], int(np.prod([shape[m] for m in rest], dtype=int))))
    for idx in itertools.product(*(range(d) for d in shape)):
        col = 0
        stride = 1
        for m in rest:
            col += idx[m] * stride
            stride *= shape[m]
        out[idx[mode], col] = x[idx]
    return out


class TestUnfoldFold:
    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_unfold_matches_enumeration(self, shape):
        x = _filled(shape, seed=sum(shape))
        for mode in range(len(shape)):
            np.testing.assert_array_equal(unfold(x, mode), unfold_oracle(x, mode))

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_fold_inverts_unfold(self, shape):
        x = _filled(shape, seed=len(shape))
        for mode in range(len(shape)):
            np.testing.assert_array_equal(fold(unfold(x, mode), mode, shape), x)

    def test_unfold_rejects_bad_mode(self):
        x = _filled((2, 3))
        with pytest.raises(ValueError):
            unfold(x, 2)
        with pytest.raises(ValueError):
            unfold(x, -1)
        with pytest.raises(ValueError, match="at least one mode"):
            unfold(np.float64(3.0), 0)

    def test_fold_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 5)), 0, (3, 4))


class TestModeProduct:
    def test_matches_unfold_identity(self):
        x = _filled((4, 3, 5), seed=2)
        a = _filled((6, 3), seed=3)
        got = mode_product(x, 1, a)
        expected = fold(a @ unfold(x, 1), 1, (4, 6, 5))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_entrywise_oracle(self):
        x = _filled((3, 2, 4), seed=4)
        a = _filled((5, 2), seed=5)
        got = mode_product(x, 1, a)
        for i, j, k in itertools.product(range(3), range(5), range(4)):
            want = sum(a[j, t] * x[i, t, k] for t in range(2))
            assert got[i, j, k] == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(_filled((3, 4)), 0, _filled((2, 5)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="mode_product expects a matrix"):
            mode_product(_filled((3, 4)), 0, np.ones(3))
        with pytest.raises(ValueError, match="mode_product expects a matrix"):
            multi_mode_product(_filled((3, 4)), [(0, np.ones((2, 3))), (1, np.ones(4))])

    def test_order_invariance(self):
        x = _filled((3, 4, 5), seed=6)
        mats = [(0, _filled((2, 3), seed=7)), (1, _filled((6, 4), seed=8)),
                (2, _filled((3, 5), seed=9))]
        base = multi_mode_product(x, mats)
        for perm in itertools.permutations(mats):
            np.testing.assert_allclose(multi_mode_product(x, perm), base, atol=1e-12)

    def test_duplicate_mode_rejected(self):
        x = _filled((3, 4))
        with pytest.raises(ValueError):
            multi_mode_product(x, [(0, np.eye(3)), (0, np.eye(3))])


class TestInnerAndNorm:
    def test_inner_oracle(self):
        x = _filled((3, 4, 2), seed=10)
        y = _filled((3, 4, 2), seed=11)
        want = sum(
            x[i] * y[i]
            for i in itertools.product(range(3), range(4), range(2))
        )
        assert inner(x, y) == pytest.approx(want, rel=1e-12)

    def test_inner_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(_filled((2, 3)), _filled((3, 2)))

    def test_fro_norm_is_sqrt_self_inner(self):
        x = _filled((4, 5), seed=12)
        assert fro_norm(x) == pytest.approx(np.sqrt(inner(x, x)), rel=1e-12)


class TestKronAndFriends:
    def test_khatri_rao_is_columnwise_kron(self):
        a = _filled((4, 3), seed=15)
        b = _filled((2, 3), seed=16)
        got = khatri_rao(a, b)
        assert got.shape == (8, 3)
        for c in range(3):
            np.testing.assert_allclose(got[:, c], np.kron(a[:, c], b[:, c]), atol=1e-13)

    def test_khatri_rao_matches_scipy_bitwise(self):
        import scipy.linalg

        a = _filled((5, 4), seed=17)
        b = np.asfortranarray(_filled((3, 4), seed=18))
        assert np.array_equal(khatri_rao(a, b), scipy.linalg.khatri_rao(a, b))

    def test_khatri_rao_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(_filled((4, 3)), _filled((2, 2)))

    def test_khatri_rao_rejects_a_non_matrix(self):
        with pytest.raises(ValueError, match="khatri_rao expects two matrices"):
            khatri_rao(_filled((4, 3)), np.ones(3))

    def test_superdiag(self):
        t = superdiag([2.0, 5.0, -1.0], 3)
        assert t.shape == (3, 3, 3)
        for i, j, k in itertools.product(range(3), repeat=3):
            want = [2.0, 5.0, -1.0][i] if i == j == k else 0.0
            assert t[i, j, k] == want

    def test_superdiag_needs_order_two(self):
        with pytest.raises(ValueError):
            superdiag([1.0], 1)

    def test_per_mode(self):
        assert per_mode(3, 3, "k") == (3, 3, 3)
        assert per_mode((4,), 2, "k") == (4, 4)
        assert per_mode([1, 2, 3], 3, "k") == (1, 2, 3)
        with pytest.raises(ValueError, match="--s has 2 entries but the tensor has 3 modes"):
            per_mode((5, 6), 3, "--s")


class TestTuckerFactorization:
    def test_to_dense_oracle(self):
        core = _filled((2, 3), seed=17)
        u1 = _filled((4, 2), seed=18)
        u2 = _filled((5, 3), seed=19)
        t = TuckerFactorization(core=core, factors=(u1, u2))
        got = t.to_dense()
        for i, j in itertools.product(range(4), range(5)):
            want = sum(
                core[a, b] * u1[i, a] * u2[j, b]
                for a in range(2)
                for b in range(3)
            )
            assert got[i, j] == pytest.approx(want, rel=1e-12)

    def test_shape_and_rank(self):
        t = TuckerFactorization(
            core=_filled((2, 3, 2)), factors=(_filled((5, 2)), _filled((6, 3)), _filled((4, 2)))
        )
        assert t.shape == (5, 6, 4)
        assert t.rank == (2, 3, 2)

    def test_mismatched_factor_rejected(self):
        with pytest.raises(ValueError):
            TuckerFactorization(core=_filled((2, 3)), factors=(_filled((5, 2)), _filled((6, 4))))

    def test_factor_count_rejected(self):
        with pytest.raises(ValueError):
            TuckerFactorization(core=_filled((2, 3)), factors=(_filled((5, 2)),))

    def test_non_matrix_factor_rejected(self):
        with pytest.raises(ValueError, match="factor 1 is not a matrix"):
            TuckerFactorization(core=_filled((2, 3)), factors=(_filled((5, 2)), np.ones(3)))

    def test_dense_roundtrip_via_mode_products(self):
        t = TuckerFactorization(
            core=_filled((2, 2, 3), seed=20),
            factors=(_filled((4, 2), seed=21), _filled((5, 2), seed=22), _filled((6, 3), seed=23)),
        )
        by_products = multi_mode_product(t.core, list(enumerate(t.factors)))
        np.testing.assert_allclose(tucker_to_dense(t), by_products, atol=1e-13)


@st.composite
def laid_out(draw):
    """A tensor of order 1-5 in C order, F order or as a strided slice, plus a mode."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    if layout == "sliced":
        x = gen.normal(size=tuple(2 * d for d in shape))[(slice(None, None, 2),) * len(shape)]
    else:
        x = np.asarray(gen.normal(size=shape), order=layout)
    return x, draw(st.integers(0, len(shape) - 1)), gen


class TestContractionKernel:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=laid_out(), k=st.integers(1, 3))
    def test_contract_equals_unfold_product(self, case, k):
        x, mode, gen = case
        u = unfold(x, mode)
        w = gen.normal(size=(u.shape[1], k))
        want = u @ w
        got = contract(x, mode, w)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=laid_out(), j=st.integers(1, 3))
    def test_mode_product_equals_folded_product_in_f_order(self, case, j):
        x, mode, gen = case
        m = gen.normal(size=(j, x.shape[mode]))
        new_shape = x.shape[:mode] + (j,) + x.shape[mode + 1 :]
        want = fold(m @ unfold(x, mode), mode, new_shape)
        got = mode_product(x, mode, m)
        assert got.flags.f_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_middle_mode_batches_sum_to_one_product(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_BATCH_SCALARS", 7)  # many small batches
        x = np.asfortranarray(_filled((3, 4, 5, 6), seed=3))
        w = _filled((3 * 5 * 6, 2), seed=4)
        np.testing.assert_allclose(contract(x, 1, w), unfold(x, 1) @ w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(40, 3, 5), (3, 40, 5), (3, 5, 40), (6, 6, 6)])
    @pytest.mark.parametrize("layout, stacked", [
        pytest.param(layout, stacked, id="-".join(filter(None, (layout, name))))
        for stacked, name in [("", ""), ("a", "shared-right"), ("b", "shared-left"),
                              ("ab", "both-stacked")]
        for layout in ["C", "F", "sliced"]
    ])
    def test_matmul_blocks_equal_one_product(self, monkeypatch, dims, layout, stacked):
        monkeypatch.setattr(tensor_mod, "_ONE_THREAD_MACS", 64)  # blocks of 1 to 4 rows or columns
        m, inner, n = dims
        a, b = _filled((m, 2 * inner), seed=1), _filled((2 * inner, n), seed=2)
        # A stacked operand has three items, each a multiple of the matrix.
        a = np.stack([a, -a, 0.5 * a]) if "a" in stacked else a
        b = np.stack([b, 2.0 * b, -b]) if "b" in stacked else b
        if layout == "sliced":
            a, b = a[..., ::2], b[..., ::2, :]
        else:
            a = np.asarray(a[..., :inner], order=layout)
            b = np.asarray(b[..., :inner, :], order=layout)
        want = np.matmul(a, b)
        np.testing.assert_allclose(matmul(a, b), want, rtol=0, atol=1e-12)

    # sha256 of contract and mode_product outputs under the real block sizes,
    # one case for each way matmul cuts a product: (function, shape, mode,
    # columns of w or rows of the matrix), and the digest.  Each digest is
    # the same under one and two OpenBLAS threads; a change to the plan
    # shows here as the cases whose blocks it moves.
    _PLAN_PINS = {
        "row split": (("contract", (2000, 6, 5), 0, 10),
                      "cf48f5b6f62ec3e99fb9aa71a658627c9f854b4d408afba46c57f464500b8b9e"),
        "column split": (("mode_product", (20, 15), 0, 2000),
                         "390439965f7508447cbac115bc46076244b7d404f1819daf566195433385277e"),
        "inner split": (("contract", (100, 60, 10), 2, 10),
                        "d73291dc91af7220e5a05fce3aeb7cd9224f34f4eb54abd34bc6ddd8cc37bdb5"),
        "item by item": (("mode_product", (100, 60, 4), 1, 100),
                         "3c92629493488ba90fe4f1d0420354caaa403b69ebd1c7d8a0cabe3793a06d3c"),
        "item by item batch": (("contract", (2000, 30, 4), 1, 10),
                               "0e002ecc7193b6adcc4c656d30338c9bbc894866c3b36eb660d76cc675034f33"),
        "whole stack": (("mode_product", (30, 20, 10), 1, 5),
                        "e89a489d10a66d71604f7726d0062c5f20ea2a75ddb4116306fe424c53299fc8"),
        "whole stack of large items": (
            ("mode_product", (10, 3000, 40), 1, 20),
            "7057537dcb1544742c25de83fbb73706cf38ea07079fdd7b6d73ab430907d88a"),
        "summed batch": (("contract", (30, 20, 10), 1, 3),
                         "8e5d9db3bcc2bf0c03a657ab1d643850e57d9616abced909219b994da778ab48"),
    }

    @pytest.mark.parametrize("case", sorted(_PLAN_PINS))
    def test_products_keep_their_pinned_bytes(self, case):
        (fn, shape, mode, k), digest = self._PLAN_PINS[case]
        gen = np.random.default_rng(len(case))
        x = np.asfortranarray(gen.normal(size=shape))
        if fn == "contract":
            y = contract(x, mode, gen.normal(size=(x.size // shape[mode], k)))
        else:
            y = mode_product(x, mode, gen.normal(size=(k, shape[mode])))
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_split_contractions_equal_unfold_products(self, monkeypatch, mode):
        monkeypatch.setattr(tensor_mod, "_ONE_THREAD_MACS", 16)
        x = np.asfortranarray(_filled((3, 4, 5, 6), seed=6))
        m = _filled((2, x.shape[mode]), seed=7)
        w = _filled((x.size // x.shape[mode], 3), seed=8)
        new_shape = x.shape[:mode] + (2,) + x.shape[mode + 1 :]
        want = fold(m @ unfold(x, mode), mode, new_shape)
        np.testing.assert_allclose(mode_product(x, mode, m), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(contract(x, mode, w), unfold(x, mode) @ w, rtol=0, atol=1e-12)

    def test_f_order_input_is_not_copied(self):
        x = np.asfortranarray(_filled((4, 5, 6), seed=5))
        assert tensor_mod._fortran(x) is x

    def test_rejects_wrong_map_height(self):
        with pytest.raises(ValueError):
            contract(_filled((3, 4, 5)), 1, np.zeros((19, 2)))
