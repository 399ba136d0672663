"""Dimension-reduction map tests: determinism, oracles, and the Monte-Carlo
checks behind the error analysis."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersketch.drm as drm_mod
import tuckersketch.tensor as tensor_mod
from tuckersketch import rng
from tuckersketch.sketch import FACTOR_KINDS
from tuckersketch.tensor import contract, unfold
from tuckersketch.drm import (
    DrmSpec,
    SsrftTransform,
    _idct,
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


@pytest.mark.parametrize(
    "count", [4, rng.NDTRI_PORT_MAX + 1], ids=["ndtri-port", "scipy-ndtri"]
)
def test_top_raw_word_stays_below_one(monkeypatch, count):
    top = np.array([2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    assert np.all(_old_unit_doubles(top) == 1.0)  # the formula alone rounds up
    assert np.all(rng.unit_doubles(top) == 1.0 - 2.0**-53)
    # rng.raw and rng.fill, which realizes maps by runs of rows, read their
    # words from one Philox each, numpy's or the port: here, both make only
    # the top word.
    class TopWords:
        state = {"state": {"counter": np.zeros(4, np.uint64)}}

        def random_raw(self, size):
            return np.full(size, top[1])

    monkeypatch.setattr(rng, "_philox", lambda seed, stream: TopWords())
    monkeypatch.setattr(rng, "_philox_words", lambda seed, stream, offset, n: np.full(n, top[1]))
    assert np.all(rng.uniforms(0, 0, 3) < 1.0)
    # Up to NDTRI_PORT_MAX values draw through the port, past it through
    # scipy; each id draws the top word, from the port of Philox or numpy's.
    g = rng.gaussians(0, 0, count)
    assert np.all(np.isfinite(g)) and np.all(g == g[0]) and g[0] > 8.0
    # Both map kinds read the same words, whole or by row block: at density 1
    # the top word is kept too (as 1.0 it failed the u < density draw).
    x = np.ones((1, 3, 1))  # rows 3:6 of a (3, 2) grid: its slowest axis
    sparse = DrmSpec("sparse_sign", 6, 2, seed=1, density=1.0)
    assert np.all(make_drm(sparse).entries == 1.0)
    assert np.all(make_drm(sparse).apply_tensor(x, 0, (1, 3, 2), (0, 0, 1)) == 3.0)
    block = make_drm(DrmSpec("gaussian", 6, 2, seed=1)).apply_tensor(x, 0, (1, 3, 2), (0, 0, 1))
    assert np.all(np.isfinite(block))


def test_rng_distinct_streams_differ():
    a = rng.raw(5, 0, 8)
    b = rng.raw(5, 1, 8)
    c = rng.raw(6, 0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


B = rng.BLOCK_WORDS
_OFFSETS = sorted(
    set(range(10))
    | {4 * j + e for j in range(1, 8) for e in (-1, 1)}
    | {B + e for e in range(-5, 6)}
    | {2 * B + e for e in (-3, 0, 3)}
)


def _copy_words(words, dst):
    dst[:] = words


def _numpy_words(seed, stream, offset, count):
    """The oracle: words ``offset`` on of numpy's Philox, moved there by
    its own ``advance`` (one counter step per four words)."""
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bitgen.advance(offset // 4)
    bitgen.random_raw(offset % 4)
    return bitgen.random_raw(count)


_PORT_KEYS = [(0, 0), (1, 0), (0, 1), (2**64 - 1, 2**64 - 1), (2**64 - 1, 0)] + [
    tuple(k) for k in np.random.default_rng(17).integers(0, 2**64, (3, 2), np.uint64).tolist()
]
_PORT_OFFSETS = sorted(
    set(range(8))
    | {4 * j + e for j in (1, 2, 5, 1000) for e in (-1, 1)}
    | {rng.PHILOX_PORT_MAX + e for e in (-5, 0, 5)}
    | {2**40 + 3}
)


@pytest.mark.parametrize("key", _PORT_KEYS, ids=str)
@pytest.mark.parametrize("offset", _PORT_OFFSETS)
def test_philox_port_gives_numpys_words(key, offset):
    for count in [0, 1, 3, 4, 5, rng.PHILOX_PORT_MAX]:
        read = rng.philox_for(count)(*key)
        got = read(offset, count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert np.array_equal(got, _numpy_words(*key, offset, count))


def test_philox_for_draws_through_the_port_up_to_its_limit():
    assert rng.philox_for(0) is rng.philox_for(rng.PHILOX_PORT_MAX) is rng._ported_philox
    assert rng.philox_for(rng.PHILOX_PORT_MAX + 1) is rng._numpy_philox


def test_philox_port_reaches_the_last_counter_and_raises_past_it():
    # Block j is counter j + 1: the last block with counter word 0 alone is
    # 2**64 - 2.  Past it numpy carries into counter word 1; the port raises.
    last = 4 * (2**64 - 2)
    got = rng._philox_words(7, 9, last + 1, 3)
    assert np.array_equal(got, _numpy_words(7, 9, last + 1, 3))
    with pytest.raises(ValueError, match="outside the port"):
        rng._philox_words(7, 9, last + 3, 2)


@pytest.mark.parametrize("block_words", [1, 5, 64, B])
@pytest.mark.parametrize("source", ["port", "numpy"])
def test_runs_straddling_word_blocks_give_the_stream_words(monkeypatch, block_words, source):
    # Runs of every length mod 4, read into blocks that split them anywhere.
    runs = [(3, 10), (70, 1), (4, 9), (B - 5, 11), (2**40 + 1, 6), (0, 4)]
    total = sum(n for _, n in runs)
    philox = rng.philox_for(rng.PHILOX_PORT_MAX + (source == "numpy"))
    monkeypatch.setattr(rng, "BLOCK_WORDS", block_words)
    got = rng.fill(np.empty(total, np.uint64), 11, 2, runs, _copy_words, philox)
    want = np.concatenate([_numpy_words(11, 2, offset, n) for offset, n in runs])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("offset", _OFFSETS)
def test_raw_at_an_offset_is_a_slice_of_the_stream(offset):
    whole = rng.raw(5, 3, 2 * B + 64)
    got = rng.fill(np.empty(40, np.uint64), 5, 3, [(offset, 40)], _copy_words)
    np.testing.assert_array_equal(got, whole[offset : offset + 40])


@pytest.mark.parametrize("offset", [0, 1, 3, B - 7, B, 2 * B - 1])
@pytest.mark.parametrize("count", [1, 6, B + 9])
def test_gaussians_at_an_offset_span_word_blocks(offset, count):
    # fill reads several blocks of words; every value keeps its bits
    whole = rng.gaussians(8, 2, 3 * B + 16)
    normals = rng.normals(rng.ndtri_for(whole.size))
    got = rng.fill(np.empty(count), 8, 2, [(offset, count)], normals)
    assert np.array_equal(got.view(np.uint64), whole[offset : offset + count].view(np.uint64))


_EXPM2 = 0.13533528323661269189  # the branch edge of Cephes ndtri


def _ndtri_edges():
    """Uniforms at every branch edge of ndtri, and in its far tail."""
    edges = [0.5, 2.0**-54, 2.0**-53, 1.0 - 2.0**-53]
    for e in (_EXPM2, 1.0 - _EXPM2, math.exp(-32), 1.0 - math.exp(-32)):
        edges += [np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)]
    # x = sqrt(-2 log y) >= 8, i.e. y < exp(-32): geometric down to 2**-54,
    # and the doubles just below 1 that reflect into it.
    far = np.geomspace(math.exp(-32), 2.0**-54, 4001)
    near_one = 1.0 - np.arange(1, 129) * 2.0**-53
    return np.concatenate([edges, far, near_one])


def test_ndtri_port_equals_scipy_bit_for_bit():
    # scipy.special.ndtri is the reference, here only: maps of at most
    # NDTRI_PORT_MAX values are drawn by the port and load no scipy.
    import scipy.special

    u = np.concatenate(
        [rng.uniforms(rng.mix64(seed, 12), stream, 1 << 19)
         for seed in range(4) for stream in (0, 5)]
        + [_ndtri_edges()]
    )
    assert u.size >= 4 * 2**20 and u.min() > 0.0 and u.max() < 1.0
    assert np.any(u < math.exp(-32)) and np.any(1.0 - u < math.exp(-32))  # x >= 8
    want = scipy.special.ndtri(u)
    got = np.concatenate([rng._ndtri(u[j : j + B].copy()) for j in range(0, u.size, B)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _ulps_to_nearest_double(x):
    """How far the long-double log of each ``x`` lies from its nearest
    double, in ulps of that double (at most 1/2), read from the low 11
    significand bits of an x87 long double."""
    wide = np.log(x.astype(np.longdouble))
    significand = np.ndarray(x.shape, np.uint64, wide, strides=(wide.itemsize,))
    low = (significand & np.uint64(0x7FF)).astype(np.int64)
    return np.minimum(low, 2048 - low) / 2048


def _around(x0, steps):
    """The ``2 * steps + 1`` doubles centred on the positive double ``x0``."""
    bits = np.array([x0]).view(np.int64) + np.arange(-steps, steps + 1)
    return bits.view(np.float64)


def _ndtri_hard_logs():
    """Uniforms whose first or second tail log is hard to round: the
    long-double log lies 0.45 to 0.5 ulp from its double, or the log is
    near a power of two (log y = -4, -8, -16, -32; log x = 1, 2)."""
    y = rng.uniforms(rng.mix64(9, 12), 1, 1 << 20)
    y = np.minimum(y, 1.0 - y)
    y = y[y <= _EXPM2]  # the tail, reflected or not
    x = np.sqrt(-2.0 * np.array([math.log(v) for v in y]))
    near_tie = (_ulps_to_nearest_double(y) >= 0.45) | (_ulps_to_nearest_double(x) >= 0.45)
    edges = [math.exp(-(2.0**k)) for k in (2, 3, 4, 5)]
    edges += [math.exp(-0.5 * math.exp(2.0 * v)) for v in (1.0, 2.0)]  # log x = v
    return np.concatenate([y[near_tie]] + [_around(e, 3000) for e in edges])


def _math_log(x):
    return np.fromiter(map(math.log, x), np.float64, x.size)


def _simd_log_is_libms():
    """Whether numpy's log of a contiguous array, the SIMD loop where the
    CPU has one, gives libm's bits on 2**16 values in [0.5, 1.5)."""
    x = rng.uniforms(3, 0, 1 << 16) + 0.5
    return np.array_equal(np.log(x).view(np.uint64), _math_log(x).view(np.uint64))


def test_libm_log_is_libms_where_its_logs_are_hard():
    # Values whose log lies near a tie between two doubles, or whose log is
    # near a power of two, are where a log other than libm's differs first.
    y = _ndtri_hard_logs()
    x = np.sqrt(-2.0 * _math_log(y))
    for v in (y, x):
        assert np.array_equal(rng._libm_log(v).view(np.uint64), _math_log(v).view(np.uint64))
    if _simd_log_is_libms():
        pytest.skip("numpy's SIMD log is libm's on this host")
    # The sample is hard: numpy's SIMD log misses libm's bits on it.
    v = np.concatenate([y, x])
    assert not np.array_equal(np.log(v).view(np.uint64), _math_log(v).view(np.uint64))


@pytest.mark.parametrize("fake", ["one-ulp-off", "contiguous-np-log"])
def test_log_probe_fails_on_a_log_that_is_not_libms(monkeypatch, fake):
    if fake == "one-ulp-off":
        def log(x):
            out = _math_log(x)
            out[2048] = np.nextafter(out[2048], np.inf)
            return out
    elif _simd_log_is_libms():
        pytest.skip("numpy's SIMD log is libm's on this host")
    else:
        log = np.log
    monkeypatch.setattr(rng, "_libm_log", log)
    assert not rng._libm_log_holds.__wrapped__()


@pytest.mark.parametrize("holds", [True, False], ids=["probe-holds", "probe-fails"])
def test_ndtri_port_equals_scipy_where_its_logs_are_hard(monkeypatch, holds):
    # The port draws where the probe finds libm's log, scipy where it does
    # not: either way the normals have scipy's bits.
    import scipy.special

    if not holds:
        monkeypatch.setattr(rng, "_libm_log_holds", lambda: False)
    elif not rng._libm_log_holds():
        pytest.skip("the port's log is not libm's on this host")
    u = np.concatenate([_ndtri_hard_logs(), _ndtri_edges()])
    ndtri = rng.ndtri_for(u.size)
    assert (ndtri is rng._ndtri) == holds
    want = scipy.special.ndtri(u)
    got = ndtri(u.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_failed_log_probe_draws_every_array_through_scipy(monkeypatch):
    import scipy.special

    monkeypatch.setattr(rng, "_libm_log_holds", lambda: False)
    u = _ndtri_edges()
    for count in (4, rng.NDTRI_PORT_MAX):
        ndtri = rng.ndtri_for(count)
        assert ndtri is not rng._ndtri
        assert np.array_equal(ndtri(u.copy()).view(np.uint64),
                              scipy.special.ndtri(u).view(np.uint64))
    digest = "e68f1d7bea3a26818302fe7de3e4758bcf778d437e546852f6001b068fb0ae25"
    assert hashlib.sha256(rng.gaussians(12, 3, B).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("count, digest", [
    (B, "e68f1d7bea3a26818302fe7de3e4758bcf778d437e546852f6001b068fb0ae25"),
    (B + 1, "ad55ebd05b275af2d294f75406c816fb3338f3c735cb5fa0942bca413dda9272"),
    (rng.NDTRI_PORT_MAX, "e4d4c03cb76ac20e0bc5123f0fa9c52d06620de2b278fde1171bd3dc54665cd3"),
    (rng.NDTRI_PORT_MAX + 1, "86a7db8cf58e4b39587d3fda58709681209ea3ec4214ac1626c1c3d770e873a2"),
], ids=["ndtri-port", "two-blocks", "port-limit", "scipy-ndtri"])
def test_gaussians_on_either_side_of_the_port_are_frozen(count, digest):
    # Pinned apart from scipy: a change in its ndtri cannot move the maps
    # the port draws unnoticed, nor the ones drawn through it.
    assert hashlib.sha256(rng.gaussians(12, 3, count).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("spec, digest", [
    (DrmSpec("sparse_sign", 25600, 21, seed=12, density=0.1),
     "2daf95a1f9d9445f260fb3c46a1c9a748c4660affac48ff490a30b218024d090"),
    (DrmSpec("sparse_sign", 3000, 7, seed=13, density=0.3),
     "270e15323bb8d62c9fc595e91bbc0408cf05615a5b70adc30d42346b4d190b11"),
], ids=["many-blocks", "one-block"])
def test_sparse_sign_entries_are_frozen(spec, digest):
    # Every zero is +0.0 and every kept entry +-1/sqrt(density), bit for bit.
    assert hashlib.sha256(make_drm(spec).materialize().tobytes()).hexdigest() == digest


def test_ndtri_for_draws_through_the_port_up_to_its_limit():
    assert rng.ndtri_for(rng.NDTRI_PORT_MAX) is rng._ndtri
    assert rng.ndtri_for(rng.NDTRI_PORT_MAX + 1) is not rng._ndtri


def _counter_spec(kind, in_dim, out_dim, seed):
    density = 0.3 if kind == "sparse_sign" else None
    return DrmSpec(kind, in_dim, out_dim, seed=seed, density=density)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_rows_equal_the_rows_of_a_whole_realization(data):
    kind = data.draw(st.sampled_from(["gaussian", "sparse_sign"]))
    in_dim, out_dim = data.draw(st.integers(1, 80)), data.draw(st.integers(1, 7))
    runs = []
    for _ in range(data.draw(st.integers(1, 4))):
        start = data.draw(st.integers(0, in_dim - 1))
        runs.append((start, data.draw(st.integers(start + 1, in_dim))))
    spec = _counter_spec(kind, in_dim, out_dim, data.draw(st.integers(0, 2**64 - 1)))
    whole = make_drm(spec).entries
    with pytest.MonkeyPatch.context() as mp:
        # small word blocks, so that runs cross block edges anywhere
        mp.setattr(rng, "BLOCK_WORDS", data.draw(st.sampled_from([1, 5, 64])))
        got = make_drm(spec)._rows(runs)
    want = np.concatenate([whole[start:stop] for start, stop in runs])
    assert np.array_equal(_bits(got), _bits(want))


def _block(entries, shape, mode, axis, r0, r1):
    """Rows of ``entries`` whose grid position on ``axis`` lies in r0:r1."""
    dims = shape[:mode] + shape[mode + 1 :]
    g = axis - (axis > mode)
    grid = entries.reshape((*dims[::-1], entries.shape[1]))
    block = grid[(slice(None),) * (len(dims) - 1 - g) + (slice(r0, r1),)]
    return block.reshape((-1, entries.shape[1]))


def _at(order, axis, start):
    """The origin of a slab that starts at ``start`` along ``axis``."""
    return tuple(start if j == axis else 0 for j in range(order))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_products_equal_products_with_whole_entries(data):
    # A box cut along one or more grid axes, at orders 3 and 4: its rows of
    # the map are generated in runs, which cross word blocks anywhere; same
    # bits.
    kind = data.draw(st.sampled_from(["gaussian", "sparse_sign"]))
    order = data.draw(st.sampled_from([3, 4]))
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
    mode = data.draw(st.integers(0, order - 1))
    axes = data.draw(st.sets(st.sampled_from([j for j in range(order) if j != mode]),
                             min_size=1))
    at, sel = [0] * order, [slice(None)] * order
    for axis in axes:
        r0 = data.draw(st.integers(0, shape[axis] - 1))
        r1 = data.draw(st.integers(r0 + 1, shape[axis]))
        at[axis], sel[axis] = r0, slice(r0, r1)
    in_dim = int(np.prod(shape)) // shape[mode]
    spec = _counter_spec(kind, in_dim, data.draw(st.integers(1, 4)), data.draw(st.integers(0, 99)))
    x = np.random.default_rng(at[min(axes)]).normal(size=shape)[tuple(sel)]
    whole = make_drm(spec)
    whole.entries  # realized first: the product slices the kept entries
    want = whole.apply_tensor(x, mode, shape, at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "BLOCK_WORDS", data.draw(st.sampled_from([1, 5, 64])))
        d = make_drm(spec)
        got = d.apply_tensor(x, mode, shape, at)
    assert d.held_scalars == (spec.in_dim * spec.out_dim if x.size == int(np.prod(shape)) else 0)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize(
    "kind, shape, mode, axis, rows, k, seed",
    [
        ("gaussian", (1, 2, 4), 0, 1, slice(0, 1), 1, 0),
        ("sparse_sign", (2, 3, 4), 0, 1, slice(1, 2), 1, 1),
        ("gaussian", (2, 1, 4), 1, 0, slice(1, 2), 3, 0),
        ("sparse_sign", (2, 1, 4), 1, 0, slice(1, 2), 3, 0),
        ("gaussian", (1, 3, 2, 2), 0, 1, slice(2, 3), 2, 0),
    ],
)
def test_one_row_runs_fold_the_same_bits_generated_or_kept(kind, shape, mode, axis, rows, k, seed):
    # A block whose runs are one row each is a strided slice of the kept
    # entries; matmul rounds a vector-shaped product (k = 1, or extent 1
    # along mode) with a strided operand differently in the last bit, so
    # the kept entries' block must reach it as a C array, like generated rows.
    spec = _counter_spec(kind, math.prod(shape) // shape[mode], k, seed)
    x = np.random.default_rng(1).normal(size=shape)[(slice(None),) * axis + (rows,)]
    at = _at(len(shape), axis, rows.start)
    whole = make_drm(spec)
    whole.entries
    want = whole.apply_tensor(x, mode, shape, at)
    d = make_drm(spec)
    got = d.apply_tensor(x, mode, shape, at)
    assert d.held_scalars == 0
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign"])
def test_row_blocks_realize_the_map_only_past_in_dim(kind):
    # One pass over any grid axis, at orders 3 and 4, generates each row of
    # the map once and holds none; a revisit would pass in_dim and realizes it.
    for shape in [(2, 4, 6), (2, 3, 4, 2)]:
        for mode in range(len(shape)):
            for axis in (j for j in range(len(shape)) if j != mode):
                in_dim = math.prod(shape) // shape[mode]
                spec = _counter_spec(kind, in_dim, 3, seed=2)
                d, ref = make_drm(spec), make_drm(spec).entries
                x = np.random.default_rng(1).normal(size=shape)
                step = max(1, shape[axis] // 2)
                for r in range(0, shape[axis], step):
                    sel = (slice(None),) * axis + (slice(r, r + step),)
                    got = d.apply_tensor(x[sel], mode, shape, _at(len(shape), axis, r))
                    want = contract(x[sel], mode, _block(ref, shape, mode, axis, r, r + step))
                    np.testing.assert_array_equal(got, want)
                    assert d.held_scalars == 0
                sel = (slice(None),) * axis + (slice(0, 1),)
                d.apply_tensor(x[sel], mode, shape, _at(len(shape), axis, 0))
                assert d.held_scalars == spec.in_dim * spec.out_dim
                assert np.array_equal(_bits(d.entries), _bits(ref))


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign"])
def test_a_kept_box_is_reused_and_held_until_another_box(kind, monkeypatch):
    # Rows 1:3 of 4 on grid axis 0 of a (4, 6) grid: 12 rows, generated once
    # for two products, and held (counted) in between.
    spec = _counter_spec(kind, 4 * 6, 3, seed=2)
    d, ref = make_drm(spec), make_drm(spec).entries
    x = np.random.default_rng(1).normal(size=(2, 2, 6))
    want = contract(x, 0, _block(ref, (2, 4, 6), 0, 1, 1, 3))
    made, rows = [], d._rows
    monkeypatch.setattr(d, "_rows", lambda runs: made.append(runs) or rows(runs))
    for _ in range(2):
        got = d.apply_tensor(x, 0, (2, 4, 6), (0, 1, 0), keep=True)
        assert np.array_equal(_bits(got), _bits(want))
        assert d.held_scalars == 12 * 3
    assert len(made) == 1
    d.apply_tensor(x[:, :1], 0, (2, 4, 6), (0, 0, 0))  # another box, not kept
    assert d.held_scalars == 0 and len(made) == 2


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign"])
@pytest.mark.parametrize("request_", ["other axis", "all rows", "entries", "materialize"])
def test_other_requests_realize_the_map_whole(kind, request_):
    spec = _counter_spec(kind, 4 * 6, 3, seed=2)
    d = make_drm(spec)
    if request_ == "other axis":
        # A block on a grid axis that is not the slowest generates its rows
        # alone, as far as in_dim: rows 1:3 of 4 on axis 0 are 12 of 24.
        for _ in range(2):
            d.apply_tensor(np.ones((2, 2, 6)), 0, (2, 4, 6), (0, 1, 0))
            assert d.held_scalars == 0
        d.apply_tensor(np.ones((2, 1, 6)), 0, (2, 4, 6), (0, 0, 0))  # 30 > 24
    elif request_ == "all rows":
        d.apply_tensor(np.ones((2, 4, 6)), 0, (2, 4, 6), (0, 0, 0))
    elif request_ == "entries":
        d.entries
    else:
        d.materialize()
    assert d.held_scalars == spec.in_dim * spec.out_dim


def test_ssrft_map_holds_its_entries_when_made():
    spec = DrmSpec("ssrft", 24, 5, seed=12)
    assert make_drm(spec).held_scalars == 24 * 5


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
    got = d.apply_tensor(x, 0, (3, *dims), _at(3, axis + 1, rows.start))
    ref = x.reshape((3, -1), order="F") @ d.materialize()[keep]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_apply_rows_rejects_bad_blocks(spec):
    d = make_drm(spec)
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 4, 2)), 0, (2, 4, 6), (0, 0, 5))  # runs past the end
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 5, 2)), 0, (2, 5, 6), (0, 0, 0))  # grid misses in_dim
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 4, 2)), 0, (2, 4, 6, 1), (0, 0, 0, 0))  # order differs
    with pytest.raises(ValueError):
        d.apply_tensor(np.zeros((2, 4, 0)), 0, (2, 4, 6), (0, 0, 3))


def test_every_factor_kind_has_a_realizer():
    # The command line offers sketch.FACTOR_KINDS and DrmSpec accepts the
    # kinds drm can realize: the two lists must name the same kinds.
    assert set(FACTOR_KINDS) == set(drm_mod._REALIZERS)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown drm kind 'fourier'"):
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
    with pytest.raises(ValueError, match="trp mode_dims must be positive"):
        DrmSpec("trp", 8, 4, seed=0, mode_dims=(-2, -4))
    with pytest.raises(ValueError, match="mode_dims is only meaningful for trp"):
        DrmSpec("gaussian", 8, 4, seed=0, mode_dims=(2, 4))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_apply_rejects_bad_operands(spec):
    d = make_drm(spec)
    with pytest.raises(ValueError, match="mode 2 out of range"):
        d.apply_tensor(np.zeros((4, 6)), 2)
    with pytest.raises(ValueError, match="does not cover in_dim=24"):
        d.apply_tensor(np.zeros((2, 5, 6)), 0)
    with pytest.raises(ValueError, match="operand must be a matrix"):
        d.apply_right(np.zeros(24))
    with pytest.raises(ValueError, match="operand has 23 columns, map expects 24"):
        d.apply_right(np.zeros((2, 23)))


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


def _transform_rows(d: SsrftTransform, b: np.ndarray) -> np.ndarray:
    """The (out_dim, in_dim) SSRFT ``d`` applied to the rows of ``b`` by its
    definition, the reference an SSRFT map's entries are checked against:
    two rounds of (row permutation, sign flip, orthonormal DCT-II), then
    the rows at ``coords``."""
    y = scipy.fft.dct(d.sgn1[:, None] * b[d.perm1], type=2, axis=0, norm="ortho")
    y = scipy.fft.dct(d.sgn2[:, None] * y[d.perm2], type=2, axis=0, norm="ortho")
    return y[d.coords]


class TestSsrft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 160, 161, 199, 40000])
    def test_idct_matches_scipy(self, n):
        # the numpy DCT-III the entries are made with, row by row
        y = np.random.default_rng(n).normal(size=(5, n))
        want = scipy.fft.idct(y, type=2, norm="ortho")
        got = _idct(y.copy())
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_square_map_is_orthogonal(self):
        d = SsrftTransform(DrmSpec("ssrft", 32, 32, seed=6))
        omega = d.materialize()
        np.testing.assert_allclose(omega @ omega.T, np.eye(32), atol=1e-10)
        x = np.random.default_rng(2).normal(size=(32, 3))
        y = _transform_rows(d, x)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0), rtol=1e-12
        )

    def test_sides_are_transposes(self):
        spec = DrmSpec("ssrft", 20, 7, seed=7)
        d, realized = SsrftTransform(spec), make_drm(spec)
        m = np.random.default_rng(3).normal(size=(20, 4))
        rows = _transform_rows(d, m)
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
        np.testing.assert_allclose(omega.T @ x, _transform_rows(d, x), atol=1e-10)

    def test_subsample_energy_monte_carlo(self):
        # E ||Xi x||^2 = (out/in) ||x||^2; 2000 fresh seeds, 10% band
        x = rng.gaussians(55, 0, 64)
        x /= np.linalg.norm(x)
        total = 0.0
        for trial in range(2000):
            d = SsrftTransform(DrmSpec("ssrft", 64, 16, seed=rng.mix64(808, trial)))
            total += float((_transform_rows(d, x[:, None]) ** 2).sum())
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
            got = realized.apply_tensor(x[sel], mode, shape, _at(3, axis, rows.start))
            want = _transform_rows(ref, unfold(padded, mode).T).T
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

    def test_rejects_a_grid_or_factors_that_do_not_fit(self):
        d = make_drm(DrmSpec("trp", 24, 5, seed=13, mode_dims=(4, 6)))
        with pytest.raises(ValueError, match=r"grid \(6, 4\) is not the trp grid \(4, 6\)"):
            d.apply_tensor(np.zeros((2, 6, 4)), 0)
        with pytest.raises(ValueError, match="2 factors for 1 axes"):
            apply_trp_factors(np.zeros((2, 4)), 0, d.factors)

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
