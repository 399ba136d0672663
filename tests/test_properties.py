"""Property tests of the sketch's linear invariants across every map pairing.

For each factor map kind (Omega) and core map kind (Phi), over random
orders 2-4, extents, slab positions and update weights:

* a slab update equals the dense update of the zero-padded slab (also at
  orders 5-6 with core sketches up to twice the extents, so that the sketch
  outgrows the tensor), and so
  does a box update (a slab cut to a range of last-mode planes, as a stream
  record is read), at mode 0 and at a middle mode of an order-4 tensor;
* a record's boxes sum to its whole slab update;
* the sketch is linear in the data;
* sketches of slab shards merge to the sketch of the whole, in any grouping;
* the sketch does not depend on the input's memory layout, bit for bit.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersketch.sketch import (
    CORE_KINDS,
    FACTOR_KINDS,
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    sketch_merge,
    tucker_sketch,
)

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
KIND_PAIRS = pytest.mark.parametrize(
    "om,phi", [(om, phi) for om in FACTOR_KINDS for phi in CORE_KINDS]
)
weights = st.floats(-3.0, 3.0)


@st.composite
def cases(draw, om, phi, orders=(2, 4), extents=(2, 6), growth=1):
    """A shape of an order in ``orders`` and extents in ``extents``, sketch
    parameters valid for it, and a seed for the data.  Each ``s_n`` is at
    most ``growth`` times ``I_n``, or ``I_n`` for an SSRFT core map, which
    cannot expand a mode."""
    shape = tuple(draw(st.lists(st.integers(*extents), min_size=orders[0],
                                max_size=orders[1])))
    k = tuple(draw(st.integers(1, min(2, d))) for d in shape)
    cap = 1 if phi == "ssrft" else growth
    s = tuple(draw(st.integers(kn, cap * d)) for kn, d in zip(k, shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # s_n <= 2 k_n is allowed here
        params = SketchParams(
            k=k, s=s, master_seed=draw(st.integers(0, 2**32)),
            omega_kind=om, phi_kind=phi, density=0.5,
        )
    return shape, params, draw(st.integers(0, 2**32))


@st.composite
def slabs(draw, shape):
    mode = draw(st.integers(0, len(shape) - 1))
    offset = draw(st.integers(0, shape[mode] - 1))
    c = draw(st.integers(1, shape[mode] - offset))
    return mode, offset, c


@st.composite
def spans(draw, extent):
    """``(offset, c)``: rows ``offset:offset + c`` of an extent."""
    offset = draw(st.integers(0, extent - 1))
    return offset, draw(st.integers(1, extent - offset))


def _block(ndim, mode, offset, c):
    return tuple(slice(offset, offset + c) if m == mode else slice(None) for m in range(ndim))


BOX_MODES = pytest.mark.parametrize("mode", [0, 1], ids=["mode-0", "middle-mode"])


def _assert_sketch_close(got, want, tol=1e-11):
    pairs = list(zip(got.factor_sketches, want.factor_sketches))
    pairs.append((got.core_sketch, want.core_sketch))
    for a, b in pairs:
        np.testing.assert_allclose(a, b, rtol=0, atol=tol * max(1.0, float(np.abs(b).max())))


def _check_slab_update(data, shape, params, seed):
    """A slab update from a non-zero base equals the dense update of the
    zero-padded slab."""
    mode, offset, c = data.draw(slabs(shape))
    theta1, theta2 = data.draw(weights), data.draw(weights)
    gen = np.random.default_rng(seed)
    base = tucker_sketch(gen.normal(size=shape), params)
    sel = _block(len(shape), mode, offset, c)
    padded = np.zeros(shape)
    padded[sel] = gen.normal(size=padded[sel].shape)
    slab_acc = StreamingSketcher(shape, params, init=base)
    slab_acc.update_slab(mode, offset, padded[sel], theta1, theta2)
    dense_acc = StreamingSketcher(shape, params, init=base)
    dense_acc.update_dense(padded, theta1, theta2)
    _assert_sketch_close(slab_acc.sketch(), dense_acc.sketch())


@KIND_PAIRS
@PROPERTY_SETTINGS
@given(data=st.data())
def test_slab_update_equals_padded_dense_update(om, phi, data):
    _check_slab_update(data, *data.draw(cases(om, phi)))


@KIND_PAIRS
@settings(PROPERTY_SETTINGS, max_examples=6)
@given(data=st.data())
def test_slab_update_equals_padded_dense_update_as_the_sketch_outgrows_the_tensor(
    om, phi, data
):
    # Orders 5-6 of extents 2-4 with s_n up to 2 I_n: the core maps expand
    # their modes, so each product of the core chain grows.
    _check_slab_update(data, *data.draw(cases(om, phi, (5, 6), (2, 4), growth=2)))


@KIND_PAIRS
@BOX_MODES
@PROPERTY_SETTINGS
@given(data=st.data())
def test_box_update_equals_padded_dense_update(om, phi, mode, data):
    shape, params, seed = data.draw(cases(om, phi, orders=(4, 4)))
    (offset, c), (start, q) = data.draw(spans(shape[mode])), data.draw(spans(shape[-1]))
    theta1, theta2 = data.draw(weights), data.draw(weights)
    gen = np.random.default_rng(seed)
    base = tucker_sketch(gen.normal(size=shape), params)
    sel = _block(4, mode, offset, c)[:-1] + (slice(start, start + q),)
    padded = np.zeros(shape)
    padded[sel] = gen.normal(size=padded[sel].shape)
    box_acc = StreamingSketcher(shape, params, init=base)
    box_acc.update_slab(mode, offset, padded[sel], theta1, theta2, start)
    dense_acc = StreamingSketcher(shape, params, init=base)
    dense_acc.update_dense(padded, theta1, theta2)
    _assert_sketch_close(box_acc.sketch(), dense_acc.sketch())


@KIND_PAIRS
@BOX_MODES
@PROPERTY_SETTINGS
@given(data=st.data())
def test_record_boxes_sum_to_its_slab_update(om, phi, mode, data):
    # Only the first box carries the record's theta1, as the reader hands
    # them out.
    shape, params, seed = data.draw(cases(om, phi, orders=(4, 4)))
    offset, c = data.draw(spans(shape[mode]))
    cuts = sorted(set(data.draw(st.lists(st.integers(1, shape[-1] - 1), max_size=3))))
    theta1, theta2 = data.draw(weights), data.draw(weights)
    gen = np.random.default_rng(seed)
    base = tucker_sketch(gen.normal(size=shape), params)
    slab = gen.normal(size=tuple(c if m == mode else d for m, d in enumerate(shape)))
    whole = StreamingSketcher(shape, params, init=base)
    whole.update_slab(mode, offset, slab, theta1, theta2)
    boxed = StreamingSketcher(shape, params, init=base)
    bounds = [0, *cuts, shape[-1]]
    for lo, hi in zip(bounds, bounds[1:]):
        boxed.update_slab(mode, offset, slab[..., lo:hi], theta1 if lo == 0 else 1.0, theta2, lo)
    _assert_sketch_close(boxed.sketch(), whole.sketch(), tol=1e-12)


@KIND_PAIRS
@PROPERTY_SETTINGS
@given(data=st.data())
def test_sketch_is_linear(om, phi, data):
    shape, params, seed = data.draw(cases(om, phi))
    alpha, beta = data.draw(weights), data.draw(weights)
    gen = np.random.default_rng(seed)
    x, y = gen.normal(size=shape), gen.normal(size=shape)
    sx, sy = tucker_sketch(x, params), tucker_sketch(y, params)
    want = TuckerSketch(
        params=params,
        shape=shape,
        factor_sketches=tuple(
            alpha * u + beta * v for u, v in zip(sx.factor_sketches, sy.factor_sketches)
        ),
        core_sketch=alpha * sx.core_sketch + beta * sy.core_sketch,
    )
    _assert_sketch_close(tucker_sketch(alpha * x + beta * y, params), want)


@KIND_PAIRS
@PROPERTY_SETTINGS
@given(data=st.data())
def test_slab_shards_merge_in_any_grouping(om, phi, data):
    shape, params, seed = data.draw(cases(om, phi))
    mode = data.draw(st.integers(0, len(shape) - 1))
    cuts = sorted(data.draw(st.lists(st.integers(1, shape[mode] - 1), max_size=2)))
    bounds = [0, *cuts, shape[mode]]
    x = np.random.default_rng(seed).normal(size=shape)
    shards = []
    for lo, hi in zip(bounds, bounds[1:]):
        acc = StreamingSketcher(shape, params)
        if hi > lo:  # repeated cuts leave an empty shard
            acc.update_slab(mode, lo, x[_block(len(shape), mode, lo, hi - lo)])
        shards.append(acc.sketch())
    while len(shards) < 3:  # fewer cuts: zero sketches fill the grouping
        shards.append(StreamingSketcher(shape, params).sketch())
    a, b, c = shards
    left = sketch_merge(sketch_merge(a, b), c)
    right = sketch_merge(a, sketch_merge(b, c))
    _assert_sketch_close(left, right)
    _assert_sketch_close(right, tucker_sketch(x, params))


@KIND_PAIRS
@PROPERTY_SETTINGS
@given(data=st.data())
def test_sketch_does_not_depend_on_layout(om, phi, data):
    shape, params, seed = data.draw(cases(om, phi))
    x = np.random.default_rng(seed).normal(size=tuple(2 * d for d in shape))
    sliced = x[(slice(None, None, 2),) * len(shape)]
    want = tucker_sketch(np.asfortranarray(sliced), params)
    for layout in (np.ascontiguousarray(sliced), sliced):
        got = tucker_sketch(layout, params)
        for a, b in zip(got.factor_sketches, want.factor_sketches):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got.core_sketch, want.core_sketch)


@pytest.mark.parametrize("om", FACTOR_KINDS)
def test_slab_update_under_ssrft_core_stays_below_padded_size(om):
    # no map kind, factor or core, forces the zero-padded full-tensor update
    shape = (60, 60, 60)
    params = SketchParams.for_rank(2, master_seed=3, order=3, omega_kind=om, phi_kind="ssrft")
    acc = StreamingSketcher(shape, params)
    slab = np.random.default_rng(5).normal(size=(60, 3, 60))
    padded_bytes = 8 * int(np.prod(shape))
    tracemalloc.start()
    try:
        acc.update_slab(1, 20, slab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < padded_bytes
