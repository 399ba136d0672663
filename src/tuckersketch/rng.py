"""Counter-based random streams that regenerate identically from a seed.

Everything random in the package flows through the uint64 words of a
Philox4x64-10 stream keyed by ``(seed, stream)``, the words numpy's
``Philox(key=[seed, stream]).random_raw`` gives (version-stable under
numpy's compatibility policy), plus fixed arithmetic: uniforms from the top
53 bits, normals via the inverse normal CDF, permutations by sorting raw
words, signs from the low bit.  Generator convenience methods are
deliberately not used, so a sketch file can be rebuilt from ``(seed,
kind)`` alone on any numpy >= the pin.  Philox is counter based, so any
word of a stream can be computed from its key and position alone: an array
or map of at most :data:`PHILOX_PORT_MAX` words draws them through a numpy
port of Philox (:func:`_philox_words`), and a larger one through numpy's
``Philox``, which imports ``numpy.random`` (:func:`philox_for`).  The
inverse CDF is Cephes ``ndtri``: scipy's for large arrays, and for arrays
of at most :data:`NDTRI_PORT_MAX` values a port with the same bits
(:func:`_ndtri`), so drawing them loads no scipy.  The port's tail logs
are libm's ``log``, taken from numpy's plain loop (:func:`_libm_log`); if a
check at its first use finds otherwise, scipy draws every array.

Values derived one per word are generated straight into their destination
from any list of runs of the stream, :data:`BLOCK_WORDS` words at a time
(:func:`fill`): any set of them is generated alone, with the same bits as
the whole.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BLOCK_WORDS = 1 << 16
"""Words :func:`fill` reads from a stream at a time (512 KiB)."""
NDTRI_PORT_MAX = 1 << 20
"""Values of the largest array :func:`ndtri_for` draws through the port."""
PHILOX_PORT_MAX = 1 << 16
"""Words of the largest array or map :func:`philox_for` draws through the
port of Philox."""


def mix64(*words: int) -> int:
    """Fold integers into a single 64-bit seed (splitmix64 finalizer chain)."""
    h = 0
    for w in words:
        h = (h + (int(w) & _MASK64) + _GOLDEN) & _MASK64
        z = h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h


def _philox(seed: int, stream: int) -> np.random.Philox:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Philox(key=key)


def philox_for(count: int):
    """The Philox that draws an array or map of ``count`` words in all, as a
    function ``(seed, stream) -> read``; ``read(offset, n)`` returns the
    words ``offset`` to ``offset + n - 1`` of the stream.

    Up to :data:`PHILOX_PORT_MAX` words it is the port
    (:func:`_philox_words`), which loads nothing; a larger array or map
    uses numpy's ``Philox``, and ``numpy.random`` is imported here.  The
    two give the same words, so the choice only moves where and when
    ``numpy.random`` is imported.  That import (which loads ``secrets``,
    ``hashlib`` and OpenSSL's libcrypto) costs about 17 ms and 6 MiB of
    RSS; the port costs about 40 ns per word more than numpy's ``Philox``,
    about 2.8 ms at the limit, so a command that draws a handful of maps
    at the limit still spends less than the import.  The choice is made
    once for a whole array or map, by its size, so a map past the limit
    imports ``numpy.random`` when it is made and not at its first block.
    """
    if count <= PHILOX_PORT_MAX:
        return _ported_philox
    import numpy.random  # noqa: F401  (imported with the map, not in its first product)

    return _numpy_philox


def _ported_philox(seed: int, stream: int):
    return lambda offset, count: _philox_words(seed, stream, offset, count)


def _numpy_philox(seed: int, stream: int):
    bitgen = _philox(seed, stream)
    state = bitgen.state  # as it was made: no words buffered

    def read(offset, count):
        # Philox makes four words per counter step: set the counter to the
        # step before the four that hold word ``offset``, then drop the
        # ones before it.
        state["state"]["counter"][0] = offset // 4
        bitgen.state = state
        bitgen.random_raw(offset % 4)
        return bitgen.random_raw(count)

    return read


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011) as numpy runs it: the
# round multipliers, split in 32-bit halves for their high products, and
# the key of each of the 10 rounds, bumped by the Weyl steps
# 0x9E3779B97F4A7C15 and 0xBB67AE8584CAA73B before rounds 2 to 10.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
_PHILOX_KEY_STEPS = np.array(
    [[[r * 0x9E3779B97F4A7C15 & _MASK64], [r * 0xBB67AE8584CAA73B & _MASK64]] for r in range(10)],
    dtype=np.uint64,
)
_PHILOX_PIECE = 1 << 14
"""Words :func:`_philox_words` computes at a time: its six working arrays
hold 3 scalars per word of a piece."""


def _philox_words(seed: int, stream: int, offset: int, count: int) -> np.ndarray:
    """Words ``offset`` to ``offset + count - 1`` of the ``(seed, stream)``
    stream, the words of numpy's ``Philox(key=[seed, stream])``, computed
    from their counters alone.

    numpy bumps the counter before it makes a block, so block ``j`` (words
    ``4j`` to ``4j + 3``) is the output of counter ``j + 1``, whose words
    1-3 stay 0 up to counter ``2**64 - 1``: the port covers the words of
    those counters, and raises past them.
    """
    first, stop = offset // 4, -(-(offset + count) // 4)
    if offset < 0 or count < 0 or stop > _MASK64:
        raise ValueError(
            f"words {offset}:{offset + count} lie outside the port of Philox "
            "(counters 1 to 2**64 - 1)"
        )
    keys = _PHILOX_KEY_STEPS + np.array([[seed & _MASK64], [stream & _MASK64]], dtype=np.uint64)
    blocks = np.empty((stop - first, 2, 2), dtype=np.uint64)
    step = _PHILOX_PIECE // 4
    for j in range(0, stop - first, step):
        _philox_blocks(keys, first + j, blocks[j : j + step])
    return blocks.reshape(-1)[offset - 4 * first :][:count]


def _philox_blocks(keys: np.ndarray, first: int, out: np.ndarray) -> None:
    """Write the outputs of counters ``first + 1`` to ``first + m`` into
    ``out``, ``(m, 2, 2)``: word ``2a + b`` of block ``j`` at ``out[j, a, b]``.

    Counter words 0 and 2 (``x``) are the ones multiplied in a round, words 1
    and 3 (``y``) the ones XORed; each is one ``(2, m)`` array, so one
    operation serves both multipliers.  A round maps ``x, y`` to
    ``(hi[1] ^ y[0] ^ k0, hi[0] ^ y[1] ^ k1), (lo[1], lo[0])`` with ``hi,
    lo`` the 128-bit products of ``x`` and the multipliers, built from
    32-bit halves since numpy has no 128-bit product.
    """
    m = out.shape[0]
    x = np.zeros((2, m), dtype=np.uint64)
    np.add(np.arange(m, dtype=np.uint64), np.uint64(first + 1), out=x[0])
    y = np.zeros((2, m), dtype=np.uint64)
    lo, u, t, w = (np.empty((2, m), dtype=np.uint64) for _ in range(4))
    for key in keys:
        np.multiply(x, _PHILOX_M, out=lo)  # the low product wraps
        np.bitwise_and(x, _LOW32, out=u)
        x >>= _SHIFT32
        np.multiply(u, _PHILOX_M_LO, out=t)
        t >>= _SHIFT32
        u *= _PHILOX_M_HI
        u += t  # below 2**64: (2**32 - 1)**2 + 2**32 - 1
        np.multiply(x, _PHILOX_M_LO, out=t)
        x *= _PHILOX_M_HI
        np.bitwise_and(u, _LOW32, out=w)
        w += t  # below 2**64 too
        u >>= _SHIFT32
        x += u
        w >>= _SHIFT32
        x += w  # the high product
        np.bitwise_xor(x[::-1], y, out=w)
        w ^= key
        x, w, y, lo = w, x, lo[::-1], y[::-1]
    out[:, :, 0] = x.T
    out[:, :, 1] = y.T


def raw(seed: int, stream: int, count: int) -> np.ndarray:
    """The first ``count`` raw uint64 words of the (seed, stream) counter
    stream."""
    return philox_for(count)(seed, stream)(0, int(count))


def fill(out: np.ndarray, seed: int, stream: int, runs, values, philox=None) -> np.ndarray:
    """Fill the C-contiguous ``out`` (float64 or uint64) from runs of words
    of the stream, one element per word, and return it.

    ``runs`` is a sequence of ``(offset, count)`` pairs, each the words
    ``offset`` to ``offset + count - 1``, with counts that sum to
    ``out.size``; they fill ``out`` in order.  A whole array is the one run
    ``(0, out.size)``.  ``philox`` is the :func:`philox_for` choice of the
    whole array or map the runs belong to; by default, that of ``out``.
    ``values(words, dst)`` writes the values of ``words`` into ``dst``; it
    is called on one block of at most :data:`BLOCK_WORDS` words at a time,
    which may span several runs or part of one, so whatever ``values``
    derives from them stays that small, however thin the runs.  The words
    are drawn into the block itself (``words`` is ``dst`` read as uint64),
    so ``values`` reads every word it needs before it writes ``dst``.
    """
    flat = out.reshape(-1)
    read = (philox or philox_for(flat.size))(seed, stream)
    runs = iter(runs)
    left = 0  # words of the current run not yet drawn
    for j in range(0, flat.size, BLOCK_WORDS):
        dst = flat[j : j + BLOCK_WORDS]
        words = dst.view(np.uint64)
        at = 0
        while at < words.size:
            if not left:
                offset, left = next(runs)
            n = min(words.size - at, left)
            words[at : at + n] = read(offset, n)
            offset, left, at = offset + n, left - n, at + n
        values(words, dst)
    return out


def unit_doubles(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Doubles in (0, 1) from raw words: ``(top 53 bits + 0.5) * 2**-53``,
    written into ``out`` if given.

    The top 2**11 words would round to exactly 1.0 (an infinite normal), so
    that one value is clamped to the largest double below 1.0; every other
    word keeps its value.
    """
    u = np.empty(words.shape) if out is None else out
    u[...] = words >> np.uint64(11)
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """Doubles in (0, 1), one per raw word."""
    return unit_doubles(raw(seed, stream, count))


def ndtri_for(count: int):
    """The inverse normal CDF that draws an array of ``count`` values, as a
    function that overwrites an array of uniforms with their normals.

    Up to :data:`NDTRI_PORT_MAX` values it is :func:`_ndtri`, which loads
    nothing, if its ``log`` is libm's (:func:`_libm_log_holds`); a larger
    array, or any array if not, uses ``scipy.special.ndtri`` (imported
    here).  The two agree bit for bit, so the choice only moves where and
    when scipy is imported.  The port takes about 20 ns per value and
    scipy's ufunc about 14 ns: the gap outweighs importing ``scipy.special``
    (about 0.2 s) only past about 2**24 values, and at the limit the three
    factor maps of an order-3 sketch (about 3.1 M values) cost about 20 ms
    more through the port.  The choice is made once for a whole array or
    map, by its size: by row blocks, a large map would draw through the port.
    """
    if count <= NDTRI_PORT_MAX and _libm_log_holds():
        return _ndtri
    from scipy.special import ndtri

    return lambda y: ndtri(y, out=y)


def normals(ndtri):
    """The ``values`` function of :func:`fill` that draws standard normals
    through ``ndtri``, an inverse CDF from :func:`ndtri_for`."""

    def values(words, dst):
        ndtri(unit_doubles(words, dst))

    return values


def gaussians(seed: int, stream: int, shape) -> np.ndarray:
    """Standard normals via the inverse CDF, one per word of the stream,
    laid out C-order in ``shape``; generated by :func:`fill` through
    :func:`ndtri_for` of the array's size, so an array of at most
    :data:`NDTRI_PORT_MAX` values loads no scipy."""
    out = np.empty(shape)
    return fill(out, seed, stream, [(0, out.size)], normals(ndtri_for(out.size)))


# Cephes ndtri (Moshier), the function scipy.special.ndtri computes.  With
# y reflected to 1 - y above 1 - exp(-2), and c = y - 1/2 for y > exp(-2):
# (c + c c^2 P0(c^2)/Q0(c^2)) sqrt(2 pi).  Else, with x = sqrt(-2 log y) and
# z = 1/x: x - log(x)/x - z P(z)/Q(z), with P1/Q1 for x < 8 (y > exp(-32))
# and P2/Q2 beyond, negated unless y was reflected.  The Q polynomials are
# monic (Cephes ``p1evl``); a leading 1.0 makes polevl take the same steps,
# since 1.0 * x is exact.
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: the polynomial with coefficients ``coef`` (highest
    degree first) at ``x``, one rounded multiply and one rounded add per
    step, as its C loop does."""
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _ratio(z: np.ndarray, p, q) -> np.ndarray:
    """``z P(z) / Q(z)`` in Cephes's order of operations."""
    r = _polevl(z, p)
    r *= z
    r /= _polevl(z, q)
    return r


_NDTRI_PIECE = 1 << 14
"""Values :func:`_ndtri` computes at a time, so its temporaries stay a
bounded share of a block of words whichever branches the values take."""


def _libm_log(x: np.ndarray) -> np.ndarray:
    """``log`` of each value of the C-contiguous 1-D ``x`` by libm, the
    ``log`` Cephes calls; numpy's SIMD ``log`` differs from it in the last
    bit on some CPUs.

    numpy runs its plain loop, which calls libm's ``log``, when one operand
    runs backwards: the log is written into a reversed view of its output,
    which is returned reversed back.  (Both reversed, numpy flips them and
    runs the SIMD loop again.)  :func:`ndtri_for` checks once per process
    that this is libm's ``log`` (:func:`_libm_log_holds`).
    """
    out = np.empty_like(x)
    np.log(x, out=out[::-1])
    return out[::-1]


@functools.cache
def _libm_log_holds() -> bool:
    """Whether :func:`_libm_log` gives ``math.log``'s bits on 4,096 seeded
    values in [0.5, 2), where numpy's SIMD ``log`` differs from libm's on
    about 1 value in 200 on AVX-512 hosts.  Run once per process."""
    x = uniforms(0, 0, 4096) * 1.5 + 0.5
    want = np.fromiter(map(math.log, memoryview(x)), np.float64, x.size)
    return np.array_equal(_libm_log(x).view(np.uint64), want.view(np.uint64))


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Overwrite the uniforms ``y`` (C-contiguous, in (0, 1)) with
    ``scipy.special.ndtri(y)``, bit for bit, and return ``y``.

    A transliteration of Cephes ``ndtri``: numpy's correctly rounded
    ``+ - * / sqrt``, one operation at a time and in the C order (no fused
    multiply-add), and libm's ``log`` for the two logs of the tail
    (:func:`_libm_log`).  It works :data:`_NDTRI_PIECE` values at a time.
    """
    flat = y.reshape(-1)
    for j in range(0, flat.size, _NDTRI_PIECE):
        _ndtri_piece(flat[j : j + _NDTRI_PIECE])
    return y


def _ndtri_piece(y: np.ndarray) -> None:
    """:func:`_ndtri` of the 1-D ``y``: the tail is taken out by index and
    finished, the middle branch is computed in place on every value, and
    the tail is written back over it.  Elementwise IEEE arithmetic gives
    each value the same bits whatever its neighbours are, and Q0 has no
    root for c^2 in [0, 1/4], so the middle branch of a tail value is
    harmless.

    The reflection is ``min(y, 1 - y)``: ``1 - y`` is exact above 1/2, and
    below exp(-2) the minimum is ``y``.  The sign is that of ``y - 1/2``:
    ``x0 - x1 >= 1.1`` on the tail, so copying it negates where Cephes does.
    """
    tail = np.flatnonzero((y <= _EXPM2) | (y > 1.0 - _EXPM2))
    t = y[tail]
    sign = t - 0.5
    np.minimum(t, 1.0 - t, out=t)
    np.multiply(_libm_log(t), -2.0, out=t)
    x = np.sqrt(t, out=t)  # C-contiguous, as _libm_log takes it
    x0 = _libm_log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    far = np.flatnonzero(x >= 8.0)  # y < exp(-32): P2/Q2, almost never
    z = np.divide(1.0, x, out=x)
    x1 = _ratio(z, _P1, _Q1)
    x1[far] = _ratio(z[far], _P2, _Q2)
    x0 -= x1
    np.copysign(x0, sign, out=x0)
    del t, x, z, x1, sign
    c = np.subtract(y, 0.5, out=y)
    c2 = c * c
    x = _ratio(c2, _P0, _Q0)
    del c2
    x *= c
    x += c
    np.multiply(x, _S2PI, out=y)
    y[tail] = x0


def signs(seed: int, stream: int, count: int) -> np.ndarray:
    """Vector of +-1.0 drawn from the low bit of each raw word."""
    bits = raw(seed, stream, count)
    return np.where(bits & np.uint64(1), 1.0, -1.0)


def permutation(seed: int, stream: int, n: int) -> np.ndarray:
    """A permutation of range(n), stable under ties in the raw words."""
    return np.argsort(raw(seed, stream, n), kind="stable")


def index_subset(seed: int, stream: int, n: int, k: int) -> np.ndarray:
    """``k`` distinct indices sampled uniformly without replacement from range(n)."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} indices from range({n})")
    return permutation(seed, stream, n)[:k]
