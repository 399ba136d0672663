"""Counter-based random streams that regenerate identically from a seed.

Everything random in the package flows through Philox ``random_raw``
(a version-stable uint64 stream under numpy's compatibility policy) plus
fixed arithmetic: uniforms from the top 53 bits, normals via the inverse
normal CDF, permutations by sorting raw words, signs from the low bit.
Generator convenience methods are deliberately not used, so a sketch file
can be rebuilt from ``(seed, kind)`` alone on any numpy >= the pin.  The
inverse CDF is Cephes ``ndtri``: scipy's for large arrays, and for arrays
of at most :data:`NDTRI_PORT_MAX` values a port with the same bits
(:func:`_ndtri`), so drawing them loads no scipy.

Any run of a stream can be read from its word offset on (:func:`raw`), so
values derived one per word are generated :data:`BLOCK_WORDS` words at a
time straight into their destination (:func:`fill`), and any block of
them is generated alone, with the same bits as the whole.
"""

from __future__ import annotations

import math
import platform
import sys

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BLOCK_WORDS = 1 << 16
"""Words :func:`fill` reads from a stream at a time (512 KiB)."""
NDTRI_PORT_MAX = 1 << 20
"""Values of the largest array :func:`ndtri_for` draws through the port."""


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


def raw(seed: int, stream: int, count: int, offset: int = 0) -> np.ndarray:
    """``count`` raw uint64 words of the (seed, stream) counter stream, from
    word ``offset`` on: the slice ``offset:offset + count`` of the stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    # Philox makes four words per counter step: step to the four that hold
    # word ``offset``, then drop the ones before it.
    bitgen.advance(offset // 4)
    bitgen.random_raw(offset % 4)
    return bitgen.random_raw(int(count))


def fill(out: np.ndarray, seed: int, stream: int, offset: int, values) -> np.ndarray:
    """Fill the C-contiguous ``out`` from words ``offset, offset + 1, ...``
    of the stream, one element per word, and return it.

    ``values(words, dst)`` writes the values of ``words`` into ``dst``; it
    is called on one block of at most :data:`BLOCK_WORDS` words at a time,
    so the words and whatever ``values`` derives from them stay that small.
    """
    flat = out.reshape(-1)
    for j in range(0, flat.size, BLOCK_WORDS):
        dst = flat[j : j + BLOCK_WORDS]
        values(raw(seed, stream, dst.size, offset + j), dst)
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
    nothing; a larger array uses ``scipy.special.ndtri`` (imported here),
    whose ufunc costs about a third as much per value.  The two agree bit
    for bit, so the choice only moves where and when scipy is imported.  At
    the limit, the three factor maps of an order-3 sketch draw about 3.1 M
    values, and the port's extra cost on them stays under that of
    importing ``scipy.special`` (about 0.25 s); past it, the per-value gap
    outweighs the import.  The choice is made once for a whole array or
    map, by its size: by row blocks, a large map would draw through the
    port at three times the cost.
    """
    if count <= NDTRI_PORT_MAX:
        return _ndtri
    from scipy.special import ndtri

    return lambda y: ndtri(y, out=y)


def gaussians(seed: int, stream: int, shape, offset: int = 0, ndtri=None) -> np.ndarray:
    """Standard normals via the inverse CDF, one per word from word
    ``offset`` on, laid out C-order in ``shape``; generated by :func:`fill`.

    ``ndtri`` is the function :func:`ndtri_for` gives the whole array the
    values belong to; by default, the one for ``shape`` itself.  So an
    array of at most :data:`NDTRI_PORT_MAX` values loads no scipy.
    """
    out = np.empty(shape)
    if ndtri is None:
        ndtri = ndtri_for(out.size)

    def normals(words, dst):
        ndtri(unit_doubles(words, dst))

    return fill(out, seed, stream, offset, normals)


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


_X87 = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_LOG_MARGIN = 0.47 if _X87 and platform.libc_ver()[0] == "glibc" else 0.0
"""A long-double ``log`` within this many ulps of a double D settles libm's
``log`` as D: glibc's ``log`` errs by at most about 0.52 ulp where
``|log x| > 1/16`` (both tail logs of ndtri have ``|log x| >= 0.69``), and
x87 ``logl`` by far less than 0.01 ulp of a double, so libm cannot return
a neighbour of D, 1 ulp away.  It is 0, which settles no value and sends
every ``log`` through ``math.log``, unless the long double is x87 extended
(64-bit significand, little-endian) and libm is glibc."""
_MANTISSA = np.uint64((1 << 52) - 1)
_NDTRI_PIECE = 1 << 14
"""Values :func:`_ndtri` computes at a time, so its temporaries stay a
bounded share of a block of words whichever branches the values take."""


def _libm_log(x: np.ndarray) -> np.ndarray:
    """``log`` of each value of the 1-D ``x`` by libm, the ``log`` Cephes
    calls; numpy's SIMD ``log`` differs from it in the last bit on some CPUs.

    ``np.log`` of the values as long doubles (x87 ``logl``) is rounded to a
    double D; where it lies within :data:`_LOG_MARGIN` ulp of D, and D is
    not a power of two (whose ulp below is half the one above), libm's
    ``log`` is D.  The rest, about 6% of the values, go through ``math.log``.
    """
    wide = x.astype(np.longdouble)
    np.log(wide, out=wide)
    out = wide.astype(np.float64)
    # The low 11 of the 64 significand bits (the first 8 bytes of an x87
    # long double): how far past the double below it the long double lies,
    # in 2048ths of an ulp.  Unsure: at least the margin away from both
    # doubles around it, or D a power of two.
    significand = np.ndarray(x.shape, np.uint64, wide, strides=(wide.itemsize,))
    from_tie = np.subtract(significand & np.uint64(0x7FF), 1024.0)
    unsure = np.abs(from_tie, out=from_tie) <= 1024 * (1 - 2 * _LOG_MARGIN)
    unsure |= (out.view(np.uint64) & _MANTISSA) == 0
    redo = np.flatnonzero(unsure)
    out[redo] = np.fromiter(map(math.log, memoryview(x[redo])), np.float64, redo.size)
    return out


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
    harmless."""
    tail = np.flatnonzero((y <= _EXPM2) | (y > 1.0 - _EXPM2))
    t = y[tail]
    upper = t > 1.0 - _EXPM2  # reflected to 1 - y, and not negated
    np.subtract(1.0, t, out=t, where=upper)
    x = _libm_log(t)
    del t
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = _libm_log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    far = np.flatnonzero(x >= 8.0)  # y < exp(-32): P2/Q2, almost never
    z = np.divide(1.0, x, out=x)
    x1 = _ratio(z, _P1, _Q1)
    x1[far] = _ratio(z[far], _P2, _Q2)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper)
    del x, z, x1, upper
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
