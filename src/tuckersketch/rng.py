"""Counter-based random streams that regenerate identically from a seed.

Everything random in the package flows through Philox ``random_raw``
(a version-stable uint64 stream under numpy's compatibility policy) plus
fixed arithmetic: uniforms from the top 53 bits, normals via the inverse
normal CDF, permutations by sorting raw words, signs from the low bit.
Generator convenience methods are deliberately not used, so a sketch file
can be rebuilt from ``(seed, kind)`` alone on any numpy >= the pin.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


def raw(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` raw uint64 words from the (seed, stream) counter stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(int(count))


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """Doubles in (0, 1) from raw words: ``(top 53 bits + 0.5) * 2**-53``.

    The top 2**11 words would round to exactly 1.0 (an infinite normal), so
    that one value is clamped to the largest double below 1.0; every other
    word keeps its value.
    """
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """Doubles in (0, 1), one per raw word."""
    return unit_doubles(raw(seed, stream, count))


def gaussians(seed: int, stream: int, shape) -> np.ndarray:
    """Standard normals via the inverse CDF, reshaped C-order to ``shape``."""
    n = int(np.prod(shape, dtype=np.int64)) if np.ndim(shape) else int(shape)
    return ndtri(uniforms(seed, stream, n)).reshape(shape)


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
