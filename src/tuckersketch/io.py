"""On-disk formats for tensors, sketches, update streams, and factorizations.

All integers are little-endian; all payloads are float64 little-endian with
the first index varying fastest (column-major).  Writers stream headers
and payloads straight into a temporary file, which an atomic rename puts at
the target path, so no file is built in memory and a crashed write never
leaves a half-written file behind.  Every payload goes out through
``_write_array`` and comes back through ``_read_array``.

``TKTN1`` tensor file::

    magic b"TKTN1" | u8 scalar code (0 = float64) | u8 order N
    | N x u64 extents | payload

``TKSK1`` sketch file::

    magic b"TKSK1" | u8 N | u8 omega kind | u8 phi kind | u8 reserved
    | u64 master seed | f64 density
    | N x u64 shape | N x u64 k | N x u64 s
    | V_0 ... V_{N-1} payloads | core payload | u32 crc32 of all prior bytes

``TKUS1`` update stream: header ``magic | u8 N | N x u64 shape`` followed by
records until end of file.  Each record is ``u8 type | f64 theta1 |
f64 theta2`` then, for type 0 (full), a full-shape payload; for type 1
(slab), ``u8 mode | u64 offset | u64 extent`` and the slab payload.

A Tucker factorization is a ZIP archive (stored, fixed timestamps, so equal
inputs give equal bytes) holding ``manifest.json``, ``core.tktn``, and one
``factor_<n>.tktn`` per mode.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from io import BytesIO
from typing import Iterable, Iterator, Union

import numpy as np

from .sketch import SketchParams, TuckerSketch
from .tensor import TuckerFactorization

MAGIC_TENSOR = b"TKTN1"
MAGIC_SKETCH = b"TKSK1"
MAGIC_STREAM = b"TKUS1"
_SCALAR_F64 = 0

_KIND_CODES = {"gaussian": 0, "sparse_sign": 1, "ssrft": 2, "trp": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

_ARCHIVE_FORMAT = "tucker-archive-v1"
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


class FileFormatError(Exception):
    """A file failed structural validation; the message says where."""


@contextlib.contextmanager
def _atomic_write(path):
    """Yield a binary handle on a temporary file beside ``path``.

    The file is renamed onto ``path`` when the block finishes, and removed
    if it raises.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


_WRITE_BLOCK_BYTES = 1 << 22


def _write_array(fh, a: np.ndarray) -> None:
    """Write ``a`` to ``fh`` as a float64 payload, first index fastest.

    An F-contiguous float64 array goes out from its own memory.  Any other
    array is converted one range of its last index at a time: each range is
    one contiguous piece of the payload, so the copy stays near
    ``_WRITE_BLOCK_BYTES``.
    """
    if a.dtype == "<f8" and a.flags.f_contiguous:
        fh.write(memoryview(a.reshape(-1, order="F")).cast("B"))
        return
    step = max(1, _WRITE_BLOCK_BYTES // (8 * math.prod(a.shape[:-1]) or 1))
    for j in range(0, a.shape[-1], step):
        _write_array(fh, np.asarray(a[..., j : j + step], dtype="<f8", order="F"))


def _tensor_header(a: np.ndarray) -> bytes:
    if a.ndim < 1:
        raise ValueError("cannot serialize a scalar as a tensor file")
    return MAGIC_TENSOR + struct.pack(f"<BB{a.ndim}Q", _SCALAR_F64, a.ndim, *a.shape)


def _read_exact(fh, count: int, what: str) -> bytes:
    pos = fh.tell()
    data = fh.read(count)
    if len(data) != count:
        raise FileFormatError(
            f"{what}: truncated at byte {pos} (needed {count} more, have {len(data)})"
        )
    return data


def _read_magic(fh, magic: bytes, what: str) -> None:
    got = _read_exact(fh, len(magic), what)
    if got != magic:
        raise FileFormatError(f"{what}: bad magic {got!r} at byte 0, expected {magic!r}")


def _read_header(fh, magic: bytes, what: str, fields: int = 0):
    """Parse ``magic | fields x u8 | u8 order N | N x u64 extents`` from ``fh``.

    Returns the ``fields`` bytes and the shape (``N >= 1`` positive extents).
    """
    _read_magic(fh, magic, what)
    *head, order = _read_exact(fh, fields + 1, what)
    if order < 1:
        raise FileFormatError(f"{what}: order must be >= 1, got {order}")
    raw = _read_exact(fh, 8 * order, what)
    shape = tuple(int(d) for d in struct.unpack(f"<{order}Q", raw))
    if any(d < 1 for d in shape):
        raise FileFormatError(f"{what}: nonpositive extent in {shape}")
    return tuple(head), shape


def _bytes_left(fh) -> int:
    pos = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(pos)
    return end - pos


def _read_end(fh, what: str) -> None:
    extra = _bytes_left(fh)
    if extra:
        raise FileFormatError(f"{what}: {extra} trailing bytes at byte {fh.tell()}")


def _read_array(fh, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Read a payload of ``shape`` from ``fh`` straight into an F-order array.

    The file must hold the whole payload before anything is allocated, so a
    corrupt extent fails as a truncated file, not as a huge allocation.
    """
    nbytes = 8 * math.prod(shape)
    pos = fh.tell()
    have = _bytes_left(fh)
    if have < nbytes:
        raise FileFormatError(
            f"{what}: truncated at byte {pos} (needed {nbytes} more, have {have})"
        )
    out = np.empty(shape, dtype="<f8", order="F")
    if fh.readinto(out.reshape(-1, order="F")) != nbytes:
        raise FileFormatError(f"{what}: short read of the payload at byte {pos}")
    return out.astype(np.float64, copy=False)


def _load_tensor(fh, what: str) -> np.ndarray:
    """Parse a TKTN1 tensor from the start of ``fh`` to its end."""
    (scalar,), shape = _read_header(fh, MAGIC_TENSOR, what, fields=1)
    if scalar != _SCALAR_F64:
        raise FileFormatError(f"{what}: unknown scalar code {scalar} at byte 5")
    out = _read_array(fh, shape, what)
    _read_end(fh, what)
    return out


def write_tensor(path, x) -> None:
    """Write a dense tensor as a TKTN1 file (atomic)."""
    a = np.asarray(x)
    head = _tensor_header(a)
    with _atomic_write(path) as fh:
        fh.write(head)
        _write_array(fh, a)


def read_tensor(path) -> np.ndarray:
    """Read a TKTN1 file back into a float64 array.

    The payload is read straight into an F-contiguous array (Fortran order
    is the payload's own layout), so the file is never held twice; the
    package's kernels contract that layout in place.
    """
    with open(path, "rb") as fh:
        return _load_tensor(fh, os.fspath(path))


class _Crc32Writer:
    """Writes through to ``fh``, keeping the CRC-32 of everything written."""

    def __init__(self, fh):
        self.fh = fh
        self.crc = 0

    def write(self, data) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.fh.write(data)


def write_sketch(path, sk: TuckerSketch) -> None:
    """Write a sketch with its parameters as a TKSK1 file (atomic)."""
    p = sk.params
    n = p.order
    with _atomic_write(path) as fh:
        out = _Crc32Writer(fh)
        out.write(MAGIC_SKETCH + struct.pack(
            f"<BBBBQd{3 * n}Q", n, _KIND_CODES[p.omega_kind], _KIND_CODES[p.phi_kind],
            0, p.master_seed & (2**64 - 1), p.density, *sk.shape, *p.k, *p.s,
        ))
        for v in sk.factor_sketches:
            _write_array(out, v)
        _write_array(out, sk.core_sketch)
        fh.write(struct.pack("<I", out.crc))


def read_sketch(path) -> TuckerSketch:
    """Read and validate a TKSK1 file (including its checksum).

    The body (all but the checksum) is read once and parsed from memory, so
    it ends exactly where the checksum starts; a sketch is small by design.
    """
    what = os.fspath(path)
    with open(path, "rb") as fh:
        body = fh.read(max(os.fstat(fh.fileno()).st_size - 4, 0))
        tail = fh.read()
    if len(tail) != 4:
        raise FileFormatError(f"{what}: too short to hold a checksum")
    if zlib.crc32(body) != struct.unpack("<I", tail)[0]:
        raise FileFormatError(f"{what}: checksum mismatch, file is corrupt")
    fh = BytesIO(body)
    _read_magic(fh, MAGIC_SKETCH, what)
    n, om_code, phi_code, _pad = _read_exact(fh, 4, what)
    if n < 1:
        raise FileFormatError(f"{what}: order must be >= 1")
    if om_code not in _KIND_NAMES or phi_code not in _KIND_NAMES:
        raise FileFormatError(f"{what}: unknown map kind code at byte 6")
    (seed,) = struct.unpack("<Q", _read_exact(fh, 8, what))
    (density,) = struct.unpack("<d", _read_exact(fh, 8, what))
    shape, k, s = (struct.unpack(f"<{n}Q", _read_exact(fh, 8 * n, what)) for _ in range(3))
    try:
        params = SketchParams(k=k, s=s, master_seed=seed, omega_kind=_KIND_NAMES[om_code],
                              phi_kind=_KIND_NAMES[phi_code], density=density)
    except ValueError as exc:
        raise FileFormatError(f"{what}: invalid parameters ({exc})") from exc
    vs = tuple(_read_array(fh, (shape[i], k[i]), what) for i in range(n))
    core = _read_array(fh, s, what)
    _read_end(fh, what)
    try:
        return TuckerSketch(params=params, shape=shape, factor_sketches=vs, core_sketch=core)
    except ValueError as exc:
        raise FileFormatError(f"{what}: inconsistent sketch ({exc})") from exc


@dataclass(frozen=True)
class FullUpdate:
    """Record: fold ``theta1 * X + theta2 * tensor`` into the sketch."""

    theta1: float
    theta2: float
    tensor: np.ndarray


@dataclass(frozen=True)
class SlabUpdate:
    """Record: same, but the update lives on a contiguous block of one mode."""

    theta1: float
    theta2: float
    mode: int
    offset: int
    slab: np.ndarray


UpdateRecord = Union[FullUpdate, SlabUpdate]

_REC_FULL = 0
_REC_SLAB = 1


def write_update_stream(path, shape, updates: Iterable[UpdateRecord]) -> None:
    """Write a TKUS1 update stream (atomic), one record at a time."""
    shape = tuple(int(d) for d in shape)
    n = len(shape)
    with _atomic_write(path) as fh:
        fh.write(MAGIC_STREAM + struct.pack(f"<B{n}Q", n, *shape))
        for rec in updates:
            if isinstance(rec, FullUpdate):
                a = np.asarray(rec.tensor)
                if a.shape != shape:
                    raise ValueError(f"full update has shape {a.shape}, expected {shape}")
                fh.write(struct.pack("<Bdd", _REC_FULL, rec.theta1, rec.theta2))
            elif isinstance(rec, SlabUpdate):
                a = np.asarray(rec.slab)
                if not 0 <= rec.mode < n:
                    raise ValueError(f"slab mode {rec.mode} out of range")
                want = shape[: rec.mode] + (a.shape[rec.mode],) + shape[rec.mode + 1 :]
                if a.shape != want or a.shape[rec.mode] < 1:
                    raise ValueError(f"slab has shape {a.shape}, expected {want}")
                if rec.offset < 0 or rec.offset + a.shape[rec.mode] > shape[rec.mode]:
                    raise ValueError("slab falls outside the tensor")
                fh.write(struct.pack("<BddBQQ", _REC_SLAB, rec.theta1, rec.theta2,
                                     rec.mode, rec.offset, a.shape[rec.mode]))
            else:
                raise TypeError(f"unsupported update record {type(rec).__name__}")
            _write_array(fh, a)


def read_update_stream(path) -> tuple[tuple[int, ...], Iterator[UpdateRecord]]:
    """Open a TKUS1 stream: returns the shape and a lazy record iterator.

    Records are parsed one at a time, so a stream much larger than memory
    can be consumed; the file handle closes when the iterator is exhausted
    or dropped.  Each payload is read straight into an F-contiguous array
    (its on-disk layout), which the sketcher contracts in place.
    """
    what = os.fspath(path)
    fh = open(path, "rb")
    try:
        _, shape = _read_header(fh, MAGIC_STREAM, what)
    except BaseException:
        fh.close()
        raise
    return shape, _iter_records(fh, shape, what)


def _iter_records(fh, shape: tuple[int, ...], what: str) -> Iterator[UpdateRecord]:
    try:
        while True:
            tag = fh.read(1)
            if tag == b"":
                return
            kind = tag[0]
            theta1, theta2 = struct.unpack("<dd", _read_exact(fh, 16, what))
            if kind == _REC_FULL:
                tensor = _read_array(fh, shape, what)
                yield FullUpdate(theta1=theta1, theta2=theta2, tensor=tensor)
            elif kind == _REC_SLAB:
                mode, offset, extent = struct.unpack("<BQQ", _read_exact(fh, 17, what))
                if mode >= len(shape):
                    raise FileFormatError(f"{what}: slab mode {mode} out of range")
                if extent < 1 or offset + extent > shape[mode]:
                    raise FileFormatError(
                        f"{what}: slab rows {offset}:{offset + extent} outside "
                        f"extent {shape[mode]}"
                    )
                slab = _read_array(fh, shape[:mode] + (int(extent),) + shape[mode + 1 :], what)
                yield SlabUpdate(theta1, theta2, int(mode), int(offset), slab)
            else:
                raise FileFormatError(
                    f"{what}: unknown record type {kind} at byte {fh.tell() - 17}"
                )
    finally:
        fh.close()


def write_tucker(path, fact: TuckerFactorization) -> None:
    """Write a factorization as a deterministic ZIP archive (atomic).

    Each member streams into the archive; its size is set before it is
    opened, so the archive holds the same bytes as one built in memory.
    """
    manifest = {
        "format": _ARCHIVE_FORMAT,
        "order": fact.core.ndim,
        "shape": list(fact.shape),
        "rank": list(fact.rank),
    }
    members = [("core.tktn", fact.core)]
    members += [(f"factor_{i}.tktn", f) for i, f in enumerate(fact.factors)]
    with _atomic_write(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        info = zipfile.ZipInfo("manifest.json", date_time=_ZIP_EPOCH)
        zf.writestr(info, json.dumps(manifest, sort_keys=True).encode())
        for name, a in members:
            head = _tensor_header(a)
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            info.file_size = len(head) + 8 * a.size
            with zf.open(info, "w") as member:
                member.write(head)
                _write_array(member, a)


def read_tucker(path) -> TuckerFactorization:
    """Read a factorization archive, validating its manifest against members."""
    what = os.fspath(path)
    try:
        zf = zipfile.ZipFile(path, "r")
    except zipfile.BadZipFile as exc:
        raise FileFormatError(f"{what}: not a factorization archive ({exc})") from exc
    with zf:
        try:
            manifest = json.loads(zf.read("manifest.json"))
        except KeyError:
            raise FileFormatError(f"{what}: missing manifest.json") from None
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{what}: unreadable manifest ({exc})") from exc
        if manifest.get("format") != _ARCHIVE_FORMAT:
            raise FileFormatError(
                f"{what}: unknown archive format {manifest.get('format')!r}"
            )
        order = manifest.get("order")
        if not isinstance(order, int) or order < 1:
            raise FileFormatError(f"{what}: bad order in manifest")
        try:
            core = _load_tensor(BytesIO(zf.read("core.tktn")), f"{what}:core.tktn")
            factors = tuple(
                _load_tensor(BytesIO(zf.read(f"factor_{i}.tktn")), f"{what}:factor_{i}.tktn")
                for i in range(order)
            )
        except KeyError as exc:
            raise FileFormatError(f"{what}: missing member {exc}") from None
    try:
        fact = TuckerFactorization(core=core, factors=factors)
    except ValueError as exc:
        raise FileFormatError(f"{what}: inconsistent members ({exc})") from exc
    if list(fact.shape) != manifest.get("shape") or list(fact.rank) != manifest.get("rank"):
        raise FileFormatError(f"{what}: manifest does not match members")
    return fact
