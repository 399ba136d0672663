"""On-disk formats for tensors, sketches, update streams, and factorizations.

All integers are little-endian; all payloads are float64 little-endian with
the first index varying fastest (column-major).  Writes go through a
temporary file and an atomic rename, so a crashed write never leaves a
half-written file at the target path.

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


def _atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Reader:
    """Cursor over bytes with offset-aware error reporting."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FileFormatError(
                f"{self.what}: truncated at byte {self.pos} "
                f"(needed {n} more, have {len(self.data) - self.pos})"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise FileFormatError(
                f"{self.what}: bad magic {got!r} at byte 0, expected {magic!r}"
            )

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FileFormatError(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes at "
                f"byte {self.pos}"
            )


def _payload_bytes(a: np.ndarray) -> bytes:
    return np.asarray(a, dtype="<f8").tobytes(order="F")


def _read_payload(r: _Reader, shape: tuple[int, ...]) -> np.ndarray:
    raw = r.take(8 * math.prod(shape))
    return np.frombuffer(raw, dtype="<f8").reshape(shape, order="F").copy()


def _tensor_bytes(x: np.ndarray) -> bytes:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < 1:
        raise ValueError("cannot serialize a scalar as a tensor file")
    head = MAGIC_TENSOR + struct.pack("<BB", _SCALAR_F64, a.ndim)
    head += struct.pack(f"<{a.ndim}Q", *a.shape)
    return head + _payload_bytes(a)


def _read_exact(fh, count: int, what: str) -> bytes:
    pos = fh.tell()
    data = fh.read(count)
    if len(data) != count:
        raise FileFormatError(
            f"{what}: truncated at byte {pos} (needed {count} more, have {len(data)})"
        )
    return data


def _read_header(fh, magic: bytes, what: str, fields: int = 0):
    """Parse ``magic | fields x u8 | u8 order N | N x u64 extents`` from ``fh``.

    Returns the ``fields`` bytes and the shape (``N >= 1`` positive extents).
    """
    got = _read_exact(fh, len(magic), what)
    if got != magic:
        raise FileFormatError(f"{what}: bad magic {got!r} at byte 0, expected {magic!r}")
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
    extra = _bytes_left(fh)
    if extra:
        raise FileFormatError(f"{what}: {extra} trailing bytes at byte {fh.tell()}")
    return out


def write_tensor(path, x) -> None:
    """Write a dense tensor as a TKTN1 file (atomic)."""
    _atomic_write_bytes(path, _tensor_bytes(np.asarray(x, dtype=np.float64)))


def read_tensor(path) -> np.ndarray:
    """Read a TKTN1 file back into a float64 array.

    The payload is read straight into an F-contiguous array (Fortran order
    is the payload's own layout), so the file is never held twice; the
    package's kernels contract that layout in place.
    """
    with open(path, "rb") as fh:
        return _load_tensor(fh, os.fspath(path))


def write_sketch(path, sk: TuckerSketch) -> None:
    """Write a sketch with its parameters as a TKSK1 file (atomic)."""
    p = sk.params
    n = p.order
    body = MAGIC_SKETCH + struct.pack(
        "<BBBB", n, _KIND_CODES[p.omega_kind], _KIND_CODES[p.phi_kind], 0
    )
    body += struct.pack("<Q", p.master_seed & (2**64 - 1))
    body += struct.pack("<d", p.density)
    body += struct.pack(f"<{n}Q", *sk.shape)
    body += struct.pack(f"<{n}Q", *p.k)
    body += struct.pack(f"<{n}Q", *p.s)
    for v in sk.factor_sketches:
        body += _payload_bytes(v)
    body += _payload_bytes(sk.core_sketch)
    body += struct.pack("<I", zlib.crc32(body))
    _atomic_write_bytes(path, body)


def read_sketch(path) -> TuckerSketch:
    """Read and validate a TKSK1 file (including its checksum)."""
    what = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise FileFormatError(f"{what}: too short to hold a checksum")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc:
        raise FileFormatError(f"{what}: checksum mismatch, file is corrupt")
    r = _Reader(body, what)
    r.expect_magic(MAGIC_SKETCH)
    n, om_code, phi_code, _pad = r.unpack("BBBB")
    if n < 1:
        raise FileFormatError(f"{what}: order must be >= 1")
    if om_code not in _KIND_NAMES or phi_code not in _KIND_NAMES:
        raise FileFormatError(f"{what}: unknown map kind code at byte 6")
    (seed,) = r.unpack("Q")
    (density,) = r.unpack("d")
    shape = tuple(int(d) for d in r.unpack(f"{n}Q"))
    k = tuple(int(d) for d in r.unpack(f"{n}Q"))
    s = tuple(int(d) for d in r.unpack(f"{n}Q"))
    try:
        params = SketchParams(
            k=k,
            s=s,
            master_seed=seed,
            omega_kind=_KIND_NAMES[om_code],
            phi_kind=_KIND_NAMES[phi_code],
            density=density,
        )
    except ValueError as exc:
        raise FileFormatError(f"{what}: invalid parameters ({exc})") from exc
    vs = tuple(_read_payload(r, (shape[i], k[i])) for i in range(n))
    core = _read_payload(r, s)
    r.done()
    try:
        return TuckerSketch(
            params=params, shape=shape, factor_sketches=vs, core_sketch=core
        )
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
    """Write a TKUS1 update stream (atomic)."""
    shape = tuple(int(d) for d in shape)
    n = len(shape)
    out = bytearray()
    out += MAGIC_STREAM + struct.pack("<B", n) + struct.pack(f"<{n}Q", *shape)
    for rec in updates:
        if isinstance(rec, FullUpdate):
            a = np.asarray(rec.tensor, dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"full update has shape {a.shape}, expected {shape}")
            out += struct.pack("<Bdd", _REC_FULL, rec.theta1, rec.theta2)
            out += _payload_bytes(a)
        elif isinstance(rec, SlabUpdate):
            a = np.asarray(rec.slab, dtype=np.float64)
            if not 0 <= rec.mode < n:
                raise ValueError(f"slab mode {rec.mode} out of range")
            want = shape[: rec.mode] + (a.shape[rec.mode],) + shape[rec.mode + 1 :]
            if a.shape != want or a.shape[rec.mode] < 1:
                raise ValueError(f"slab has shape {a.shape}, expected {want}")
            if rec.offset < 0 or rec.offset + a.shape[rec.mode] > shape[rec.mode]:
                raise ValueError("slab falls outside the tensor")
            out += struct.pack("<Bdd", _REC_SLAB, rec.theta1, rec.theta2)
            out += struct.pack("<BQQ", rec.mode, rec.offset, a.shape[rec.mode])
            out += _payload_bytes(a)
        else:
            raise TypeError(f"unsupported update record {type(rec).__name__}")
    _atomic_write_bytes(path, bytes(out))


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
                sl_shape = shape[:mode] + (int(extent),) + shape[mode + 1 :]
                slab = _read_array(fh, sl_shape, what)
                yield SlabUpdate(
                    theta1=theta1,
                    theta2=theta2,
                    mode=int(mode),
                    offset=int(offset),
                    slab=slab,
                )
            else:
                raise FileFormatError(
                    f"{what}: unknown record type {kind} at byte {fh.tell() - 17}"
                )
    finally:
        fh.close()


def write_tucker(path, fact: TuckerFactorization) -> None:
    """Write a factorization as a deterministic ZIP archive (atomic)."""
    manifest = {
        "format": _ARCHIVE_FORMAT,
        "order": fact.core.ndim,
        "shape": list(fact.shape),
        "rank": list(fact.rank),
    }
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_STORED) as zf:
        entries = [("manifest.json", json.dumps(manifest, sort_keys=True).encode())]
        entries.append(("core.tktn", _tensor_bytes(fact.core)))
        for i, f in enumerate(fact.factors):
            entries.append((f"factor_{i}.tktn", _tensor_bytes(f)))
        for name, data in entries:
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            zf.writestr(info, data)
    _atomic_write_bytes(path, buf.getvalue())


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
