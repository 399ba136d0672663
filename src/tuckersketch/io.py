"""On-disk formats for tensors, sketches, update streams, and factorizations.

All integers are little-endian; all payloads are float64 little-endian with
the first index varying fastest (column-major).  Writers stream headers
and payloads straight into a temporary file, which an atomic rename puts at
the target path, so no file is built in memory and a crashed write never
leaves a half-written file behind.  Every payload goes out through
``_write_array`` and comes back through ``_read_into``, which fills an
array in place.  Sizes are checked against the end of the file or archive
member, without seeking, before anything is read.

Tensor files and update streams are read through one piece reader, which
cuts every payload along the last mode, where each range of planes is one
contiguous run of it: a tensor file, a full stream record and a stream slab
record along the last mode arrive as last-mode pieces of at most 8 MiB (one
plane of the last mode at the least).  A slab record along any other mode
arrives as boxes, its rows times a range of last-mode planes, of at most a
size the caller gives (8 MiB at most, one plane of the record at the
least).  All are read into one reused buffer.  The command line sketches
and scores tensor files and streams this way (``read_tensor_slabs``,
``read_stream_pieces``), so no tensor or record is held in memory whole.  A
recovery's passes over a tensor file read pieces of at most 1 MiB instead:
they contract each piece against k-column bases only, so their memory
follows what they compute, not what they read.  A sketch file's core
sketch is checked, and read for merging and one-pass recovery, in last-mode
slabs of at most 256 KiB (``read_sketch_slabs``); ``read_sketch`` reads it whole.

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
import itertools
import json
import math
import os
import struct
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

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
    if it raises.  It is made with mode 0o666 less the umask, as ``open``
    would make ``path`` itself.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


_WRITE_BLOCK_BYTES = 1 << 22
# Tensor files and stream records are read in last-mode pieces of at most
# this many scalars (8 MiB), or one plane of the last mode if a plane is larger.
_READ_SLAB_SCALARS = 1 << 20
# A recovery's passes over a tensor file (the two-pass core, which also
# scores a two-pass error, and the expansion that scores the rest) read
# last-mode pieces of at most this many scalars (1 MiB), one plane at the
# least.
_RECOVER_SLAB_SCALARS = 1 << 17
# A sketch file's core sketch is checked, and merge and one-pass recovery
# read it, in last-mode slabs of at most this many scalars (256 KiB), one
# plane at the least: a slab goes through products no larger than itself,
# so a small one keeps a merge's or a recovery's memory near its outputs.
_SKETCH_SLAB_SCALARS = 1 << 15
# Payloads are read in pieces of this many bytes: a handle without a native
# ``readinto`` (an archive member) copies through one piece at a time.
_READ_CHUNK_BYTES = 1 << 16


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


def _read_exact(fh, count: int, what: str, end: int | None = None) -> bytes:
    """``count`` bytes from ``fh``, failing as a truncated file unless they
    all lie before ``end`` (if given) and the file holds them."""
    if end is not None:
        _need(fh, count, end, what)
    pos = fh.tell()
    data = fh.read(count)
    if len(data) != count:
        raise FileFormatError(
            f"{what}: truncated at byte {pos} (needed {count} more, have {len(data)})"
        )
    return data


def _read_magic(fh, magic: bytes, what: str, end: int | None = None) -> None:
    got = _read_exact(fh, len(magic), what, end)
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


def _need(fh, nbytes: int, end: int, what: str) -> None:
    """Fail as a truncated file unless ``nbytes`` more bytes lie before ``end``."""
    pos = fh.tell()
    if end - pos < nbytes:
        raise FileFormatError(
            f"{what}: truncated at byte {pos} (needed {nbytes} more, have {end - pos})"
        )


def _read_into(fh, flat: np.ndarray, what: str) -> None:
    """Fill the contiguous array ``flat`` from ``fh``, one piece at a time."""
    pos = fh.tell()
    view = memoryview(flat).cast("B")
    for i in range(0, len(view), _READ_CHUNK_BYTES):
        piece = view[i : i + _READ_CHUNK_BYTES]
        if fh.readinto(piece) != len(piece):
            raise FileFormatError(f"{what}: short read of the payload at byte {pos}")


def _read_array(fh, shape: tuple[int, ...], end: int, what: str) -> np.ndarray:
    """Read a payload of ``shape`` from ``fh`` straight into an F-order array.

    The file must hold the whole payload before ``end`` before anything is
    allocated, so a corrupt extent fails as a truncated file, not as a huge
    allocation.
    """
    _need(fh, 8 * math.prod(shape), end, what)
    out = np.empty(shape, dtype="<f8", order="F")
    _read_into(fh, out.reshape(-1, order="F"), what)
    return out.astype(np.float64, copy=False)


class _PieceReader:
    """Reads payloads of blocks of a tensor of ``shape`` from ``fh`` in pieces.

    Every block is cut along the last mode, where each range of planes is
    one contiguous run of its F-order payload.  A block along the last mode
    comes in pieces of at most ``scalars`` scalars; a block along any other
    mode comes in boxes, its rows of that mode times a range of last-mode
    planes, of at most ``box`` scalars (``scalars`` if not given, and never
    more).  One plane of the block is the floor.  Pieces are F-order arrays
    in one reused buffer, so a piece is valid only until the next is read; a
    piece larger than the buffer's capacity gets an array of its own.  With
    ``scalars=None`` every block is one piece in an array of its own.
    """

    def __init__(self, fh, shape: tuple[int, ...], end: int, what: str, scalars: int | None,
                 box: int | None = None):
        self.fh, self.shape, self.end, self.what = fh, shape, end, what
        self.scalars = scalars
        self.box = scalars if box is None or scalars is None else min(box, scalars)
        plane = math.prod(shape[:-1])
        self.capacity = 0 if scalars is None else plane * min(max(1, scalars // plane), shape[-1])
        # Grown to the largest piece read so far, so it never outgrows
        # what the file has been checked to hold.
        self.buf = np.empty(0, dtype="<f8")

    def pieces(self, mode: int, offset: int, extent: int):
        """Yield rows ``offset:offset + extent`` of ``mode`` as ``(offset,
        last_offset, piece)`` triples, after checking that the whole payload
        lies before the end of the file.  Along the last mode ``offset`` is
        each piece's own and ``last_offset`` is None; along any other,
        ``last_offset`` is the first last-mode plane of each box."""
        last = len(self.shape) - 1
        dims = self.shape[:mode] + (extent,) + self.shape[mode + 1 :]
        plane = math.prod(dims[:-1])
        _need(self.fh, 8 * plane * dims[-1], self.end, self.what)
        budget = self.scalars if mode == last else self.box
        step = dims[-1] if budget is None else max(1, budget // plane)
        for j in range(0, dims[-1], step):
            c = min(step, dims[-1] - j)
            flat = self._flat(plane * c)
            _read_into(self.fh, flat, self.what)
            piece = flat.reshape(dims[:-1] + (c,), order="F").astype(np.float64, copy=False)
            yield (offset + j, None, piece) if mode == last else (offset, j, piece)

    def _flat(self, n: int) -> np.ndarray:
        if n > self.capacity:
            return np.empty(n, dtype="<f8")
        if n > self.buf.size:
            self.buf = np.empty(n, dtype="<f8")
        return self.buf[:n]


def _tensor_shape(fh, end: int, what: str) -> tuple[int, ...]:
    """Check a TKTN1 file from the start of ``fh`` to ``end``: header, and a
    payload that fills the rest exactly.  Returns the shape, with ``fh`` at
    the payload."""
    (scalar,), shape = _read_header(fh, MAGIC_TENSOR, what, fields=1)
    if scalar != _SCALAR_F64:
        raise FileFormatError(f"{what}: unknown scalar code {scalar} at byte 5")
    nbytes = 8 * math.prod(shape)
    _need(fh, nbytes, end, what)
    extra = end - fh.tell() - nbytes
    if extra:
        raise FileFormatError(f"{what}: {extra} trailing bytes at byte {fh.tell() + nbytes}")
    return shape


def _load_tensor(fh, end: int, what: str) -> np.ndarray:
    """Parse a TKTN1 tensor from the start of ``fh`` to ``end``."""
    return _read_array(fh, _tensor_shape(fh, end, what), end, what)


def _file_size(fh) -> int:
    return os.fstat(fh.fileno()).st_size


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
        return _load_tensor(fh, _file_size(fh), os.fspath(path))


def read_tensor_slabs(
    path, recovery: bool = False
) -> tuple[tuple[int, ...], Iterator[tuple[int, np.ndarray]]]:
    """Open a TKTN1 file for reading in last-mode slabs.

    Returns the shape and a lazy iterator of ``(offset, slab)``: ``slab``
    holds rows ``offset:offset + c`` of the last mode, an F-order view of
    at most ``_READ_SLAB_SCALARS`` scalars (8 MiB), or of one plane of the
    last mode if a plane is larger.  With ``recovery=True`` slabs hold at
    most ``_RECOVER_SLAB_SCALARS`` scalars (1 MiB), one plane at the least:
    a recovery contracts each slab against bases of k columns, so a small
    slab costs it little time and keeps its memory near its outputs.  The
    payload is Fortran-order, so each slab is one contiguous piece of the
    file.  The whole file is checked (header, payload size, trailing bytes)
    before this returns.  Slabs are read into one reused buffer, so a slab
    is valid only until the next is requested.  The file closes when the
    iterator is exhausted or dropped.
    """
    slabs = _iter_slabs(path, _RECOVER_SLAB_SCALARS if recovery else _READ_SLAB_SCALARS)
    return next(slabs), slabs


def _iter_slabs(path, scalars: int):
    """Yield the checked shape, then the slabs.  Started by its first
    ``next``, the generator owns the open file from then on."""
    what = os.fspath(path)
    with open(path, "rb") as fh:
        end = _file_size(fh)
        shape = _tensor_shape(fh, end, what)
        yield shape
        reader = _PieceReader(fh, shape, end, what, scalars)
        for offset, _, slab in reader.pieces(len(shape) - 1, 0, shape[-1]):
            yield offset, slab


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
            0, p.master_seed, p.density, *sk.shape, *p.k, *p.s,
        ))
        for v in sk.factor_sketches:
            _write_array(out, v)
        _write_array(out, sk.core_sketch)
        fh.write(struct.pack("<I", out.crc))


class SketchHead(NamedTuple):
    """What a TKSK1 file holds beside its core sketch."""

    params: SketchParams
    shape: tuple[int, ...]
    factor_sketches: tuple[np.ndarray, ...]


def read_sketch(path) -> TuckerSketch:
    """Read and validate a TKSK1 file (including its checksum).

    A payload holding NaN or Inf is rejected: a sketch that is not finite
    would poison every merge and recovery made from it.

    This is :func:`read_sketch_slabs` with the core sketch read as one
    piece into its own array, which the sketch takes over: the read holds
    the arrays it parses once, never the file body.
    """
    slabs = _sketch_slabs(path, None)
    head = next(slabs)
    (_, h), = slabs
    return TuckerSketch(params=head.params, shape=head.shape,
                        factor_sketches=head.factor_sketches, core_sketch=h, _owned=True)


def read_sketch_slabs(path) -> tuple[SketchHead, Iterator[tuple[int, np.ndarray]]]:
    """Open a TKSK1 file for reading its core sketch in last-mode slabs.

    Every check of :func:`read_sketch` runs, in the same order, before this
    returns the parameters, shape and factor sketches: the core sketch is
    checked for finiteness a slab at a time and dropped.  The lazy iterator
    then reads it again as ``(offset, slab)``: planes ``offset:offset + c``
    of the last mode, F-order arrays of at most ``_SKETCH_SLAB_SCALARS``
    scalars (256 KiB), one plane at the least, in one reused buffer, so a
    slab is valid only until the next is requested.  The file closes when
    the iterator is exhausted or dropped.
    """
    slabs = _sketch_slabs(path, _SKETCH_SLAB_SCALARS)
    return next(slabs), slabs


def sketch_core_slabs(core: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The slabs :func:`read_sketch_slabs` reads, as views of an F-order
    core sketch in memory."""
    step = max(1, _SKETCH_SLAB_SCALARS // math.prod(core.shape[:-1]))
    return ((j, core[..., j : j + step]) for j in range(0, core.shape[-1], step))


def _sketch_slabs(path, scalars: int | None):
    """Check a TKSK1 file and yield its head, then its core sketch's
    last-mode slabs of at most ``scalars`` scalars (``None``: one slab, read
    once, into its own array).  Started by its first ``next``, the generator
    owns the open file from then on.

    The checksum is taken in ``_READ_CHUNK_BYTES`` pieces, so a damaged file
    fails as a checksum mismatch before any parse error.  The parse then
    reads every array straight into place and stops where the checksum
    starts: header, parameters, factor sketches, the core sketch's size
    with no trailing bytes, then the finiteness of every array.
    """
    what = os.fspath(path)
    with open(path, "rb") as fh:
        end = _file_size(fh) - 4
        if end < 0:
            raise FileFormatError(f"{what}: too short to hold a checksum")
        crc = 0
        for chunk in iter(lambda: fh.read(min(_READ_CHUNK_BYTES, end - fh.tell())), b""):
            crc = zlib.crc32(chunk, crc)
        if fh.read() != struct.pack("<I", crc):
            raise FileFormatError(f"{what}: checksum mismatch, file is corrupt")
        fh.seek(0)
        _read_magic(fh, MAGIC_SKETCH, what, end)
        n, om_code, phi_code, _pad = _read_exact(fh, 4, what, end)
        if n < 1:
            raise FileFormatError(f"{what}: order must be >= 1")
        if om_code not in _KIND_NAMES or phi_code not in _KIND_NAMES:
            raise FileFormatError(f"{what}: unknown map kind code at byte 6")
        seed, density = struct.unpack("<Qd", _read_exact(fh, 16, what, end))
        shape, k, s = (struct.unpack(f"<{n}Q", _read_exact(fh, 8 * n, what, end))
                       for _ in range(3))
        try:
            with warnings.catch_warnings():
                # s_n <= 2 k_n was warned about when the sketch was made.
                warnings.simplefilter("ignore", UserWarning)
                params = SketchParams(k=k, s=s, master_seed=seed,
                                      omega_kind=_KIND_NAMES[om_code],
                                      phi_kind=_KIND_NAMES[phi_code], density=density)
        except ValueError as exc:
            raise FileFormatError(f"{what}: invalid parameters ({exc})") from exc
        vs = tuple(_read_array(fh, (shape[i], k[i]), end, what) for i in range(n))
        core_at, nbytes = fh.tell(), 8 * math.prod(s)
        _need(fh, nbytes, end, what)
        extra = end - core_at - nbytes
        if extra:
            raise FileFormatError(f"{what}: {extra} trailing bytes at byte {core_at + nbytes}")
        for i, v in enumerate(vs):
            _check_finite(v, what, f"factor sketch {i}")
        reader = _PieceReader(fh, s, end, what, scalars)
        for _, _, slab in reader.pieces(n - 1, 0, s[-1]):
            _check_finite(slab, what, "core sketch")
        yield SketchHead(params, shape, vs)
        if scalars is None:  # the one slab, in its own array
            yield 0, slab
            return
        fh.seek(core_at)
        for offset, _, slab in reader.pieces(n - 1, 0, s[-1]):
            yield offset, slab


def _check_finite(a: np.ndarray, what: str, name: str) -> None:
    # min and max propagate NaN and hold no temporary the size of ``a``.
    if not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise FileFormatError(f"{what}: non-finite values in the {name}")


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


class Piece(NamedTuple):
    """Rows ``offset:offset + c`` along ``mode`` of an update: fold in
    ``theta1 * X + theta2 * data`` (``data`` zero-padded to the full shape).

    ``record`` is the index of the stream record the piece belongs to.  Only
    a record's first piece carries its ``theta1``; the rest carry 1.  A
    piece of a record along a mode other than the last is a box: it covers
    last-mode planes ``last_offset:last_offset + data.shape[-1]`` only
    (``last_offset`` is None along the last mode).  ``update_slab`` takes
    the fields in this order.
    """

    record: int
    mode: int
    offset: int
    data: np.ndarray
    theta1: float = 1.0
    theta2: float = 1.0
    last_offset: int | None = None


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
    or dropped.  Each payload is read whole, straight into an F-contiguous
    array of its own (its on-disk layout), which the sketcher contracts in
    place.  ``read_stream_pieces`` reads the same records in bounded pieces.
    """
    pieces = _iter_stream(path, None)
    return next(pieces), _as_records(pieces)


def _as_records(pieces):
    for full, p in pieces:
        if full:
            yield FullUpdate(theta1=p.theta1, theta2=p.theta2, tensor=p.data)
        else:
            yield SlabUpdate(p.theta1, p.theta2, p.mode, p.offset, p.data)


def read_stream_shape(path) -> tuple[int, ...]:
    """The shape in a TKUS1 stream's header, checked."""
    with open(path, "rb") as fh:
        return _read_header(fh, MAGIC_STREAM, os.fspath(path))[1]


def read_stream_pieces(
    path, box_scalars: int | None = None
) -> tuple[tuple[int, ...], Iterator[Piece]]:
    """Open a TKUS1 stream: returns the shape and a lazy iterator of pieces.

    A full record, or a slab record along the last mode, arrives as
    last-mode pieces of at most ``_READ_SLAB_SCALARS`` scalars (8 MiB), or
    one plane if a plane is larger.  A slab record along any other mode
    arrives as boxes, its rows times a range of last-mode planes, of at
    most ``box_scalars`` scalars (never more than 8 MiB), or one plane of
    the record if that is larger.  Folding every piece with ``update_slab``
    folds the stream.  Each record's payload is checked against the end of
    the file before its first piece is read.  Pieces share one reused
    buffer (a piece too large for it gets an array of its own), so a piece
    is valid only until the next is requested.  The file closes when the
    iterator is exhausted or dropped.
    """
    pieces = _iter_stream(path, _READ_SLAB_SCALARS, box_scalars)
    shape = next(pieces)
    return shape, (p for _, p in pieces)


def _iter_stream(path, scalars: int | None, box: int | None = None):
    """Yield the checked shape, then ``(full, piece)`` for every piece of
    every record (pieces of ``scalars`` and boxes of ``box``, as
    ``_PieceReader`` cuts them), ``full`` telling a full record from a slab
    record.  Started by its first ``next``, the generator owns the open
    file from then on."""
    what = os.fspath(path)
    with open(path, "rb") as fh:
        _, shape = _read_header(fh, MAGIC_STREAM, what)
        yield shape
        reader = _PieceReader(fh, shape, _file_size(fh), what, scalars, box)
        for record in itertools.count():
            tag = fh.read(1)
            if tag == b"":
                return
            kind = tag[0]
            theta1, theta2 = struct.unpack("<dd", _read_exact(fh, 16, what))
            if kind == _REC_FULL:
                mode, offset, extent = len(shape) - 1, 0, shape[-1]
            elif kind == _REC_SLAB:
                mode, offset, extent = struct.unpack("<BQQ", _read_exact(fh, 17, what))
                if mode >= len(shape):
                    raise FileFormatError(f"{what}: slab mode {mode} out of range")
                if extent < 1 or offset + extent > shape[mode]:
                    raise FileFormatError(
                        f"{what}: slab rows {offset}:{offset + extent} outside "
                        f"extent {shape[mode]}"
                    )
            else:
                raise FileFormatError(
                    f"{what}: unknown record type {kind} at byte {fh.tell() - 17}"
                )
            for at, last_offset, data in reader.pieces(mode, offset, extent):
                yield kind == _REC_FULL, Piece(record, mode, at, data, theta1, theta2,
                                               last_offset)
                theta1 = 1.0


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


def _read_member(zf: zipfile.ZipFile, name: str, what: str) -> np.ndarray:
    """A TKTN1 archive member, read straight into its array.  Sizes are
    checked against the member's recorded size, since seeking in a member
    reads it through."""
    info = zf.getinfo(name)
    with zf.open(info) as fh:
        return _load_tensor(fh, info.file_size, f"{what}:{name}")


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
        if not isinstance(manifest, dict):
            raise FileFormatError(f"{what}: manifest is not a JSON object")
        if manifest.get("format") != _ARCHIVE_FORMAT:
            raise FileFormatError(
                f"{what}: unknown archive format {manifest.get('format')!r}"
            )
        order = manifest.get("order")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise FileFormatError(f"{what}: bad order in manifest")
        try:
            core = _read_member(zf, "core.tktn", what)
            factors = tuple(_read_member(zf, f"factor_{i}.tktn", what) for i in range(order))
        except KeyError as exc:
            raise FileFormatError(f"{what}: missing member {exc}") from None
    try:
        fact = TuckerFactorization(core=core, factors=factors)
    except ValueError as exc:
        raise FileFormatError(f"{what}: inconsistent members ({exc})") from exc
    if list(fact.shape) != manifest.get("shape") or list(fact.rank) != manifest.get("rank"):
        raise FileFormatError(f"{what}: manifest does not match members")
    return fact
