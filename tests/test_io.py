"""File format round trips, byte determinism, and corruption handling."""

import gc
import hashlib
import json
import math
import os
import stat
import struct
import zipfile
import zlib

import numpy as np
import pytest

from tuckersketch import io as tkio
from tuckersketch.io import (
    FileFormatError,
    FullUpdate,
    SlabUpdate,
    read_sketch,
    read_tensor,
    read_tensor_slabs,
    read_tucker,
    read_update_stream,
    write_sketch,
    write_tensor,
    write_tucker,
    write_update_stream,
)
from tuckersketch.recovery import two_pass_recover
from tuckersketch.sketch import (
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    sketch_merge,
    sketch_storage,
    tucker_sketch,
)
from tuckersketch.tensor import TuckerFactorization


def _tensor(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestTensorFile:
    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4), (1, 6, 2, 3)])
    def test_roundtrip(self, tmp_path, shape):
        x = _tensor(shape, seed=len(shape))
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        np.testing.assert_array_equal(read_tensor(path), x)

    def test_bytes_deterministic(self, tmp_path):
        x = _tensor((3, 4), seed=1)
        a, b = tmp_path / "a", tmp_path / "b"
        write_tensor(a, x)
        write_tensor(b, x)
        assert a.read_bytes() == b.read_bytes()

    def test_scalar_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="cannot serialize a scalar"):
            write_tensor(tmp_path / "x.tktn", 3.0)
        assert list(tmp_path.iterdir()) == []

    def test_layout_is_first_index_fastest(self, tmp_path):
        x = np.arange(6, dtype=float).reshape(2, 3)
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        raw = path.read_bytes()
        assert raw[:5] == b"TKTN1"
        scalar, order = raw[5], raw[6]
        assert (scalar, order) == (0, 2)
        extents = struct.unpack("<2Q", raw[7:23])
        assert extents == (2, 3)
        payload = np.frombuffer(raw[23:], dtype="<f8")
        # column-major: x[0,0], x[1,0], x[0,1], ...
        np.testing.assert_array_equal(payload, [0, 3, 1, 4, 2, 5])

    def test_truncated_file(self, tmp_path):
        x = _tensor((3, 4))
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FileFormatError, match="truncated"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tktn"
        path.write_bytes(b"NOPE!" + bytes(20))
        with pytest.raises(FileFormatError, match="magic"):
            read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        x = _tensor((2, 2))
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="trailing"):
            read_tensor(path)

    def test_read_is_fortran_contiguous(self, tmp_path):
        x = _tensor((3, 4, 5))
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        got = read_tensor(path)
        assert got.flags.f_contiguous and got.flags.writeable and got.dtype == np.float64

    @pytest.mark.parametrize("cut", [3, 6, 15, 23, 24])
    def test_truncated_anywhere(self, tmp_path, cut):
        # inside the magic, the order byte, the extents, and the payload
        path = tmp_path / "x.tktn"
        write_tensor(path, _tensor((2, 2)))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FileFormatError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "offset,patch", [(5, b"\x01"), (6, b"\x00"), (7, bytes(8))], ids=["scalar", "order", "extent"]
    )
    def test_bad_header_fields(self, tmp_path, offset, patch):
        path = tmp_path / "x.tktn"
        write_tensor(path, _tensor((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_huge_extent_fails_before_allocating(self, tmp_path):
        # A corrupt header declaring 2^40 x 2 scalars (16 TiB) is a truncated
        # file, not an allocation.
        path = tmp_path / "x.tktn"
        write_tensor(path, _tensor((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[7:15] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="truncated"):
            read_tensor(path)


class TestTensorSlabs:
    @pytest.mark.parametrize("shape,step_planes", [
        ((4, 5, 11), 3),  # last mode not a multiple of the step
        ((3, 2, 4, 6), 2),
        ((7,), 3),  # order 1: a plane is one scalar
        ((4, 5, 3), 1),
    ])
    def test_slabs_cover_the_tensor(self, tmp_path, monkeypatch, shape, step_planes):
        plane = int(np.prod(shape[:-1]))
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", step_planes * plane)
        x = _tensor(shape, seed=5)
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        got_shape, slabs = read_tensor_slabs(path)
        assert got_shape == shape
        offsets = []
        for offset, slab in slabs:
            assert slab.flags.f_contiguous and slab.dtype == np.float64
            assert slab.shape[-1] == min(step_planes, shape[-1] - offset)
            np.testing.assert_array_equal(slab, x[..., offset : offset + slab.shape[-1]])
            offsets.append(offset)
        assert offsets == list(range(0, shape[-1], step_planes))

    def test_plane_larger_than_the_slab_is_the_floor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 5)
        x = _tensor((3, 4, 3), seed=6)
        path = tmp_path / "x.tktn"
        write_tensor(path, x)
        _, slabs = read_tensor_slabs(path)
        assert [s.shape for _, s in slabs] == [(3, 4, 1)] * 3

    def test_slabs_share_one_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 12)
        path = tmp_path / "x.tktn"
        write_tensor(path, _tensor((3, 4, 5)))
        bases = {s.__array_interface__["data"][0] for _, s in read_tensor_slabs(path)[1]}
        assert len(bases) == 1

    @pytest.mark.parametrize("damage", ["truncated", "trailing", "magic", "scalar"])
    def test_checks_run_before_the_first_slab(self, tmp_path, damage):
        # Same checks and messages as read_tensor, raised when the file is
        # opened, before any slab is read.
        path = tmp_path / "x.tktn"
        write_tensor(path, _tensor((3, 4, 5)))
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            raw = raw[:-9]
        elif damage == "trailing":
            raw += b"\x00\x01"
        elif damage == "magic":
            raw[:5] = b"NOPE!"
        else:
            raw[5] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as want:
            read_tensor(path)
        with pytest.raises(FileFormatError) as got:
            read_tensor_slabs(path)
        assert str(got.value) == str(want.value)

    def test_messages_are_unchanged(self, tmp_path):
        path = tmp_path / "x.tktn"
        write_tensor(path, _tensor((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(FileFormatError) as err:
            read_tensor_slabs(path)
        assert str(err.value) == f"{path}: truncated at byte 23 (needed 48 more, have 39)"
        path.write_bytes(raw + b"\x00")
        with pytest.raises(FileFormatError) as err:
            read_tensor_slabs(path)
        assert str(err.value) == f"{path}: 1 trailing bytes at byte 71"


class TestSketchFile:
    def _sketch(self, seed=3):
        x = _tensor((6, 7, 8), seed=seed)
        params = SketchParams(
            k=(3, 3, 3),
            s=(7, 7, 7),
            master_seed=991,
            omega_kind="sparse_sign",
            phi_kind="gaussian",
            density=0.4,
        )
        return tucker_sketch(x, params)

    def test_roundtrip(self, tmp_path):
        sk = self._sketch()
        path = tmp_path / "s.tksk"
        write_sketch(path, sk)
        back = read_sketch(path)
        assert back.params == sk.params
        assert back.shape == sk.shape
        for a, b in zip(back.factor_sketches, sk.factor_sketches):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.core_sketch, sk.core_sketch)

    @pytest.mark.parametrize("seed", [-3, 2**64 + 5])
    def test_seed_outside_64_bits_survives_roundtrip(self, tmp_path, seed):
        x = _tensor((6, 7, 8), seed=4)
        sk = tucker_sketch(x, SketchParams(k=(3, 3, 3), s=(7, 7, 7), master_seed=seed))
        assert sk.params.master_seed == seed % 2**64
        path = tmp_path / "s.tksk"
        write_sketch(path, sk)
        back = read_sketch(path)
        assert back.params == sk.params
        merged = sketch_merge(sk, back)
        np.testing.assert_array_equal(merged.core_sketch, 2 * sk.core_sketch)
        acc = StreamingSketcher(x.shape, sk.params, init=read_sketch(path))
        acc.update_dense(x)
        np.testing.assert_array_equal(acc.sketch().core_sketch, merged.core_sketch)

    def test_scalar_count_matches_storage(self, tmp_path):
        sk = self._sketch()
        path = tmp_path / "s.tksk"
        write_sketch(path, sk)
        n = sk.params.order
        header = 5 + 4 + 8 + 8 + 3 * 8 * n
        payload = len(path.read_bytes()) - header - 4
        assert payload == 8 * sketch_storage(sk)

    def test_checksum_detects_corruption(self, tmp_path):
        sk = self._sketch()
        path = tmp_path / "s.tksk"
        write_sketch(path, sk)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="checksum"):
            read_sketch(path)

    def test_checksum_is_checked_before_the_header(self, tmp_path):
        # A zero order byte would fail the parse; the checksum fails first.
        sk = self._sketch()
        path = tmp_path / "s.tksk"
        write_sketch(path, sk)
        raw = bytearray(path.read_bytes())
        raw[5] = 0
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="checksum mismatch"):
            read_sketch(path)

    @pytest.mark.parametrize("where", ["factor", "core"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, where, value):
        # write_sketch gives the file a valid checksum, so only the
        # finiteness check can catch it.
        sk = self._sketch()
        vs = [v.copy() for v in sk.factor_sketches]
        core = sk.core_sketch.copy()
        if where == "factor":
            vs[1][2, 0] = value
        else:
            core[3, 1, 4] = value
        path = tmp_path / "s.tksk"
        write_sketch(path, TuckerSketch(sk.params, sk.shape, vs, core))
        name = "factor sketch 1" if where == "factor" else "core sketch"
        with pytest.raises(FileFormatError, match=f"non-finite values in the {name}"):
            read_sketch(path)

    def _forged(self, tmp_path, edit):
        """A sketch file whose body ``edit`` rewrote, under a valid checksum."""
        path = tmp_path / "s.tksk"
        write_sketch(path, self._sketch())
        body = edit(bytearray(path.read_bytes()[:-4]))
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        return path

    def test_shorter_than_a_checksum(self, tmp_path):
        path = tmp_path / "s.tksk"
        path.write_bytes(b"TKS")
        with pytest.raises(FileFormatError, match="too short to hold a checksum"):
            read_sketch(path)

    @pytest.mark.parametrize("byte, value, message", [
        (5, 0, "order must be >= 1"),
        (6, 99, "unknown map kind code at byte 6"),
        (7, 99, "unknown map kind code at byte 6"),
        # s_0 (after the shape and k of 3 modes) below k_0 = 3
        (5 + 4 + 8 + 8 + 6 * 8, 2, r"invalid parameters \(core sketch needs s_n >= k_n"),
    ], ids=["order", "factor-kind", "core-kind", "s-below-k"])
    def test_bad_header_under_a_valid_checksum(self, tmp_path, byte, value, message):
        def edit(body):
            body[byte] = value
            return body

        with pytest.raises(FileFormatError, match=message):
            read_sketch(self._forged(tmp_path, edit))

    @pytest.mark.parametrize("cut, message", [
        (30, "truncated at byte 25 (needed 24 more, have 5)"),
        (100, "truncated at byte 97 (needed 144 more, have 3)"),
    ], ids=["header", "payload"])
    def test_short_body_under_a_valid_checksum(self, tmp_path, cut, message):
        # The parse stops where the checksum starts, never reading into it.
        path = self._forged(tmp_path, lambda body: body[:cut])
        with pytest.raises(FileFormatError) as err:
            read_sketch(path)
        assert str(err.value) == f"{path}: {message}"

    def test_trailing_bytes_under_a_valid_checksum(self, tmp_path):
        path = self._forged(tmp_path, lambda body: body + b"\0\0")
        size = len(path.read_bytes())
        with pytest.raises(FileFormatError, match=f"2 trailing bytes at byte {size - 6}$"):
            read_sketch(path)

    def test_roundtrip_preserves_recovery(self, tmp_path):
        x = _tensor((6, 7, 8), seed=3)
        sk = self._sketch(seed=3)
        path = tmp_path / "s.tksk"
        write_sketch(path, sk)
        a = two_pass_recover(x, sk).factorization.to_dense()
        b = two_pass_recover(x, read_sketch(path)).factorization.to_dense()
        np.testing.assert_array_equal(a, b)


class TestUpdateStream:
    def test_roundtrip(self, tmp_path):
        shape = (4, 5, 3)
        recs = [
            FullUpdate(theta1=1.0, theta2=0.5, tensor=_tensor(shape, 1)),
            SlabUpdate(theta1=0.9, theta2=-2.0, mode=1, offset=2, slab=_tensor((4, 2, 3), 2)),
            FullUpdate(theta1=0.0, theta2=1.0, tensor=_tensor(shape, 3)),
        ]
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, recs)
        got_shape, it = read_update_stream(path)
        assert got_shape == shape
        got = list(it)
        assert len(got) == 3
        assert isinstance(got[0], FullUpdate)
        assert isinstance(got[1], SlabUpdate)
        assert got[1].mode == 1 and got[1].offset == 2
        np.testing.assert_array_equal(got[0].tensor, recs[0].tensor)
        np.testing.assert_array_equal(got[1].slab, recs[1].slab)
        assert got[2].theta1 == 0.0

    def test_dropped_iterator_closes_the_file(self, tmp_path):
        # The iterator owns the open file from the header check on, so
        # dropping it unread closes the file (an unclosed one warns).
        path = tmp_path / "u.tkus"
        write_update_stream(path, (3, 3), [FullUpdate(1.0, 1.0, _tensor((3, 3)))])
        _, recs = read_update_stream(path)
        del recs
        gc.collect()

    def test_records_are_lazy(self, tmp_path):
        shape = (3, 3)
        recs = [FullUpdate(1.0, 1.0, _tensor(shape, i)) for i in range(4)]
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, recs)
        _, it = read_update_stream(path)
        first = next(it)
        np.testing.assert_array_equal(first.tensor, recs[0].tensor)
        it.close()

    def test_partial_record_raises(self, tmp_path):
        shape = (3, 3)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [FullUpdate(1.0, 1.0, _tensor(shape))])
        path.write_bytes(path.read_bytes()[:-5])
        _, it = read_update_stream(path)
        with pytest.raises(FileFormatError, match="truncated"):
            list(it)

    def test_partial_slab_payload_raises(self, tmp_path):
        shape = (3, 4)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [SlabUpdate(1.0, 1.0, 1, 1, _tensor((3, 2)))])
        path.write_bytes(path.read_bytes()[:-1])
        _, it = read_update_stream(path)
        with pytest.raises(FileFormatError, match="truncated"):
            list(it)

    def test_zero_extent_in_header(self, tmp_path):
        path = tmp_path / "u.tkus"
        write_update_stream(path, (3, 3), [FullUpdate(1.0, 1.0, _tensor((3, 3)))])
        raw = bytearray(path.read_bytes())
        raw[6:14] = bytes(8)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="nonpositive"):
            read_update_stream(path)

    def test_huge_extent_fails_before_allocating(self, tmp_path):
        path = tmp_path / "u.tkus"
        write_update_stream(path, (3, 3), [FullUpdate(1.0, 1.0, _tensor((3, 3)))])
        raw = bytearray(path.read_bytes())
        raw[6:14] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(raw))
        _, it = read_update_stream(path)
        with pytest.raises(FileFormatError, match="truncated"):
            list(it)

    def test_payloads_are_fortran_contiguous(self, tmp_path):
        shape = (3, 4, 2)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [
            FullUpdate(1.0, 1.0, _tensor(shape)),
            SlabUpdate(1.0, 1.0, 1, 1, _tensor((3, 2, 2))),
        ])
        _, it = read_update_stream(path)
        full, slab = list(it)
        assert full.tensor.flags.f_contiguous and slab.slab.flags.f_contiguous

    def test_slab_outside_shape_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_update_stream(
                tmp_path / "u.tkus",
                (3, 3),
                [SlabUpdate(1.0, 1.0, mode=0, offset=2, slab=np.zeros((2, 3)))],
            )
        # A record rejected after others were written leaves no target and
        # no temporary file behind.
        with pytest.raises(ValueError):
            write_update_stream(
                tmp_path / "u.tkus",
                (3, 3),
                [
                    FullUpdate(1.0, 1.0, _tensor((3, 3))),
                    SlabUpdate(1.0, 1.0, mode=1, offset=0, slab=np.zeros((3, 1))),
                    SlabUpdate(1.0, 1.0, mode=0, offset=2, slab=np.zeros((2, 3))),
                ],
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("record, error, message", [
        (FullUpdate(1.0, 1.0, np.zeros((3, 2))), ValueError,
         r"full update has shape \(3, 2\), expected \(3, 3\)"),
        (SlabUpdate(1.0, 1.0, mode=2, offset=0, slab=np.zeros((3, 3))), ValueError,
         "slab mode 2 out of range"),
        (SlabUpdate(1.0, 1.0, mode=0, offset=0, slab=np.zeros((1, 2))), ValueError,
         r"slab has shape \(1, 2\), expected \(1, 3\)"),
        ((1.0, 1.0, np.zeros((3, 3))), TypeError, "unsupported update record tuple"),
    ], ids=["full-shape", "slab-mode", "slab-shape", "record-type"])
    def test_bad_record_rejected_on_write(self, tmp_path, record, error, message):
        with pytest.raises(error, match=message):
            write_update_stream(tmp_path / "u.tkus", (3, 3), [record])
        assert list(tmp_path.iterdir()) == []

    def test_bad_record_type(self, tmp_path):
        shape = (2, 2)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [])
        path.write_bytes(path.read_bytes() + bytes([7]) + bytes(16))
        _, it = read_update_stream(path)
        with pytest.raises(FileFormatError, match="record type"):
            list(it)


class TestStreamPieces:
    def test_pieces_cover_every_record(self, tmp_path, monkeypatch):
        # Pieces of at most 2 planes of 12: the full record of 5 planes
        # comes in 3, the last-mode slab of 3 planes in 2; the mode-1 slab
        # (planes of 8) in boxes of 3 planes and 2.
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 2 * 4 * 3)
        shape = (4, 3, 5)
        recs = [
            SlabUpdate(0.9, -2.0, mode=1, offset=1, slab=_tensor((4, 2, 5), 1)),
            FullUpdate(0.5, 3.0, _tensor(shape, 2)),
            SlabUpdate(0.7, 1.5, mode=2, offset=2, slab=_tensor((4, 3, 3), 3)),
        ]
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, recs)
        got_shape, pieces = tkio.read_stream_pieces(path)
        assert got_shape == shape
        got = [(p.record, p.mode, p.offset, p.data.shape, p.theta1, p.theta2, p.last_offset,
                p.data.copy()) for p in pieces]
        assert [g[:7] for g in got] == [
            (0, 1, 1, (4, 2, 3), 0.9, -2.0, 0),
            (0, 1, 1, (4, 2, 2), 1.0, -2.0, 3),
            (1, 2, 0, (4, 3, 2), 0.5, 3.0, None),
            (1, 2, 2, (4, 3, 2), 1.0, 3.0, None),
            (1, 2, 4, (4, 3, 1), 1.0, 3.0, None),
            (2, 2, 2, (4, 3, 2), 0.7, 1.5, None),
            (2, 2, 4, (4, 3, 1), 1.0, 1.5, None),
        ]
        np.testing.assert_array_equal(np.concatenate([g[7] for g in got[:2]], axis=2),
                                      recs[0].slab)
        np.testing.assert_array_equal(np.concatenate([g[7] for g in got[2:5]], axis=2),
                                      recs[1].tensor)
        np.testing.assert_array_equal(np.concatenate([g[7] for g in got[5:]], axis=2),
                                      recs[2].slab)

    @pytest.mark.parametrize("box", [1, 20, 45, 200, None])
    def test_boxes_cover_each_record_once_in_order(self, tmp_path, monkeypatch, box):
        # Boxes of at most `box` scalars, never more than 60 (5 planes of
        # 12), one plane of the record at the least: a mode-0 record's
        # plane is 3 x 4 = 12, a mode-1 record's 5 x 2 = 10.
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 5 * 12)
        shape = (5, 4, 7)
        recs = [
            SlabUpdate(0.5, 2.0, mode=0, offset=1, slab=_tensor((3, 4, 7), 1)),
            SlabUpdate(1.0, -1.0, mode=1, offset=2, slab=_tensor((5, 2, 7), 2)),
        ]
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, recs)
        _, pieces = tkio.read_stream_pieces(path, box)
        got = [(p.record, p.mode, p.offset, p.last_offset, p.data.copy()) for p in pieces]
        for i, rec in enumerate(recs):
            mine = [g for g in got if g[0] == i]
            plane = rec.slab[..., 0].size
            limit = max(plane, min(box or math.inf, 5 * 12))
            assert all(g[1:3] == (rec.mode, rec.offset) for g in mine)
            planes = [g[4].shape[-1] for g in mine]
            assert [g[3] for g in mine] == [sum(planes[:i]) for i in range(len(planes))]
            assert all(g[4].size <= limit for g in mine)
            assert len(mine) == -(-7 // (limit // plane))  # as few boxes as fit
            np.testing.assert_array_equal(np.concatenate([g[4] for g in mine], axis=2), rec.slab)
        assert [g[0] for g in got] == sorted(g[0] for g in got)

    def test_theta1_applies_once_per_record(self, tmp_path):
        # Only a record's first box carries its theta1, so folding the boxes
        # decays the sketch once, as folding the record whole does.
        shape = (6, 5, 8)
        x = _tensor(shape, 3)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [
            FullUpdate(1.0, 1.0, x),
            SlabUpdate(0.5, 2.0, mode=1, offset=1, slab=_tensor((6, 3, 8), 4)),
        ])
        _, pieces = tkio.read_stream_pieces(path, 3 * 6 * 3)
        params = SketchParams.for_rank(1, 4, order=3)
        boxed, whole = StreamingSketcher(shape, params), StreamingSketcher(shape, params)
        thetas = []
        for p in pieces:
            boxed.update_slab(p.mode, p.offset, p.data, p.theta1, p.theta2, p.last_offset)
            thetas.append((p.record, p.theta1, p.theta2))
        assert thetas == [(0, 1.0, 1.0), (1, 0.5, 2.0), (1, 1.0, 2.0), (1, 1.0, 2.0)]
        _, records = read_update_stream(path)
        for rec in records:
            if isinstance(rec, FullUpdate):
                whole.update_dense(rec.tensor, rec.theta1, rec.theta2)
            else:
                whole.update_slab(rec.mode, rec.offset, rec.slab, rec.theta1, rec.theta2)
        for a, b in zip((*boxed.sketch().factor_sketches, boxed.sketch().core_sketch),
                        (*whole.sketch().factor_sketches, whole.sketch().core_sketch)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())

    def test_truncated_box_record_fails_before_its_first_box(self, tmp_path):
        # A mode-0 record that would come in boxes of one plane each.
        shape = (4, 3, 5)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [SlabUpdate(1.0, 1.0, 0, 1, _tensor((2, 3, 5)))])
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError) as want:
            list(read_update_stream(path)[1])
        _, pieces = tkio.read_stream_pieces(path, 1)
        with pytest.raises(FileFormatError) as got:
            next(pieces)
        assert str(got.value) == str(want.value)
        assert "truncated at byte 64 (needed 240 more, have 239)" in str(got.value)

    def test_pieces_share_one_buffer(self, tmp_path, monkeypatch):
        # A mode-0 slab that fits the buffer is read into it too.
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 2 * 4 * 3)
        shape = (4, 3, 5)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [
            FullUpdate(1.0, 1.0, _tensor(shape)),
            SlabUpdate(1.0, 1.0, mode=0, offset=1, slab=_tensor((1, 3, 5))),
        ])
        _, pieces = tkio.read_stream_pieces(path)
        bases = {p.data.__array_interface__["data"][0] for p in pieces}
        assert len(bases) == 1

    def test_truncated_record_fails_before_its_first_piece(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 4 * 3)
        shape = (4, 3, 5)
        path = tmp_path / "u.tkus"
        write_update_stream(path, shape, [FullUpdate(1.0, 1.0, _tensor(shape))])
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError) as want:
            list(read_update_stream(path)[1])
        _, pieces = tkio.read_stream_pieces(path)
        with pytest.raises(FileFormatError) as got:
            next(pieces)
        assert str(got.value) == str(want.value)
        assert "truncated at byte 47 (needed 480 more, have 479)" in str(got.value)


class TestTuckerArchive:
    def _fact(self):
        x = _tensor((6, 7, 8), seed=9)
        sk = tucker_sketch(x, SketchParams(k=(3, 3, 3), s=(7, 7, 7), master_seed=5))
        return two_pass_recover(x, sk).factorization

    def test_roundtrip(self, tmp_path):
        fact = self._fact()
        path = tmp_path / "f.tkz"
        write_tucker(path, fact)
        back = read_tucker(path)
        np.testing.assert_array_equal(back.core, fact.core)
        for a, b in zip(back.factors, fact.factors):
            np.testing.assert_array_equal(a, b)

    def test_bytes_deterministic(self, tmp_path):
        fact = self._fact()
        a, b = tmp_path / "a.tkz", tmp_path / "b.tkz"
        write_tucker(a, fact)
        write_tucker(b, fact)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_contents(self, tmp_path):
        fact = self._fact()
        path = tmp_path / "f.tkz"
        write_tucker(path, fact)
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        assert manifest["order"] == 3
        assert manifest["shape"] == [6, 7, 8]
        assert manifest["rank"] == [3, 3, 3]

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "f.tkz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(FileFormatError):
            read_tucker(path)

    def test_missing_member(self, tmp_path):
        fact = self._fact()
        src = tmp_path / "f.tkz"
        write_tucker(src, fact)
        dst = tmp_path / "g.tkz"
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for name in zin.namelist():
                if name != "factor_1.tktn":
                    zout.writestr(name, zin.read(name))
        with pytest.raises(FileFormatError, match="missing"):
            read_tucker(dst)

    def test_huge_member_extent(self, tmp_path):
        src = tmp_path / "f.tkz"
        write_tucker(src, self._fact())
        dst = tmp_path / "g.tkz"
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for name in zin.namelist():
                data = bytearray(zin.read(name))
                if name == "core.tktn":
                    data[7:15] = struct.pack("<Q", 2**40)
                zout.writestr(name, bytes(data))
        with pytest.raises(FileFormatError, match="truncated"):
            read_tucker(dst)

    def test_member_shorter_than_its_recorded_size(self, tmp_path):
        # A deflated member recorded 8 bytes longer than it inflates to
        # passes the size check, then comes up short.
        src, dst = tmp_path / "f.tkz", tmp_path / "g.tkz"
        write_tucker(src, self._fact())
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zout:
            for name in zin.namelist():
                data = zin.read(name)
                zout.writestr(name, data[:-8] if name == "core.tktn" else data)
        with zipfile.ZipFile(dst) as zf:
            info, start_dir = zf.getinfo("core.tktn"), zf.start_dir
        raw = bytearray(dst.read_bytes())
        # The inflated size sits at byte 22 of the local header and at byte
        # 24 of the central directory entry, which ends 46 bytes past it.
        for at in (info.header_offset + 22, raw.index(b"core.tktn", start_dir) - 22):
            assert raw[at : at + 4] == struct.pack("<I", info.file_size)
            raw[at : at + 4] = struct.pack("<I", info.file_size + 8)
        dst.write_bytes(raw)
        with pytest.raises(FileFormatError, match="short read of the payload"):
            read_tucker(dst)


class TestTuckerManifest:
    """Each way an archive's manifest or members can be wrong has its own message."""

    def _rewrite(self, tmp_path, manifest=None, members=None):
        src = tmp_path / "f.tkz"
        x = _tensor((6, 7, 8), seed=9)
        sk = tucker_sketch(x, SketchParams(k=(3, 3, 3), s=(7, 7, 7), master_seed=5))
        write_tucker(src, two_pass_recover(x, sk).factorization)
        dst = tmp_path / "g.tkz"
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for name in zin.namelist():
                data = zin.read(name)
                if name == "manifest.json" and manifest is not None:
                    data = manifest(json.loads(data))
                    if data is None:
                        continue
                    if isinstance(data, dict):
                        data = json.dumps(data).encode()
                if members is not None and name in members:
                    member = tmp_path / "member.tktn"
                    write_tensor(member, members[name])
                    data = member.read_bytes()
                zout.writestr(name, data)
        return dst

    @pytest.mark.parametrize("manifest, message", [
        (lambda m: None, "missing manifest.json"),
        (lambda m: b"{not json", "unreadable manifest"),
        (lambda m: {**m, "format": "tucker-archive-v0"},
         "unknown archive format 'tucker-archive-v0'"),
        (lambda m: {**m, "order": 0}, "bad order in manifest"),
        (lambda m: {**m, "order": "3"}, "bad order in manifest"),
        (lambda m: {**m, "order": True}, "bad order in manifest"),
        (lambda m: b"[]", "manifest is not a JSON object"),
        (lambda m: b'"x"', "manifest is not a JSON object"),
        (lambda m: {**m, "shape": [6, 7, 9]}, "manifest does not match members"),
        (lambda m: {**m, "rank": [3, 3, 2]}, "manifest does not match members"),
    ], ids=["missing", "unreadable", "format", "order-0", "order-str", "order-bool",
            "list", "string", "shape", "rank"])
    def test_bad_manifest(self, tmp_path, manifest, message):
        with pytest.raises(FileFormatError, match=message):
            read_tucker(self._rewrite(tmp_path, manifest=manifest))

    def test_members_that_disagree(self, tmp_path):
        path = self._rewrite(tmp_path, members={"factor_1.tktn": _tensor((7, 2))})
        with pytest.raises(FileFormatError, match="inconsistent members"):
            read_tucker(path)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "missing-dir" / "x.tktn"
    with pytest.raises(OSError):
        write_tensor(target, _tensor((2, 2)))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask):
    # as open() would make them: a worker's files stay readable by a merge
    # run as another user unless the umask says otherwise
    old = os.umask(umask)
    try:
        write_tensor(tmp_path / "x.tktn", _tensor((2, 3)))
        write_sketch(tmp_path / "x.tksk", _golden_sketch())
        write_update_stream(tmp_path / "x.tkus", (2, 3),
                            [FullUpdate(1.0, 1.0, _tensor((2, 3)))])
        write_tucker(tmp_path / "x.tkz", _golden_tucker())
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["x.tktn", "x.tksk", "x.tkus", "x.tkz"], 0o666 & ~umask)


def _ar(shape, start=0.0, dtype=np.float64):
    """``arange`` values in C order: no random numbers and no BLAS."""
    return (start + np.arange(np.prod(shape), dtype=dtype)).reshape(shape)


def _golden_sketch():
    params = SketchParams(
        k=(2, 3, 2), s=(5, 7, 5), master_seed=2**64 - 3,
        omega_kind="trp", phi_kind="sparse_sign", density=0.25,
    )
    shape = (4, 6, 3)
    vs = [_ar((d, k), 0.5 * n) for n, (d, k) in enumerate(zip(shape, params.k))]
    return TuckerSketch(params=params, shape=shape, factor_sketches=vs,
                        core_sketch=_ar(params.s, -1.25))


def _golden_tucker():
    core = _ar((2, 3, 2), -3.0)
    factors = (_ar((4, 2)), np.asfortranarray(_ar((5, 3), 1.0)), _ar((3, 2), 0.125))
    return TuckerFactorization(core=core, factors=factors)


_GOLDEN = {
    "tensor-c": (
        lambda p: write_tensor(p, _ar((2, 3, 4))),
        "32fcd35f4ba056d51d3529c9a4c8b4bd9ef86d3922dac2740158f1afbf3d6cc2",
    ),
    "tensor-f": (
        lambda p: write_tensor(p, np.asfortranarray(_ar((3, 5, 2), 7.0))),
        "534c6d607cd833e84bc6de9f07af029eb2fa27eee5ffe73c4444df0096439822",
    ),
    "tensor-strided": (
        lambda p: write_tensor(p, _ar((6, 8, 5))[::2, 1::3, ::-2]),
        "b69a965bc1d4a24149536129cfa730e56dfc84358853a08549e6e207905c8c7b",
    ),
    "tensor-float32": (
        lambda p: write_tensor(p, _ar((3, 4), 0.5, np.float32)),
        "fb2e3084fd050be2e0cf55e71d2fcc9c2cc3f88ef79e8786036f7342dcdef3c7",
    ),
    "stream": (
        lambda p: write_update_stream(p, (3, 4, 2), [
            FullUpdate(theta1=1.0, theta2=-0.5, tensor=_ar((3, 4, 2))),
            SlabUpdate(theta1=0.25, theta2=2.0, mode=1, offset=1,
                       slab=np.asfortranarray(_ar((3, 2, 2), 100.0))),
            SlabUpdate(theta1=1.0, theta2=1.0, mode=2, offset=1,
                       slab=_ar((3, 4, 3), 0.0, np.float32)[:, :, ::2][:, :, 1:]),
        ]),
        "b99b0dbeedb15b1269b73f7866d5f9cb518e679f7320ae5dc54dc034cb5fa436",
    ),
    "sketch": (
        lambda p: write_sketch(p, _golden_sketch()),
        "6f946f67136c967d7c066e758b4b9d0883fca5d00fab5eea396d3d8a31bd6e81",
    ),
    "tucker": (
        lambda p: write_tucker(p, _golden_tucker()),
        "3c95be49b100c48711c8bf3192f99937a8ab7bcabf785a31d627d6555be92a20",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_bytes(tmp_path, case):
    # Pinned digests of every format, written from fixed inputs in C, F,
    # strided and float32 layouts: any change to the bytes on disk fails here.
    write, digest = _GOLDEN[case]
    path = tmp_path / "golden"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
