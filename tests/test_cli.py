"""End-to-end command line tests: files in, files out, exit codes."""

import csv
import functools
import json
import math
import operator
import os
import struct
import subprocess
import sys
import warnings
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from tuckersketch import cli
from tuckersketch import harness
from tuckersketch import io as tkio
from tuckersketch import recovery
from tuckersketch import rng
from tuckersketch.cli import main
from tuckersketch.harness import SyntheticSpec, gen_synthetic
from tuckersketch.io import (
    FullUpdate,
    SlabUpdate,
    read_sketch,
    read_tucker,
    write_sketch,
    write_tensor,
    write_tucker,
    write_update_stream,
)
from tuckersketch.recovery import fixed_rank_truncate, one_pass_recover, two_pass_recover
from tuckersketch.sketch import (
    FACTOR_KINDS,
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    sketch_merge,
    sketch_storage,
    tucker_sketch,
)
from tuckersketch.tensor import fro_norm, tucker_to_dense


@pytest.fixture
def exact_tensor():
    return gen_synthetic(SyntheticSpec("low_rank_noise", 14, 3, 3, seed=31, gamma=0.0))


def _rel_err(x, fact):
    return fro_norm(x - fact.to_dense()) / fro_norm(x)


class TestSketchCommand:
    def test_sketch_matches_library(self, tmp_path, exact_tensor):
        xfile = tmp_path / "x.tktn"
        write_tensor(xfile, exact_tensor)
        out = tmp_path / "x.tksk"
        rc = main(["sketch", "--input", str(xfile), "--rank", "3", "--seed", "77",
                   "--out", str(out)])
        assert rc == 0
        got = read_sketch(out)
        want = tucker_sketch(exact_tensor, SketchParams.for_rank(3, 77, order=3))
        assert got.params == want.params
        for a, b in zip(got.factor_sketches, want.factor_sketches):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got.core_sketch, want.core_sketch)

    def test_explicit_k_s_and_drm(self, tmp_path, exact_tensor):
        xfile = tmp_path / "x.tktn"
        write_tensor(xfile, exact_tensor)
        out = tmp_path / "x.tksk"
        rc = main(["sketch", "--input", str(xfile), "--k", "5", "--s", "11",
                   "--drm", "trp", "--seed", "1", "--out", str(out)])
        assert rc == 0
        got = read_sketch(out)
        assert got.params.omega_kind == "trp"
        assert got.params.phi_kind == "gaussian"  # trp cannot sketch the core
        assert got.params.k == (5, 5, 5)

    def test_k_without_s_gets_s_2k_plus_1(self, tmp_path, exact_tensor):
        xfile, out = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, exact_tensor)
        assert main(["sketch", "--input", str(xfile), "--k", "3", "--out", str(out)]) == 0
        assert read_sketch(out).params.s == (7, 7, 7)

    def test_stream_equals_dense_path(self, tmp_path, exact_tensor):
        x = exact_tensor
        stream = tmp_path / "u.tkus"
        write_update_stream(
            stream,
            x.shape,
            [
                FullUpdate(1.0, 0.25, x),
                SlabUpdate(1.0, 1.0, mode=2, offset=4, slab=0.5 * x[:, :, 4:9]),
                FullUpdate(2.0, 0.5, x),
            ],
        )
        out = tmp_path / "s.tksk"
        rc = main(["sketch", "--stream", str(stream), "--rank", "3", "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        acc = 0.25 * x
        acc[:, :, 4:9] += 0.5 * x[:, :, 4:9]
        acc = 2.0 * acc + 0.5 * x
        want = tucker_sketch(acc, SketchParams.for_rank(3, 9, order=3))
        got = read_sketch(out)
        for a, b in zip(got.factor_sketches, want.factor_sketches):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1, np.abs(b).max()))
        np.testing.assert_allclose(
            got.core_sketch, want.core_sketch,
            rtol=0, atol=1e-12 * max(1, np.abs(want.core_sketch).max()),
        )

    def test_report_of_a_mode_0_shard_holds_no_factor_map_whole(self, tmp_path):
        # A 40-row mode-0 shard of a 160^3 tensor at r=10, as in the
        # benchmark: boxes of four 43^3 core sketches at most are 49 planes
        # of 40 x 160, so the shard comes in 4 boxes.  Each generates the
        # rows of Omega_0 and Omega_1 it touches and drops them; the rows of
        # Omega_2 it touches (6400 x 21) are the same for every box, and
        # are kept.  Folded whole, the shard held Omega_0 (25600 x 21).
        slab = np.random.default_rng(6).normal(size=(40, 160, 160))
        stream, out, report = tmp_path / "u.tkus", tmp_path / "s.tksk", tmp_path / "r.json"
        write_update_stream(stream, (160, 160, 160), [SlabUpdate(1.0, 1.0, 0, 40, slab)])
        rc = main(["sketch", "--stream", str(stream), "--rank", "10", "--drm", "sparse_sign",
                   "--core-drm", "ssrft", "--out", str(out), "--report", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        params = SketchParams.for_rank(10, 0, order=3, omega_kind="sparse_sign",
                                       phi_kind="ssrft")
        acc = StreamingSketcher((160, 160, 160), params)
        for j in range(0, 160, 49):  # F-order boxes, as the command reads them
            acc.update_slab(0, 40, np.asfortranarray(slab[..., j : j + 49]), 1.0, 1.0, j)
        assert data["held_map_scalars"] == 6400 * 21 + 3 * 160 * 43 == acc.held_map_scalars
        assert data["peak_aux_scalars"] == acc.peak_aux_scalars
        assert data["pieces_folded"] == 4
        assert data["payload_bytes_folded"] == slab.nbytes
        got, want = read_sketch(out), acc.sketch()
        for a, b in zip((*got.factor_sketches, got.core_sketch),
                        (*want.factor_sketches, want.core_sketch)):
            np.testing.assert_array_equal(a, b)
        assert data["elapsed_seconds"] > 0

    @pytest.mark.parametrize("side", [3, 8])
    def test_report_counts_the_sketch_against_the_tensor(self, tmp_path, capsys, side):
        # At rank 1 (k = 3, s = 7) an order-5 sketch holds 5 * side * 3 + 7^5
        # scalars: 16,852 against a 3^5 tensor's 243, which stderr notes, but
        # fewer than an 8^5 tensor's 32,768.
        xfile, out, report = tmp_path / "x.tktn", tmp_path / "x.tksk", tmp_path / "r.json"
        write_tensor(xfile, np.random.default_rng(8).normal(size=(side,) * 5))
        capsys.readouterr()
        rc = main(["sketch", "--input", str(xfile), "--rank", "1", "--out", str(out),
                   "--report", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        stored = 5 * side * 3 + 7**5
        assert stored == sketch_storage(read_sketch(out))
        assert (data["sketch_scalars"], data["tensor_scalars"]) == (stored, side**5)
        note = f"note: the sketch holds {stored} scalars, more than the tensor's {side**5}\n"
        assert (note in capsys.readouterr().err) == (side == 3)

    @pytest.mark.parametrize("maps", [["--drm", "trp"], ["--drm", "gaussian"],
                                      ["--drm", "ssrft", "--core-drm", "gaussian"]])
    def test_density_without_a_sparse_sign_map_is_usage_error(
        self, tmp_path, capsys, exact_tensor, maps
    ):
        # The density would be written into the header and change nothing
        # else, so merge would refuse two such shards as different sketches.
        xfile, out = tmp_path / "x.tktn", tmp_path / "s.tksk"
        write_tensor(xfile, exact_tensor)
        rc = main(["sketch", "--input", str(xfile), "--rank", "3", *maps, "--density", "0.5",
                   "--out", str(out)])
        assert rc == 2
        assert "--density sets the nonzero fraction of sparse_sign maps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("maps", [["--drm", "sparse_sign"],
                                      ["--drm", "trp", "--core-drm", "sparse_sign"]])
    def test_density_reaches_a_sparse_sign_map(self, tmp_path, exact_tensor, maps):
        xfile, out = tmp_path / "x.tktn", tmp_path / "s.tksk"
        write_tensor(xfile, exact_tensor)
        rc = main(["sketch", "--input", str(xfile), "--rank", "3", *maps, "--density", "0.5",
                   "--out", str(out)])
        assert rc == 0
        assert read_sketch(out).params.density == 0.5

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.tksk"
        with pytest.raises(SystemExit) as err:
            main(["sketch", "--rank", "3", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_corrupt_input_exits_4(self, tmp_path):
        bad = tmp_path / "x.tktn"
        bad.write_bytes(b"garbage bytes here")
        rc = main(["sketch", "--input", str(bad), "--rank", "3", "--out",
                   str(tmp_path / "s.tksk")])
        assert rc == 4
        assert not (tmp_path / "s.tksk").exists()

    def test_missing_file_exits_3(self, tmp_path):
        rc = main(["sketch", "--input", str(tmp_path / "no.tktn"), "--rank", "3",
                   "--out", str(tmp_path / "s.tksk")])
        assert rc == 3

    @pytest.mark.parametrize("rank", ["0", "-1", "2,0,2"])
    def test_rank_below_one_exits_2(self, tmp_path, capsys, exact_tensor, rank):
        xfile, out = tmp_path / "x.tktn", tmp_path / "s.tksk"
        write_tensor(xfile, exact_tensor)
        assert main(["sketch", "--input", str(xfile), f"--rank={rank}", "--out", str(out)]) == 2
        assert "rank must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_k_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sketch", "--input", "x.tktn", "--k", "x", "--out", str(tmp_path / "s.tksk")])
        assert err.value.code == 2
        assert "expected comma-separated ints" in capsys.readouterr().err


    @pytest.mark.parametrize("mode, offset, extent, message", [
        (3, 0, 1, "slab mode 3 out of range"),
        (1, 3, 3, "slab rows 3:6 outside extent 4"),
    ], ids=["mode", "rows"])
    def test_bad_slab_record_exits_4(self, tmp_path, capsys, mode, offset, extent, message):
        # Written by hand: write_update_stream refuses such records.
        shape = (5, 4, 3)
        stream = tmp_path / "u.tkus"
        stream.write_bytes(
            tkio.MAGIC_STREAM + struct.pack("<B3Q", 3, *shape)
            + struct.pack("<BddBQQ", 1, 1.0, 1.0, mode, offset, extent)
        )
        out = tmp_path / "s.tksk"
        rc = main(["sketch", "--stream", str(stream), "--rank", "1", "--out", str(out)])
        assert rc == 4
        assert f"error: {stream}: {message}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("extent", [10**6, 10**7, 10**9])
    def test_forged_stream_extent_exits_4_before_the_sketcher(
        self, tmp_path, monkeypatch, capsys, extent
    ):
        # A 9x8x7 stream (one full record, then slab records along modes 2
        # and 0) whose header claims `extent` rows of mode 0: the first
        # record must fail against the file before any sketch is allocated.
        x = np.random.default_rng(8).normal(size=(9, 8, 7))
        stream = tmp_path / "u.tkus"
        write_update_stream(stream, x.shape, [
            FullUpdate(1.0, 1.0, x),
            SlabUpdate(1.0, 0.5, mode=2, offset=3, slab=x[:, :, 3:5]),
            SlabUpdate(1.0, 2.0, mode=0, offset=4, slab=x[4:6]),
        ])
        data = bytearray(stream.read_bytes())
        at = len(tkio.MAGIC_STREAM) + 1
        data[at : at + 8] = struct.pack("<Q", extent)
        stream.write_bytes(bytes(data))

        def refuse(*args, **kwargs):
            raise AssertionError("sketcher made before the first record was checked")

        monkeypatch.setattr(cli, "StreamingSketcher", refuse)
        out = tmp_path / "s.tksk"
        rc = main(["sketch", "--stream", str(stream), "--rank", "2", "--out", str(out)])
        assert rc == 4
        assert f"error: {stream}: truncated at byte" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_exits_1(self, tmp_path, monkeypatch, capsys, exact_tensor):
        xfile, out = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, exact_tensor)

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 82.0 GiB")

        monkeypatch.setattr(cli, "StreamingSketcher", too_large)
        rc = main(["sketch", "--input", str(xfile), "--rank", "2", "--out", str(out)])
        assert rc == 1
        assert "error: Unable to allocate 82.0 GiB" in capsys.readouterr().err
        assert not out.exists()


class TestMergeCommand:
    def test_merge_equals_sum(self, tmp_path):
        params = SketchParams(k=(4, 4, 4), s=(9, 9, 9), master_seed=13)
        xa = np.random.default_rng(1).normal(size=(8, 8, 8))
        xb = np.random.default_rng(2).normal(size=(8, 8, 8))
        pa, pb = tmp_path / "a.tksk", tmp_path / "b.tksk"
        write_sketch(pa, tucker_sketch(xa, params))
        write_sketch(pb, tucker_sketch(xb, params))
        out = tmp_path / "m.tksk"
        rc = main(["merge", str(pa), str(pb), "--out", str(out)])
        assert rc == 0
        got = read_sketch(out)
        want = tucker_sketch(xa + xb, params)
        for a, b in zip(got.factor_sketches, want.factor_sketches):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1, np.abs(b).max()))

    def test_mismatched_params_exit_5(self, tmp_path):
        x = np.random.default_rng(3).normal(size=(8, 8, 8))
        pa, pb = tmp_path / "a.tksk", tmp_path / "b.tksk"
        write_sketch(pa, tucker_sketch(x, SketchParams(k=(4,) * 3, s=(9,) * 3, master_seed=1)))
        write_sketch(pb, tucker_sketch(x, SketchParams(k=(4,) * 3, s=(9,) * 3, master_seed=2)))
        out = tmp_path / "m.tksk"
        rc = main(["merge", str(pa), str(pb), "--out", str(out)])
        assert rc == 5
        assert not out.exists()


    def test_forged_sketch_exits_4(self, tmp_path, capsys):
        x = np.random.default_rng(4).normal(size=(8, 8, 8))
        good = tmp_path / "a.tksk"
        write_sketch(good, tucker_sketch(x, SketchParams(k=(4,) * 3, s=(9,) * 3, master_seed=1)))
        body = bytearray(good.read_bytes()[:-4])
        body[6] = 99  # no map kind has this code; the checksum is still right
        bad = tmp_path / "b.tksk"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        out = tmp_path / "m.tksk"
        rc = main(["merge", str(good), str(bad), "--out", str(out)])
        assert rc == 4
        assert "unknown map kind code at byte 6" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_sum_exits_2(self, tmp_path, capsys):
        # An 8^3 sketch filled with 1.5e308 is finite and passes the reader;
        # its sum with itself is not, and nothing could read it.
        params = SketchParams(k=(3,) * 3, s=(7,) * 3, master_seed=1)
        path, out = tmp_path / "a.tksk", tmp_path / "m.tksk"
        write_sketch(path, TuckerSketch(params, (8, 8, 8), [np.full((8, 3), 1.5e308)] * 3,
                                        np.full((7, 7, 7), 1.5e308)))
        read_sketch(path)
        capsys.readouterr()
        rc = main(["merge", str(path), str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: the merged sketch is not finite "
                                           "(an entry overflowed)\n")
        assert not out.exists()

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("kinds", [("gaussian", "gaussian"), ("sparse_sign", "sparse_sign"),
                                       ("ssrft", "ssrft"), ("trp", "gaussian")],
                             ids=["gaussian", "sparse_sign", "ssrft", "trp"])
    def test_merge_equals_pairwise_sketch_merge_bit_for_bit(self, tmp_path, monkeypatch,
                                                            kinds, count):
        # Each file's core is read in slabs of two planes (the last of one),
        # and every input holds a -0.0 in the same entries, which a sum
        # started from zeros would turn into +0.0.
        monkeypatch.setattr(tkio, "_SKETCH_SLAB_SCALARS", 2 * 9 * 9)
        params = SketchParams(k=(4,) * 3, s=(9,) * 3, master_seed=5,
                              omega_kind=kinds[0], phi_kind=kinds[1])
        sks, paths = [], []
        for i in range(count):
            sk = tucker_sketch(np.random.default_rng(40 + i).normal(size=(12, 11, 10)), params)
            vs = [v.copy() for v in sk.factor_sketches]
            core = sk.core_sketch.copy()
            vs[0][0, 0] = core[1, 2, 3] = -0.0
            sks.append(TuckerSketch(params, sk.shape, vs, core))
            paths.append(tmp_path / f"{i}.tksk")
            write_sketch(paths[-1], sks[-1])
        out, want = tmp_path / "m.tksk", tmp_path / "want.tksk"
        assert main(["merge", *map(str, paths), "--out", str(out)]) == 0
        pairwise = functools.reduce(sketch_merge, sks)
        write_sketch(want, pairwise)
        assert out.read_bytes() == want.read_bytes()
        # sketch_merge adds as numpy does, left to right.
        cores = functools.reduce(operator.add, (sk.core_sketch for sk in sks))
        assert pairwise.core_sketch.tobytes() == cores.tobytes()
        assert np.signbit(pairwise.core_sketch[1, 2, 3])
        assert np.signbit(pairwise.factor_sketches[0][0, 0])

    @pytest.mark.parametrize("second", ["good", "mismatched"])
    def test_merge_checks_each_input_before_the_next(self, tmp_path, monkeypatch, capsys,
                                                     second):
        # The third input is corrupt.  After two good inputs it fails the
        # merge as corrupt; after a mismatched second, the mismatch stops the
        # merge before the third file is opened.
        x = np.random.default_rng(6).normal(size=(8, 8, 8))
        paths = [tmp_path / f"{i}.tksk" for i in range(3)]
        for i, path in enumerate(paths):
            seed = 2 if i == 1 and second == "mismatched" else 1
            params = SketchParams(k=(4,) * 3, s=(9,) * 3, master_seed=seed)
            write_sketch(path, tucker_sketch(x, params))
        raw = bytearray(paths[2].read_bytes())
        raw[len(raw) // 2] ^= 0x55
        paths[2].write_bytes(bytes(raw))
        opened, parse = [], tkio._sketch_slabs

        def recorded(path, scalars):
            opened.append(path)
            return parse(path, scalars)

        monkeypatch.setattr(tkio, "_sketch_slabs", recorded)
        out = tmp_path / "m.tksk"
        capsys.readouterr()
        rc = main(["merge", *map(str, paths), "--out", str(out)])
        err = capsys.readouterr().err
        if second == "good":
            assert rc == 4
            assert err == f"error: {paths[2]}: checksum mismatch, file is corrupt\n"
            assert opened == [str(p) for p in paths]
        else:
            assert rc == 5
            assert err == ("error: sketches were built under different parameters; "
                           "refusing to merge\n")
            assert opened == [str(p) for p in paths[:2]]
        assert not out.exists()


class TestRecoverCommand:
    def _sketch_files(self, tmp_path, x, seed=21):
        xfile = tmp_path / "x.tktn"
        write_tensor(xfile, x)
        skfile = tmp_path / "x.tksk"
        rc = main(["sketch", "--input", str(xfile), "--rank", "3", "--seed", str(seed),
                   "--out", str(skfile)])
        assert rc == 0
        return xfile, skfile

    def test_two_pass_with_report(self, tmp_path, exact_tensor):
        xfile, skfile = self._sketch_files(tmp_path, exact_tensor)
        out = tmp_path / "f.tkz"
        report = tmp_path / "report.json"
        rc = main(["recover", "--sketch", str(skfile), "--mode", "two-pass",
                   "--input", str(xfile), "--out", str(out), "--report", str(report)])
        assert rc == 0
        fact = read_tucker(out)
        assert _rel_err(exact_tensor, fact) <= 1e-9
        data = json.loads(report.read_text())
        assert data["passes"] == 2
        assert data["normalized_error"] <= 1e-9
        assert data["k"] == [7, 7, 7]
        # k = 7 exceeds the tensor's rank 3 in every mode
        assert data["degenerate_modes"] == [0, 1, 2]
        assert len(data["qr_diag_ratios"]) == 3
        assert max(data["qr_diag_ratios"]) <= 1e-12
        assert data["core_conditions"] == []

    def test_one_pass_report_has_core_conditions(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        report = tmp_path / "report.json"
        rc = main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz"),
                   "--report", str(report)])
        assert rc == 0
        want = one_pass_recover(read_sketch(skfile))
        data = json.loads(report.read_text())
        got = data["core_conditions"]
        assert len(got) == 3 and all(c >= 1.0 for c in got)
        np.testing.assert_allclose(got, want.core_conditions, rtol=1e-10)
        assert data["qr_diag_ratios"] == list(want.qr_diag_ratios)
        assert data["degenerate_modes"] == [0, 1, 2]

    def test_report_has_one_pass_inflation(self, tmp_path, exact_tensor):
        # --rank 3: k = 7, s = 15 in every mode, so 1 + 7 / (15 - 7 - 1) = 2
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        report = tmp_path / "report.json"
        assert main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz"),
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["one_pass_inflation"] == 2.0

    def test_report_one_pass_inflation_is_null_when_undefined(self, tmp_path, exact_tensor):
        # s_1 = k_1 + 1 leaves the bound undefined in mode 1
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, exact_tensor)
        with pytest.warns(UserWarning):
            assert main(["sketch", "--input", str(xfile), "--k", "3,4,3", "--s", "9,5,9",
                         "--out", str(skfile)]) == 0
        report = tmp_path / "report.json"
        assert main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz"),
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["one_pass_inflation"] is None

    def test_two_pass_without_input_is_usage_error(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        rc = main(["recover", "--sketch", str(skfile), "--mode", "two-pass",
                   "--out", str(tmp_path / "f.tkz")])
        assert rc == 2

    def test_method_without_trunc_is_usage_error(self, tmp_path, capsys, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--method", "st_hosvd",
                   "--out", str(out)])
        assert rc == 2
        assert "--method" in capsys.readouterr().err
        assert not out.exists()

    def test_one_pass_with_truncation(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--mode", "one-pass",
                   "--trunc", "3", "--out", str(out)])
        assert rc == 0
        fact = read_tucker(out)
        assert fact.rank == (3, 3, 3)
        assert _rel_err(exact_tensor, fact) <= 1e-8

    def test_infeasible_truncation_exits_6(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--trunc", "9",
                   "--out", str(out)])
        assert rc == 6
        assert not out.exists()

    def test_zero_truncation_rank_exits_6(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--trunc", "0", "--out", str(out)])
        assert rc == 6
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_input_of_another_shape_exits_2(self, tmp_path, capsys, exact_tensor, mode):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        other = tmp_path / "y.tktn"
        write_tensor(other, exact_tensor[:, :, :-1])
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--mode", mode, "--input", str(other),
                   "--out", str(out)])
        assert rc == 2
        assert "tensor has shape (14, 14, 13) but sketch covers (14, 14, 14)" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_hosvd_method(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--trunc", "3,2,3",
                   "--method", "hosvd", "--out", str(out)])
        assert rc == 0
        want = fixed_rank_truncate(one_pass_recover(read_sketch(skfile)).factorization,
                                   (3, 2, 3), method="hosvd")
        got = read_tucker(out)
        np.testing.assert_array_equal(got.core, want.core)
        for a, b in zip(got.factors, want.factors):
            np.testing.assert_array_equal(a, b)

    def test_rank_deficient_core_exits_1(self, tmp_path, capsys, exact_tensor):
        # a core map this sparse keeps whole columns of Phi at zero
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, exact_tensor)
        with pytest.warns(UserWarning):
            rc = main(["sketch", "--input", str(xfile), "--k", "5", "--s", "6",
                       "--core-drm", "sparse_sign", "--density", "0.01", "--seed", "11",
                       "--out", str(skfile)])
        assert rc == 0
        out = tmp_path / "f.tkz"
        capsys.readouterr()
        with warnings.catch_warnings():
            # the sizes were warned about once, when sketching
            warnings.simplefilter("error", UserWarning)
            assert main(["merge", str(skfile), str(skfile),
                         "--out", str(tmp_path / "m.tksk")]) == 0
            capsys.readouterr()
            assert main(["recover", "--sketch", str(skfile), "--out", str(out)]) == 1
        assert "rank deficient" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_sketch_file_is_checked_once(self, tmp_path, monkeypatch, mode):
        # The recovery parses the sketch file once, and closes it before the
        # tensor file is opened, once: by two-pass for its core (a noisy
        # tensor's projected score needs no second read), by one-pass to score.
        x = np.random.default_rng(9).normal(size=(12, 11, 10))
        xfile, skfile = self._sketch_files(tmp_path, x)
        parsed, opened, readers = [], [], []
        parse, open_slabs = tkio._sketch_slabs, tkio._iter_slabs

        def parsing(path, scalars):
            parsed.append(path)
            reader = parse(path, scalars)
            readers.append(weakref.ref(reader))
            return reader

        def opening(path, scalars):
            assert all(r() is None or r().gi_frame is None for r in readers)
            opened.append(path)
            return open_slabs(path, scalars)

        monkeypatch.setattr(tkio, "_sketch_slabs", parsing)
        monkeypatch.setattr(tkio, "_iter_slabs", opening)
        rc = main(["recover", "--sketch", str(skfile), "--mode", mode, "--input", str(xfile),
                   "--out", str(tmp_path / "f.tkz")])
        assert rc == 0
        assert parsed == [str(skfile)]
        assert opened == [str(xfile)]

    def test_corrupt_sketch_exits_4(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        raw = bytearray(skfile.read_bytes())
        raw[40] ^= 0x55
        skfile.write_bytes(bytes(raw))
        rc = main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz")])
        assert rc == 4

    # --rank 3 on 14^3: the core sketch is 15^3 from byte 2449 to 29449, read
    # here in 8 slabs of 2 planes, the last of 1.
    _CORE_AT, _CORE_BYTES = 5 + 4 + 16 + 72 + 8 * 3 * 14 * 7, 8 * 15**3

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    @pytest.mark.parametrize("damage", [
        "nan-in-the-last-slab", "truncated-core", "trailing", "nan-under-a-bad-checksum",
    ])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_damaged_core_exits_4(self, tmp_path, monkeypatch, capsys, exact_tensor, mode,
                                  damage):
        monkeypatch.setattr(tkio, "_SKETCH_SLAB_SCALARS", 2 * 15 * 15)
        xfile, skfile = self._sketch_files(tmp_path, exact_tensor)
        sk = read_sketch(skfile)
        core = sk.core_sketch.copy()
        if damage.startswith("nan"):
            core[4, 9, 14] = np.nan
        write_sketch(skfile, TuckerSketch(sk.params, sk.shape, sk.factor_sketches, core))
        body = bytearray(skfile.read_bytes()[:-4])
        if damage == "truncated-core":
            body = body[: self._CORE_AT + 100]
        elif damage == "trailing":
            body += b"\0\0"
        crc = zlib.crc32(body) ^ (damage == "nan-under-a-bad-checksum")
        skfile.write_bytes(bytes(body) + struct.pack("<I", crc))
        message = {
            "nan-in-the-last-slab": "non-finite values in the core sketch",
            "truncated-core": f"truncated at byte {self._CORE_AT} "
                              f"(needed {self._CORE_BYTES} more, have 100)",
            "trailing": f"2 trailing bytes at byte {self._CORE_AT + self._CORE_BYTES}",
            "nan-under-a-bad-checksum": "checksum mismatch, file is corrupt",
        }[damage]
        out = tmp_path / "f.tkz"
        capsys.readouterr()
        rc = main(["recover", "--sketch", str(skfile), "--mode", mode, "--input", str(xfile),
                   "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {skfile}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_archive_and_report_are_the_library_results(self, tmp_path, monkeypatch,
                                                        exact_tensor, mode):
        # The command passes the sketch file's path to the recovery, which
        # reads its core sketch in slabs (8 here); the library recovers the
        # sketch read whole, in views of the same slabs.
        monkeypatch.setattr(tkio, "_SKETCH_SLAB_SCALARS", 2 * 15 * 15)
        xfile, skfile = self._sketch_files(tmp_path, exact_tensor)
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        argv = ["recover", "--sketch", str(skfile), "--out", str(out), "--report", str(report)]
        if mode == "two-pass":
            argv += ["--mode", "two-pass", "--input", str(xfile)]
        assert main(argv) == 0
        sk = read_sketch(skfile)
        want = one_pass_recover(sk) if mode == "one-pass" else two_pass_recover(xfile, sk)
        write_tucker(tmp_path / "want.tkz", want.factorization)
        assert out.read_bytes() == (tmp_path / "want.tkz").read_bytes()
        data = json.loads(report.read_text())
        assert data["core_solver_residuals"] == list(want.core_solver_residuals)
        assert data["peak_aux_scalars"] == want.peak_aux_scalars > 0


def _close(got, want, rtol):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestStreamedInput:
    """``--input`` files are folded and scored in last-mode slabs; slabs of
    3 planes make several of them, the last one short."""

    @pytest.fixture(autouse=True)
    def small_slabs(self, monkeypatch):
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 3 * 13 * 13)
        monkeypatch.setattr(tkio, "_RECOVER_SLAB_SCALARS", 3 * 13 * 13)

    @pytest.fixture
    def tensor(self):
        return gen_synthetic(SyntheticSpec("low_rank_noise", 13, 3, 3, seed=4, gamma=0.1))

    @pytest.mark.parametrize("kind", FACTOR_KINDS)
    def test_sketch_matches_library(self, tmp_path, monkeypatch, kind):
        # Order 4, last mode 8: slabs of 3, 3 and 2 planes.
        x = np.random.default_rng(6).normal(size=(13, 12, 11, 8))
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 3 * 13 * 12 * 11)
        xfile, out = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, x)
        rc = main(["sketch", "--input", str(xfile), "--k", "3", "--s", "7", "--drm", kind,
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        got = read_sketch(out)
        assert got.params.omega_kind == kind
        want = tucker_sketch(x, got.params)
        for a, b in zip(got.factor_sketches, want.factor_sketches):
            _close(a, b, 1e-13)
        _close(got.core_sketch, want.core_sketch, 1e-13)

    def test_two_pass_matches_in_memory(self, tmp_path, tensor):
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, tensor)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0
        sk = read_sketch(skfile)
        want = two_pass_recover(tensor, sk).factorization
        out = tmp_path / "f.tkz"
        rc = main(["recover", "--sketch", str(skfile), "--mode", "two-pass",
                   "--input", str(xfile), "--out", str(out)])
        assert rc == 0
        for got in (two_pass_recover(xfile, sk).factorization, read_tucker(out)):
            _close(got.core, want.core, 1e-12)
            for a, b in zip(got.factors, want.factors):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_normalized_error_matches_residual(self, tmp_path, tensor, mode):
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, tensor)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        rc = main(["recover", "--sketch", str(skfile), "--mode", mode, "--input", str(xfile),
                   "--trunc", "2", "--out", str(out), "--report", str(report)])
        assert rc == 0
        got = json.loads(report.read_text())["normalized_error"]
        want = fro_norm(tensor - tucker_to_dense(read_tucker(out))) / fro_norm(tensor)
        assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _count_slabs(monkeypatch) -> list:
        """Record the offset of every slab any reader of the file yields."""
        read, offsets = tkio.read_tensor_slabs, []

        def counted(path, recovery=False):
            shape, slabs = read(path, recovery)
            return shape, ((offsets.append(offset), (offset, slab))[1]
                           for offset, slab in slabs)

        monkeypatch.setattr(tkio, "read_tensor_slabs", counted)
        monkeypatch.setattr(recovery, "read_tensor_slabs", counted)
        return offsets

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_noisy_input_is_read_once(self, tmp_path, monkeypatch, tensor, mode):
        # 13 last-mode planes in slabs of 3: one-pass scores by expansion
        # in its one read, two-pass from the pass that makes its core.
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, tensor)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0
        offsets = self._count_slabs(monkeypatch)
        rc = main(["recover", "--sketch", str(skfile), "--mode", mode, "--input", str(xfile),
                   "--trunc", "2", "--out", str(tmp_path / "f.tkz")])
        assert rc == 0
        assert offsets == [0, 3, 6, 9, 12]

    def test_exact_input_is_scored_again_by_expansion(self, tmp_path, monkeypatch):
        # A projected error below 1e-3 has cancelled in ||X||^2 - ||W||^2,
        # so the file is read a second time and the error expanded.
        x = gen_synthetic(SyntheticSpec("low_rank_noise", 13, 3, 3, seed=4, gamma=0.0))
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, x)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0
        offsets = self._count_slabs(monkeypatch)
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        rc = main(["recover", "--sketch", str(skfile), "--mode", "two-pass", "--input",
                   str(xfile), "--out", str(out), "--report", str(report)])
        assert rc == 0
        assert offsets == [0, 3, 6, 9, 12] * 2
        assert json.loads(report.read_text())["normalized_error"] <= 1e-9

    @pytest.mark.parametrize("trunc", [[], ["--trunc", "3"]], ids=["rank-k", "trunc"])
    @pytest.mark.parametrize("gamma", [1e-1, 1e-2, 1e-3])
    def test_projected_error_matches_expansion(self, tmp_path, monkeypatch, gamma, trunc):
        # Errors from 1.3e-3 to 0.2: two-pass scores them all from the
        # pass that makes its core.
        x = gen_synthetic(SyntheticSpec("low_rank_noise", 13, 3, 3, seed=4, gamma=gamma))
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, x)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0

        def expanded(slabs, fact):
            raise AssertionError("scored by expansion")

        monkeypatch.setattr(recovery, "_expanded_error", expanded)
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        rc = main(["recover", "--sketch", str(skfile), "--mode", "two-pass", "--input",
                   str(xfile), *trunc, "--out", str(out), "--report", str(report)])
        assert rc == 0
        got = json.loads(report.read_text())["normalized_error"]
        want = fro_norm(x - tucker_to_dense(read_tucker(out))) / fro_norm(x)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
    def test_score_is_scale_free(self, tmp_path, mode):
        # The squares of x * 2^530 pass the float range and those of
        # x * 2^-560 underflow to zero; the score is that of x at both.
        x = np.random.default_rng(0).standard_normal((20, 21, 22))
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        scores = []
        for exp in (0, 530, -560):
            write_tensor(xfile, np.ldexp(x, exp))
            assert main(["sketch", "--input", str(xfile), "--rank", "2", "--seed", "4",
                         "--out", str(skfile)]) == 0
            assert main(["recover", "--sketch", str(skfile), "--mode", mode, "--input",
                         str(xfile), "--out", str(out), "--report", str(report)]) == 0
            scores.append(json.loads(report.read_text())["normalized_error"])
        if mode == "one-pass":  # the expansion at every scale, exactly scaled
            assert scores == [pytest.approx(1.3863910988119252, rel=1e-12)] * 3
            assert len(set(scores)) == 1
        else:  # the projection, then the expansion
            assert scores[0] == pytest.approx(0.9910264963904537, rel=1e-12)
            assert scores[1:] == [pytest.approx(scores[0], abs=1e-9)] * 2

    def test_report_and_archive_scale_exactly(self, tmp_path):
        # The one-pass residuals of x * 2^530 are past the float range when
        # squared, those of x * 2^-560 underflow; in units they are those
        # of x times 2^e, strict JSON, and the archive's core scales alike.
        def strict(const):
            raise ValueError(f"{const} is not strict JSON")

        x = np.random.default_rng(0).standard_normal((20, 21, 22))
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        got = {}
        for exp in (0, 530, -560):
            write_tensor(xfile, np.ldexp(x, exp))
            assert main(["sketch", "--input", str(xfile), "--rank", "2", "--seed", "4",
                         "--out", str(skfile)]) == 0
            assert main(["recover", "--sketch", str(skfile), "--out", str(out),
                         "--report", str(report)]) == 0
            summary = json.loads(report.read_text(), parse_constant=strict)
            got[exp] = summary["core_solver_residuals"], read_tucker(out)
        residuals, fact = got[0]
        assert residuals == pytest.approx(
            [2261.893737158333, 504.0070260673223, 194.29976450992805], rel=1e-12)
        for exp in (530, -560):
            assert got[exp][0] == [math.ldexp(v, exp) for v in residuals]
            np.testing.assert_array_equal(got[exp][1].core, np.ldexp(fact.core, exp))
            for a, b in zip(got[exp][1].factors, fact.factors):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("damage", ["truncated", "trailing"])
    @pytest.mark.parametrize("command", ["sketch", "recover"])
    def test_damaged_input_fails_before_any_slab(
        self, tmp_path, monkeypatch, capsys, tensor, damage, command
    ):
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, tensor)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0
        raw = xfile.read_bytes()
        xfile.write_bytes(raw[:-9] if damage == "truncated" else raw + b"\x00" * 3)
        with pytest.raises(tkio.FileFormatError) as want:
            tkio.read_tensor(xfile)

        read_into = tkio._read_into

        def guarded(fh, flat, what):
            assert what != str(xfile), "a slab was read from a damaged file"
            return read_into(fh, flat, what)

        monkeypatch.setattr(tkio, "_read_into", guarded)
        capsys.readouterr()
        out = tmp_path / "out"
        if command == "sketch":
            argv = ["sketch", "--input", str(xfile), "--rank", "3", "--out", str(out)]
        else:
            argv = ["recover", "--sketch", str(skfile), "--mode", "two-pass",
                    "--input", str(xfile), "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert not out.exists()

    def test_nan_in_tensor_file_names_the_slab(self, tmp_path, capsys, tensor):
        x = tensor.copy()
        x[2, 5, 7] = np.nan  # last-mode row 7 lies in the slab of rows 6:9
        xfile, out = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, x)
        rc = main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(out)])
        assert rc == 2
        assert f"{xfile}: rows 6:9 of mode 2 made the sketch non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, message", [
        ("one-pass", "sum of squares is not finite"),
        ("two-pass", "rows 6:9 of mode 2 made the two-pass core non-finite"),
    ])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_in_recover_input_exits_2(self, tmp_path, capsys, tensor, mode, message):
        xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
        write_tensor(xfile, tensor)
        assert main(["sketch", "--input", str(xfile), "--rank", "3", "--out", str(skfile)]) == 0
        x = tensor.copy()
        x[2, 5, 7] = np.nan  # last-mode row 7 lies in the slab of rows 6:9
        write_tensor(xfile, x)
        out, report = tmp_path / "f.tkz", tmp_path / "r.json"
        capsys.readouterr()
        rc = main(["recover", "--sketch", str(skfile), "--mode", mode, "--input", str(xfile),
                   "--out", str(out), "--report", str(report)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not report.exists()


class TestStreamPieces:
    """``--stream`` records are folded in pieces: with pieces of 2 planes a
    full record of 9 planes takes 5, a last-mode slab record of 5 planes 3."""

    SHAPE = (6, 5, 9)

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 2 * 6 * 5)

    @staticmethod
    def _block(mode, offset, count):
        return tuple(slice(offset, offset + count) if m == mode else slice(None)
                     for m in range(3))

    @pytest.mark.parametrize("kind", FACTOR_KINDS)
    def test_sketch_matches_the_net_tensor(self, tmp_path, kind):
        rng = np.random.default_rng(11)
        net = np.zeros(self.SHAPE)
        records = []
        # A mode-1 slab too large for the piece buffer, a mode-0 slab that
        # fits it, then a full record and a last-mode slab record in pieces.
        for theta1, theta2, mode, offset, count in [
            (1.0, 0.7, 1, 1, 3), (0.9, -1.3, 0, 2, 1), (0.5, 2.0, None, 0, 9),
            (0.8, 1.5, 2, 3, 5),
        ]:
            net *= theta1
            if mode is None:
                data = rng.normal(size=self.SHAPE)
                net += theta2 * data
                records.append(FullUpdate(theta1, theta2, data))
            else:
                block = self._block(mode, offset, count)
                data = rng.normal(size=net[block].shape)
                net[block] += theta2 * data
                records.append(SlabUpdate(theta1, theta2, mode, offset, data))
        stream, out = tmp_path / "u.tkus", tmp_path / "u.tksk"
        write_update_stream(stream, self.SHAPE, records)
        rc = main(["sketch", "--stream", str(stream), "--k", "2", "--s", "5", "--drm", kind,
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        got = read_sketch(out)
        want = tucker_sketch(net, got.params)
        for a, b in zip(got.factor_sketches, want.factor_sketches):
            _close(a, b, 1e-13)
        _close(got.core_sketch, want.core_sketch, 1e-13)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_in_a_later_piece_names_the_record(self, tmp_path, capsys):
        x = np.random.default_rng(12).normal(size=self.SHAPE)
        bad = x.copy()
        bad[1, 2, 3] = np.nan  # plane 3 lies in the second piece, planes 2:4
        stream, out = tmp_path / "u.tkus", tmp_path / "u.tksk"
        write_update_stream(stream, self.SHAPE, [
            SlabUpdate(1.0, 1.0, mode=0, offset=0, slab=x[:1]),
            FullUpdate(0.5, 1.0, bad),
        ])
        rc = main(["sketch", "--stream", str(stream), "--rank", "1", "--out", str(out)])
        assert rc == 2
        assert f"{stream}: record 1 made the sketch non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_full_record_fails_before_its_pieces(
        self, tmp_path, monkeypatch, capsys
    ):
        x = np.random.default_rng(13).normal(size=self.SHAPE)
        stream, out = tmp_path / "u.tkus", tmp_path / "u.tksk"
        write_update_stream(stream, self.SHAPE, [
            SlabUpdate(1.0, 1.0, mode=2, offset=0, slab=x[..., :1]),
            FullUpdate(1.0, 1.0, x),
        ])
        stream.write_bytes(stream.read_bytes()[:-9])
        with pytest.raises(tkio.FileFormatError) as want:
            list(tkio.read_update_stream(stream)[1])

        folded = []
        update_slab = StreamingSketcher.update_slab

        def counted(acc, mode, offset, slab, *thetas):
            folded.append((mode, offset, slab.shape))
            return update_slab(acc, mode, offset, slab, *thetas)

        monkeypatch.setattr(StreamingSketcher, "update_slab", counted)
        capsys.readouterr()
        rc = main(["sketch", "--stream", str(stream), "--rank", "1", "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert folded == [(2, 0, (6, 5, 1))]
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_in_stream_record_names_the_record(tmp_path, capsys):
    x = np.random.default_rng(7).normal(size=(6, 5, 4))
    bad = x[:, 1:3, :].copy()
    bad[0, 0, 0] = np.inf
    stream = tmp_path / "u.tkus"
    write_update_stream(stream, x.shape, [
        FullUpdate(1.0, 1.0, x),
        SlabUpdate(1.0, 1.0, mode=1, offset=1, slab=x[:, 1:3, :]),
        SlabUpdate(1.0, 1.0, mode=1, offset=1, slab=bad),
        FullUpdate(0.0, 1.0, x),  # theta1 = 0 does not clear it: 0 * inf is nan
    ])
    out = tmp_path / "s.tksk"
    rc = main(["sketch", "--stream", str(stream), "--rank", "1", "--out", str(out)])
    assert rc == 2
    assert f"{stream}: record 2 made the sketch non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["merge", "recover", "merge-third", "one-pass-input", "two-pass-input"]
)
def test_nan_in_sketch_file_exits_4(tmp_path, capsys, command):
    x = np.random.default_rng(8).normal(size=(8, 8, 8))
    params = SketchParams(k=(3,) * 3, s=(7,) * 3, master_seed=4)
    good = tucker_sketch(x, params)
    core = good.core_sketch.copy()
    core[1, 2, 3] = np.nan
    bad = tmp_path / "bad.tksk"
    write_sketch(bad, TuckerSketch(params, good.shape, good.factor_sketches, core))
    write_sketch(tmp_path / "good.tksk", good)
    # A truncated tensor file fails too, but the sketch is checked first.
    xfile = tmp_path / "x.tktn"
    write_tensor(xfile, x)
    xfile.write_bytes(xfile.read_bytes()[:-8])
    out, ok = tmp_path / "out", str(tmp_path / "good.tksk")
    argv = {
        "merge": ["merge", ok, str(bad)],
        "merge-third": ["merge", ok, ok, str(bad)],
        "recover": ["recover", "--sketch", str(bad)],
        "one-pass-input": ["recover", "--sketch", str(bad), "--input", str(xfile)],
        "two-pass-input": ["recover", "--sketch", str(bad), "--mode", "two-pass",
                           "--input", str(xfile)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 4
    assert capsys.readouterr().err == f"error: {bad}: non-finite values in the core sketch\n"
    assert not out.exists()


class TestBenchCommand:
    def test_csv_written_and_deterministic(self, tmp_path):
        args = ["bench", "--side", "10", "--order", "3", "--rank", "2",
                "--gamma", "0.1,1.0", "--trials", "2", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        text = a.read_text()
        assert text == b.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("scheme,side,order,rank,gamma")
        assert len(lines) == 1 + 2 * 4  # two gamma cells, four methods

    def test_bad_trials_is_usage_error(self, tmp_path):
        rc = main(["bench", "--side", "8", "--rank", "2", "--trials", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("maps", [["--drm", "trp"], ["--drm", "gaussian"],
                                      ["--drm", "ssrft", "--core-drm", "gaussian"]])
    def test_density_without_a_sparse_sign_map_is_usage_error(self, tmp_path, capsys, maps):
        # The CSV has no density column, so an unused density would pass
        # unseen.
        out = tmp_path / "b.csv"
        rc = main(["bench", "--side", "12", "--rank", "2", "--trials", "1", *maps,
                   "--density", "0.5", "--out", str(out)])
        assert rc == 2
        assert "--density sets the nonzero fraction of sparse_sign maps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("maps, density", [
        (["--drm", "sparse_sign", "--density", "0.5"], 0.5),
        (["--drm", "trp", "--core-drm", "sparse_sign", "--density", "0.5"], 0.5),
        (["--drm", "sparse_sign"], 0.1),
    ], ids=["factor", "core", "default"])
    def test_density_reaches_a_sparse_sign_map(self, tmp_path, monkeypatch, maps, density):
        grids, run = [], harness.run_experiment

        def recorded(grid, **kwargs):
            grids.append(grid)
            return run(grid, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", recorded)
        out = tmp_path / "b.csv"
        assert main(["bench", "--side", "12", "--rank", "2", "--trials", "1", *maps,
                     "--out", str(out)]) == 0
        assert [params.density for _, params in grids[0]] == [density]


    def test_poly_decay_scheme(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["bench", "--scheme", "poly_decay", "--side", "10", "--rank", "2",
                     "--decay", "1.0,2.0", "--trials", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 * 4
        assert {r["decay"] for r in rows} == {"1.0", "2.0"}

    @pytest.mark.parametrize("s, want", [
        ("7,9", ["7x7x7", "9x9x9"]),  # one per --k value, in order
        ("9", ["9x9x9", "9x9x9"]),  # one for every k
    ], ids=["per-k", "one"])
    def test_s_goes_with_each_k(self, tmp_path, s, want):
        out = tmp_path / "b.csv"
        assert main(["bench", "--side", "10", "--rank", "2", "--k", "3,4", "--s", s,
                     "--trials", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        cells = {r["k"]: r["s"] for r in rows}
        assert cells == {"3x3x3": want[0], "4x4x4": want[1]}

    def test_s_count_neither_one_nor_per_k_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--side", "10", "--rank", "2", "--k", "3,4", "--s", "7,9,11",
                   "--out", str(out)])
        assert rc == 2
        assert "--s" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("option, values", [
        ("--gamma", ("0.1", "1.0")),
        ("--delta", ("0.2", "0.3")),
        ("--decay", ("1.0", "2.0")),
        ("--k", ("3", "4")),
        ("--s", ("7", "9")),
    ])
    def test_list_option_given_twice_exits_2(self, tmp_path, capsys, option, values):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", "--side", "10", "--rank", "2", option, values[0],
                  option, values[1], "--out", str(out)])
        assert err.value.code == 2
        assert f"argument {option}: given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_gamma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", "--side", "10", "--rank", "2", "--gamma", "x", "--out", str(out)])
        assert err.value.code == 2
        assert "expected comma-separated floats" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_leaves_scipy_linalg_out():
    # Every command pays for what `import tuckersketch.cli` loads.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tuckersketch.cli; print('scipy.linalg' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"


def _loaded_modules(script: str, *prefixes: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``script`` that
    are one of ``prefixes`` or lie inside one (``scipy`` covers
    ``scipy.special``)."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script + "\nimport json, sys\n"
         f"prefixes = {prefixes!r}\n"
         "print(json.dumps(sorted(m for m in sys.modules\n"
         "    if any(m == p or m.startswith(p + '.') for p in prefixes))))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert _loaded_modules("import tuckersketch.cli", "scipy") == []


def test_merge_and_two_pass_recover_leave_scipy_out(tmp_path):
    # Only Gaussian and TRP maps need scipy (ndtri); merging and two-pass
    # recovery realize no map at all.
    x = np.random.default_rng(5).normal(size=(10, 9, 8))
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    assert main(["sketch", "--input", str(xfile), "--rank", "2", "--out", str(skfile)]) == 0
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['merge', {str(skfile)!r}, {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'm.tksk')!r}]) == 0\n"
        f"assert main(['recover', '--sketch', {str(tmp_path / 'm.tksk')!r}, "
        f"'--mode', 'two-pass', '--input', {str(xfile)!r}, '--trunc', '2', "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0"
    )
    assert _loaded_modules(script, "scipy") == []


def test_package_import_loads_no_submodule():
    # Each public name loads the module that defines it on first use;
    # listing the names loads none.
    script = (
        "import tuckersketch\n"
        "assert set(tuckersketch.__all__) <= set(dir(tuckersketch))"
    )
    assert _loaded_modules(script, "tuckersketch") == ["tuckersketch"]


# The package modules every command loads (the command line, the file
# formats, the sketch and the tensor kernels), and those each loads besides.
_CLI_MODULES = ("cli", "io", "sketch", "tensor")
_COMMAND_MODULES = {
    "sketch": ("drm", "rng"),
    "merge": (),
    "one-pass": ("drm", "recovery", "rng"),
    "two-pass": ("recovery",),
    "bench": ("drm", "harness", "recovery", "rng"),
}


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    # Merging and two-pass recovery make no map, so they load no map
    # module; only bench loads the harness.
    x = np.random.default_rng(5).normal(size=(10, 9, 8))
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    assert main(["sketch", "--input", str(xfile), "--rank", "2", "--out", str(skfile)]) == 0
    out = str(tmp_path / "out")
    argv = {
        "sketch": ["sketch", "--input", str(xfile), "--rank", "2", "--out", out],
        "merge": ["merge", str(skfile), str(skfile), "--out", out],
        "one-pass": ["recover", "--sketch", str(skfile), "--out", out],
        "two-pass": ["recover", "--sketch", str(skfile), "--mode", "two-pass",
                     "--input", str(xfile), "--trunc", "2", "--out", out],
        "bench": ["bench", "--side", "8", "--rank", "1", "--trials", "1", "--out", out],
    }[command]
    script = f"from tuckersketch.cli import main\nassert main({argv!r}) == 0"
    modules = _CLI_MODULES + _COMMAND_MODULES[command]
    want = ["tuckersketch"] + [f"tuckersketch.{m}" for m in modules]
    assert _loaded_modules(script, "tuckersketch") == sorted(want)


@pytest.mark.parametrize(
    "drm", [["--drm", "ssrft"], ["--drm", "sparse_sign", "--core-drm", "ssrft"]],
    ids=["ssrft", "sparse_sign+ssrft"],
)
def test_ssrft_sketch_and_one_pass_recover_leave_scipy_out(tmp_path, drm):
    # SSRFT entries come from numpy.fft: these maps load no scipy.
    x = np.random.default_rng(6).normal(size=(10, 9, 8))
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['sketch', '--input', {str(xfile)!r}, '--rank', '1', *{drm!r}, "
        f"'--out', {str(skfile)!r}]) == 0\n"
        f"assert main(['recover', '--sketch', {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0"
    )
    assert _loaded_modules(script, "scipy") == []


def test_trp_stream_sketch_and_one_pass_recover_leave_scipy_out(tmp_path):
    # TRP factors and Gaussian core maps of a few hundred entries each are
    # drawn through the ndtri port, which loads no scipy.
    x = np.random.default_rng(7).normal(size=(12, 11, 10, 9))
    xfile, skfile = tmp_path / "x.tkus", tmp_path / "x.tksk"
    write_update_stream(xfile, x.shape, [
        FullUpdate(1.0, 1.0, x),
        SlabUpdate(0.5, 1.0, mode=3, offset=2, slab=x[..., 2:6]),
    ])
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['sketch', '--stream', {str(xfile)!r}, '--rank', '2', "
        f"'--drm', 'trp', '--out', {str(skfile)!r}]) == 0\n"
        f"assert main(['recover', '--sketch', {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0"
    )
    assert _loaded_modules(script, "scipy") == []


def test_one_pass_recover_of_a_gaussian_sketch_leaves_scipy_out(tmp_path):
    # One-pass recovery realizes only the core maps (460 x 11 at most here),
    # never the factor maps the sketch needed scipy for (211600 x 5 for
    # mode 0, past NDTRI_PORT_MAX).
    x = np.random.default_rng(8).normal(size=(12, 460, 460))
    spec = SketchParams.for_rank(2, 0, order=3).omega_spec(x.shape, 0)
    assert spec.in_dim * spec.out_dim > rng.NDTRI_PORT_MAX
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    assert main(["sketch", "--input", str(xfile), "--rank", "2", "--out", str(skfile)]) == 0
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['recover', '--sketch', {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0"
    )
    assert _loaded_modules(script, "scipy") == []


def test_gaussian_sketcher_past_the_port_limit_loads_scipy_when_made():
    # A Gaussian factor map of more than NDTRI_PORT_MAX entries draws
    # through scipy's ndtri, chosen when the map is made, so scipy is
    # imported by the constructor and not by the first slab.  Imported after
    # the first GEMM, it runs while OpenBLAS's worker thread spins on the
    # other core: on 2 vCPUs a 200^3 sketch at r=10 took 0.79 s that way
    # against 0.77 s (medians of 20 alternating pairs, slower in 15).
    params = SketchParams.for_rank(10, 0, order=3)
    spec = params.omega_spec((240, 240, 240), 0)
    assert spec.in_dim * spec.out_dim > rng.NDTRI_PORT_MAX
    script = (
        "from tuckersketch.sketch import SketchParams, StreamingSketcher\n"
        "StreamingSketcher((240, 240, 240), SketchParams.for_rank(10, 0, order=3))"
    )
    assert "scipy.special" in _loaded_modules(script, "scipy")


def test_gaussian_sketcher_of_a_desk_size_tensor_leaves_scipy_out():
    # 200^3 at r=10: each factor map has 40000 x 21 entries, within
    # NDTRI_PORT_MAX, so all three draw through the port, whole.
    params = SketchParams.for_rank(10, 0, order=3)
    spec = params.omega_spec((200, 200, 200), 0)
    assert rng.BLOCK_WORDS < spec.in_dim * spec.out_dim <= rng.NDTRI_PORT_MAX
    script = (
        "from tuckersketch.drm import make_drm\n"
        "from tuckersketch.sketch import SketchParams, StreamingSketcher\n"
        "params, shape = SketchParams.for_rank(10, 0, order=3), (200, 200, 200)\n"
        "StreamingSketcher(shape, params)\n"
        "for n in range(3):\n"
        "    make_drm(params.omega_spec(shape, n)).entries"
    )
    assert _loaded_modules(script, "scipy") == []


# numpy.random, and the OpenSSL binding that it loads through secrets and
# hashlib, cost a command about 17 ms and 6 MiB of RSS.
_RANDOM_MODULES = ("numpy.random", "_hashlib")


@pytest.fixture(scope="module")
def lazy_numpy_random():
    if _loaded_modules("import numpy", "numpy.random"):
        pytest.skip("import numpy loads numpy.random itself (numpy < 2)")


def test_trp_stream_sketch_loads_no_numpy_random(tmp_path, lazy_numpy_random):
    # TRP factors and Gaussian core maps of a few hundred words each are
    # drawn through the port of Philox.
    x = np.random.default_rng(7).normal(size=(12, 11, 10, 9))
    xfile = tmp_path / "x.tkus"
    write_update_stream(xfile, x.shape, [
        FullUpdate(1.0, 1.0, x),
        SlabUpdate(0.5, 1.0, mode=1, offset=2, slab=x[:, 2:6]),
    ])
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['sketch', '--stream', {str(xfile)!r}, '--rank', '2', "
        f"'--drm', 'trp', '--out', {str(tmp_path / 'x.tksk')!r}]) == 0"
    )
    assert _loaded_modules(script, *_RANDOM_MODULES) == []


@pytest.mark.parametrize("drm", FACTOR_KINDS)
def test_one_pass_recover_loads_no_numpy_random(tmp_path, lazy_numpy_random, drm):
    # One-pass recovery draws only the core maps, of the kind --drm gives
    # (Gaussian for TRP), each under PHILOX_PORT_MAX words.
    x = np.random.default_rng(8).normal(size=(14, 12, 10))
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    assert main(["sketch", "--input", str(xfile), "--rank", "1", "--drm", drm,
                 "--out", str(skfile)]) == 0
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['recover', '--sketch', {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0"
    )
    assert _loaded_modules(script, *_RANDOM_MODULES) == []


def test_merge_and_two_pass_recover_load_no_numpy_random(tmp_path, lazy_numpy_random):
    # They realize no map at all.
    x = np.random.default_rng(5).normal(size=(10, 9, 8))
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    assert main(["sketch", "--input", str(xfile), "--rank", "2", "--out", str(skfile)]) == 0
    script = (
        "from tuckersketch.cli import main\n"
        f"assert main(['merge', {str(skfile)!r}, {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'm.tksk')!r}]) == 0\n"
        f"assert main(['recover', '--sketch', {str(tmp_path / 'm.tksk')!r}, "
        f"'--mode', 'two-pass', '--input', {str(xfile)!r}, '--trunc', '2', "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0"
    )
    assert _loaded_modules(script, *_RANDOM_MODULES) == []


def test_gaussian_sketcher_past_the_philox_port_loads_numpy_random_when_made(
    lazy_numpy_random,
):
    # 60^3 at r=10: each factor map has 3600 x 21 words, past PHILOX_PORT_MAX,
    # so it draws through numpy's Philox, chosen (and imported) when the
    # map is made, before the first product.
    spec = SketchParams.for_rank(10, 0, order=3).omega_spec((60, 60, 60), 0)
    assert spec.in_dim * spec.out_dim > rng.PHILOX_PORT_MAX
    script = (
        "import sys\n"
        "from tuckersketch.sketch import SketchParams, StreamingSketcher\n"
        "assert 'numpy.random' not in sys.modules\n"
        "StreamingSketcher((60, 60, 60), SketchParams.for_rank(10, 0, order=3))"
    )
    assert "numpy.random" in _loaded_modules(script, *_RANDOM_MODULES)


def test_ssrft_sketcher_with_short_streams_loads_no_numpy_random(lazy_numpy_random):
    # An SSRFT map draws no entries from its own stream, only permutations,
    # signs and coordinates of in_dim words each: 3600 here, within
    # PHILOX_PORT_MAX, though the map has 3600 x 21 entries.
    spec = SketchParams.for_rank(10, 0, order=3, omega_kind="ssrft").omega_spec((60, 60, 60), 0)
    assert spec.in_dim <= rng.PHILOX_PORT_MAX < spec.in_dim * spec.out_dim
    script = (
        "from tuckersketch.sketch import SketchParams, StreamingSketcher\n"
        "params = SketchParams.for_rank(10, 0, order=3, omega_kind='ssrft', phi_kind='ssrft')\n"
        "StreamingSketcher((60, 60, 60), params)"
    )
    assert _loaded_modules(script, *_RANDOM_MODULES) == []
