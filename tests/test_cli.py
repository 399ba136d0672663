"""End-to-end command line tests: files in, files out, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tuckersketch import io as tkio
from tuckersketch.cli import main
from tuckersketch.drm import FACTOR_KINDS
from tuckersketch.harness import SyntheticSpec, gen_synthetic
from tuckersketch.io import (
    FullUpdate,
    SlabUpdate,
    read_sketch,
    read_tucker,
    write_sketch,
    write_tensor,
    write_update_stream,
)
from tuckersketch.recovery import one_pass_recover, two_pass_recover
from tuckersketch.sketch import (
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    tucker_sketch,
)
from tuckersketch.tensor import fro_norm, tucker_residual_norm


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
        assert isinstance(data["degenerate_modes"], list)
        assert data["core_conditions"] == []

    def test_one_pass_report_has_core_conditions(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        report = tmp_path / "report.json"
        rc = main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz"),
                   "--report", str(report)])
        assert rc == 0
        want = one_pass_recover(read_sketch(skfile)).core_conditions
        got = json.loads(report.read_text())["core_conditions"]
        assert len(got) == 3 and all(c >= 1.0 for c in got)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_two_pass_without_input_is_usage_error(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        rc = main(["recover", "--sketch", str(skfile), "--mode", "two-pass",
                   "--out", str(tmp_path / "f.tkz")])
        assert rc == 2

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
        with pytest.warns(UserWarning):
            assert main(["recover", "--sketch", str(skfile), "--out", str(out)]) == 1
        assert "rank deficient" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_sketch_exits_4(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        raw = bytearray(skfile.read_bytes())
        raw[40] ^= 0x55
        skfile.write_bytes(bytes(raw))
        rc = main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz")])
        assert rc == 4


def _close(got, want, rtol):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestStreamedInput:
    """``--input`` files are folded and scored in last-mode slabs; slabs of
    3 planes make several of them, the last one short."""

    @pytest.fixture(autouse=True)
    def small_slabs(self, monkeypatch):
        monkeypatch.setattr(tkio, "_READ_SLAB_SCALARS", 3 * 13 * 13)

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
        want = tucker_residual_norm(tensor, read_tucker(out)) / fro_norm(tensor)
        assert got == pytest.approx(want, rel=1e-12)

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


@pytest.mark.parametrize("command", ["merge", "recover"])
def test_nan_in_sketch_file_exits_4(tmp_path, command):
    x = np.random.default_rng(8).normal(size=(8, 8, 8))
    params = SketchParams(k=(3,) * 3, s=(7,) * 3, master_seed=4)
    good = tucker_sketch(x, params)
    core = good.core_sketch.copy()
    core[1, 2, 3] = np.nan
    bad = tmp_path / "bad.tksk"
    write_sketch(bad, TuckerSketch(params, good.shape, good.factor_sketches, core))
    write_sketch(tmp_path / "good.tksk", good)
    out = tmp_path / "out"
    if command == "merge":
        argv = ["merge", str(tmp_path / "good.tksk"), str(bad), "--out", str(out)]
    else:
        argv = ["recover", "--sketch", str(bad), "--out", str(out)]
    assert main(argv) == 4
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


def test_merge_and_two_pass_recover_leave_scipy_out(tmp_path):
    # Only map realization needs scipy (ndtri for Gaussian maps, the DCT
    # for SSRFT); merging and two-pass recovery realize no map.
    x = np.random.default_rng(5).normal(size=(10, 9, 8))
    xfile, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(xfile, x)
    assert main(["sketch", "--input", str(xfile), "--rank", "2", "--out", str(skfile)]) == 0
    script = (
        "import sys\n"
        "from tuckersketch.cli import main\n"
        f"assert main(['merge', {str(skfile)!r}, {str(skfile)!r}, "
        f"'--out', {str(tmp_path / 'm.tksk')!r}]) == 0\n"
        f"assert main(['recover', '--sketch', {str(tmp_path / 'm.tksk')!r}, "
        f"'--mode', 'two-pass', '--input', {str(xfile)!r}, '--trunc', '2', "
        f"'--out', {str(tmp_path / 'f.tkz')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
