"""End-to-end command line tests: files in, files out, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tuckersketch.cli import main
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
from tuckersketch.sketch import SketchParams, tucker_sketch
from tuckersketch.tensor import fro_norm


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

    def test_corrupt_sketch_exits_4(self, tmp_path, exact_tensor):
        _, skfile = self._sketch_files(tmp_path, exact_tensor)
        raw = bytearray(skfile.read_bytes())
        raw[40] ^= 0x55
        skfile.write_bytes(bytes(raw))
        rc = main(["recover", "--sketch", str(skfile), "--out", str(tmp_path / "f.tkz")])
        assert rc == 4


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
