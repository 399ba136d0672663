"""Memory bounds of the copy-free paths, measured with tracemalloc and, for
the command line, with the max RSS of a child process.

A 200^3 float64 tensor (64 MB) in Fortran order, the layout of a file
payload, with Gaussian maps at r=10 (k=21, s=43).  Maps are realized before
measuring, so each bound covers only what the measured call allocates.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tuckersketch.cli import main
from tuckersketch.io import (
    FullUpdate,
    SlabUpdate,
    read_tensor,
    read_tucker,
    write_tensor,
    write_tucker,
    write_update_stream,
)
from tuckersketch.recovery import two_pass_recover
from tuckersketch.drm import FACTOR_KINDS
from tuckersketch.sketch import SketchParams, StreamingSketcher, tucker_sketch
from tuckersketch.tensor import (
    TuckerFactorization,
    fro_norm,
    tucker_residual_norm,
    tucker_to_dense,
)

ROOT = Path(__file__).resolve().parents[1]
SHAPE = (200, 200, 200)
PARAMS = SketchParams.for_rank(10, master_seed=17, order=3)


def _peak(fn):
    """``fn()`` and the tracemalloc peak (bytes) above the level at entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tensor():
    return np.asfortranarray(np.random.default_rng(8).normal(size=SHAPE))


@pytest.fixture(scope="module")
def sketch(tensor):
    return tucker_sketch(tensor, PARAMS)


def test_update_dense_reads_f_input_in_place(tensor):
    acc = StreamingSketcher(SHAPE, PARAMS)
    _, peak = _peak(lambda: acc.update_dense(tensor))
    assert peak < 0.5 * tensor.nbytes


@pytest.mark.parametrize("layout", ["F", "C"])
def test_peak_aux_scalars_tracks_tracemalloc(tensor, layout):
    x = tensor if layout == "F" else np.ascontiguousarray(tensor)
    acc = StreamingSketcher(SHAPE, PARAMS)
    _, peak = _peak(lambda: acc.update_dense(x))
    reported = 8 * acc.peak_aux_scalars
    assert peak / 2 <= reported <= 2 * peak


@pytest.mark.parametrize("om", FACTOR_KINDS)
@pytest.mark.parametrize("layout", ["F", "C32"])
@pytest.mark.parametrize("step", ["dense", "slab"])
@pytest.mark.parametrize("shape", [(80, 90, 100), (150, 120, 8)])
def test_peak_aux_scalars_tracks_every_map_kind(om, layout, step, shape):
    # C-order float32 input is converted to F float64 in one copy; the slab
    # is a non-contiguous view of it.  With a short last mode, TRP's first
    # contraction outgrows the core sketch's.
    x = np.random.default_rng(4).normal(size=shape)
    x = np.asfortranarray(x) if layout == "F" else x.astype(np.float32)
    acc = StreamingSketcher(x.shape, SketchParams.for_rank(3, 7, order=3, omega_kind=om))
    if step == "dense":
        _, peak = _peak(lambda: acc.update_dense(x))
    else:
        _, peak = _peak(lambda: acc.update_slab(1, 10, x[:, 10:14, :]))
    reported = 8 * acc.peak_aux_scalars
    assert peak / 2 <= reported <= 2 * peak


def test_read_tensor_holds_the_payload_once(tmp_path, tensor):
    path = tmp_path / "x.tktn"
    write_tensor(path, tensor)
    x, peak = _peak(lambda: read_tensor(path))
    assert peak <= 1.05 * tensor.nbytes
    np.testing.assert_array_equal(x, tensor)


def test_write_tensor_streams_f_input(tmp_path, tensor):
    # The payload goes out from the tensor's own memory: no file image.
    _, peak = _peak(lambda: write_tensor(tmp_path / "x.tktn", tensor))
    assert peak <= 0.05 * tensor.nbytes


def test_write_tensor_converts_c_input_in_blocks(tmp_path, tensor):
    x = np.ascontiguousarray(tensor)
    _, peak = _peak(lambda: write_tensor(tmp_path / "x.tktn", x))
    assert peak <= 0.1 * x.nbytes


def test_write_update_stream_streams_records(tmp_path, tensor):
    records = [FullUpdate(1.0, 1.0, tensor)]
    records += [SlabUpdate(1.0, 0.5, 2, j, tensor[..., j : j + 20]) for j in range(0, 200, 20)]
    payload = tensor.nbytes + sum(r.slab.nbytes for r in records[1:])
    _, peak = _peak(lambda: write_update_stream(tmp_path / "u.tkus", SHAPE, records))
    assert peak <= 0.05 * payload


def test_read_tucker_reads_members_in_place(tmp_path):
    # Members are read straight into their arrays: the peak is what the
    # archive holds plus pieces of at most 0.1x the core.
    rng = np.random.default_rng(2)
    core = rng.normal(size=(100, 100, 40))
    factors = tuple(rng.normal(size=(d + 5, d)) for d in core.shape)
    path = tmp_path / "f.tkz"
    write_tucker(path, TuckerFactorization(core=core, factors=factors))
    back, peak = _peak(lambda: read_tucker(path))
    assert peak <= 1.1 * core.nbytes + sum(f.nbytes for f in factors)
    np.testing.assert_array_equal(back.core, core)


def test_two_pass_recover_reads_f_input_in_place(tensor, sketch):
    _, peak = _peak(lambda: two_pass_recover(tensor, sketch))
    assert peak <= 0.25 * tensor.nbytes


def test_residual_norm_is_bounded_and_exact(tensor, sketch):
    fact = two_pass_recover(tensor, sketch).factorization
    err, peak = _peak(lambda: tucker_residual_norm(tensor, fact))
    assert peak <= 0.25 * tensor.nbytes
    assert err == pytest.approx(fro_norm(tensor - tucker_to_dense(fact)), rel=1e-12)


def test_residual_norm_small_last_mode():
    # One last-mode column is half the tensor, so blocks split mode 1 too.
    rng = np.random.default_rng(3)
    x = np.asfortranarray(rng.normal(size=(400, 400, 2)))
    fact = TuckerFactorization(
        core=rng.normal(size=(2, 2, 2)),
        factors=tuple(rng.normal(size=(d, 2)) for d in x.shape),
    )
    err, peak = _peak(lambda: tucker_residual_norm(x, fact))
    assert peak <= 0.25 * x.nbytes
    assert err == pytest.approx(fro_norm(x - tucker_to_dense(fact)), rel=1e-12)


def test_ssrft_factor_map_slab_update():
    shape = (60, 60, 60)
    params = SketchParams.for_rank(2, master_seed=3, order=3, omega_kind="ssrft")
    acc = StreamingSketcher(shape, params)
    slab = np.random.default_rng(5).normal(size=(60, 3, 60))
    _, peak = _peak(lambda: acc.update_slab(1, 20, slab))
    assert peak <= 0.25 * 8 * int(np.prod(shape))


_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _max_rss_bytes(*args: str) -> int:
    """Max RSS of ``python args`` started from a small launcher process.

    Linux carries the high-water mark of the process that forks a child into
    the child's ``ru_maxrss``; forked from the test process, every child
    would read at least its size.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    code, rss_kb = (int(v) for v in out.stdout.split())
    assert code == 0, out.stderr
    return 1024 * rss_kb


@pytest.fixture(scope="module")
def tensor_file(tmp_path_factory):
    """A 160^3 TKTN1 file: about 4 slabs of the file reader."""
    x = np.random.default_rng(9).normal(size=(160, 160, 160))
    path = tmp_path_factory.mktemp("big") / "x.tktn"
    write_tensor(path, x)
    return path, x.nbytes


def test_cli_sketch_streams_its_input(tmp_path, tensor_file):
    # The baseline holds what every Gaussian sketch loads (scipy.special
    # for its maps), so the difference is the sketch's own working memory.
    path, nbytes = tensor_file
    bare = _max_rss_bytes("-c", "import tuckersketch.cli, scipy.special")
    sketch = _max_rss_bytes(
        "-m", "tuckersketch.cli", "sketch", "--input", str(path), "--rank", "2",
        "--out", str(tmp_path / "x.tksk"),
    )
    assert sketch - bare < 0.6 * nbytes


def test_cli_sketch_streams_its_records(tmp_path):
    # One full record and a 100-plane last-mode slab record, both read in
    # pieces into one buffer: neither is held whole.
    x = np.random.default_rng(10).normal(size=(160, 160, 160))
    path = tmp_path / "x.tkus"
    write_update_stream(path, x.shape, [
        FullUpdate(1.0, 1.0, x),
        SlabUpdate(0.5, 2.0, mode=2, offset=30, slab=x[..., 30:130]),
    ])
    bare = _max_rss_bytes("-c", "import tuckersketch.cli, scipy.special")
    sketch = _max_rss_bytes(
        "-m", "tuckersketch.cli", "sketch", "--stream", str(path), "--rank", "2",
        "--out", str(tmp_path / "x.tksk"),
    )
    assert sketch - bare < 0.6 * x.nbytes


def test_cli_two_pass_recover_streams_its_input(tmp_path, tensor_file):
    path, nbytes = tensor_file
    skfile = tmp_path / "x.tksk"
    assert main(["sketch", "--input", str(path), "--rank", "10", "--out", str(skfile)]) == 0
    rc, peak = _peak(lambda: main([
        "recover", "--sketch", str(skfile), "--mode", "two-pass", "--input", str(path),
        "--trunc", "10", "--out", str(tmp_path / "x.tkz"), "--report", str(tmp_path / "r.json"),
    ]))
    assert rc == 0
    assert peak <= 0.5 * nbytes


def test_cli_sketch_rss_stays_near_the_tensor(tmp_path):
    x = np.random.default_rng(9).normal(size=(160, 160, 160))
    path = tmp_path / "x.tktn"
    write_tensor(path, x)
    bare = _max_rss_bytes("-c", "import tuckersketch.cli")
    sketch = _max_rss_bytes(
        "-m", "tuckersketch.cli", "sketch", "--input", str(path), "--rank", "2",
        "--out", str(tmp_path / "x.tksk"),
    )
    assert sketch - bare < 1.6 * x.nbytes
