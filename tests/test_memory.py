"""Memory bounds of the copy-free paths, measured with tracemalloc and, for
the command line, with the max RSS of a child process.

A 200^3 float64 tensor (64 MB) in Fortran order, the layout of a file
payload, with Gaussian maps at r=10 (k=21, s=43).  A sketcher is made before
measuring, but its Gaussian and sparse sign factor maps generate their
entries during the measured call (a row block per slab, or the whole map,
which it keeps), so each bound covers what the call allocates, those
entries included.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tuckersketch import cli, recovery
from tuckersketch.cli import main
from tuckersketch.io import (
    FullUpdate,
    SlabUpdate,
    read_sketch,
    read_tensor,
    read_tucker,
    write_sketch,
    write_tensor,
    write_tucker,
    write_update_stream,
)
from tuckersketch.recovery import one_pass_recover, two_pass_recover
from tuckersketch import rng
from tuckersketch.drm import _SCALARS_PER_WORD, DrmSpec, make_drm
from tuckersketch.sketch import (
    FACTOR_KINDS,
    SketchParams,
    StreamingSketcher,
    TuckerSketch,
    tucker_sketch,
)
from tuckersketch.tensor import TuckerFactorization

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


def test_sketcher_holds_less_than_one_factor_map_when_made():
    one_map = 8 * PARAMS.omega_spec(SHAPE, 0).in_dim * PARAMS.k[0]
    StreamingSketcher(SHAPE, PARAMS)  # imports what Gaussian maps load
    _, peak = _peak(lambda: StreamingSketcher(SHAPE, PARAMS))
    assert peak < one_map


def test_last_mode_pass_holds_only_the_last_factor_map(tensor):
    # Omega_0 and Omega_1 generate the rows each slab touches and drop them.
    one_map = 8 * PARAMS.omega_spec(SHAPE, 2).in_dim * PARAMS.k[2]

    def fold():
        acc = StreamingSketcher(SHAPE, PARAMS)
        for j in range(0, SHAPE[2], 26):
            acc.update_slab(2, j, tensor[..., j : j + 26])
        return acc, tracemalloc.get_traced_memory()[0]

    (_, held), _ = _peak(fold)
    assert held < 1.5 * one_map


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign"])
def test_mode_0_slab_holds_one_factor_map(kind):
    # A 40-row mode-0 slab of a 160^3 tensor: Omega_1 and Omega_2 generate
    # the quarter of their rows it touches, in 160 runs each, and only
    # Omega_0 (25600 x 21, 4.3 MB) is realized whole, after the others.
    # Holding all three maps whole, the update peaked at 14.0 MB.
    shape = (160, 160, 160)
    params = SketchParams.for_rank(10, master_seed=17, order=3, omega_kind=kind, phi_kind=kind)
    slab = np.asfortranarray(np.random.default_rng(7).normal(size=(40, 160, 160)))
    StreamingSketcher(shape, params).update_slab(0, 40, slab)  # first-call allocations
    acc = StreamingSketcher(shape, params)
    _, peak = _peak(lambda: acc.update_slab(0, 40, slab))
    assert peak < slab.nbytes


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign"])
def test_boxed_record_holds_no_factor_map_whole(kind):
    # The same slab as a record in 4 boxes of 40 planes: Omega_0 and
    # Omega_1 generate the rows each box touches and drop them, and Omega_2
    # keeps the rows the record touches (6400 x 21), the same for every box.
    # Folded whole, the slab held Omega_0 (25600 x 21, 4.3 MB).
    shape = (160, 160, 160)
    params = SketchParams.for_rank(10, master_seed=17, order=3, omega_kind=kind, phi_kind=kind)
    slab = np.random.default_rng(7).normal(size=(40, 160, 160))
    boxes = [(j, np.asfortranarray(slab[..., j : j + 40])) for j in range(0, 160, 40)]

    def fold(acc):
        for j, box in boxes:
            acc.update_slab(0, 40, box, 1.0, 1.0, j)

    fold(StreamingSketcher(shape, params))  # first-call allocations
    acc = StreamingSketcher(shape, params)
    _, peak = _peak(lambda: fold(acc))
    assert peak < 8 * params.omega_spec(shape, 0).in_dim * params.k[0]
    assert acc.held_map_scalars == 40 * 160 * 21 + 3 * 160 * 43


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


@pytest.mark.parametrize("piece", ["last-mode", "box"])
def test_peak_aux_scalars_counts_both_first_core_products(piece):
    # 40^4, TRP maps at r=5 (s=23): the core step's first two products
    # (40^3 x 23 x 16 planes, then 40^2 x 23^2 x 16) are alive together;
    # counting only the first, a 16-plane last-mode piece reported 704,000
    # scalars against tracemalloc's 927,607.
    shape = (40, 40, 40, 40)
    x = np.asfortranarray(np.random.default_rng(12).normal(size=shape))
    params = SketchParams.for_rank(5, master_seed=3, order=4, omega_kind="trp")
    box = np.asfortranarray(x[:, 8:16, :, 8:24])  # 8 rows of mode 1 times 16 planes

    def update(acc):
        if piece == "last-mode":
            acc.update_slab(3, 8, x[..., 8:24])
        else:
            acc.update_slab(1, 8, box, 1.0, 1.0, 8)

    update(StreamingSketcher(shape, params))  # first-call allocations
    acc = StreamingSketcher(shape, params)
    _, peak = _peak(lambda: update(acc))
    reported = 8 * acc.peak_aux_scalars
    assert peak / 1.25 <= reported <= 1.25 * peak


@pytest.mark.parametrize(
    "count", [rng.BLOCK_WORDS, rng.NDTRI_PORT_MAX + 1], ids=["ndtri-port", "scipy-ndtri"]
)
def test_gaussian_draw_stays_within_its_scalars_per_word(count):
    # A product that generates entries counts _SCALARS_PER_WORD per word of
    # one block in the map's scratch; the port's temporaries must fit in it too.
    rng.gaussians(1, 2, count)  # imports what the draw loads
    out, peak = _peak(lambda: rng.gaussians(1, 2, count))
    assert peak - out.nbytes <= 8 * _SCALARS_PER_WORD * min(count, rng.BLOCK_WORDS)


@pytest.mark.parametrize("in_dim", [3000, 30000])
def test_sparse_sign_draw_stays_within_its_scalars_per_word(in_dim):
    # The same bound for a sparse sign map's words, the uniforms' integer
    # precursor, its keep mask and its sign bits.
    spec = DrmSpec("sparse_sign", in_dim, 21, seed=3, density=0.3)
    make_drm(spec).entries  # first-call allocations stay out of the peak
    out, peak = _peak(lambda: make_drm(spec).entries)
    assert peak - out.nbytes <= 8 * _SCALARS_PER_WORD * min(out.size, rng.BLOCK_WORDS)


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


def test_read_sketch_holds_no_file_body(tmp_path, sketch):
    # The arrays parsed from the file, which the sketch takes over as they
    # lie (2.03x at r=10 when it copied them); the checksum is taken in
    # small chunks, and the file body is never held.
    path = tmp_path / "x.tksk"
    write_sketch(path, sketch)
    back, peak = _peak(lambda: read_sketch(path))
    arrays = sum(a.nbytes for a in (*back.factor_sketches, back.core_sketch))
    assert peak <= 1.1 * arrays
    for a in (*back.factor_sketches, back.core_sketch):
        assert a.flags.f_contiguous and not a.flags.writeable
    np.testing.assert_array_equal(back.core_sketch, sketch.core_sketch)


def test_one_pass_recover_holds_one_core_size_temporary():
    # Order 4, k=11, s=23: the first solve copies the C-order core sketch
    # to F order beside its 11 x 23^3 product (1.48x the core sketch).  Each
    # residual is taken in its back-projection's buffer, which is dropped
    # before the next mode; with the residual in a new array the peak was
    # 2.5x.
    shape = (30, 30, 30, 30)
    params = SketchParams.for_rank(5, master_seed=4, order=4)
    gen = np.random.default_rng(5)
    vs = tuple(gen.normal(size=(d, k)) for d, k in zip(shape, params.k))
    sk = TuckerSketch(params, shape, vs, gen.normal(size=params.s))
    one_pass_recover(sk)  # first-call allocations stay out of the peak
    _, peak = _peak(lambda: one_pass_recover(sk))
    assert peak <= 1.75 * sk.core_sketch.nbytes


def test_one_pass_recover_of_a_sketch_holds_one_slab_step():
    # The same sketch: modes 0-2 are solved on views of 2-plane slabs of the
    # core sketch (24,334 scalars), whose results make up the 11^3 x 23
    # array the last mode is solved on; about 0.29x the core sketch, which
    # is never copied.
    shape = (30, 30, 30, 30)
    params = SketchParams.for_rank(5, master_seed=4, order=4)
    gen = np.random.default_rng(5)
    vs = tuple(gen.normal(size=(d, k)) for d, k in zip(shape, params.k))
    sk = TuckerSketch(params, shape, vs, gen.normal(size=params.s))
    one_pass_recover(sk)  # first-call allocations stay out of the peak
    _, peak = _peak(lambda: one_pass_recover(sk))
    assert peak <= 0.4 * sk.core_sketch.nbytes


@pytest.fixture(scope="module")
def order_4_files(tmp_path_factory):
    """A 30^4 TKTN1 file (6.5 MB) and its TKSK1 sketch at r=5 (k=11, s=23),
    whose core sketch (23^4 scalars, 2.24 MB) is far larger than what a
    recovery computes from it; and the core sketch's bytes."""
    x = np.random.default_rng(13).normal(size=(30, 30, 30, 30))
    d = tmp_path_factory.mktemp("order4")
    params = SketchParams.for_rank(5, master_seed=13, order=4)
    write_tensor(d / "x.tktn", x)
    write_sketch(d / "x.tksk", tucker_sketch(x, params))
    return d / "x.tktn", d / "x.tksk", 8 * int(np.prod(params.s))


@pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
def test_cli_recover_holds_no_core_sketch(tmp_path, order_4_files, mode):
    # The sketch file is checked a core slab at a time, and only one-pass
    # reads its core again, a slab at a time.  One-pass held about 0.38x
    # the core sketch, two-pass 0.67x (its 4-plane pieces of the tensor
    # file); reading the core sketch whole, 2.51x and 1.67x.
    xfile, skfile, core_bytes = order_4_files
    argv = ["recover", "--sketch", str(skfile), "--trunc", "5", "--out", str(tmp_path / "x.tkz")]
    if mode == "two-pass":
        argv += ["--mode", "two-pass", "--input", str(xfile)]
    assert main(argv) == 0  # first-call allocations stay out of the peak
    rc, peak = _peak(lambda: main(argv))
    assert rc == 0
    assert peak < core_bytes


@pytest.mark.parametrize("call", ["one-pass-file", "one-pass-sketch", "two-pass-file"])
def test_recovery_peak_stays_within_its_reported_scalars(order_4_files, call):
    # peak_aux_scalars, counted from shapes: a core slab's step or the last
    # mode's for one-pass, a tensor piece and its products for two-pass.
    # tracemalloc read 1.10x, 0.88x (the slab is a view) and 1.11x of it.
    xfile, skfile, _ = order_4_files
    sk = read_sketch(skfile)
    run = {
        "one-pass-file": lambda: one_pass_recover(skfile),
        "one-pass-sketch": lambda: one_pass_recover(sk),
        "two-pass-file": lambda: two_pass_recover(xfile, skfile),
    }[call]
    run()  # first-call allocations stay out of the peak
    report, peak = _peak(run)
    assert peak <= 1.25 * 8 * report.peak_aux_scalars


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


# A recovery reads a 160^3 file in pieces of 5 planes (1 MiB at most).
_RECOVERY_PIECE = 8 * 160 * 160 * 5


def test_two_pass_recover_of_a_file_holds_one_recovery_piece(tensor_file):
    # One piece, the core and the bases, with a quarter piece to spare for
    # the piece's first contraction (160 x 21 x 5).  Read in 8 MiB pieces,
    # the pass peaked at 9.6 MB.
    path, _ = tensor_file
    sk = tucker_sketch(read_tensor(path), PARAMS)
    two_pass_recover(path, sk)  # first-call allocations stay out of the peak
    report, peak = _peak(lambda: two_pass_recover(path, sk))
    fact = report.factorization
    held = fact.core.nbytes + sum(f.nbytes for f in fact.factors)
    assert peak <= 1.25 * _RECOVERY_PIECE + held


@pytest.fixture(scope="module")
def exact_tensor_file(tmp_path_factory):
    """A 160^3 TKTN1 file of Tucker rank 5, which a rank-10 sketch recovers
    exactly."""
    gen = np.random.default_rng(11)
    core = gen.normal(size=(5, 5, 5))
    factors = tuple(np.linalg.qr(gen.normal(size=(160, 5)))[0] for _ in range(3))
    path = tmp_path_factory.mktemp("exact") / "x.tktn"
    write_tensor(path, TuckerFactorization(core=core, factors=factors).to_dense())
    return path


@pytest.mark.parametrize("mode", ["one-pass", "two-pass"])
def test_cli_scoring_holds_a_recovery_piece_and_its_expansion(
    tmp_path, monkeypatch, exact_tensor_file, mode
):
    # One-pass scores by expansion; so does two-pass when its projected
    # error has cancelled, as an exact recovery's has.  Each piece is scored
    # against its part of the Tucker expansion, made in one piece beside
    # it; a quarter piece more covers the expansion's intermediates.
    # Scored in 8 MiB pieces, the peak was 9.0 MB.
    path = exact_tensor_file
    skfile = tmp_path / "x.tksk"
    assert main(["sketch", "--input", str(path), "--rank", "10", "--out", str(skfile)]) == 0
    score, peaks = cli._normalized_error, []

    def measured(slabs, fact):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = score(slabs, fact)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(cli, "_normalized_error", measured)
    rc, _ = _peak(lambda: main([
        "recover", "--sketch", str(skfile), "--mode", mode, "--input", str(path),
        "--trunc", "10", "--out", str(tmp_path / "x.tkz"),
    ]))
    assert rc == 0
    assert len(peaks) == 1 and peaks[0] <= 2.25 * _RECOVERY_PIECE


def test_cli_two_pass_scoring_of_a_noisy_file_is_its_core_pass(
    tmp_path, monkeypatch, tensor_file
):
    # The pass that makes the two-pass core also scores the error: it
    # holds one piece, the core and the bases, and no piece is expanded.
    path, _ = tensor_file
    skfile = tmp_path / "x.tksk"
    assert main(["sketch", "--input", str(path), "--rank", "10", "--out", str(skfile)]) == 0
    recover, peaks = recovery.two_pass_recover, []

    def measured(x, sk):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = recover(x, sk)
        fact = report.factorization
        held = fact.core.nbytes + sum(f.nbytes for f in fact.factors)
        peaks.append((tracemalloc.get_traced_memory()[1] - base, held))
        return report

    def expanded(slabs, fact):
        raise AssertionError("scored by expansion")

    monkeypatch.setattr(recovery, "two_pass_recover", measured)
    monkeypatch.setattr(cli, "_normalized_error", expanded)
    rc, _ = _peak(lambda: main([
        "recover", "--sketch", str(skfile), "--mode", "two-pass", "--input", str(path),
        "--trunc", "10", "--out", str(tmp_path / "x.tkz"),
    ]))
    assert rc == 0
    assert len(peaks) == 1
    peak, held = peaks[0]
    assert peak <= 1.25 * _RECOVERY_PIECE + held


def test_cli_sketch_streams_its_input(tmp_path, tensor_file):
    # The baseline is the bare import, which loads neither the map modules
    # (drm and rng) nor numpy.random, so the difference counts them beside
    # the sketch's own working memory (its maps, 25600 x 5 at most, draw
    # through the ndtri port and load no scipy).
    path, nbytes = tensor_file
    bare = _max_rss_bytes("-c", "import tuckersketch.cli")
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
    bare = _max_rss_bytes("-c", "import tuckersketch.cli")
    sketch = _max_rss_bytes(
        "-m", "tuckersketch.cli", "sketch", "--stream", str(path), "--rank", "2",
        "--out", str(tmp_path / "x.tksk"),
    )
    assert sketch - bare < 0.6 * x.nbytes


def test_cli_sketch_of_a_mode_0_shard_holds_neither_record_nor_map(tmp_path):
    # One 40-row mode-0 record of a 160^3 tensor (8.2 MB), sparse_sign and
    # SSRFT maps at r=10, as a benchmark shard.  Read and folded in boxes of
    # 49 planes, it read 8.1 MiB above the bare import; read whole beside
    # Omega_0 (4.3 MB), 16.7 MiB.  The factor maps have more than 2^16
    # words, so numpy.random loads in both.
    slab = np.random.default_rng(10).normal(size=(40, 160, 160))
    path = tmp_path / "shard.tkus"
    write_update_stream(path, (160, 160, 160), [SlabUpdate(1.0, 1.0, 0, 40, slab)])
    bare = _max_rss_bytes("-c", "import tuckersketch.cli, numpy.random")
    sketch = _max_rss_bytes(
        "-m", "tuckersketch.cli", "sketch", "--stream", str(path), "--rank", "10",
        "--drm", "sparse_sign", "--core-drm", "ssrft", "--out", str(tmp_path / "x.tksk"),
    )
    assert sketch - bare < 1.5 * slab.nbytes


def test_cli_trp_stream_sketch_loads_no_numpy_random(tmp_path):
    # A 40^4 stream (20.5 MB) of one full record and a 20-plane mode-1 slab
    # record, TRP maps at r=5.  Every map draws its words through the port
    # of Philox: about 30 MiB above the bare import, with the 8 MiB read
    # buffer, the slab record held whole and TRP's first contraction.
    # Drawn through numpy's Philox instead, the import of numpy.random
    # (with hashlib and OpenSSL's libcrypto) read 35.5 MiB.
    x = np.random.default_rng(11).normal(size=(40, 40, 40, 40))
    path = tmp_path / "x.tkus"
    write_update_stream(path, x.shape, [
        FullUpdate(1.0, 1.0, x),
        SlabUpdate(0.5, 2.0, mode=1, offset=5, slab=x[:, 5:25]),
    ])
    bare = _max_rss_bytes("-c", "import tuckersketch.cli")
    sketch = _max_rss_bytes(
        "-m", "tuckersketch.cli", "sketch", "--stream", str(path), "--rank", "5",
        "--drm", "trp", "--out", str(tmp_path / "x.tksk"),
    )
    assert sketch - bare < 32.75 * 2**20


def test_cli_two_pass_recover_rss_holds_no_read_buffer(tmp_path, tensor, sketch):
    # 200^3 (64 MB), r=10, as in the benchmark: two-pass recover reads the
    # file twice (core, then score) in 1 MiB pieces, about 4.4 MiB above
    # the bare import.  Read in 8 MiB pieces it read 11.1 MiB above it.
    path, skfile = tmp_path / "x.tktn", tmp_path / "x.tksk"
    write_tensor(path, tensor)
    write_sketch(skfile, sketch)
    bare = _max_rss_bytes("-c", "import tuckersketch.cli")
    recover = _max_rss_bytes(
        "-m", "tuckersketch.cli", "recover", "--sketch", str(skfile), "--mode", "two-pass",
        "--input", str(path), "--trunc", "10", "--out", str(tmp_path / "x.tkz"),
    )
    assert recover - bare < 7 * 2**20


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


def test_cli_sketch_of_a_desk_size_file_holds_one_factor_map(tmp_path, tensor):
    # 200^3 (64 MB), Gaussian maps at r=10: Omega_2 (6.7 MB), one 8 MiB
    # piece, one row block of Omega_0 and Omega_1 and the contraction
    # scratch, about 18.2 MiB in all; with all three factor maps held whole
    # it would be about 31 MiB.  The bound (25.6 MB) lies between the two.
    path = tmp_path / "x.tktn"
    write_tensor(path, tensor)
    rc, peak = _peak(lambda: main([
        "sketch", "--input", str(path), "--rank", "10", "--out", str(tmp_path / "x.tksk"),
    ]))
    assert rc == 0
    assert peak < 0.4 * tensor.nbytes


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
