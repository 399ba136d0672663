"""Mutation fuzz of the command line: a damaged tensor file, update stream
or sketch ends with exit 0 or a documented exit code, and allocates little
more than a few times the file's size.

Small intact files of each format (a 9 x 8 x 7 tensor, a stream of one full
and two slab records of it, its rank-1 sketch) are mutated by a bit flip, a
changed header byte, a truncation or appended bytes, and run through
``cli.main`` under tracemalloc.  A flipped payload bit of a tensor file or
a stream exits 0: those formats carry no checksum.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersketch import cli
from tuckersketch.io import (
    FullUpdate,
    SlabUpdate,
    write_sketch,
    write_tensor,
    write_update_stream,
)
from tuckersketch.sketch import SketchParams, tucker_sketch

FUZZ_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Each case: the intact file it mutates, and the command it runs on it.
_CASES = {
    "tensor-sketch": ("x.tktn", ["sketch", "--input", "{}", "--rank", "1"]),
    "stream-sketch": ("x.tkus", ["sketch", "--stream", "{}", "--rank", "1"]),
    "sketch-recover": ("x.tksk", ["recover", "--sketch", "{}"]),
    "sketch-merge": ("x.tksk", ["merge", "{}", "{}"]),
}

# The header of each file, where a changed byte lands: magic, order and
# extents; the same and the first record's header; magic, order, kinds,
# seed, density and the shape, k and s.
_HEADER_BYTES = {"x.tktn": 7 + 3 * 8, "x.tkus": 6 + 3 * 8 + 17, "x.tksk": 25 + 3 * 3 * 8}

# The intact files peak at 10 to 21 times their size: the parser, the maps
# and the sketch outweigh data this small.  A forged extent that the reader
# let through would allocate for the extent, orders of magnitude past this
# (a forged 10^6-row stream extent once held 139 MiB).
_PEAK_PER_FILE_BYTE = 32

_EXIT_CODES = {0} | {code for _, code in cli._EXIT_CODES}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The intact files, each checked to run its commands to exit 0."""
    root = tmp_path_factory.mktemp("fuzz")
    x = np.random.default_rng(3).normal(size=(9, 8, 7))
    write_tensor(root / "x.tktn", x)
    write_update_stream(root / "x.tkus", x.shape, [
        FullUpdate(1.0, 1.0, x),
        SlabUpdate(0.5, 2.0, mode=0, offset=2, slab=x[2:5]),
        SlabUpdate(1.0, -1.0, mode=2, offset=1, slab=x[..., 1:4]),
    ])
    write_sketch(root / "x.tksk", tucker_sketch(x, SketchParams.for_rank(1, 5, order=3)))
    for case in _CASES:
        assert _run(root, case, root / _CASES[case][0])[0] == 0
    return root


def _run(root, case, path) -> tuple[int, int]:
    """Exit code and tracemalloc peak (bytes) of ``case`` run on ``path``."""
    argv = [arg.format(path) for arg in _CASES[case][1]] + ["--out", str(root / "out")]
    with warnings.catch_warnings(record=True):  # the command line's warnings are not errors
        warnings.simplefilter("always")
        tracemalloc.start()
        try:
            code = cli.main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _mutation(size: int, header: int):
    """A bit flip, a header byte set, a truncation, or bytes appended."""
    return st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 8 * size - 1)),
        st.tuples(st.just("byte"), st.integers(0, header - 1), st.integers(0, 255)),
        st.tuples(st.just("cut"), st.integers(0, size - 1)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
    )


def _mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    out = bytearray(data)
    if kind == "flip":
        out[args[0] // 8] ^= 1 << (args[0] % 8)
    elif kind == "byte":
        out[args[0]] = args[1]
    elif kind == "cut":
        del out[args[0]:]
    else:
        out += args[0]
    return bytes(out)


@pytest.mark.parametrize("case", list(_CASES))
@FUZZ_SETTINGS
@given(data=st.data())
def test_a_damaged_file_exits_with_a_documented_code(files, case, data):
    name = _CASES[case][0]
    intact = (files / name).read_bytes()
    mutation = data.draw(_mutation(len(intact), _HEADER_BYTES[name]), label="mutation")
    damaged = _mutate(intact, mutation)
    path = files / "damaged"
    path.write_bytes(damaged)
    code, peak = _run(files, case, path)
    assert code in _EXIT_CODES
    assert peak <= _PEAK_PER_FILE_BYTE * len(intact)
