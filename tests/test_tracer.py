"""The traced benchmark child still finds every layer call it wraps.

``perfbench/tracer.py`` replaces named functions and methods of the package
and raises when one is missing; running it here makes a renamed or removed
hook target fail the test suite instead of a later traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tuckersketch.cli import main
from tuckersketch.sketch import FACTOR_KINDS
from tuckersketch.io import FullUpdate, SlabUpdate, write_update_stream

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, *cli_args):
    spans = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans", str(spans),
         "--run-id", "test", "--", *cli_args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(spans) as fh:
        return {json.loads(line)["name"] for line in fh}


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    x = np.random.default_rng(0).normal(size=(12, 13, 14))
    path = tmp_path_factory.mktemp("stream") / "x.tkus"
    write_update_stream(path, x.shape, [
        FullUpdate(theta1=1.0, theta2=1.0, tensor=x),
        SlabUpdate(theta1=0.5, theta2=2.0, mode=1, offset=3, slab=x[:, 3:7, :]),
    ])
    return path


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_traced_stream_sketch(tmp_path, stream, kind):
    names = _traced(tmp_path, "sketch", "--stream", str(stream), "--rank", "1",
                    "--drm", kind, "--out", str(tmp_path / "x.tksk"))
    assert {"sketch.update_slab", "drm.realize_omega"} <= names


def test_traced_bench(tmp_path):
    # The command line folds every input with update_slab; the in-memory
    # sketch of the bench grid still calls update_dense.
    names = _traced(tmp_path, "bench", "--side", "8", "--order", "3", "--rank", "1",
                    "--trials", "1", "--out", str(tmp_path / "b.csv"))
    assert "sketch.update_dense" in names


def test_traced_recover(tmp_path, stream):
    sketch = tmp_path / "x.tksk"
    assert main(["sketch", "--stream", str(stream), "--rank", "1", "--out", str(sketch)]) == 0
    names = _traced(tmp_path, "recover", "--sketch", str(sketch), "--out", str(tmp_path / "x.tkt"))
    assert "recovery.one_pass" in names
