"""The benchmark workloads: seeded input files, the CLI chain, and references.

Every workload writes its inputs as files and runs the same CLI chain on
them: one ``sketch`` per source file, ``merge`` of the sketch files, then
``recover`` one-pass (no ``--input``, so it never reads the tensor) and
``recover`` two-pass.  The workloads differ in what the sketch step stresses:

* ``dense-3d``: one 200^3 TKTN1 file, Gaussian maps.  ``read_tensor``, the
  ``unfold`` copies, Gaussian map realization and GEMM; no slab updates.
* ``stream-4d``: a TKUS1 stream of one full 40^4 update and 20 slab
  records, TRP factor maps.  ``update_slab`` with restricted maps, the TRP
  contraction, the middle modes of an order-4 tensor and the record reader.
* ``shards-merge``: a 160^3 tensor cut into 4 one-record shard streams,
  sparse_sign factor maps and an SSRFT core map.  Six process start-ups,
  sketch files written and read, and the zero-padded slab fallback that an
  SSRFT core map forces.

The CLI runs in child processes; this module only builds inputs and the
in-process references the outputs are checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tuckersketch as tk
from tuckersketch import io as tkio


@dataclass(frozen=True)
class Source:
    """One file a ``sketch`` step folds in, and the tensor it represents."""

    flag: str  # "--input" (TKTN1) or "--stream" (TKUS1)
    path: Path
    net: Callable[[], np.ndarray]  # X after every record of the file


@dataclass(frozen=True)
class Inputs:
    sources: tuple[Source, ...]
    tensor_path: Path  # TKTN1 of the net tensor, for two-pass recovery
    tensor: np.ndarray  # the net tensor: sum over sources
    folded_bytes: int  # update payload bytes the sketch steps fold in
    gen_s: float  # time spent in gen_synthetic


@dataclass(frozen=True)
class Step:
    metric: str  # end-to-end metric the step's wall time adds to
    argv: tuple[str, ...]  # tuckersketch CLI arguments
    reads: tuple[Path, ...]
    writes: tuple[Path, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    index: int  # mixed into every seed, so workloads draw different inputs
    order: int
    rank: int
    drm: str
    core_drm: str
    make: Callable[[Path, int], Inputs]

    def params(self, map_seed: int) -> tk.SketchParams:
        """The parameters the CLI derives from the chain's flags."""
        return tk.SketchParams.for_rank(
            self.rank, map_seed, order=self.order,
            omega_kind=self.drm, phi_kind=self.core_drm,
        )

    def map_seed(self, seed: int, rep: int) -> int:
        """Map seed of repetition ``rep``.

        Each repetition draws new maps, so the error metrics are medians over
        several draws: the one-pass error of a single draw varies by up to a
        third between seeds (TRP at k=11 most).
        """
        return int(np.random.SeedSequence([seed, self.index, 1 + rep]).generate_state(1)[0])

    def chain(self, inp: Inputs, out: Path, map_seed: int) -> list[Step]:
        """sketch (one per source) -> merge -> recover one-pass -> two-pass."""
        flags = ("--rank", str(self.rank), "--drm", self.drm,
                 "--core-drm", self.core_drm, "--seed", str(map_seed))
        parts = [out / f"part{i}.tksk" for i in range(len(inp.sources))]
        steps = [
            Step("sketch_s", ("sketch", src.flag, str(src.path), *flags, "--out", str(p)),
                 (src.path,), (p,))
            for src, p in zip(inp.sources, parts)
        ]
        merged = out / "merged.tksk"
        steps.append(Step("merge_s", ("merge", *map(str, parts), "--out", str(merged)),
                          tuple(parts), (merged,)))
        one, two = out / "one.tkz", out / "two.tkz"
        trunc = ("--trunc", str(self.rank))
        steps.append(Step("recover_1pass_s",
                          ("recover", "--sketch", str(merged), *trunc, "--out", str(one)),
                          (merged,), (one,)))
        steps.append(Step("recover_2pass_s",
                          ("recover", "--sketch", str(merged), "--mode", "two-pass",
                           "--input", str(inp.tensor_path), *trunc, "--out", str(two)),
                          (merged, inp.tensor_path), (two,)))
        return steps


def _seeds(seed: int, workload: int) -> tuple[int, np.random.Generator]:
    """Data seed and a generator for the record layout, both from --seed."""
    ss = np.random.SeedSequence([seed, workload, 0])
    return int(ss.generate_state(1)[0]), np.random.default_rng(ss.spawn(1)[0])


def _low_rank(side: int, order: int, rank: int, seed: int,
              gamma: float = 0.1) -> tuple[np.ndarray, float]:
    t0 = time.perf_counter()
    x = tk.gen_synthetic(
        tk.SyntheticSpec("low_rank_noise", side=side, order=order, rank=rank,
                         seed=seed, gamma=gamma)
    )
    return x, time.perf_counter() - t0


def _rows(order: int, mode: int, offset: int, count: int) -> tuple[slice, ...]:
    return tuple(slice(offset, offset + count) if m == mode else slice(None)
                 for m in range(order))


def make_dense_3d(out: Path, seed: int) -> Inputs:
    data_seed, _ = _seeds(seed, 1)
    x, gen_s = _low_rank(200, 3, 10, data_seed)
    path = out / "x.tktn"
    tkio.write_tensor(path, x)
    return Inputs((Source("--input", path, lambda: x),), path, x, x.nbytes, gen_s)


def make_stream_4d(out: Path, seed: int) -> Inputs:
    """One full update, then 20 slab records of 8 rows, 5 per mode.

    The data has little noise (gamma=0.01) and the slabs carry the full
    update's own rows scaled by a small theta2, so the net tensor stays near low
    rank; every fifth record also decays the state (theta1 < 1).  One-pass
    recovery with TRP maps at k=11 has a long error tail: at gamma=0.1 single
    draws reach 0.75 where the median is 0.32, above the error ceiling.
    """
    data_seed, layout = _seeds(seed, 2)
    y, gen_s = _low_rank(40, 4, 5, data_seed, gamma=0.01)
    records = [tkio.FullUpdate(theta1=1.0, theta2=1.0, tensor=y)]
    net = y.copy()
    for i in range(20):
        mode = i % 4
        offset = int(layout.integers(0, 40 - 8 + 1))
        theta1 = 0.95 if i % 5 == 2 else 1.0
        theta2 = float(layout.uniform(0.002, 0.01))
        sel = _rows(4, mode, offset, 8)
        slab = y[sel].copy()
        records.append(tkio.SlabUpdate(theta1=theta1, theta2=theta2, mode=mode,
                                       offset=offset, slab=slab))
        net *= theta1
        net[sel] += theta2 * slab
    stream, tensor_path = out / "s.tkus", out / "net.tktn"
    tkio.write_update_stream(stream, y.shape, records)
    tkio.write_tensor(tensor_path, net)
    folded = y.nbytes + sum(r.slab.nbytes for r in records[1:])
    return Inputs((Source("--stream", stream, lambda: net),), tensor_path, net, folded, gen_s)


def make_shards_merge(out: Path, seed: int) -> Inputs:
    """A 160^3 tensor as 4 row blocks of 40 along mode 0, one file each."""
    data_seed, _ = _seeds(seed, 3)
    z, gen_s = _low_rank(160, 3, 10, data_seed)
    sources = []
    for j in range(4):
        sel = _rows(3, 0, 40 * j, 40)
        path = out / f"shard{j}.tkus"
        tkio.write_update_stream(path, z.shape, [
            tkio.SlabUpdate(theta1=1.0, theta2=1.0, mode=0, offset=40 * j, slab=z[sel])
        ])

        def padded(sel=sel):
            full = np.zeros_like(z)
            full[sel] = z[sel]
            return full

        sources.append(Source("--stream", path, padded))
    tensor_path = out / "full.tktn"
    tkio.write_tensor(tensor_path, z)
    return Inputs(tuple(sources), tensor_path, z, z.nbytes, gen_s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-3d",
                 "200^3 TKTN1 file, Gaussian maps, r=10: read_tensor, unfold copies, "
                 "map realization and GEMM on the default in-memory path",
                 1, 3, 10, "gaussian", "gaussian", make_dense_3d),
        Workload("stream-4d",
                 "40^4 TKUS1 stream of 1 full and 20 slab records, TRP maps, r=5: "
                 "update_slab with restricted maps, order-4 middle modes, record reader",
                 2, 4, 5, "trp", "gaussian", make_stream_4d),
        Workload("shards-merge",
                 "160^3 tensor in 4 shard streams, sparse_sign and SSRFT maps, r=10: "
                 "six process start-ups, sketch file I/O, zero-padded slab fallback",
                 3, 3, 10, "sparse_sign", "ssrft", make_shards_merge),
    )
}
