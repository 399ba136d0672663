"""Benchmark of the tuckersketch CLI: sketch -> merge -> recover, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --max-rel-err 0.5 --workload dense-3d --seed 1 \
        --seconds 30 --trace 0

Each workload (see ``workloads.py``) generates its input files from
``--seed``, sets up and warms up ``SETUPS`` times, then repeats the CLI chain
for ``--seconds`` seconds, one child process at a time, recording each
child's wall time and max RSS with ``os.wait4``.  After timing, every output
is checked against in-process references.  With ``--trace 0`` the last line
is a JSON object with the end-to-end metrics; with ``--trace 1`` the chain
alternates between plain children and children under ``tracer.py``, and the
JSON holds the per-layer metrics of ``layers.py`` plus the tracing overhead.
``--workload all`` runs every workload.  Exit status is 0 only when every
call and check succeeded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy: without them it stops before printing a result.
if not (SRC / "tuckersketch" / "cli.py").is_file():
    print(f"error: no tuckersketch sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import tuckersketch as tk  # noqa: E402
from tuckersketch import io as tkio  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(tk.__file__).resolve().parent != SRC / "tuckersketch":
    sys.exit(f"error: imported tuckersketch from {tk.__file__}, not from {SRC}")

SETUPS = 3  # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # bare-import children per traced run
CHILD_TIMEOUT_S = 120
SKETCH_RTOL = 1e-8  # sketch files vs in-process references, per array, in norm

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("sketch_s", "s", "lower", 0.25),
    ("merge_s", "s", "lower", 0.25),
    ("recover_1pass_s", "s", "lower", 0.25),
    ("recover_2pass_s", "s", "lower", 0.25),
    ("time_to_tucker_s", "s", "lower", 0.25),
    ("ingest_MBps", "MB/s", "higher", 0.25),
    ("sketch_rss_MB", "MB", "lower", 0.1),
    ("recover_rss_MB", "MB", "lower", 0.1),
    ("rel_err_1pass", "ratio", "lower", 0.25),
    ("rel_err_2pass", "ratio", "lower", 0.25),
]


class CheckFailed(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    rss_MB: float
    code: int


@dataclass
class Ledger:
    """Calls and checks attempted, and what failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL {what}", file=sys.stderr)
        return ok


def child_env(**extra) -> dict[str, str]:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs children through ``launcher.py``, so their max RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, log: Path) -> Child:
        req = {"argv": [str(a) for a in argv], "env": env, "log": str(log),
               "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["wall_s"], reply["rss_MB"], reply["code"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def expand(core, factors):
    """Dense tensor of a Tucker factorization (plain tensordot, no package kernels)."""
    t = core
    for n, f in enumerate(factors):
        t = np.moveaxis(np.tensordot(f, t, axes=(1, n)), 0, n)
    return t


def check_sketch(path: Path, ref) -> None:
    sk = tkio.read_sketch(path)
    if sk.params != ref.params or sk.shape != ref.shape:
        raise CheckFailed(f"{path.name}: parameters or shape differ from the reference")
    pairs = zip((*sk.factor_sketches, sk.core_sketch), (*ref.factor_sketches, ref.core_sketch))
    for i, (got, want) in enumerate(pairs):
        diff = np.linalg.norm(got - want)
        if not diff <= SKETCH_RTOL * np.linalg.norm(want):
            raise CheckFailed(f"{path.name}: array {i} is off by {diff:.3e} in norm")


def archive_error(path: Path, tensor, rank: int) -> float:
    fact = tkio.read_tucker(path)
    if fact.rank != (rank,) * tensor.ndim or fact.shape != tensor.shape:
        raise CheckFailed(f"{path.name}: rank {fact.rank} shape {fact.shape}")
    return float(np.linalg.norm(tensor - expand(fact.core, fact.factors))
                 / np.linalg.norm(tensor))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """One workload at one seed: set-up, timed repetitions, checks."""

    def __init__(self, launcher: Launcher, workload, seed: int, seconds: int, trace: bool,
                 max_rel_err: float):
        self.launcher = launcher
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.max_rel_err = max_rel_err
        self.ledger = Ledger()
        self.env = child_env()
        self.run_id = uuid.uuid4().hex
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.spans: list[dict] = []

    def traced(self, step_argv, spans_file: Path, parent: str | None = None) -> list:
        """Command line of a CLI child under ``tracer.py``."""
        argv = [sys.executable, HERE / "tracer.py", "--spans", spans_file,
                "--run-id", self.run_id]
        if parent is not None:
            argv += ["--parent", parent]
        return [*argv, "--", *step_argv]

    def import_cli(self, log: Path) -> Child:
        child = self.launcher.run([sys.executable, "-c", "import tuckersketch.cli"],
                                  self.env, log)
        self.ledger.record(child.code == 0, f"bare import exited {child.code} (see {log})")
        return child

    def setup(self):
        """Generate and write the inputs, then warm up with a bare import of the
        CLI (it compiles the package and loads numpy and scipy into the page
        cache); SETUPS times, keeping the last set-up."""
        times, gen = [], []
        prev = inp = None
        for i in range(SETUPS):
            d = self.dir / f"setup{i}"
            inp = None  # frees the previous set-up's arrays before the next ones
            t0 = time.perf_counter()
            d.mkdir(parents=True)
            inp = self.w.make(d, self.seed)
            self.import_cli(d / "warm.log")
            times.append(time.perf_counter() - t0)
            gen.append(inp.gen_s)
            if prev is not None:
                shutil.rmtree(prev)
            prev = d
        return inp, times, gen

    def chain(self, inp, rep: int, traced: bool) -> dict:
        """Run the CLI chain once, with this repetition's maps."""
        out = self.dir / f"rep{rep}"
        out.mkdir()
        map_seed = self.w.map_seed(self.seed, rep)
        steps = self.w.chain(inp, out, map_seed)
        walls: dict[str, float] = {}
        rss: dict[str, float] = {}
        spans: list[dict] = []
        rep_span = f"rep:{rep}"
        t0 = time.perf_counter()
        for i, step in enumerate(steps):
            if traced:
                span = f"{rep_span}:step{i}"
                spans_file = out / f"spans{i}.jsonl"
                argv = self.traced(step.argv, spans_file, span)
            else:
                argv = [sys.executable, "-m", "tuckersketch.cli", *step.argv]
            start = time.perf_counter()
            child = self.launcher.run(argv, self.env, out / f"step{i}.log")
            self.ledger.record(child.code == 0,
                               f"{self.w.name} rep {rep}: `{step.argv[0]}` exited {child.code}"
                               f" (see {out.name}/step{i}.log)")
            walls[step.metric] = walls.get(step.metric, 0.0) + child.wall_s
            rss[step.metric] = max(rss.get(step.metric, 0.0), child.rss_MB)
            if traced:
                spans.append({"id": span, "name": f"step.{step.argv[0]}",
                              "parent": rep_span, "run_id": self.run_id,
                              "start": start, "end": start + child.wall_s})
                if spans_file.exists():
                    with open(spans_file) as fh:
                        spans.extend(json.loads(line) for line in fh)
        if traced:
            spans.append({"id": rep_span, "name": "rep", "parent": None,
                          "run_id": self.run_id, "start": t0, "end": time.perf_counter()})
            self.spans.extend(spans)
        return {"rep": rep, "map_seed": map_seed, "steps": steps, "walls": walls, "rss": rss,
                "traced": traced, "spans": spans}

    def check(self, inp, rep: dict) -> dict[str, float]:
        """Check one chain's outputs against references built with its maps;
        returns the relative errors of its archives.

        With several source files, the sketch of each is checked in the first
        repetition only; later ones check the merged sketch, which adds them
        up, so that a run's checks stay cheap next to its timed part.
        """
        params = self.w.params(rep["map_seed"])
        files = [s.writes[0] for s in rep["steps"]]
        total = tk.tucker_sketch(inp.tensor, params)
        pairs = [(files[len(inp.sources)], total)]
        if len(inp.sources) == 1:
            pairs.append((files[0], total))
        elif rep["rep"] == 0:
            pairs += [(f, tk.tucker_sketch(src.net(), params))
                      for f, src in zip(files, inp.sources)]
        where = f"{self.w.name} rep {rep['rep']}"
        for path, ref in pairs:
            try:
                check_sketch(path, ref)
                ok, why = True, ""
            except (CheckFailed, OSError, ValueError, tkio.FileFormatError) as exc:
                ok, why = False, str(exc)
            self.ledger.record(ok, f"{where}: sketch {why}")
        errs = {}
        for key, path in (("rel_err_1pass", files[-2]), ("rel_err_2pass", files[-1])):
            try:
                errs[key] = archive_error(path, inp.tensor, self.w.rank)
                ok = errs[key] <= self.max_rel_err
                why = f"{key} {errs[key]:.4f} over the ceiling {self.max_rel_err}"
            except (CheckFailed, OSError, ValueError, tkio.FileFormatError) as exc:
                ok, why = False, f"{path.name}: {exc}"
            self.ledger.record(ok, f"{where}: {why}")
        return errs

    def execute(self) -> dict[str, list[float]]:
        """Samples of every metric this run reports."""
        self.dir.mkdir(parents=True)
        inp, setup_times, gen_times = self.setup()
        reps = []
        t0 = time.perf_counter()
        while (len(reps) < (2 if self.trace else 1)
               or time.perf_counter() - t0 < self.seconds):
            reps.append(self.chain(inp, len(reps), self.trace and len(reps) % 2 == 1))
        for rep in reps:
            rep["errs"] = self.check(inp, rep)
        if self.trace:
            return self.layer_samples(inp, reps, gen_times)
        samples: dict[str, list[float]] = {"setup_s": setup_times}
        for rep in reps:
            for name, value in self.end_to_end(inp, rep).items():
                samples.setdefault(name, []).append(value)
        return samples

    def end_to_end(self, inp, rep) -> dict[str, float]:
        w, r = rep["walls"], rep["rss"]
        out = {k: w[k] for k in ("sketch_s", "merge_s", "recover_1pass_s", "recover_2pass_s")}
        out["time_to_tucker_s"] = out["sketch_s"] + out["merge_s"] + out["recover_1pass_s"]
        out["ingest_MBps"] = inp.folded_bytes / 1e6 / out["sketch_s"]
        out["sketch_rss_MB"] = r["sketch_s"]
        out["recover_rss_MB"] = max(r["recover_1pass_s"], r["recover_2pass_s"])
        out.update(rep["errs"])
        return out

    def layer_samples(self, inp, reps, gen_times) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        for rep in reps:
            if rep["traced"]:
                for name, value in layers.span_metrics(rep["spans"]).items():
                    samples.setdefault(name, []).append(value)
        # Plain and traced repetitions alternate; compare each traced chain
        # with the plain one just before it, so that drift in machine speed
        # between them stays small.
        for plain, traced in zip(reps[0::2], reps[1::2]):
            plain_s = sum(plain["walls"].values())
            extra = sum(traced["walls"].values()) - plain_s
            samples.setdefault("trace.overhead_s", []).append(extra)
            samples.setdefault("trace.overhead_ratio", []).append(extra / plain_s)
        samples["harness.gen_synthetic_s"] = gen_times

        first = reps[0]
        samples["io.bytes_read"] = [sum(p.stat().st_size for s in first["steps"]
                                        for p in s.reads)]
        samples["io.bytes_written"] = [sum(p.stat().st_size for s in first["steps"]
                                           for p in s.writes)]
        params = self.w.params(first["map_seed"])
        shape = inp.tensor.shape
        samples["drm.map_scalars"] = [sum(
            tk.drm_storage_cost(spec(shape, n)).scalars
            for spec in (params.omega_spec, params.phi_spec) for n in range(len(shape)))]
        merged = tkio.read_sketch(first["steps"][-3].writes[0])
        samples["sketch.storage_scalars"] = [tk.sketch_storage(merged)]
        core = tk.one_pass_recover(merged).factorization.core
        _, objectives = tk.hooi(core, self.w.rank, return_objectives=True)
        samples["recovery.hooi_sweeps"] = [len(objectives)]

        samples["cli.import_s"] = [self.import_cli(self.dir / f"import{i}.log").wall_s
                                   for i in range(IMPORT_SAMPLES)]

        # The first `sketch` step again, traced, with one BLAS thread.  It
        # rewrites the first repetition's sketch file with the same contents.
        one = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        spans_file = self.dir / "sketch-1thread.jsonl"
        child = self.launcher.run(self.traced(first["steps"][0].argv, spans_file),
                                  one, self.dir / "sketch-1thread.log")
        if self.ledger.record(child.code == 0, f"single-thread `sketch` exited {child.code}"):
            with open(spans_file) as fh:
                spans = [json.loads(line) for line in fh]
            samples["sketch.update_dense_1thread_s"] = [
                layers.span_metrics(spans)["sketch.update_dense_s"]]

        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{self.w.name}.jsonl", "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        return samples


def machine() -> dict:
    """What the numbers were measured on."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    info["blas_threads"] = threads
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip().replace(" ", "_")] = value.strip()
    info["note"] = ("inputs are 20-64 MB, smaller than the L3 cache; input files are warm "
                    "in the page cache, so no disk behaviour or roofline ratio is claimed; "
                    "byte counts are computed from file sizes")
    return info


def summarize(samples: dict[str, list[float]], wanted) -> dict[str, dict]:
    out = {}
    for name, unit, *_ in wanted:
        values = samples.get(name) or [0.0]
        q1, q3 = quartiles(values)
        out[name] = {"value": statistics.median(values), "unit": unit, "n": len(values),
                     "min": min(values), "q1": q1, "q3": q3, "max": max(values)}
    return out


def report(name: str, seed: int, table: dict[str, dict], ledger: Ledger) -> None:
    print(f"workload {name} seed {seed}")
    for metric, m in table.items():
        print(f"  {metric:30s} {m['value']:12.6g} {m['unit']:6s} median of n={m['n']}"
              f"  [min {m['min']:.6g}, max {m['max']:.6g}]")
    failed = len(ledger.failures)
    print(f"  {'fail_ratio':30s} {failed / max(ledger.attempted, 1):12.6g} {'ratio':6s} "
          f"{failed} failed of {ledger.attempted} calls and checks")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tuckersketch CLI benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="how long the timed repetitions run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-rel-err", type=float, required=True,
                   help="ceiling on the relative error of every recovered archive")
    p.add_argument("--out", help="also write the full result, with machine info, here")
    args = p.parse_args(argv)

    wanted = layers.PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    results, attempted, failed = {}, 0, 0
    launcher = Launcher()
    try:
        for name in names:
            run = Run(launcher, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                      args.max_rel_err)
            try:
                samples = run.execute()
            finally:
                shutil.rmtree(run.dir, ignore_errors=True)
            table = summarize(samples, wanted)
            report(name, args.seed, table, run.ledger)
            results[name] = {"metrics": table, "attempted": run.ledger.attempted,
                             "failures": run.ledger.failures}
            attempted += run.ledger.attempted
            failed += len(run.ledger.failures)
    finally:
        launcher.close()
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": info, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "max_rel_err": args.max_rel_err,
             "workloads": results}, indent=1, sort_keys=True) + "\n")
    metrics = {
        (m if len(names) == 1 else f"{name}.{m}"): {"value": v["value"], "unit": v["unit"]}
        for name in names for m, v in results[name]["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
