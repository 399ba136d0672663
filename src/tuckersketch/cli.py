"""Command line entry points: sketch, merge, recover, bench.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure, 4 malformed file,
5 merge parameter mismatch, 6 infeasible rank, 1 other runtime failure.
Diagnostics go to stderr; output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import io as tkio
from .drm import CORE_KINDS, FACTOR_KINDS
from .harness import SyntheticSpec, run_experiment
from .recovery import (
    RankDeficientCoreError,
    RankInfeasibleError,
    fixed_rank_truncate,
    one_pass_recover,
    two_pass_recover,
)
from .rng import mix64
from .sketch import (
    ParamsMismatchError,
    SketchParams,
    StreamingSketcher,
    sketch_merge,
)
from .tensor import fro_norm, tucker_residual_norm


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _broadcast(values: tuple[int, ...], order: int, what: str) -> tuple[int, ...]:
    if len(values) == 1:
        return values * order
    if len(values) != order:
        raise ValueError(f"{what} has {len(values)} entries but the tensor has {order} modes")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tuckersketch",
        description="Sketch large tensors in one pass and recover low-rank "
        "Tucker approximations from the sketch.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sketch", help="sketch a tensor file or an update stream")
    src = ps.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="TKTN1 tensor file to sketch in one shot")
    src.add_argument("--stream", help="TKUS1 update stream to fold in record by record")
    size = ps.add_mutually_exclusive_group(required=True)
    size.add_argument("--rank", type=_int_list, help="target Tucker rank r (k=2r+1, s=2k+1)")
    size.add_argument("--k", type=_int_list, dest="k", help="factor sketch sizes")
    ps.add_argument("--s", type=_int_list, help="core sketch sizes (default 2k+1)")
    ps.add_argument("--drm", choices=FACTOR_KINDS, default="gaussian",
                    help="factor map kind")
    ps.add_argument("--core-drm", choices=CORE_KINDS, default=None,
                    help="core map kind (default: same as --drm, or gaussian for trp)")
    ps.add_argument("--density", type=float, default=0.1,
                    help="nonzero fraction for sparse_sign maps")
    ps.add_argument("--seed", type=int, default=0, help="master seed")
    ps.add_argument("--out", required=True, help="output TKSK1 sketch file")
    ps.set_defaults(func=_cmd_sketch)

    pm = sub.add_parser("merge", help="add sketches of shards (same params everywhere)")
    pm.add_argument("inputs", nargs="+", help="TKSK1 sketch files")
    pm.add_argument("--out", required=True, help="output TKSK1 sketch file")
    pm.set_defaults(func=_cmd_merge)

    pr = sub.add_parser("recover", help="reconstruct a Tucker factorization")
    pr.add_argument("--sketch", required=True, help="TKSK1 sketch file")
    pr.add_argument("--mode", choices=("one-pass", "two-pass"), default="one-pass")
    pr.add_argument("--input", help="TKTN1 tensor file (required for two-pass)")
    pr.add_argument("--trunc", type=_int_list, default=None,
                    help="compress to this Tucker rank after recovery")
    pr.add_argument("--method", choices=("hooi", "st_hosvd", "hosvd"), default="hooi",
                    help="fixed-rank compression method")
    pr.add_argument("--out", required=True, help="output factorization archive")
    pr.add_argument("--report", help="also write a JSON metrics report here")
    pr.set_defaults(func=_cmd_recover)

    pb = sub.add_parser("bench", help="run a synthetic error/bound comparison grid")
    pb.add_argument("--scheme", choices=("low_rank_noise", "sparse_low_rank_noise", "poly_decay"),
                    default="low_rank_noise")
    pb.add_argument("--side", type=int, default=50)
    pb.add_argument("--order", type=int, default=3)
    pb.add_argument("--rank", type=int, default=5)
    pb.add_argument("--gamma", type=_float_list, default=(0.01,),
                    help="noise levels to sweep")
    pb.add_argument("--delta", type=_float_list, default=(0.2,),
                    help="sparsity levels to sweep (sparse scheme)")
    pb.add_argument("--decay", type=_float_list, default=(1.0,),
                    help="decay rates to sweep (poly scheme)")
    pb.add_argument("--k", type=_int_list, default=None,
                    help="factor sketch sizes to sweep (default 2r+1)")
    pb.add_argument("--s", type=_int_list, default=None,
                    help="core sketch size (default 2k+1, applied per k)")
    pb.add_argument("--drm", choices=FACTOR_KINDS, default="gaussian")
    pb.add_argument("--core-drm", choices=CORE_KINDS, default=None)
    pb.add_argument("--density", type=float, default=0.1)
    pb.add_argument("--trials", type=int, default=3)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--trunc", action="store_true",
                    help="score recoveries at rank r instead of rank k")
    pb.add_argument("--out", required=True, help="output CSV")
    pb.set_defaults(func=_cmd_bench)
    return p


def _core_kind(drm: str, core_drm: str | None) -> str:
    if core_drm is not None:
        return core_drm
    return drm if drm in CORE_KINDS else "gaussian"


def _params_for(args, order: int) -> SketchParams:
    kinds = {
        "omega_kind": args.drm,
        "phi_kind": _core_kind(args.drm, args.core_drm),
        "density": args.density,
    }
    if args.rank is not None:
        r = _broadcast(args.rank, order, "--rank")
        return SketchParams.for_rank(r, args.seed, **kinds)
    k = _broadcast(args.k, order, "--k")
    if args.s is not None:
        s = _broadcast(args.s, order, "--s")
    else:
        s = tuple(2 * v + 1 for v in k)
    return SketchParams(k=k, s=s, master_seed=args.seed, **kinds)


def _cmd_sketch(args) -> int:
    if args.input is not None:
        x = tkio.read_tensor(args.input)
        acc = StreamingSketcher(x.shape, _params_for(args, x.ndim))
        acc.update_dense(x)
    else:
        shape, records = tkio.read_update_stream(args.stream)
        acc = StreamingSketcher(shape, _params_for(args, len(shape)))
        count = 0
        for rec in records:
            if isinstance(rec, tkio.FullUpdate):
                acc.update_dense(rec.tensor, rec.theta1, rec.theta2)
            else:
                acc.update_slab(rec.mode, rec.offset, rec.slab, rec.theta1, rec.theta2)
            count += 1
        print(f"folded {count} updates", file=sys.stderr)
    sk = acc.sketch()
    tkio.write_sketch(args.out, sk)
    print(f"wrote sketch {args.out} (shape {sk.shape}, k {sk.params.k}, "
          f"s {sk.params.s})", file=sys.stderr)
    return 0


def _cmd_merge(args) -> int:
    sketches = [tkio.read_sketch(p) for p in args.inputs]
    merged = sketches[0]
    for other in sketches[1:]:
        merged = sketch_merge(merged, other)
    tkio.write_sketch(args.out, merged)
    print(f"merged {len(sketches)} sketches into {args.out}", file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    if args.mode == "two-pass" and args.input is None:
        print("error: --mode two-pass needs --input to make its second pass",
              file=sys.stderr)
        return 2
    sk = tkio.read_sketch(args.sketch)
    start = time.perf_counter()
    if args.mode == "two-pass":
        x = tkio.read_tensor(args.input)
        report = two_pass_recover(x, sk)
    else:
        x = tkio.read_tensor(args.input) if args.input else None
        report = one_pass_recover(sk)
    fact = report.factorization
    if args.trunc is not None:
        r = _broadcast(args.trunc, len(sk.shape), "--trunc")
        fact = fixed_rank_truncate(fact, r, method=args.method)
    elapsed = time.perf_counter() - start
    tkio.write_tucker(args.out, fact)

    normalized_error = None
    if x is not None:
        err = tucker_residual_norm(x, fact)
        norm = fro_norm(x)
        normalized_error = err / norm if norm > 0 else None
    summary = {
        "mode": args.mode,
        "passes": report.passes,
        "shape": list(sk.shape),
        "k": list(sk.params.k),
        "s": list(sk.params.s),
        "rank": list(fact.rank),
        "degenerate_modes": list(report.degenerate_modes),
        "core_solver_residuals": list(report.core_solver_residuals),
        "normalized_error": normalized_error,
        "elapsed_seconds": elapsed,
    }
    if args.report:
        with tkio._atomic_write(args.report) as fh:
            fh.write((json.dumps(summary, sort_keys=True, indent=2) + "\n").encode())
    print(f"recovered rank {fact.rank} factorization -> {args.out}"
          + (f" (normalized error {normalized_error:.3e})" if normalized_error is not None else ""),
          file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    ks = args.k if args.k is not None else (2 * args.rank + 1,)
    grid = []
    cell = 0
    sweeps = {
        "low_rank_noise": [("gamma", g) for g in args.gamma],
        "sparse_low_rank_noise": [("delta", d) for d in args.delta],
        "poly_decay": [("decay", t) for t in args.decay],
    }[args.scheme]
    for knob, value in sweeps:
        for k in ks:
            kw = {knob: value}
            data = SyntheticSpec(
                scheme=args.scheme,
                side=args.side,
                order=args.order,
                rank=args.rank,
                seed=mix64(args.seed, 9000, cell),
                **kw,
            )
            s = args.s[0] if args.s else 2 * k + 1
            params = SketchParams(
                k=(k,) * args.order,
                s=(s,) * args.order,
                master_seed=mix64(args.seed, 9001, cell),
                omega_kind=args.drm,
                phi_kind=_core_kind(args.drm, args.core_drm),
                density=args.density,
            )
            grid.append((data, params))
            cell += 1
    rows = run_experiment(grid, trials=args.trials, output=args.out, truncate=args.trunc)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tkio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ParamsMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except RankInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except RankDeficientCoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
