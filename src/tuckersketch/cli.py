"""Command line entry points: sketch, merge, recover, bench.

Exit codes: 0 success, 2 bad arguments or non-finite data, 3 I/O failure,
4 malformed file, 5 merge parameter mismatch, 6 infeasible rank, 1 other
runtime failure.  Diagnostics go to stderr; output files are written
atomically.

``sketch --input`` and ``recover --input`` read the tensor file in
last-mode slabs of at most 8 MiB (one plane of the last mode at the least),
so the tensor is never held in memory whole.  ``sketch --stream`` reads
every full record and every last-mode slab record in the same bounded
pieces, from one reused buffer; a slab record along any other mode is held
whole.  Every piece is folded with ``update_slab``.  ``merge`` reads one
sketch file at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

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
from .tensor import TuckerFactorization, fro_norm, per_mode, tucker_residual_norm


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
        return SketchParams.for_rank(args.rank, args.seed, order=order, **kinds)
    k = per_mode(args.k, order, "--k")
    if args.s is not None:
        s = per_mode(args.s, order, "--s")
    else:
        s = tuple(2 * v + 1 for v in k)
    return SketchParams(k=k, s=s, master_seed=args.seed, **kinds)


def _check_finite(acc: StreamingSketcher, where: str) -> None:
    """Stop at the first update that leaves NaN or Inf in the sketch."""
    if not acc.all_finite():
        raise ValueError(f"{where} made the sketch non-finite (NaN or Inf in the data)")


def _cmd_sketch(args) -> int:
    if args.input is not None:
        path = args.input
        shape, slabs = tkio.read_tensor_slabs(path)
        last = len(shape) - 1
        pieces = (tkio.Piece(0, last, offset, slab) for offset, slab in slabs)
    else:
        path = args.stream
        shape, pieces = tkio.read_stream_pieces(path)
    acc = StreamingSketcher(shape, _params_for(args, len(shape)))
    records = 0
    for p in pieces:
        acc.update_slab(p.mode, p.offset, p.data, p.theta1, p.theta2)
        where = (f"rows {p.offset}:{p.offset + p.data.shape[p.mode]} of mode {p.mode}"
                 if args.input is not None else f"record {p.record}")
        _check_finite(acc, f"{path}: {where}")
        records = p.record + 1
    if args.stream is not None:
        print(f"folded {records} updates", file=sys.stderr)
    sk = acc.sketch()
    tkio.write_sketch(args.out, sk)
    print(f"wrote sketch {args.out} (shape {sk.shape}, k {sk.params.k}, "
          f"s {sk.params.s})", file=sys.stderr)
    return 0


def _cmd_merge(args) -> int:
    merged = tkio.read_sketch(args.inputs[0])
    for path in args.inputs[1:]:
        merged = sketch_merge(merged, tkio.read_sketch(path))
    tkio.write_sketch(args.out, merged)
    print(f"merged {len(args.inputs)} sketches into {args.out}", file=sys.stderr)
    return 0


def _normalized_error(slabs, fact: TuckerFactorization) -> float | None:
    """``||X - X_hat|| / ||X||`` with both sums of squares taken over the
    last-mode slabs of ``X`` (None when ``X`` is zero); raises ``ValueError``
    when a sum is not finite (NaN or Inf in ``X``)."""
    err = norm = 0.0
    last = fact.core.ndim - 1
    for offset, slab in slabs:
        rows = fact.factors[last][offset : offset + slab.shape[last]]
        part = TuckerFactorization(core=fact.core, factors=fact.factors[:last] + (rows,))
        err += tucker_residual_norm(slab, part) ** 2
        norm += fro_norm(slab) ** 2
    if not math.isfinite(err + norm):
        raise ValueError("the tensor's sum of squares is not finite (NaN or Inf in the data)")
    return math.sqrt(err) / math.sqrt(norm) if norm > 0 else None


def _cmd_recover(args) -> int:
    if args.mode == "two-pass" and args.input is None:
        print("error: --mode two-pass needs --input to make its second pass",
              file=sys.stderr)
        return 2
    sk = tkio.read_sketch(args.sketch)
    slabs = None
    if args.input is not None:
        # Checked now, read when scoring (two-pass also reads it for the core).
        shape, slabs = tkio.read_tensor_slabs(args.input)
        if shape != sk.shape:
            raise ValueError(f"tensor has shape {shape} but sketch covers {sk.shape}")
    start = time.perf_counter()
    if args.mode == "two-pass":
        report = two_pass_recover(args.input, sk)
    else:
        report = one_pass_recover(sk)
    fact = report.factorization
    if args.trunc is not None:
        r = per_mode(args.trunc, len(sk.shape), "--trunc")
        fact = fixed_rank_truncate(fact, r, method=args.method)
    elapsed = time.perf_counter() - start
    normalized_error = _normalized_error(slabs, fact) if slabs is not None else None
    tkio.write_tucker(args.out, fact)
    summary = {
        "mode": args.mode,
        "passes": report.passes,
        "shape": list(sk.shape),
        "k": list(sk.params.k),
        "s": list(sk.params.s),
        "rank": list(fact.rank),
        "degenerate_modes": list(report.degenerate_modes),
        "core_solver_residuals": list(report.core_solver_residuals),
        "core_conditions": list(report.core_conditions),
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


# Exit code of each failure, first match wins: the ValueError subclasses
# come before ValueError itself.
_EXIT_CODES = (
    (tkio.FileFormatError, 4),
    (ParamsMismatchError, 5),
    (RankInfeasibleError, 6),
    (RankDeficientCoreError, 1),
    (ValueError, 2),
    (OSError, 3),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
