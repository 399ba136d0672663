"""Command line entry points: sketch, merge, recover, bench.

Exit codes: 0 success, 2 bad arguments or non-finite data, 3 I/O failure,
4 malformed file, 5 merge parameter mismatch, 6 infeasible rank, 1 other
runtime failure (a rank-deficient core, or a file whose sketch does not fit
in memory).  Diagnostics go to stderr; output files are written
atomically.

``sketch --input`` reads the tensor file in last-mode slabs of at most
8 MiB, ``recover --input`` in slabs of at most 1 MiB (one plane of the last
mode at the least), so the tensor is never held in memory whole.
``sketch --stream`` reads every full record and every last-mode slab record
in 8 MiB pieces, and every slab record along another mode in boxes, its
rows times a range of last-mode planes, of at most four core sketches (at
most 8 MiB, one plane of the record at the least), all into one reused
buffer.  Every piece is folded with ``update_slab``, and ``sketch`` stops
at the first that leaves NaN or Inf in the sketch (``check_finite``).  A
piece generates the rows of each Gaussian or sparse sign factor map that it
touches and drops them; a map it touches whole (``Omega_m`` for a slab
along mode ``m``) is realized whole, and contracted last.  A box of fewer
than all planes touches no map whole, and the rows of ``Omega_last`` it
touches are the same for every box of its record, so they are kept for the
record.  So ``sketch --input`` holds ``Omega_last``, the core maps, one
slab and one row block, and a mode-0 shard holds the core maps, one box and
the rows of ``Omega_last`` its record touches.  ``sketch --report`` writes
the pieces and payload bytes folded, ``peak_aux_scalars``,
``held_map_scalars`` (factor and core map entries held), ``sketch_scalars``
and ``tensor_scalars`` (``sketch_storage`` against the tensor's entries:
``sketch`` says so on stderr when the sketch holds more) and the elapsed
time.  ``merge`` checks each sketch file whole, then adds it in core slabs
(256 KiB at most) to one running sum, and refuses a sum that overflowed
(exit 2).  ``recover`` never holds the core sketch whole: the recovery
checks the file once, two-pass keeps the factor sketches, one-pass reads
the core slab by slab.  ``recover --report`` writes ``peak_aux_scalars``,
the working memory of the recovery's largest step counted from shapes,
and, given ``--input``, the error that ``recovery.normalized_error``
scores, at any scale of the tensor.

A command imports scipy only to draw more than 2^20 Gaussian values in one
array or map (``rng.ndtri_for``), and ``numpy.random`` only to draw more
than 2^16 words of one (``rng.philox_for``); a sketcher with such a factor
map imports them when it is made.  ``sketch`` of a 200^3 tensor at rank 10
loads no scipy; ``merge``, two-pass ``recover``, and a TRP ``sketch`` or a
one-pass ``recover`` whose TRP factors and core maps are that small load
neither.

Each command loads only the package modules it runs.  Every command needs
``io``, ``sketch`` and ``tensor``.  ``sketch`` loads the map modules
``drm`` and ``rng`` when it makes its sketcher; ``recover`` loads
``recovery``, and one-pass also the map modules, for its core maps;
``bench`` loads ``harness`` and all the rest.  ``merge`` loads no other.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

from . import io as tkio
from .sketch import (
    CORE_KINDS,
    FACTOR_KINDS,
    ParamsMismatchError,
    RankDeficientCoreError,
    RankInfeasibleError,
    SketchParams,
    StreamingSketcher,
    sketch_storage,
    sum_sketches,
)
from .tensor import per_mode


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


class _Once(argparse.Action):
    """Store an option's value, and refuse the option a second time (a
    comma list given twice would otherwise keep only its last value)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not self.default:
            parser.error(f"argument {option_string}: given more than once; "
                         "list every value in one comma-separated list")
        setattr(namespace, self.dest, values)


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
    ps.add_argument("--density", type=float, default=None,
                    help="nonzero fraction for sparse_sign maps (default 0.1); needs "
                    "--drm or --core-drm sparse_sign")
    ps.add_argument("--seed", type=int, default=0, help="master seed")
    ps.add_argument("--out", required=True, help="output TKSK1 sketch file")
    ps.add_argument("--report", help="also write a JSON report of the fold here")
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
    pr.add_argument("--method", choices=("hooi", "st_hosvd", "hosvd"), default=None,
                    help="fixed-rank compression method for --trunc (default hooi)")
    pr.add_argument("--out", required=True, help="output factorization archive")
    pr.add_argument("--report", help="also write a JSON metrics report here")
    pr.set_defaults(func=_cmd_recover)

    pb = sub.add_parser("bench", help="run a synthetic error/bound comparison grid")
    pb.add_argument("--scheme", choices=("low_rank_noise", "sparse_low_rank_noise", "poly_decay"),
                    default="low_rank_noise")
    pb.add_argument("--side", type=int, default=50)
    pb.add_argument("--order", type=int, default=3)
    pb.add_argument("--rank", type=int, default=5)
    pb.add_argument("--gamma", type=_float_list, action=_Once, default=(0.01,),
                    help="noise levels to sweep")
    pb.add_argument("--delta", type=_float_list, action=_Once, default=(0.2,),
                    help="sparsity levels to sweep (sparse scheme)")
    pb.add_argument("--decay", type=_float_list, action=_Once, default=(1.0,),
                    help="decay rates to sweep (poly scheme)")
    pb.add_argument("--k", type=_int_list, action=_Once, default=None,
                    help="factor sketch sizes to sweep (default 2r+1)")
    pb.add_argument("--s", type=_int_list, action=_Once, default=None,
                    help="core sketch sizes: one for every k, or one per --k value "
                    "(default 2k+1)")
    pb.add_argument("--drm", choices=FACTOR_KINDS, default="gaussian")
    pb.add_argument("--core-drm", choices=CORE_KINDS, default=None)
    pb.add_argument("--density", type=float, default=None,
                    help="nonzero fraction for sparse_sign maps (default 0.1); needs "
                    "--drm or --core-drm sparse_sign")
    pb.add_argument("--trials", type=int, default=3)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--trunc", action="store_true",
                    help="score recoveries at rank r instead of rank k")
    pb.add_argument("--out", required=True, help="output CSV")
    pb.set_defaults(func=_cmd_bench)
    return p


def _map_kinds(args) -> dict:
    """The ``SketchParams`` map kinds, and density if given, of ``args``: the
    core map kind defaults to the factor map's, or Gaussian for TRP."""
    core = args.core_drm or (args.drm if args.drm in CORE_KINDS else "gaussian")
    kinds = {"omega_kind": args.drm, "phi_kind": core}
    if args.density is not None:
        kinds["density"] = args.density
    return kinds


def _density_unused(args) -> bool:
    """Whether ``--density`` is given with no sparse_sign map to use it; if
    so, says so on stderr (the command exits 2)."""
    if args.density is None or "sparse_sign" in (args.drm, args.core_drm):
        return False
    print("error: --density sets the nonzero fraction of sparse_sign maps; it needs "
          "--drm or --core-drm sparse_sign", file=sys.stderr)
    return True


def _params_for(args, order: int) -> SketchParams:
    kinds = _map_kinds(args)
    if args.rank is not None:
        return SketchParams.for_rank(args.rank, args.seed, order=order, **kinds)
    k = per_mode(args.k, order, "--k")
    s = tuple(2 * v + 1 for v in k) if args.s is None else per_mode(args.s, order, "--s")
    return SketchParams(k=k, s=s, master_seed=args.seed, **kinds)


def _write_report(path: str, summary: dict) -> None:
    """Write a command's ``--report`` JSON, atomically."""
    with tkio._atomic_write(path) as fh:
        fh.write((json.dumps(summary, sort_keys=True, indent=2) + "\n").encode())


# Each box of a stream record ends in a product the size of the core sketch,
# added into it, so a box holds this many core sketches of data (at most
# 8 MiB, one plane of the record at the least): the record is never held
# whole, and that fixed cost stays a small share of each box's work.
_BOX_CORE_SKETCHES = 4


def _cmd_sketch(args) -> int:
    if _density_unused(args):
        return 2
    start = time.perf_counter()
    if args.input is not None:
        path = args.input
        shape, slabs = tkio.read_tensor_slabs(path)
        params = _params_for(args, len(shape))
        last = len(shape) - 1
        pieces = (tkio.Piece(0, last, offset, slab) for offset, slab in slabs)
    else:
        path = args.stream
        shape = tkio.read_stream_shape(path)
        params = _params_for(args, len(shape))
        _, pieces = tkio.read_stream_pieces(path, _BOX_CORE_SKETCHES * math.prod(params.s))
    # The first piece checks its record against the file, so a forged header
    # extent fails as a malformed file before the sketcher allocates for it.
    first = next(pieces, None)
    acc = StreamingSketcher(shape, params)
    records = folded = payload = 0
    for p in itertools.chain(() if first is None else (first,), pieces):
        acc.update_slab(p.mode, p.offset, p.data, p.theta1, p.theta2, p.last_offset)
        where = (f"rows {p.offset}:{p.offset + p.data.shape[p.mode]} of mode {p.mode}"
                 if args.input is not None else f"record {p.record}")
        acc.check_finite(f"{path}: {where}")
        records = p.record + 1
        folded += 1
        payload += p.data.nbytes
    elapsed = time.perf_counter() - start
    if args.stream is not None:
        print(f"folded {records} updates", file=sys.stderr)
    sk = acc.sketch()
    tkio.write_sketch(args.out, sk)
    stored, scalars = sketch_storage(sk), math.prod(shape)
    if stored > scalars:
        print(f"note: the sketch holds {stored} scalars, more than the tensor's {scalars}",
              file=sys.stderr)
    if args.report:
        _write_report(args.report, {
            "pieces_folded": folded,
            "payload_bytes_folded": payload,
            "peak_aux_scalars": acc.peak_aux_scalars,
            "held_map_scalars": acc.held_map_scalars,
            "sketch_scalars": stored,
            "tensor_scalars": scalars,
            "elapsed_seconds": elapsed,
        })
    print(f"wrote sketch {args.out} (shape {sk.shape}, k {sk.params.k}, "
          f"s {sk.params.s})", file=sys.stderr)
    return 0


def _cmd_merge(args) -> int:
    # Lazy: each file is opened once the one before it is added and closed.
    merged = sum_sketches(tkio.read_sketch_slabs(path) for path in args.inputs)
    tkio.write_sketch(args.out, merged)
    print(f"merged {len(args.inputs)} sketches into {args.out}", file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    if args.mode == "two-pass" and args.input is None:
        print("error: --mode two-pass needs --input to make its second pass",
              file=sys.stderr)
        return 2
    if args.method is not None and args.trunc is None:
        print("error: --method chooses how --trunc compresses; it needs --trunc",
              file=sys.stderr)
        return 2
    if args.mode == "one-pass":
        # The map modules, for the core maps, load first: loaded after the
        # recovery module or the sketch, the memory their compilation frees
        # was not reused, and a recovery at 160^3 or 200^3, r=10 read 0.2 to
        # 0.6 MB more max RSS.
        from . import drm  # noqa: F401
    from .recovery import (
        fixed_rank_truncate,
        normalized_error,
        one_pass_inflation,
        one_pass_recover,
        two_pass_recover,
    )

    start = time.perf_counter()
    if args.mode == "two-pass":
        report = two_pass_recover(args.input, args.sketch)
    else:
        report = one_pass_recover(args.sketch)
    params, fact = report.params, report.factorization
    if args.trunc is not None:
        r = per_mode(args.trunc, params.order, "--trunc")
        fact = fixed_rank_truncate(fact, r, method=args.method or "hooi")
    elapsed = time.perf_counter() - start
    error = None if args.input is None else normalized_error(report, fact, args.input)
    tkio.write_tucker(args.out, fact)
    summary = {
        "mode": args.mode,
        "passes": report.passes,
        "shape": list(fact.shape),
        "k": list(params.k),
        "s": list(params.s),
        "rank": list(fact.rank),
        "degenerate_modes": list(report.degenerate_modes),
        "qr_diag_ratios": list(report.qr_diag_ratios),
        "core_solver_residuals": list(report.core_solver_residuals),
        "core_conditions": list(report.core_conditions),
        "one_pass_inflation": one_pass_inflation(params.k, params.s),
        "normalized_error": error,
        "peak_aux_scalars": report.peak_aux_scalars,
        "elapsed_seconds": elapsed,
    }
    if args.report:
        _write_report(args.report, summary)
    print(f"recovered rank {fact.rank} factorization -> {args.out}"
          + (f" (normalized error {error:.3e})" if error is not None else ""),
          file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if _density_unused(args):
        return 2
    from .harness import SyntheticSpec, run_experiment
    from .rng import mix64

    ks = args.k if args.k is not None else (2 * args.rank + 1,)
    ss = args.s if args.s is not None else tuple(2 * k + 1 for k in ks)
    if len(ss) == 1:
        ss *= len(ks)
    if len(ss) != len(ks):
        print(f"error: --s takes one value or one per --k value, got {len(ss)} "
              f"for {len(ks)}", file=sys.stderr)
        return 2
    grid = []
    cell = 0
    sweeps = {
        "low_rank_noise": [("gamma", g) for g in args.gamma],
        "sparse_low_rank_noise": [("delta", d) for d in args.delta],
        "poly_decay": [("decay", t) for t in args.decay],
    }[args.scheme]
    for knob, value in sweeps:
        for k, s in zip(ks, ss):
            kw = {knob: value}
            data = SyntheticSpec(
                scheme=args.scheme,
                side=args.side,
                order=args.order,
                rank=args.rank,
                seed=mix64(args.seed, 9000, cell),
                **kw,
            )
            params = SketchParams(
                k=(k,) * args.order,
                s=(s,) * args.order,
                master_seed=mix64(args.seed, 9001, cell),
                **_map_kinds(args),
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
    (MemoryError, 1),
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
