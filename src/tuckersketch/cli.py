"""Command line entry points: sketch, merge, recover, bench.

Exit codes: 0 success, 2 bad arguments or non-finite data, 3 I/O failure,
4 malformed file, 5 merge parameter mismatch, 6 infeasible rank, 1 other
runtime failure (a rank-deficient core, or a file whose sketch does not fit
in memory).  Diagnostics go to stderr; output files are written
atomically.

``sketch --input`` reads the tensor file in last-mode slabs of at most
8 MiB, ``recover --input`` in slabs of at most 1 MiB (one plane of the last
mode at the least), so the tensor is never held in memory whole.
``recover --input`` reads the file once in either mode.  One-pass scores
the error by expanding the factorization piece by piece beside the file's
pieces.  Two-pass scores it from the pass that makes its core (the
projection onto the factor bases) and the sum of squares that pass takes;
only an error below 1e-3, where that score has cancelled, reads the file
again to expand it.  ``sketch
--stream`` reads every full record and every last-mode slab record in 8 MiB
pieces, and every slab record along another mode in boxes, its rows times a
range of last-mode planes, of at most four core sketches (at most 8 MiB,
one plane of the record at the least), all into one reused buffer.  Every
piece is folded with ``update_slab``.  A piece generates the rows of each
Gaussian or sparse sign factor map that it touches and drops them; a map it
touches whole (``Omega_m`` for a slab along mode ``m``) is realized whole,
and contracted last.  A box of fewer than all planes touches no map whole,
and the rows of ``Omega_last`` it touches are the same for every box of
its record, so they are kept for the record.  So ``sketch --input`` holds
``Omega_last``, the core maps, one slab and one row block, and a mode-0
shard holds the core maps, one box and the rows of ``Omega_last`` its
record touches.
``sketch --report`` writes the pieces and payload bytes folded,
``peak_aux_scalars``, ``held_map_scalars`` (factor and core map entries
held) and the elapsed time.  ``merge`` reads one sketch file at a time,
whole.  ``recover`` never holds the core sketch whole: it checks the sketch
file a core slab (at most 256 KiB) at a time, two-pass then keeps only the
factor sketches, and one-pass reads the core again slab by slab.
``recover --report`` writes ``peak_aux_scalars``, the working memory of
the recovery's largest step counted from shapes.

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
from typing import TYPE_CHECKING

from . import io as tkio
from .sketch import (
    CORE_KINDS,
    FACTOR_KINDS,
    ParamsMismatchError,
    RankDeficientCoreError,
    RankInfeasibleError,
    SketchParams,
    StreamingSketcher,
    sketch_merge,
)
from .tensor import TuckerFactorization, fro_norm, multi_mode_product, per_mode, sum_sq

if TYPE_CHECKING:
    from .recovery import RecoveryReport


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


def _core_kind(drm: str, core_drm: str | None) -> str:
    if core_drm is not None:
        return core_drm
    return drm if drm in CORE_KINDS else "gaussian"


def _map_kinds(args) -> dict:
    """The ``SketchParams`` map kinds, and density if given, of ``args``."""
    kinds = {"omega_kind": args.drm, "phi_kind": _core_kind(args.drm, args.core_drm)}
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
    if args.s is not None:
        s = per_mode(args.s, order, "--s")
    else:
        s = tuple(2 * v + 1 for v in k)
    return SketchParams(k=k, s=s, master_seed=args.seed, **kinds)


def _check_finite(acc: StreamingSketcher, where: str) -> None:
    """Stop at the first update that leaves NaN or Inf in the sketch."""
    if not acc.all_finite():
        raise ValueError(f"{where} made the sketch non-finite (NaN or Inf in the data)")


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
        _check_finite(acc, f"{path}: {where}")
        records = p.record + 1
        folded += 1
        payload += p.data.nbytes
    elapsed = time.perf_counter() - start
    if args.stream is not None:
        print(f"folded {records} updates", file=sys.stderr)
    sk = acc.sketch()
    tkio.write_sketch(args.out, sk)
    if args.report:
        _write_report(args.report, {
            "pieces_folded": folded,
            "payload_bytes_folded": payload,
            "peak_aux_scalars": acc.peak_aux_scalars,
            "held_map_scalars": acc.held_map_scalars,
            "elapsed_seconds": elapsed,
        })
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
    when a sum is not finite (NaN or Inf in ``X``).  Each slab is small (a
    recovery slab), so its part of ``X_hat`` is expanded in one piece."""
    err = norm = 0.0
    last = fact.core.ndim - 1
    head = list(enumerate(fact.factors[:last]))
    for offset, slab in slabs:
        rows = fact.factors[last][offset : offset + slab.shape[last]]
        diff = multi_mode_product(fact.core, head + [(last, rows)])
        diff -= slab
        err += fro_norm(diff) ** 2
        norm += fro_norm(slab) ** 2
        del diff  # so the next slab's expansion is not made beside this one
    if not math.isfinite(err + norm):
        raise ValueError("the tensor's sum of squares is not finite (NaN or Inf in the data)")
    return math.sqrt(err) / math.sqrt(norm) if norm > 0 else None


# Below this relative error the projected score has lost its digits to the
# subtraction ||X||^2 - ||W||^2 (a noise-free tensor scores anywhere from 0
# to about 2e-8 where the expansion gives 1e-15), so the tensor is read
# again and scored by expansion.  Above it the two agreed within 1e-9
# relative on 13^3, 60^3 and 200^3 tensors (1.3e-10 at 200^3 and an error of
# 1.4e-3); the rounding of ||X||^2 grows with the number of entries, so a
# far larger tensor may need a higher floor.
_PROJECTED_ERROR_FLOOR = 1e-3


def _projected_error(report: RecoveryReport, fact: TuckerFactorization) -> float | None:
    """``||X - X_hat|| / ||X||`` from a two-pass ``report`` alone: its core
    is ``W = X x_n Q_n^T`` for orthonormal ``Q_n`` whose spans hold every
    factor of ``fact``, so ``||X - X_hat||^2 = ||X||^2 - ||W||^2 +
    ||W - W_hat||^2`` with the small ``W_hat = core x_n (Q_n^T F_n)``.
    None when ``X`` is zero; ``ValueError`` when a sum is not finite, as
    for the expansion."""
    w, bases, sq = report.factorization.core, report.factorization.factors, report.tensor_sq_norm
    w_hat = multi_mode_product(
        fact.core, [(n, q.T @ f) for n, (q, f) in enumerate(zip(bases, fact.factors))]
    )
    w_hat -= w
    err = sq - sum_sq(w) + sum_sq(w_hat)
    if not math.isfinite(err):
        raise ValueError("the tensor's sum of squares is not finite (NaN or Inf in the data)")
    return math.sqrt(max(err, 0.0) / sq) if sq > 0 else None


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
        one_pass_inflation,
        one_pass_recover,
        two_pass_recover,
    )

    # Checked whole, a core slab at a time, before any tensor is opened;
    # the recovery reads the file again and holds no more of its core.
    sk = tkio.read_sketch_slabs(args.sketch)[0]
    slabs = None
    if args.input is not None:
        # Checked now, read when scoring (two-pass also reads it for the core).
        shape, slabs = tkio.read_tensor_slabs(args.input, recovery=True)
        if shape != sk.shape:
            raise ValueError(f"tensor has shape {shape} but sketch covers {sk.shape}")
    start = time.perf_counter()
    if args.mode == "two-pass":
        report = two_pass_recover(args.input, args.sketch)
    else:
        report = one_pass_recover(args.sketch)
    fact = report.factorization
    if args.trunc is not None:
        r = per_mode(args.trunc, len(sk.shape), "--trunc")
        fact = fixed_rank_truncate(fact, r, method=args.method or "hooi")
    elapsed = time.perf_counter() - start
    normalized_error = None
    if args.mode == "two-pass":
        normalized_error = _projected_error(report, fact)
    if slabs is not None and (normalized_error is None
                              or normalized_error < _PROJECTED_ERROR_FLOOR):
        # One-pass, or a two-pass score that has cancelled: expand.
        normalized_error = _normalized_error(slabs, fact)
    tkio.write_tucker(args.out, fact)
    summary = {
        "mode": args.mode,
        "passes": report.passes,
        "shape": list(sk.shape),
        "k": list(sk.params.k),
        "s": list(sk.params.s),
        "rank": list(fact.rank),
        "degenerate_modes": list(report.degenerate_modes),
        "qr_diag_ratios": list(report.qr_diag_ratios),
        "core_solver_residuals": list(report.core_solver_residuals),
        "core_conditions": list(report.core_conditions),
        "one_pass_inflation": one_pass_inflation(sk.params.k, sk.params.s),
        "normalized_error": normalized_error,
        "peak_aux_scalars": report.peak_aux_scalars,
        "elapsed_seconds": elapsed,
    }
    if args.report:
        _write_report(args.report, summary)
    print(f"recovered rank {fact.rank} factorization -> {args.out}"
          + (f" (normalized error {normalized_error:.3e})" if normalized_error is not None else ""),
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
