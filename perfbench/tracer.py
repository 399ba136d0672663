"""Run one tuckersketch CLI command with a span around each layer call.

Usage::

    python3 perfbench/tracer.py --spans OUT.jsonl --run-id ID --parent SPAN -- <cli args>

The package is imported unchanged; this process then replaces the public
functions and methods of each module (``io``, ``drm``, ``tensor``,
``sketch``, ``recovery``) with wrappers that record a span: name, start,
end (``perf_counter``, which is CLOCK_MONOTONIC and so comparable across
processes), parent span, the shared run id, CPU seconds from ``getrusage``
and the ``tracemalloc`` peak above the level at entry.  Spans stay in memory
and are written as JSON lines when the command ends.  A hook whose target no
longer exists raises, so the command fails instead of reporting no time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory span recorder with per-span tracemalloc peaks."""

    def __init__(self, run_id: str, parent: str | None):
        self.run_id = run_id
        self.root_parent = parent
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.omega_specs: set = set()

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        cur, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        rec = {
            "id": f"{os.getpid()}:{len(self.spans)}",
            "name": name,
            "parent": parent["id"] if parent is not None else self.root_parent,
            "run_id": self.run_id,
            "_base": cur,
            "_peak": cur,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        cpu0 = _cpu_s()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = _cpu_s() - cpu0
            self._stack.pop()
            rec["_peak"] = max(rec["_peak"], tracemalloc.get_traced_memory()[1])
            rec["peak_bytes"] = rec["_peak"] - rec["_base"]
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], rec["_peak"])
            tracemalloc.reset_peak()

    def wrap(self, name, fn, attrs=None):
        """``fn`` inside a span; ``name`` may be a callable of the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            extra = attrs(args) if attrs is not None else {}
            with self.span(label, **extra):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({k: v for k, v in rec.items() if not k.startswith("_")}))
                fh.write("\n")


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every tuckersketch module that imported it."""
    for name, mod in list(sys.modules.items()):
        if name == "tuckersketch" or name.startswith("tuckersketch."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _nbytes(a) -> int:
    return int(getattr(a, "nbytes", 0))


def _arg_bytes(index: int):
    """Span attributes: the byte size of positional argument ``index``."""
    return lambda args: {"bytes": _nbytes(args[index]) if len(args) > index else 0}


def install(tracer: Tracer) -> None:
    """Put spans around the public calls of each layer."""
    from tuckersketch import drm, io, recovery, sketch, tensor

    def hook_function(mod, attr, span_name, attrs=None):
        fn = getattr(mod, attr)
        _replace_everywhere(fn, tracer.wrap(span_name, fn, attrs))

    def hook_method(cls, attr, span_name, attrs=None):
        setattr(cls, attr, tracer.wrap(span_name, vars(cls)[attr], attrs))

    for attr in ("read_tensor", "read_sketch", "write_sketch", "write_tucker"):
        hook_function(io, attr, f"io.{attr}")
    for attr in ("unfold", "fold", "mode_product", "multi_mode_product", "tucker_to_dense"):
        hook_function(tensor, attr, f"tensor.{attr}")
    hook_function(sketch, "sketch_merge", "sketch.merge")
    hook_function(recovery, "factor_bases", "recovery.qr")
    hook_function(recovery, "one_pass_recover", "recovery.one_pass")
    hook_function(recovery, "two_pass_recover", "recovery.two_pass")
    hook_function(recovery, "fixed_rank_truncate", "recovery.truncate")
    hook_function(recovery, "hooi", "recovery.hooi")
    hook_function(drm, "apply_trp_factors", "drm.apply_omega")

    sk = sketch.StreamingSketcher
    hook_method(sk, "__init__", "sketch.init")
    hook_method(sk, "update_dense", "sketch.update_dense", _arg_bytes(1))
    hook_method(sk, "update_slab", "sketch.update_slab", _arg_bytes(3))
    hook_method(sk, "sketch", "sketch.snapshot",
                lambda a: {"peak_aux_scalars": int(a[0].peak_aux_scalars)})

    # Map roles: factor maps (Omega) come from SketchParams.omega_spec.
    omega_spec = sketch.SketchParams.omega_spec

    def recording_omega_spec(self, *args, **kwargs):
        spec = omega_spec(self, *args, **kwargs)
        tracer.omega_specs.add(spec)
        return spec

    sketch.SketchParams.omega_spec = recording_omega_spec

    def role(spec) -> str:
        return "omega" if spec in tracer.omega_specs else "phi"

    hook_function(drm, "make_drm", lambda a: f"drm.realize_{role(a[0])}")
    for cls in set(drm._REALIZERS.values()):
        hook_method(cls, "apply_right", lambda a: f"drm.apply_{role(a[0].spec)}")

    open_stream = io.read_update_stream

    def traced_records(records):
        while True:
            with tracer.span("io.stream_next") as rec:
                try:
                    item = next(records)
                except StopIteration:
                    return
                rec["bytes"] = _nbytes(getattr(item, "tensor", getattr(item, "slab", None)))
            yield item

    def traced_open(path):
        with tracer.span("io.read_update_stream"):
            shape, records = open_stream(path)
        return shape, traced_records(records)

    _replace_everywhere(open_stream, traced_open)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True, help="JSON-lines file to write the spans to")
    p.add_argument("--run-id", required=True, help="identifier shared by every span of a run")
    p.add_argument("--parent", default=None, help="span id the command's root span hangs under")
    p.add_argument("cli", nargs=argparse.REMAINDER, help="-- then tuckersketch CLI arguments")
    args = p.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer(args.run_id, args.parent)
    try:
        with tracer.span("import"):
            from tuckersketch import cli
        install(tracer)
        tracemalloc.start()
        with tracer.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
