"""Per-layer metrics: their names and units, and how spans become values.

The layers are the modules of ``src/tuckersketch``.  A metric named after a
function (``sketch.update_slab_s``) is the time inside that function's
outermost calls, minus the time of nested calls that have their own metric
in the same layer; so ``update_slab_s`` leaves out the zero-padded
``update_dense`` it falls back to, and ``recovery.one_pass_s`` leaves out
``recovery.qr_s``.  The metrics of one layer therefore add up to no more
than the time spent inside it.  ``<layer>.self_s`` is the layer's self
time: span durations minus the time their direct child spans cover.
``_peak_MB`` metrics are the largest ``tracemalloc`` peak above the level at
entry of any one call.
"""

from __future__ import annotations

# name, unit, better
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("io.read_tensor_s", "s", "lower"),
    ("io.read_tensor_peak_MB", "MB", "lower"),
    ("io.stream_next_s", "s", "lower"),
    ("io.stream_peak_MB", "MB", "lower"),
    ("io.write_sketch_s", "s", "lower"),
    ("io.read_sketch_s", "s", "lower"),
    ("io.write_tucker_s", "s", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.self_s", "s", "lower"),
    ("drm.realize_omega_s", "s", "lower"),
    ("drm.realize_phi_s", "s", "lower"),
    ("drm.apply_omega_s", "s", "lower"),
    ("drm.apply_phi_s", "s", "lower"),
    ("drm.map_scalars", "count", "lower"),
    ("drm.self_s", "s", "lower"),
    ("tensor.unfold_s", "s", "lower"),
    ("tensor.unfold_peak_MB", "MB", "lower"),
    ("tensor.self_s", "s", "lower"),
    ("sketch.init_s", "s", "lower"),
    ("sketch.update_dense_s", "s", "lower"),
    ("sketch.update_dense_peak_MB", "MB", "lower"),
    ("sketch.update_slab_s", "s", "lower"),
    ("sketch.update_slab_peak_MB", "MB", "lower"),
    ("sketch.updates", "count", "higher"),
    ("sketch.fold_MBps", "MB/s", "higher"),
    ("sketch.merge_s", "s", "lower"),
    ("sketch.storage_scalars", "count", "lower"),
    ("sketch.peak_aux_scalars", "count", "lower"),
    ("sketch.update_peak_scalars", "count", "lower"),
    ("sketch.update_dense_1thread_s", "s", "lower"),
    ("sketch.self_s", "s", "lower"),
    ("recovery.qr_s", "s", "lower"),
    ("recovery.one_pass_s", "s", "lower"),
    ("recovery.core_solve_self_s", "s", "lower"),
    ("recovery.truncate_s", "s", "lower"),
    ("recovery.hooi_sweeps", "count", "lower"),
    ("recovery.two_pass_s", "s", "lower"),
    ("recovery.two_pass_peak_MB", "MB", "lower"),
    ("recovery.self_s", "s", "lower"),
    ("harness.gen_synthetic_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Spans whose time has its own metric: span name -> metric name.
_TIMED = {
    name: f"{name}_s"
    for name in (
        "io.read_tensor", "io.stream_next", "io.write_sketch", "io.read_sketch",
        "io.write_tucker", "drm.realize_omega", "drm.realize_phi", "drm.apply_omega",
        "drm.apply_phi", "tensor.unfold", "sketch.init", "sketch.update_dense",
        "sketch.update_slab", "sketch.merge", "recovery.qr", "recovery.one_pass",
        "recovery.truncate", "recovery.two_pass",
    )
}
_PEAKS = {
    "io.read_tensor": "io.read_tensor_peak_MB",
    "io.stream_next": "io.stream_peak_MB",
    "tensor.unfold": "tensor.unfold_peak_MB",
    "sketch.update_dense": "sketch.update_dense_peak_MB",
    "sketch.update_slab": "sketch.update_slab_peak_MB",
    "recovery.two_pass": "recovery.two_pass_peak_MB",
}
_LAYERS = ("cli", "io", "drm", "tensor", "sketch", "recovery")
_UPDATES = ("sketch.update_dense", "sketch.update_slab")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values for the spans of one traced chain."""
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def has_ancestor(s, names) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] in names:
                return True
            p = by_id.get(p["parent"])
        return False

    def own_time(s) -> float:
        """Duration minus nested same-layer calls that have their own metric."""
        layer, cut, stack = _layer(s["name"]), 0.0, list(children.get(s["id"], ()))
        while stack:
            d = stack.pop()
            if d["name"] in _TIMED and d["name"] != s["name"] and _layer(d["name"]) == layer:
                cut += _dur(d)
            else:
                stack.extend(children.get(d["id"], ()))
        return _dur(s) - cut

    out = {m: 0.0 for m in _TIMED.values()}
    out.update({m: 0.0 for m in _PEAKS.values()})
    out.update({f"{layer}.self_s": 0.0 for layer in _LAYERS})
    core_solve = 0.0
    updates = folded = update_time = update_peak = peak_aux = 0
    for s in spans:
        name = s["name"]
        layer = _layer(name)
        if layer in _LAYERS:
            out[f"{layer}.self_s"] += _dur(s) - sum(_dur(c) for c in children.get(s["id"], ()))
        if name in _PEAKS:
            out[_PEAKS[name]] = max(out[_PEAKS[name]], s["peak_bytes"] / 1e6)
        if name in _TIMED and not has_ancestor(s, {name}):
            out[_TIMED[name]] += own_time(s)
        if name == "recovery.one_pass" and not has_ancestor(s, {name}):
            nested_maps = sum(_dur(c) for c in children.get(s["id"], ())
                              if c["name"] == "drm.realize_phi")
            core_solve += own_time(s) - nested_maps
        if name in _UPDATES and not has_ancestor(s, set(_UPDATES)):
            updates += 1
            folded += s.get("bytes", 0)
            update_time += _dur(s)
            update_peak = max(update_peak, s["peak_bytes"])
        if name == "sketch.snapshot":
            peak_aux = max(peak_aux, s.get("peak_aux_scalars", 0))
    out["recovery.core_solve_self_s"] = core_solve
    out["sketch.updates"] = updates
    out["sketch.fold_MBps"] = folded / 1e6 / update_time if update_time else 0.0
    out["sketch.update_peak_scalars"] = update_peak // 8
    out["sketch.peak_aux_scalars"] = peak_aux
    return out
