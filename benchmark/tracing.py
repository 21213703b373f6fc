"""Spans and counts around the calls into each urbanmorph layer.

Wrappers are installed at the name the caller looks up (a module attribute
such as ``urbanmorph.pipeline.read_points_csv``, or an entry of
``pipeline.STAGES``) and removed again afterwards, so the package itself is
unchanged.  Spans are kept in memory; a layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import os
import re
import time
from collections import Counter, defaultdict

import numpy as np

from urbanmorph import lod1, network, pipeline, synth, tiler, ucp, validation

STAGE_NAMES = (
    "synth", "rasterize-points", "ndsm", "resample", "train",
    "predict", "lod1", "ucp", "validate", "report",
)
LABELS = ("ground", "building", "other")


def _size(path) -> int:
    if os.path.isdir(path):
        return sum(_size(os.path.join(path, n)) for n in os.listdir(path))
    return os.path.getsize(path)


def _count_points(counts, args, result):
    counts["pointcloud.points"] += len(result)
    for code, label in enumerate(LABELS):
        counts[f"pointcloud.points.{label}"] += int(np.count_nonzero(result.labels == code))


def _count_footprints(counts, args, result):
    # Every read parses the same input, so the size of one read is the work size.
    counts["footprints.n"] = len(result)
    counts["footprints.vertices"] = sum(len(f.exterior) for f in result)


def _count_step(counts, args, result):
    w, tile = args[0], args[1]
    counts["network.step_gflop"] = step_gflop(w.config, tile.shape[0], tile.shape[1])


# (module, attribute, span name, count hook).  A hook runs after the call and
# adds work counts derived from its arguments and result.
WRAPS = [
    (synth, "generate_city", "synth.generate_city", None),
    (synth, "write_scene", "synth.write_scene", None),
    (synth, "write_points_csv", "pointcloud.write_points_csv",
     lambda c, a, r: c.update({"pointcloud.csv_bytes": _size(a[1])})),
    (pipeline, "read_points_csv", "pointcloud.read_points_csv", _count_points),
    (pipeline, "grid_elevation", "pointcloud.grid_elevation", None),
    (pipeline, "fill_voids_nearest", "pointcloud.fill_voids_nearest",
     lambda c, a, r: c.update({"pointcloud.void_cells": int(np.count_nonzero(~a[0].valid_mask))})),
    (pipeline, "resample_cubic", "raster.resample_cubic", None),
    (pipeline, "read_raster", "raster.read_raster", None),
    *[
        (mod, "write_raster", "raster.write_raster",
         lambda c, a, r: c.update({"raster.bytes_written": _size(a[1])}))
        for mod in (pipeline, synth, ucp)
    ],
    (pipeline, "read_footprints", "footprints.read_footprints", _count_footprints),
    (pipeline, "rasterize", "footprints.rasterize", None),
    (synth, "rasterize", "footprints.rasterize", None),
    (lod1, "assign_heights", "lod1.assign_heights", None),
    (lod1, "read_lod1", "lod1.read_lod1", None),
    (lod1, "write_lod1", "lod1.write_lod1", None),
    (ucp, "aggregate_all", "ucp.aggregate_all", None),
    (ucp, "export_rasters", "ucp.export", None),
    (ucp, "export_csv", "ucp.export", None),
    (validation, "export_comparison", "validation.export_comparison", None),
    (tiler, "split", "tiler.split",
     lambda c, a, r: c.update({"tiler.tiles": len(r[1])})),
    (tiler, "stitch", "tiler.stitch", None),
    (network, "train", "network.train", None),
    (network, "loss_and_gradient", "network.loss_and_gradient", _count_step),
    (network, "predict_city", "network.predict_city", None),
    (network, "forward", "network.forward", None),
]

CALL_COUNTS = (
    "footprints.rasterize", "lod1.read_lod1", "ucp.aggregate_all",
    "network.loss_and_gradient", "network.forward",
)

# Every per-layer metric, with its unit, in the order it is reported.
LAYER_METRICS = {
    **{f"pipeline.stage.{s}.s": "s" for s in STAGE_NAMES},
    **{f"pipeline.stage.{s}.bytes_written": "bytes" for s in STAGE_NAMES},
    **{f"{name}.s": "s" for name in dict.fromkeys(w[2] for w in WRAPS)},
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    "pointcloud.read_points_csv.mpoints_per_s": "Mpoints/s",
    "pointcloud.points": "count",
    **{f"pointcloud.points.{label}": "count" for label in LABELS},
    "pointcloud.void_cells": "count",
    "pointcloud.csv_bytes": "bytes",
    "raster.bytes_written": "bytes",
    "footprints.n": "count",
    "footprints.vertices": "count",
    "tiler.tiles": "count",
    "network.step_gflop": "GFLOP",
    "network.loss_and_gradient.gflops": "GFLOP/s",
    "validation.mean_height_rmse_m": "m",
    "trace.overhead_s": "s",
}
_ADDED_BY_CALLER = ("validation.mean_height_rmse_m", "trace.overhead_s")


def step_gflop(cfg, height: int, width: int) -> float:
    """Convolution GFLOP of one training step on one tile, from ``layer_specs``.

    A conv at an h x w level costs 2*h*w*kh*kw*cin*cout in the forward pass
    and twice that backward (input and weight gradients).  Encoder level l,
    its up/dec convs run at 1/2^l of the tile; the bottleneck at 1/2^depth.
    """
    flop = 0.0
    for name, kh, kw, cin, cout in network.layer_specs(cfg):
        if name == "bottleneck":
            level = cfg.depth
        elif name == "head":
            level = 0
        else:
            level = int(re.fullmatch(r"(?:enc|up|dec)(\d+)", name).group(1))
        cells = (height >> level) * (width >> level)
        flop += 3 * 2.0 * cells * kh * kw * cin * cout
    return flop / 1e9


class Tracer:
    """Records a span per wrapped call: name, start, end and parent span."""

    def __init__(self, layers: bool = True):
        self.layers = layers
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self.counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every stage, and with ``layers`` every call in ``WRAPS``."""
        for stage, fn in list(pipeline.STAGES.items()):
            hook = None
            if self.layers:
                key = f"pipeline.stage.{stage}.bytes_written"
                hook = lambda c, a, r, key=key: c.update(
                    {key: sum(_size(p) for p in r.values())}
                )
            self._installed.append((pipeline.STAGES, stage, fn))
            pipeline.STAGES[stage] = self._wrap(fn, f"pipeline.stage.{stage}", hook)
        if not self.layers:
            return
        for module, attr, name, hook in WRAPS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # the program no longer calls this layer here: it reports 0
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._installed):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._installed.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, summed over calls, minus direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def stage_seconds(self) -> dict[str, float]:
        """Wall seconds per stage, children included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            if name.startswith("pipeline.stage."):
                out[name[len("pipeline.stage."):]] += end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans and counts give; 0 for a layer
        the workload did not call."""
        times = self.self_times()
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".s"):
                out[metric] = times.get(metric[:-2], 0.0)
            elif metric in self.counts:
                out[metric] = self.counts[metric]
        read_s = times.get("pointcloud.read_points_csv", 0.0)
        if read_s > 0:
            out["pointcloud.read_points_csv.mpoints_per_s"] = (
                self.counts["pointcloud.points"] / read_s / 1e6
            )
        step_s = times.get("network.loss_and_gradient", 0.0)
        if step_s > 0:
            out["network.loss_and_gradient.gflops"] = (
                self.counts["network.loss_and_gradient.calls"]
                * self.counts["network.step_gflop"] / step_s
            )
        return {m: out.get(m, 0) for m in LAYER_METRICS if m not in _ADDED_BY_CALLER}
