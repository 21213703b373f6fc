"""One benchmark child: set up a workload, run its timed chain, check outputs.

Run by ``run.py`` in a fresh process per pipeline run, so interpreter start
and imports are part of set-up.  Prints one JSON object on standard output.
The output digests are taken by the parent, after the child has ended.

    python3 benchmark/child.py --workload dense_ucp --seed 1 --scale 1 \
        --trace 0 --out .bench_work/run --t0 <time.monotonic() at spawn>
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import urbanmorph
from urbanmorph import aggregate_all, pair_grids, rasterize, read_lod1, read_raster, rmse

import tracing
import workloads

# Criterion-5 caps of the acceptance suite (tests/test_acceptance.py):
# mean-height RMSE <= 2 x the coarse noise sigma, lambda_p RMSE <= 0.02.
# Its tighter gates (3.0 m, 0.005) were frozen from seed 42 on the 2 km
# scene; over 1,000 seeds of this workload 3 % exceed 3.0 m (max 3.60 m).
CITY_LAMBDA_P_RMSE_MAX = 0.02


def ucp_rmse(cfg, resolution: float) -> tuple[float, float]:
    """Mean-height and lambda_p RMSE, predicted vs reference, recomputed from
    the LoD-1 outputs through the public API as the acceptance suite does."""
    pred = read_raster(cfg.path("predicted_heights.glbr"))
    template = pred.with_values(np.zeros((pred.height, pred.width), np.float32))
    grids = []
    for kind in ("pred", "ref"):
        buildings = read_lod1(cfg.path(f"lod1_{kind}.geojson"))
        mask = rasterize([b.footprint for b in buildings], template)
        grids.append(aggregate_all(buildings, mask, resolution=resolution))
    return (
        rmse(pair_grids(*grids, "mean")),
        rmse(pair_grids(*grids, "lambda_p")),
    )


def check(workload: workloads.Workload, cfg) -> tuple[list[str], float]:
    """Output errors of one run (empty when correct) and its mean-height RMSE."""
    errors = []
    for res in cfg.resolution_list():
        for name in (f"ucp_pred_{res:g}m", f"ucp_ref_{res:g}m", f"validation_{res:g}m"):
            if not os.path.isdir(cfg.path(name)):
                errors.append(f"missing output {name}")
    if errors:
        return errors, math.nan
    mean_rmse, lp_rmse = ucp_rmse(cfg, cfg.resolution_list()[0])
    if not math.isfinite(mean_rmse):
        errors.append(f"mean-height RMSE is {mean_rmse}")
    if workload.name == "city2k_run":
        cap = 2.0 * workload.params["noise_sigma"]
        if not mean_rmse <= cap:
            errors.append(f"mean-height RMSE {mean_rmse:.4f} m > {cap} m")
        if not lp_rmse <= CITY_LAMBDA_P_RMSE_MAX:
            errors.append(f"lambda_p RMSE {lp_rmse:.6f} > {CITY_LAMBDA_P_RMSE_MAX}")
    pred = read_raster(cfg.path("predicted_heights.glbr")).values
    if not (np.isfinite(pred).all() and (pred >= 0).all()):
        errors.append("predicted heights not finite and non-negative")
    return errors, mean_rmse


def environment() -> dict:
    """Versions and the BLAS build and thread count this process runs with."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "urbanmorph": urbanmorph.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded; None
    when it is not a scipy-openblas build."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if not os.path.isdir(libs):
        return None
    for name in sorted(os.listdir(libs)):
        if "openblas" in name:
            fn = getattr(ctypes.CDLL(os.path.join(libs, name)),
                         "scipy_openblas_get_num_threads64_", None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def calibrate(slices: int = 4) -> list[float]:
    """Seconds of each of ``slices`` runs of a fixed mix of interpreter and
    BLAS work that does not touch urbanmorph.  Taken around the chain, they
    give the speed the shared host lent this child."""
    a = np.random.default_rng(0).random((96, 96))
    out = []
    for _ in range(slices):
        t = time.perf_counter()
        s = 0
        for k in range(400_000):
            s += k * k
        b = a
        for _ in range(120):
            b = b @ a
            b /= b.max()
        out.append(time.perf_counter() - t)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    cfg = workloads.setup(workload, args.out)

    # Untraced runs wrap only the stages (a clock read at each of about ten
    # calls) to give the stage times; traced runs wrap every layer.
    tracer = tracing.Tracer(layers=bool(args.trace))
    setup_s = time.monotonic() - args.t0
    cal = calibrate()
    tracer.install()
    start = time.monotonic()
    try:
        workloads.run_chain(workload, cfg)
    finally:
        wall_s = time.monotonic() - start
        tracer.uninstall()
    cal += calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, mean_rmse = check(workload, cfg)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_per_cal": wall_s / statistics.median(cal),
        "cal_s": cal,
        "peak_rss_mb": peak_rss_mb,
        "stage_s": tracer.stage_seconds(),
        "mean_height_rmse_m": mean_rmse,
        "errors": errors,
        "params": workload.params,
        "package": os.path.dirname(urbanmorph.__file__),
        "env": environment(),
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        result["layer_units"] = tracing.LAYER_METRICS
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
