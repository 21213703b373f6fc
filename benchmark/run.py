"""Benchmark of the urbanmorph pipeline: run a workload, print its metrics.

    python3 benchmark/run.py --workload dense_ucp --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --trace 1

Each pipeline run is a child process (``child.py``) started from this
checkout's ``src``, one at a time.  A run of the benchmark starts children
until ``--seconds`` have passed (and at least a few ran) and reports the
median over them.  With ``--trace 1`` every other child is traced; those give
the per-layer metrics and the traced-minus-untraced wall time.

Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every child ran and passed its output check, 1 when one did
not, 2 when the program cannot be found.  Results, with every sample, the
output digests and the environment, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PACKAGE = os.path.join(ROOT, "src", "urbanmorph")
CHILD = os.path.join(BENCH, "child.py")
WORKLOADS = ("city2k_run", "dense_ucp", "net_train_predict")

# The end-to-end metrics in BENCHMARK.json, then the ones only printed,
# which cannot carry a relative bound.  The shared host's speed swings by up
# to 2x within minutes, so wall_s is gated through wall_per_cal, the same
# time over a calibration slice taken in the same child.  train_s exists on
# one workload, predict_s is tens of milliseconds on city2k_run, the RMSE
# varies with the seed and error_rate is 0 when all is well.
END_TO_END = {"wall_per_cal": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PRINTED = {"wall_s": "s", "predict_s": "s", "train_s": "s",
           "mean_height_rmse_m": "m", "error_rate": "ratio"}

MIN_CHILDREN = {0: 3, 1: 4}
CHILD_TIMEOUT_S = 150
# No child is started after this much of a workload's run, so one
# workload's run ends well within three minutes.
SPAWN_LIMIT_S = 100


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    k = n - 10
    if k < 1:
        return None
    return {"p": 100.0 * k / n, "value": sorted(values)[k - 1]}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values),
            "tail": tail_percentile(values)}


def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    out = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(path, out_dir)] = h.hexdigest()
    return dict(sorted(out.items()))


def source_digest() -> str:
    """sha256 over the package's and the benchmark's Python sources: the
    outputs of a seed are fixed while this is."""
    h = hashlib.sha256()
    for top in (PACKAGE, BENCH):
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(n for n in names if n.endswith(".py")):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of this checkout, read from ``.git`` without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    # One BLAS thread (at most nproc, as asked): on a shared 2-vCPU host a
    # second thread made net_train_predict faster when the host was quiet
    # but about twice as slow when it lent less CPU, so runs swung more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, scale: float, traced: bool, out: str) -> dict:
    """One pipeline run in a fresh process.  Returns its result, or a dict
    with ``crash`` when it did not end with a result."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--trace", str(int(traced)), "--out", out,
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"crash": f"child printed no result: {proc.stdout[-500:]!r}"}
    if os.path.realpath(result["package"]) != os.path.realpath(PACKAGE):
        return {"crash": f"child imported urbanmorph from {result['package']}"}
    return result


class DigestRecord:
    """Output digests of the first run of each program (package sources),
    workload and scene parameters, kept in the work directory so later runs
    are held to them."""

    def __init__(self, path: str):
        self.path = path
        self.entries = {}
        if os.path.isfile(path):
            with open(path) as f:
                self.entries = json.load(f)

    def reference(self, key: str, digests: dict) -> dict:
        if key not in self.entries:
            self.entries[key] = digests
            tmp = self.path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(self.entries, f, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        return self.entries[key]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: float, work: str, source: str) -> dict:
    record = DigestRecord(os.path.join(work, "digests.json"))
    out = os.path.join(work, "run")
    samples, failures = [], []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        result = run_child(workload, seed, scale, traced, out)
        result["traced"] = traced
        samples.append(result)
        if "crash" in result:
            failures.append(result["crash"])
            break  # a program that fails once fails again: stop early
        result["digests"] = output_digests(out)
        key = f"{source}/{workload}/{json.dumps(result['params'], sort_keys=True)}"
        if not result["errors"]:
            reference = record.reference(key, result["digests"])
            differ = sorted(k for k in {*reference, *result["digests"]}
                            if reference.get(k) != result["digests"].get(k))
            if differ:
                result["errors"] = [f"outputs differ from the first run: {differ[:5]}"]
        if result["errors"]:
            failures.append("; ".join(result["errors"]))
        elapsed = time.monotonic() - start
        if elapsed > SPAWN_LIMIT_S or (
            elapsed >= seconds and len(samples) >= MIN_CHILDREN[trace]
        ):
            break
    shutil.rmtree(out, ignore_errors=True)
    return {"workload": workload, "seed": seed, "scale": scale, "trace": trace,
            "samples": samples, "failures": failures, "source_digest": source}


def metrics_of(run: dict) -> tuple[dict, dict]:
    """(end-to-end, per-layer) summaries over the run's passing children."""
    ok = [s for s in run["samples"] if "crash" not in s and not s["errors"]]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    e2e = {}
    for name in ("wall_per_cal", "wall_s", "setup_s", "peak_rss_mb", "mean_height_rmse_m"):
        e2e[name] = summary([s[name] for s in plain])
    for name, stage in (("predict_s", "predict"), ("train_s", "train")):
        if stage in plain[0]["stage_s"]:
            e2e[name] = summary([s["stage_s"][stage] for s in plain])
    e2e["error_rate"] = {"median": len(run["failures"]) / len(run["samples"]),
                         "n": len(run["samples"]), "tail": None}
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = summary([s["layers"][name] for s in traced])
        layers["validation.mean_height_rmse_m"] = summary(
            [s["mean_height_rmse_m"] for s in traced])
        layers["trace.overhead_s"] = {
            "median": statistics.median(s["wall_s"] for s in traced)
            - e2e["wall_s"]["median"],
            "n": len(traced), "tail": None}
    return e2e, layers


def print_metrics(prefix: str, values: dict, units: dict) -> None:
    for name, unit in units.items():
        if name in values:
            v = values[name]
            tail = f", p{v['tail']['p']:g}={v['tail']['value']!r}" if v["tail"] else ""
            print(f"{prefix}{name} {v['median']!r} {unit} (median of n={v['n']}{tail})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long one workload's run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies every scene's extent (tests use a small one)")
    p.add_argument("--work", default=os.path.join(ROOT, ".bench_work"),
                   help="directory for outputs, digests and results")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no urbanmorph package at {PACKAGE}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(args.work, "results"), exist_ok=True)
    source = source_digest()
    env = {"nproc": nproc(), "cpu_model": cpu_model(), "git_commit": git_commit(),
           "source_digest": source}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out_metrics = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace, args.scale,
                           args.work, source)
        attempted += len(run["samples"])
        failed += len(run["failures"])
        for msg in run["failures"]:
            print(f"{name}: FAILED: {msg}", file=sys.stderr)
        ok = [s for s in run["samples"] if "crash" not in s and not s["errors"]]
        if not any(not s["traced"] for s in ok) or (
            args.trace and not any(s["traced"] for s in ok)
        ):
            print(f"error: {name}: no passing run to report metrics from", file=sys.stderr)
            return 1
        env.update(ok[0]["env"])
        e2e, layers = metrics_of(run)
        run.update(env=env, params=ok[0]["params"], end_to_end=e2e, per_layer=layers)
        path = os.path.join(args.work, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(run, f, indent=1)

        prefix = f"{name}." if len(names) > 1 else ""
        print(f"# {name} seed={args.seed} params={json.dumps(ok[0]['params'])}")
        print(f"# env {json.dumps(env)}")
        print_metrics(prefix, e2e, {**END_TO_END, **PRINTED})
        if args.trace:
            units = next(s for s in ok if s["traced"])["layer_units"]
            print_metrics(prefix, layers, units)
            chosen, values = units, layers
        else:
            chosen, values = END_TO_END, e2e
        for metric, unit in chosen.items():
            out_metrics[prefix + metric] = {"value": values[metric]["median"], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
