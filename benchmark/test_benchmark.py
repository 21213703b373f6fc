"""Tests of the benchmark itself, on scenes a quarter of the measured extent.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0", "--scale", "0.25"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def printed_names(lines):
    return {line.split()[0] for line in lines if not line.startswith(("#", "{"))}


# The layer each workload is there to load, seen through one of its counts.
DOMINANT = {
    "city2k_run": "pointcloud.points",
    "dense_ucp": "ucp.aggregate_all.calls",
    "net_train_predict": "network.loss_and_gradient.calls",
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_metric(workload, tmp_path):
    proc, lines = bench("--workload", workload, "--trace", "1", *TINY,
                        "--work", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert result["metrics"][DOMINANT[workload]]["value"] > 0

    expected = {*run.END_TO_END, *run.PRINTED, *per_layer}
    if workload != "net_train_predict":
        expected.remove("train_s")
    assert printed_names(lines) == expected


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    proc, lines = bench("--workload", "dense_ucp", "--trace", "0", *TINY,
                        "--work", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    with open(tmp_path / "results" / "dense_ucp-seed3-trace0.json") as f:
        saved = json.load(f)
    assert {"nproc", "cpu_model", "numpy", "scipy", "blas", "blas_threads",
            "source_digest"} <= set(saved["env"])
    assert all(s["digests"] == saved["samples"][0]["digests"] for s in saved["samples"])


def test_corrupted_output_counts_as_failed_run(tmp_path, monkeypatch, capsys):
    real = run.run_child
    calls = []

    def corrupt_second(workload, seed, scale, traced, out):
        result = real(workload, seed, scale, traced, out)
        calls.append(workload)
        if len(calls) == 2:
            with open(os.path.join(out, "lod1_pred.geojson"), "ab") as f:
                f.write(b" ")
        return result

    monkeypatch.setattr(run, "run_child", corrupt_second)
    code = run.main(["--workload", "dense_ucp", "--trace", "0", *TINY,
                     "--work", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == len(calls) == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "city2k_run", *TINY, cwd=tmp_path,
                        script=str(tmp_path / "benchmark" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
