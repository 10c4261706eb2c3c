"""Smoke test of the benchmark itself: tiny runs print every metric named in
BENCHMARK.json, the same seed gives the same inputs, and a directory
without the package makes the runner fail without printing a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace, section",
    [("sweep_n2", "0", "end_to_end"), ("resources", "1", "per_layer")],
)
def test_tiny_run_prints_every_metric(workload, trace, section):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_inputs(tmp_path):
    sweep = workloads.WORKLOADS["sweep_n2"]
    assert sweep(5).spec(7) == sweep(5).spec(7)
    assert sweep(5).spec(7) != sweep(6).spec(7)

    written = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        workloads.Resources(seed).setup(str(workdir))
        written[label] = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert len(written["a"]) == 3 * workloads.Resources.HS_SETS + 6
    assert written["a"] == written["b"]
    assert written["a"]["hs4-0.json"] != written["c"]["hs4-0.json"]
    assert written["a"]["hs4-0.json"] != written["a"]["hs4-1.json"]
    assert written["a"]["werner4.json"] == written["c"]["werner4.json"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "sweep_n2", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
