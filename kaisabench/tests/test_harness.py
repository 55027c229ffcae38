"""Tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest kaisabench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from kaisabench.harness import WORKLOADS, train_once  # noqa: E402
from kaisabench.probes import cadence_counts  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    command = [sys.executable, "kaisabench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = run_cli("--workload", "resnet_1rank", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    if trace == "1":  # one rank: nothing crosses a communicator
        assert result["metrics"]["comm.calls_per_step"]["value"] == 0
        assert result["metrics"]["comm.bytes_per_step"]["value"] == 0


@pytest.mark.parametrize("workload,steps", [("resnet_1rank", 20), ("resnet_commopt_2rank", 10)])
def test_layer_calls_follow_the_kfac_cadence(workload, steps):
    run = train_once(WORKLOADS[workload], seed=0, trace=True, steps=steps)
    assert run.failures() == []
    rank = run.ranks[0]
    assert cadence_counts(run.probes, range(1, steps + 1)) == {
        "eigen_refresh_steps": steps // rank.inv_update_freq,
        "factor_update_steps": steps // rank.factor_update_freq,
    }
    if len(run.ranks) == 1:
        assert (run.comm_calls, run.comm_bytes) == (0, 0)
    else:
        assert run.comm_calls > 0 and run.comm_bytes > 0


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "kaisabench", tmp_path / "kaisabench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli("--workload", "resnet_1rank", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
