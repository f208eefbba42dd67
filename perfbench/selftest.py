"""Self-test of the benchmark: every workload once, at a tiny size.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py     # the same checks

Checks that every metric prints by name with its unit, that the digest
checks pass traced and untraced (so the two agree, and the process
backend reproduces the serial run), and that a wrong reference digest
fails the run. The file is not named ``test_*.py`` on purpose: the
repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_workload(name: str) -> None:
    spec = _benchmark_json()
    untraced = run.bench(name, workloads.DEFAULT_SEED, 0, False, tiny=True)
    traced = run.bench(name, workloads.DEFAULT_SEED, 0, True, tiny=True)
    for doc, listed in ((untraced, spec["end_to_end"]),
                        (traced, spec["per_layer"])):
        result = doc["result"]
        assert result["correct"], doc["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        metrics = result["metrics"]
        assert {m["name"]: m["unit"] for m in listed} == \
            {name: entry["unit"] for name, entry in metrics.items()}
        for entry in metrics.values():
            assert isinstance(entry["value"], (int, float))
    for metric in ("pps", "setup_s", "peak_rss_mb", "drop_share"):
        assert untraced["result"]["metrics"][metric]["value"] > 0, metric
    assert traced["result"]["metrics"]["trace.overhead"]["value"] > 0
    # One digest for every repetition, traced or not.
    digests = {rep["digest"] for rep in untraced["reps"] + traced["reps"]}
    assert len(digests) == 1, digests


def check_mismatch_fails() -> None:
    doc = run.bench("fabric-steady", workloads.DEFAULT_SEED, 0, False,
                    tiny=True, expected="0" * 64)
    result = doc["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert doc["problems"]


def check_command_line() -> None:
    """The command prints a result line only where the program is."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "no-such-workload", "--seed", "1", "--seconds", "1", "--trace",
         "0"], capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and not out.stdout.strip()


def test_fabric_steady():
    check_workload("fabric-steady")


def test_fabric_process():
    check_workload("fabric-process")


def test_fabric_stateful_churn():
    check_workload("fabric-stateful-churn")


def test_engine_mixed():
    check_workload("engine-mixed")


def test_mismatch_fails():
    check_mismatch_fails()


def test_command_line():
    check_command_line()


if __name__ == "__main__":
    for name in workloads.WORKLOADS:
        check_workload(name)
        print(f"ok {name}")
    check_mismatch_fails()
    print("ok digest mismatch fails the run")
    check_command_line()
    print("ok command line")
