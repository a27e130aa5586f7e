"""Smoke test of the end-to-end benchmark itself, at tiny geometry.

Runs every workload at d=256 for a few ops, untraced and traced, and
checks that each metric ``BENCHMARK.json`` names is printed with its
unit and a sample count, that the lanes which bypass the wire report no
wire, transport or worker work, and that a deliberately wrong expected
aggregate is reported as a failed op — so the correctness gate cannot
pass vacuously.  Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BYPASSES_WIRE = ("sync-inline", "buffered-submit")
REPORT_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+(\S+)\s+n=(\d+)$")


def run_bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"),
         "--tiny", "--max-ops", "12", "--seconds", "1", "--seed", "3",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def report(*args):
    out = run_bench(*args)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines[:-1]:
        match = REPORT_LINE.match(line)
        if match:
            printed[match.group(1)] = (
                float(match.group(2)), match.group(3), int(match.group(4))
            )
    return result, printed, out.stdout


def assert_metrics(result, printed, specs):
    for spec in specs:
        name = spec["name"]
        value, unit, samples = printed[name]
        assert unit == spec["unit"], name
        assert samples >= 1, name
        assert result["metrics"][name]["unit"] == spec["unit"]
        assert result["metrics"][name]["value"] == pytest.approx(
            value, abs=1e-3
        )
    assert set(result["metrics"]) == {s["name"] for s in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, printed, _ = report("--workload", workload, "--trace", "0")
    assert result["correct"], printed
    assert result["failed"] == 0 and result["attempted"] >= 12
    assert_metrics(result, printed, SPEC["end_to_end"])
    assert printed["failed_op_fraction"][0] == 0.0
    assert printed["setup_s"][2] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, printed, stdout = report("--workload", workload, "--trace", "1")
    assert result["correct"], stdout
    assert_metrics(result, printed, SPEC["per_layer"])
    assert "self ms/op" in stdout
    assert '"layer_spans": "on"' in stdout
    if workload in BYPASSES_WIRE:
        for name, entry in result["metrics"].items():
            if name.startswith(("wire.", "transport.", "worker.")):
                assert entry["value"] == 0, name
    else:
        assert result["metrics"]["wire.encode_ms"]["value"] > 0
        assert result["metrics"]["transport.bytes_sent_per_op"]["value"] > 0
        assert result["metrics"]["worker.shard_compute_ms"]["value"] > 0


@pytest.mark.parametrize("workload", ["sync-inline", "buffered-submit"])
def test_wrong_expected_aggregate_fails_the_run(workload):
    result, printed, _ = report("--workload", workload, "--trace", "0",
                                "--corrupt-expected")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert printed["failed_op_fraction"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", WORKLOADS[0], "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
