"""Tests of the benchmark itself, at smoke size (about a minute in all).

    python3 -m pytest perfbench/selftest.py
    PERFBENCH_SLOW=1 python3 -m pytest perfbench/selftest.py   # adds the 200-finger CLI tie

The file name keeps these tests out of the repository's own test run.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["latent-1n", "dense-1n", "enroll"])
def test_smoke_prints_every_metric_with_no_failures(workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    result = _result(_bench(args + ["--size", "smoke"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] / result["attempted"] == 0


def test_clock_scales_work_by_the_kernel_times_around_it(monkeypatch):
    import speed

    kernels = iter([0.004, 0.002, 0.001])  # at start, after the first block, after the second
    monkeypatch.setattr(speed, "kernel_s", lambda: next(kernels))
    clock = speed.Clock()
    laps = []
    for _ in range(2):
        with clock.timed() as lap:
            sum(range(10_000))
        laps.append(lap)
    assert laps[0].s == pytest.approx(laps[0].raw_s * speed.REFERENCE_S / 0.003)
    assert laps[1].s == pytest.approx(laps[1].raw_s * speed.REFERENCE_S / 0.0015)
    assert clock.s == pytest.approx(laps[0].s + laps[1].s)


def test_unrecorded_seed_is_checked_against_the_anchor():
    proc = _bench(["--workload", "latent-1n", "--seed", "987654", "--seconds", "1"] + ["--size", "smoke"])
    assert _result(proc)["correct"]
    assert '"reference": "none; smoke anchor checked"' in proc.stdout


def _copy_tree(dst: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_changed_output_is_counted_as_failed(tmp_path):
    _copy_tree(tmp_path, with_src=True)
    ref_path = tmp_path / "perfbench" / "reference" / "latent-1n.json"
    refs = json.loads(ref_path.read_text())
    refs["smoke"]["1"][0] = "0" * 20
    ref_path.write_text(json.dumps(refs))
    args = ["--workload", "latent-1n", "--seed", "1", "--seconds", "1", "--size", "smoke"]
    result = _result(_bench(args, cwd=tmp_path))
    assert not result["correct"] and result["failed"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    _copy_tree(tmp_path, with_src=False)
    proc = _bench(["--workload", "latent-1n", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _clitie(seed, n_fingers):
    return subprocess.run(
        [sys.executable, "perfbench/clitie.py", "--seed", str(seed), "--n-fingers", str(n_fingers)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )


def test_first_queries_match_the_cli_benchmark_bytes():
    proc = _clitie(3, 12)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(os.environ.get("PERFBENCH_SLOW") != "1", reason="about 4 minutes; set PERFBENCH_SLOW=1")
def test_seed_42_matches_the_frozen_baseline():
    proc = _clitie(42, 200)
    assert proc.returncode == 0, proc.stdout + proc.stderr
