"""Seeded benchmark of fpfusion: latent-1n, dense-1n and enroll.

Run from the repository root:

    python3 perfbench/run.py --workload latent-1n --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One workload runs in this process, closed loop with one client. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
each operation untraced and traced in turn and reports the per-layer
metrics of the traced half. Every time is corrected for the machine's
momentary speed by a reference kernel timed around it (``speed.py``); the
``details:`` line also gives the raw median. ``--workload all`` runs every
workload in its own process and prints one table. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy loads: OpenBLAS spreads the many tiny GEMMs over all
# cores, which costs more CPU and widens the spread between runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # set-ups per untraced run; setup_s is their median

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from speed import REFERENCE_S, Clock, NullClock
    from tracer import SETUP, NullTracer, Tracer, layer_metrics
    from workloads import WORKLOADS, record_outputs
except ImportError as exc:
    print(f"error: cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)


def reference(name: str, size: str, seed: int):
    """Recorded output digests for (workload, size, seed), or None."""
    path = HERE / "reference" / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(size, {}).get(str(seed))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = "unknown"  # the benchmark may run in a checkout that is not a git repository
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: ") and (git / head[5:]).is_file():
            head = (git / head[5:]).read_text().strip()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_head": head,
    }


def _timed_op(wl, st, k, tr, clock):
    """Run one operation; returns (error or None, result, lap)."""
    error, result = None, None
    with clock.timed() as lap:
        try:
            if isinstance(tr, Tracer):
                with tr.traced(k):
                    result = wl.op(st, k, tr)
            else:
                result = wl.op(st, k, tr)
        except Exception as exc:
            error = exc
    if error is not None:
        traceback.print_exception(error)
    return error, result, lap


def run(name: str, seed: int, seconds: float, trace: bool, size: str, work: Path) -> dict:
    wl = WORKLOADS[name]
    null = NullTracer()
    tracer = Tracer() if trace else None

    # The traced set-up feeds only per-layer metrics, so it runs no kernels.
    setup_s, setup_raw_s = [], []
    st = None
    for _ in range(1 if trace else SETUPS):
        st = None
        gc.collect()
        clock = NullClock() if trace else Clock()
        if trace:
            with tracer.traced(SETUP):
                st = wl.setup(seed, size, work, tracer, clock)
        else:
            st = wl.setup(seed, size, work, null, clock)
            setup_s.append(clock.s)
            setup_raw_s.append(clock.raw_s)

    # Untraced runs time every operation. Traced runs pair each operation with
    # an untraced copy, alternating which goes first, on twin states.
    # The run ends after `seconds` of raw operation time; the kernels, output
    # digests and gallery copies between operations are not counted.
    states = [(st, null)] if not trace else [(st, null), (wl.twin(st), tracer)]
    clock = Clock()
    walls, corrected = [0.0] * len(states), [0.0] * len(states)
    n_keys = wl.covering_ops(st)
    timings, raw, outputs, errors, k = [], [], [[] for _ in states], 0, 0
    while sum(walls) < seconds:
        order = range(len(states)) if k % 2 == 0 else reversed(range(len(states)))
        for s in order:
            state, tr = states[s]
            wl.before(state, k)
            error, result, lap = _timed_op(wl, state, k, tr, clock)
            walls[s] += lap.raw_s
            corrected[s] += lap.s
            if s == 0:
                timings.append(lap.s)
                raw.append(lap.raw_s)
            if error is None:
                outputs[s].extend(wl.after(state, k, result).items())
            else:
                errors += 1
        k += 1
    for s, (state, _) in enumerate(states):
        outputs[s].extend(wl.finish(state, k).items())

    ref = reference(name, size, seed)
    mismatched = 0
    if ref is not None:
        mismatched = sum(1 for out in outputs for key, d in out if key < len(ref) and ref[key] != d)
    if trace:
        untraced = dict(outputs[0])
        mismatched += sum(1 for key, d in outputs[1] if untraced.get(key) != d)
    # Without a recorded reference for this seed, the run still checks the
    # program against the recorded smoke-size outputs of seed 0.
    anchor_ok = ref is not None or record_outputs(name, "smoke", 0, work) == reference(
        name, "smoke", 0
    )
    attempted = k * len(states)
    failed = min(attempted, errors + mismatched)

    # Latency statistics use whole passes over the distinct operations, so
    # each one weighs the same however many passes a run holds.
    whole = (k // n_keys) * n_keys or k
    lat = np.array(timings[:whole]) * 1000.0
    if trace:
        overhead = (corrected[1] - corrected[0]) / corrected[0]
        metrics = layer_metrics(tracer, k, overhead)
        tracer.write(OUT / f"spans-{name}-{size}-s{seed}.csv")
    else:
        metrics = {
            "op_ms_p50": {"value": float(np.percentile(lat, 50)), "unit": "ms"},
            "op_ms_p90": {"value": float(np.percentile(lat, 90)), "unit": "ms"},
            "ops_per_s": {"value": 1000.0 * len(lat) / lat.sum(), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    checked = sum(1 for key, _ in outputs[0] if ref is not None and key < len(ref))
    details = {
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "operations": k,
        "latency_samples": len(lat),
        "raw_op_ms_p50": float(np.percentile(np.array(raw[:whole]) * 1000.0, 50)),
        "kernel_ms_median": statistics.median(clock.kernels_s) * 1000.0,
        "reference_kernel_ms": REFERENCE_S * 1000.0,
        "setup_runs_s": setup_s,
        "setup_runs_raw_s": setup_raw_s,
        "reference": "recorded" if ref is not None else "none; smoke anchor checked",
        "outputs_checked": checked,
        "outputs_total": len(outputs[0]),
        "environment": environment(),
    }
    print("details: " + json.dumps(details))
    result = {
        "correct": failed == 0 and anchor_ok and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{name}-{size}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps({"details": details, "result": result, "timings_s": timings, "raw_s": raw}) + "\n", encoding="utf-8"
    )
    return result


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        cmd += ["--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        res = results[name] = json.loads(lines[-1])
        rows = dict(res["metrics"])
        rows["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
        for metric, m in rows.items():
            print(f"{name:<10} {metric:<12} {m['value']:>12.4f} {m['unit']}")
        print(f"{name:<10} {'correct':<12} {res['correct']!s:>12} ({res['attempted']} ops)")
        if not res["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
