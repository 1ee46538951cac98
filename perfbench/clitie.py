"""Check that latent-1n runs the same queries as ``fpfusion benchmark``.

    python3 perfbench/clitie.py --seed 42 --n-fingers 200

Runs the CLI's benchmark command, then the first G operations of latent-1n
with a G-finger gallery, writes their results with ``write_results`` and
compares each ``results_<channel>.csv`` byte for byte. At seed 42 with 200
fingers it also compares the rank-1/5/10 summary with the frozen
``tests/data/benchmark_baseline.json``. Exits 0 when everything matches.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from fpfusion import cli  # noqa: E402
from fpfusion.evaluation import IdentificationResult, cmc, write_results  # noqa: E402
from speed import NullClock  # noqa: E402
from workloads import CHANNELS, NULL, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-fingers", type=int, required=True)
    args = parser.parse_args()
    seed, g = args.seed, args.n_fingers
    wl = replace(WORKLOADS["latent-1n"], sizes={"tie": (g, g)})
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="clitie-", dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        argv = ["benchmark", "--out", str(tmp / "cli"), "--seed", str(seed), "--n-fingers", str(g)]
        if cli.main(argv) != 0:
            print("fpfusion benchmark failed")
            return 1
        st = wl.setup(seed, "tie", tmp, NULL, NullClock())
        per_channel = {ch: [] for ch in CHANNELS}
        for k in range(g):
            results = wl.op(st, k, NULL)
            for ch in CHANNELS:
                per_channel[ch].append(results[ch])
        ok = True
        for ch in CHANNELS:
            write_results(per_channel[ch], tmp / f"results_{ch}.csv")
            same = (tmp / f"results_{ch}.csv").read_bytes() == (
                tmp / "cli" / f"results_{ch}.csv"
            ).read_bytes()
            print(f"results_{ch}.csv byte-identical: {same}")
            ok &= same

    if (seed, g) == (42, 200):
        baseline = json.loads((ROOT / "tests" / "data" / "benchmark_baseline.json").read_text())
        curves = {ch: cmc(per_channel[ch], 10) for ch in CHANNELS}
        fused = []
        for r_mcc, r_emb in zip(per_channel["mcc"], per_channel["emb"]):
            ranks = [r for r in (r_mcc.rank_of_mate, r_emb.rank_of_mate) if r is not None]
            fused.append(IdentificationResult(r_mcc.query_id, (), min(ranks, default=None)))
        curves["rank"] = cmc(fused, 10)
        for name, want in baseline["summary"].items():
            got = {f"rank{k}": curves[name][k] for k in (1, 5, 10)}
            same = all(f"{got[key]:.6f}" == f"{want[key]:.6f}" for key in want)
            print(f"summary {name} matches baseline: {same}")
            ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
