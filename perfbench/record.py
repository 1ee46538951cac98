"""Record reference output digests for seeds of one workload.

    python3 perfbench/record.py --workload latent-1n --size full --seeds 0 1 2

For each seed it runs every distinct operation of the workload once, untimed,
and merges the digests into ``perfbench/reference/<workload>.json``. Record
from the commit whose outputs are the reference: the benchmark counts an
operation as failed when its digest differs from the recorded one.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, record_outputs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    path = HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    for seed in args.seeds:
        work = Path(tempfile.mkdtemp(prefix="record-", dir=HERE / "out"))
        try:
            digests = record_outputs(args.workload, args.size, seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        table = refs.setdefault(args.size, {})
        table[str(seed)] = digests
        refs[args.size] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
        print(f"{args.workload} {args.size} seed {seed}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
