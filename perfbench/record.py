"""Record the output digests the benchmark checks every repetition against.

    python3 perfbench/record.py --seeds 0-31

Runs each workload once per seed, at the benchmark's fixed scales, and
writes ``perfbench/digests.json``. ``figure5-sweep`` is recorded only if
its output equals the serial ``run_figure5`` at the same scale and seed.
Re-record only when a change is meant to alter simulated results, and say
why in the change's description.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS, run_rep

from rep import SCALES


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)

    path = HERE / "digests.json"
    recorded = (
        json.loads(path.read_text()) if path.exists()
        else {"scales": SCALES, "workloads": {w: {} for w in WORKLOADS}}
    )
    if recorded["scales"] != SCALES:
        print("error: digests.json was recorded at other scales", file=sys.stderr)
        return 1
    scratch = ROOT / ".perfbench" / f"record-{os.getpid()}"
    try:
        for seed in args.seeds:
            for workload in WORKLOADS:
                work = scratch / f"{workload}-{seed}"
                digests = run_rep(workload, seed, 0, work)["digests"]
                if workload == "figure5-sweep":
                    serial = run_rep("figure5-serial", seed, 0, scratch / f"serial-{seed}")
                    if serial["digests"] != digests:
                        print(f"error: seed {seed}: sweep differs from serial figure5",
                              file=sys.stderr)
                        return 1
                recorded["workloads"][workload][str(seed)] = digests
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
