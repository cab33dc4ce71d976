#!/usr/bin/env python3
"""Make one *set* of runs: every workload, ``--runs`` seeds each.

    python3 benchmarks/perf/repeat.py --out benchmarks/perf/out/setA
    python3 benchmarks/perf/compare.py --base benchmarks/perf/out/setA/*.json

Each run is a fresh ``run.py`` process (as the driver makes them), so
nothing warms from one run to the next.  Seeds are ``--first-seed``,
``--first-seed + 1``, ...
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for JSONs")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        choices=catalog.WORKLOAD_NAMES, default=None)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload in args.workload or catalog.WORKLOAD_NAMES:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            target = out / f"{workload}_t{args.trace}_s{seed}.json"
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--json", str(target)],
                stdout=subprocess.PIPE, text=True)
            print(f"{workload} seed={seed} exit={done.returncode} "
                  f"{done.stdout.strip().splitlines()[-1][:160]}",
                  flush=True)
            failures += done.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
