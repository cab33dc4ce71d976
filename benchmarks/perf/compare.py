#!/usr/bin/env python3
"""Do two sets of benchmark runs agree?

    python3 benchmarks/perf/compare.py --base A*.json --new B*.json
    python3 benchmarks/perf/compare.py --base A*.json      # spreads only

Each file is a ``run.py --json`` document.  Per workload and end-to-end
metric the tool prints each side's median and quartiles, the metric's
bound from ``catalog.py`` and a verdict:

* ``unresolved`` — a side's spread (interquartile distance / median) is
  wider than the bound, so the runs cannot show a change that small;
  unless every new run reads better than every base run (``better``);
* ``worse`` / ``better`` — the new median differs from the base median
  by more than the bound, in that direction;
* ``same`` — otherwise.

Exit code 1 on any ``worse`` row, on a higher failed share, or when a
count that must repeat exactly (``record_digest`` per seed, exact event
and round counts per seed) does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402

#: Per-layer counts that are a pure function of (workload, seed, units).
EXACT_COUNTS = ("sim.engine.events", "sim.vector.events", "core.sync.rounds")


def load(paths: list[str]) -> dict[str, list[dict]]:
    """``workload -> [{"seed", "end_to_end", "per_layer"}, ...]``."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        seed = document["environment"]["seed"]
        for workload, results in document["workloads"].items():
            runs.setdefault(workload, []).append({"seed": seed, **results})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    if max(spread(base), spread(new)) > metric["bound"]:
        every_run_better = all(sign * n > sign * b
                               for n in new for b in base)
        return "better" if every_run_better else "unresolved"
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    change = sign * (new_median - base_median) / abs(base_median)
    if change < -metric["bound"]:
        return "worse"
    return "better" if change > metric["bound"] else "same"


def failed_share(runs: list[dict]) -> float:
    blocks = [run[kind] for run in runs for kind in ("end_to_end",
              "per_layer") if kind in run]
    return (sum(block["failed"] for block in blocks)
            / max(sum(block["attempted"] for block in blocks), 1))


def exact_mismatches(runs: list[dict]) -> list[str]:
    """Values that must repeat for one (workload, seed) but do not."""
    seen: dict[tuple, object] = {}
    problems = []
    for run in runs:
        facts = []
        for kind in ("end_to_end", "per_layer"):
            if kind in run:
                facts.append(("record_digest", None,
                              run[kind]["record_digest"]))
        if "per_layer" in run:
            units = run["per_layer"]["units"]
            facts += [(name, units, run["per_layer"]["metrics"][name])
                      for name in EXACT_COUNTS]
        for name, units, value in facts:
            key = (run["seed"], name, units)
            if seen.setdefault(key, value) != value:
                problems.append(f"seed {run['seed']}: {name} read "
                                f"{seen[key]} and {value}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", default=[])
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the table rows to this file")
    args = parser.parse_args(argv)
    base_runs, new_runs = load(args.base), load(args.new)

    bad = False
    rows = []
    header = (f"{'workload':<15}{'metric':<17}{'side':<5}{'n':>3}"
              f"{'q1':>12}{'median':>12}{'q3':>12}{'spread':>8}"
              f"{'bound':>7}  verdict")
    print(header)
    for workload in catalog.WORKLOAD_NAMES:
        base = base_runs.get(workload, [])
        new = new_runs.get(workload, [])
        for metric in catalog.END_TO_END:
            sides = {side: [run["end_to_end"]["metrics"][metric["name"]]
                            for run in runs if "end_to_end" in run]
                     for side, runs in (("base", base), ("new", new))}
            if not sides["base"]:
                continue
            outcome = (verdict(metric, sides["base"], sides["new"])
                       if sides["new"] else "")
            bad = bad or outcome == "worse"
            for side, values in sides.items():
                if not values:
                    continue
                q1, q2, q3 = quartiles(values)
                rows.append({"workload": workload, "metric": metric["name"],
                             "unit": metric["unit"], "side": side,
                             "runs": len(values), "q1": q1, "median": q2,
                             "q3": q3, "spread": spread(values),
                             "bound": metric["bound"], "verdict": outcome})
                print(f"{workload:<15}{metric['name']:<17}{side:<5}"
                      f"{len(values):>3}{q1:>12.5g}{q2:>12.5g}{q3:>12.5g}"
                      f"{spread(values):>8.3f}{metric['bound']:>7.2f}  "
                      f"{outcome if side == 'new' or not sides['new'] else ''}")
        for problem in exact_mismatches(base + new):
            print(f"{workload}: NOT EXACT: {problem}")
            bad = True
        if base:
            shares = failed_share(base), failed_share(new) if new else 0.0
            print(f"{workload:<15}failed_share      base {shares[0]:.6g}"
                  + (f"  new {shares[1]:.6g}" if new else ""))
            bad = bad or shares[1] > shares[0]
    if args.json_out is not None:
        Path(args.json_out).write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
