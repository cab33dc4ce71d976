#!/usr/bin/env python3
"""Write a PR's point of the bench trajectory: ``BENCH_PR<N>.json``.

ROADMAP aim 1 asks that a speedup claim come with the before/after of
the layer it touched, one file per PR, so the trajectory is a series.
This tool folds two sets of ``benchmarks/perf/run.py --json`` documents
— the parent commit's and the change's, made with
``benchmarks/perf/repeat.py`` on the same seeds, sides alternating —
into that file:

* per workload and end-to-end metric: each side's median and quartiles
  (``compare.py``'s own arithmetic and verdict), the ratio of medians,
  how many same-seed pairs the change won, and every pair by seed;
* per workload and per-layer metric (traced runs, ``--trace 1``): each
  side's median, beside the number of traced units it covers (a faster
  side fits more units into the same time, so its ``_s`` totals and
  counts cover more work; ``us_per_*``/``_ns`` figures are per item);
* whether every ``record_digest`` repeated across sides, seed by seed.

    python3 benchmarks/perf/repeat.py --out A --workload scalar_stream   # in the parent tree
    python3 benchmarks/perf/repeat.py --out B --workload scalar_stream   # in this tree
    python3 tools/bench_pr.py --pr 12 --parent 1d2fb8b --base A --new B

Nothing here measures anything, and nothing under ``benchmarks/perf``
is edited: the benchmark stays the one the parent commit defined.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks" / "perf"))

import catalog  # noqa: E402
import compare  # noqa: E402


def side_stats(values: list[float]) -> dict:
    q1, median, q3 = compare.quartiles(values)
    return {"runs": len(values), "q1": q1, "median": median, "q3": q3}


def paired(base: list[dict], new: list[dict], kind: str, name: str):
    """``(seed, base value, new value)`` per seed both sides ran."""
    by_seed = {run["seed"]: run[kind]["metrics"].get(name)
               for run in new if kind in run}
    return [(run["seed"], run[kind]["metrics"][name], by_seed[run["seed"]])
            for run in base if kind in run
            and name in run[kind]["metrics"]
            and by_seed.get(run["seed"]) is not None]


def summarize(base_runs: dict, new_runs: dict) -> dict:
    end_to_end: dict = {}
    per_layer: dict = {}
    digests_equal = True
    for workload in catalog.WORKLOAD_NAMES:
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            continue
        for metric in catalog.END_TO_END:
            pairs = paired(base, new, "end_to_end", metric["name"])
            if not pairs:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            before = [b for _, b, _ in pairs]
            after = [n for _, _, n in pairs]
            parent, change = side_stats(before), side_stats(after)
            end_to_end.setdefault(workload, {})[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent, "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "pairs": len(pairs),
                "pairs_won": sum(sign * n > sign * b for _, b, n in pairs),
                "verdict": compare.verdict(metric, before, after),
                "by_seed": {str(seed): [b, n] for seed, b, n in pairs},
            }
        layer_names = sorted({name for run in base + new
                              for name in run.get("per_layer", {})
                              .get("metrics", {})})
        for name in layer_names:
            pairs = paired(base, new, "per_layer", name)
            if pairs and any(b or n for _, b, n in pairs):
                per_layer.setdefault(workload, {})[name] = {
                    "parent": statistics.median(b for _, b, _ in pairs),
                    "change": statistics.median(n for _, _, n in pairs),
                    "runs": len(pairs)}
        if workload in per_layer:
            per_layer[workload]["traced_units"] = {
                side: statistics.median(run["per_layer"]["units"]
                                        for run in runs if "per_layer" in run)
                for side, runs in (("parent", base), ("change", new))}
        for kind in ("end_to_end", "per_layer"):
            by_seed = {run["seed"]: run[kind]["record_digest"]
                       for run in new if kind in run}
            digests_equal = digests_equal and all(
                by_seed.get(run["seed"], run[kind]["record_digest"])
                == run[kind]["record_digest"]
                for run in base if kind in run)
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "record_digests_equal": digests_equal}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True,
                        help="the parent commit the base runs were made at")
    parser.add_argument("--base", required=True,
                        help="directory of the parent's run JSONs")
    parser.add_argument("--new", required=True,
                        help="directory of the change's run JSONs")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    document = {
        "pr": args.pr,
        "parent_commit": args.parent,
        "benchmark": "benchmarks/perf/run.py (BENCHMARK.json), one fresh "
                     "process per run, sides alternating per seed",
        "run_seconds": catalog.RUN_SECONDS,
        **summarize(
            compare.load(sorted(map(str, pathlib.Path(args.base)
                                    .glob("*.json")))),
            compare.load(sorted(map(str, pathlib.Path(args.new)
                                    .glob("*.json"))))),
    }
    out = pathlib.Path(args.out) if args.out else \
        REPO / f"BENCH_PR{args.pr}.json"
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if document["record_digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
