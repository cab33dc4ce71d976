#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds N]
                                   [--trace [0|1]] [--smoke] [--json OUT]

``--trace 0`` measures the end-to-end metrics (tracing off); ``--trace
1`` (or a bare ``--trace``) makes the traced run and reports the
per-layer metrics; without ``--trace`` both are made.  Every metric is
printed with its unit, outputs are checked, and the exit code is
non-zero when a check fails.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with a
single ``--workload`` and an explicit ``--trace`` its metrics are
exactly the ones ``BENCHMARK.json`` names for that mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import harness  # noqa: E402

SMOKE_SECONDS = 0.5


def workloads() -> dict:
    """Workload objects by name (imports ``repro``-free modules only;
    ``repro`` itself is imported inside their methods)."""
    from live_workload import LiveQuery
    from sim_workloads import CampaignSweep, ScalarRun, VectorBatch
    from store_workload import StoreRW
    built = [ScalarRun("scalar_byz", stream=False),
             ScalarRun("scalar_stream", stream=True),
             VectorBatch(), CampaignSweep(), StoreRW(), LiveQuery()]
    return {workload.name: workload for workload in built}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES,
                        default=None, help="default: all six")
    parser.add_argument("--seed", type=int, default=11,
                        help="derives every scenario seed (seed*1000 + i)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured phase per workload (default "
                             f"{catalog.RUN_SECONDS}, {SMOKE_SECONDS} "
                             f"with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: end-to-end only; 1: traced run only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up; checks, not numbers")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the full result document here")
    return parser.parse_args(argv)


def print_metrics(workload: str, kind: str, block: dict) -> None:
    digest_text = block["record_digest"] or "-"
    share = block["failed"] / max(block["attempted"], 1)
    print(f"[{workload}] {kind}: units={block['units']} "
          f"attempted={block['attempted']} failed={block['failed']} "
          f"failed_share={share:.6g} correct={block['correct']}")
    print(f"[{workload}] record_digest {digest_text}")
    for problem in block["problems"]:
        print(f"[{workload}] CHECK FAILED: {problem}")
    for name, value in block["metrics"].items():
        print(f"[{workload}] {name:<42} {value:>16.6g} "
              f"{catalog.UNITS[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.bootstrap()
    size = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(catalog.RUN_SECONDS))
    names = [args.workload] if args.workload else catalog.WORKLOAD_NAMES
    passes = ([("end_to_end", harness.measure_end_to_end)]
              if args.trace != 1 else []) + \
             ([("per_layer", harness.measure_per_layer)]
              if args.trace != 0 else [])

    document = {"environment": harness.environment(args.seed, seconds, size),
                "workloads": {}}
    available = workloads()
    for name in names:
        results = document["workloads"][name] = {}
        for kind, measure in passes:
            block = measure(available[name], args.seed, seconds, size)
            results[kind] = block
            print_metrics(name, kind, block)

    blocks = [block for results in document["workloads"].values()
              for block in results.values()]
    if len(names) == 1 and len(passes) == 1:
        metrics = {name: {"value": value, "unit": catalog.UNITS[name]}
                   for name, value in blocks[0]["metrics"].items()}
    else:
        metrics = {f"{workload}:{kind}:{name}":
                   {"value": value, "unit": catalog.UNITS[name]}
                   for workload, results in document["workloads"].items()
                   for kind, block in results.items()
                   for name, value in block["metrics"].items()}
    summary = {"correct": all(block["correct"] for block in blocks),
               "attempted": sum(block["attempted"] for block in blocks),
               "failed": sum(block["failed"] for block in blocks),
               "metrics": metrics}
    if args.json_out is not None:
        Path(args.json_out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
