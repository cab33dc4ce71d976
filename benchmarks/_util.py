"""Shared helpers for the benchmark harness.

Every bench regenerates one experiment from EXPERIMENTS.md, prints its
result table (visible under ``pytest benchmarks/ --benchmark-only -s``)
and writes it to ``benchmarks/results/<experiment>.txt`` so the numbers
recorded in EXPERIMENTS.md can be reproduced and diffed.
"""

from __future__ import annotations

import pathlib

from repro.runner.campaign import Campaign, RunRecord
from repro.runner.scenario import Scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def campaign_records(scenarios: list[Scenario], *,
                     workers: int | None = None,
                     warmup_intervals: float = 3.0) -> list[RunRecord]:
    """Run a list of scenarios through the Campaign executor.

    Benches deliberately do NOT pass a ``cache_dir``: every invocation
    executes every run, so a regenerated table comes from this run and
    not from the last one.  A cache would not serve stale code (its key
    carries a digest of the package sources), but it would turn a re-run
    into a read of earlier results.
    """
    result = Campaign.from_scenarios(
        scenarios, warmup_intervals=warmup_intervals).run(workers=workers)
    for record in result.records:
        if record.error is not None:
            raise RuntimeError(
                f"bench run {record.index} ({record.name}) failed: "
                f"{record.error}")
    return list(result.records)


def emit(name: str, content: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    print()
    print(content)
    (RESULTS_DIR / f"{name}.txt").write_text(content + "\n")


def once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing.

    The heavyweight experiment benches measure end-to-end wall time of
    a full scenario; repeating them dozens of times would make the
    suite unusably slow without changing the verdicts, so we pin
    rounds/iterations to 1.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
