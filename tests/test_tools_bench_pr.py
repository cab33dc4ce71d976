"""Self-test for tools/bench_pr.py (the per-PR bench trajectory file).

Feeds it stubbed ``run.py --json`` documents — no benchmarking — and
checks the arithmetic a reader relies on: same-seed pairing, pairs won
in the metric's own direction, medians per side, per-layer medians from
traced runs, and the digest comparison that makes the exit code.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_pr", REPO / "tools" / "bench_pr.py")
bench_pr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pr)


def write_run(directory, seed, work_per_s, wall_s, digest="d0", layer=None):
    block = {"attempted": 3, "failed": 0, "record_digest": digest,
             "metrics": {"work_per_s": work_per_s, "wall_s": wall_s}}
    results = {"end_to_end": block}
    if layer is not None:
        results = {"per_layer": dict(block, units=3, metrics=layer)}
    document = {"environment": {"seed": seed},
                "workloads": {"scalar_stream": results}}
    name = f"s{seed}_{'t1' if layer is not None else 't0'}.json"
    (directory / name).write_text(json.dumps(document))


def run_tool(tmp_path, **digests):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed, (before, after) in enumerate([(100.0, 150.0), (110.0, 140.0),
                                            (120.0, 119.0)], start=1):
        write_run(base, seed, before, 1.0 / before)
        write_run(new, seed, after, 1.0 / after,
                  digest=digests.get(f"s{seed}", "d0"))
    write_run(base, 1, 0, 0, layer={"metrics.streaming.us_per_sample": 18.0,
                                    "rt.live.sync_rounds": 0})
    write_run(new, 1, 0, 0, layer={"metrics.streaming.us_per_sample": 5.0,
                                   "rt.live.sync_rounds": 0})
    write_run(base, 9, 500.0, 0.002)          # a seed only one side ran
    out = tmp_path / "BENCH.json"
    code = bench_pr.main(["--pr", "12", "--parent", "abc", "--base",
                          str(base), "--new", str(new), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_pairs_medians_and_layers(tmp_path):
    code, document = run_tool(tmp_path)
    assert code == 0
    assert document["pr"] == 12 and document["parent_commit"] == "abc"
    rate = document["end_to_end"]["scalar_stream"]["work_per_s"]
    assert rate["pairs"] == 3                 # the unpaired seed 9 is left out
    assert rate["pairs_won"] == 2             # higher is better: 2 of 3
    assert rate["parent"]["median"] == 110.0
    assert rate["change"]["median"] == 140.0
    assert rate["change_over_parent"] == 140.0 / 110.0
    assert rate["by_seed"] == {"1": [100.0, 150.0], "2": [110.0, 140.0],
                               "3": [120.0, 119.0]}
    wall = document["end_to_end"]["scalar_stream"]["wall_s"]
    assert wall["pairs_won"] == 2             # lower is better: same 2 seeds
    layers = document["per_layer"]["scalar_stream"]
    assert layers["metrics.streaming.us_per_sample"] == {
        "parent": 18.0, "change": 5.0, "runs": 1}
    assert "rt.live.sync_rounds" not in layers    # all-zero layers are noise
    assert layers["traced_units"] == {"parent": 3, "change": 3}
    assert document["record_digests_equal"] is True


def test_a_changed_digest_fails_the_tool(tmp_path):
    code, document = run_tool(tmp_path, s2="other")
    assert code == 1
    assert document["record_digests_equal"] is False
