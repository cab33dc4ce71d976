"""Tests for replication statistics."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
import textwrap
import timeit
from statistics import NormalDist

import pytest

import repro
from repro.errors import MeasurementError
from repro.runner.builders import benign_scenario, default_params, warmup_for
from repro.runner.stats import (
    _t_critical,
    replicate_measure,
    summarize_replications,
)

LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)

#: Two-sided Student-t critical values, frozen from scipy 1.17.1 so no
#: test needs scipy:
#:
#:     from scipy import stats
#:     for df in T_TABLE:
#:         print(df, [repr(float(stats.t.ppf(0.5 + c / 2.0, df)))
#:                    for c in LEVELS])
#:
#: scipy rounds its argument ``0.5 + c / 2`` to a double; the 0.999
#: column inherits up to ~1e-13 relative error from that rounding.
T_TABLE = {
    1: (1.0000000000000002, 3.0776835371752544, 6.313751514675037,
        12.706204736174694, 63.656741162871526, 636.6192487687897),
    2: (0.8164965809277261, 1.8856180831641272, 2.9199855803537242,
        4.302652729749462, 9.924843200918287, 31.599054576445365),
    3: (0.7648923284043444, 1.637744353696209, 2.3533634348018233,
        3.1824463052837078, 5.840909309733355, 12.923978636687961),
    4: (0.7406970841126829, 1.533206274058944, 2.1318467863266495,
        2.7764451051977934, 4.604094871349992, 8.610301581379522),
    5: (0.7266868438004226, 1.4758840488244815, 2.0150483733330233,
        2.5705818356363146, 4.032142983555228, 6.868826625881276),
    7: (0.7111417780817866, 1.4149239276505086, 1.8945786050900062,
        2.364624251592784, 3.4994832973504924, 5.407882520861828),
    9: (0.7027221467513264, 1.3830287383966329, 1.833112932656237,
        2.262157162798205, 3.249835541592126, 4.780912585931217),
    15: (0.6911969489584897, 1.3406056078504558, 1.753050355692572,
         2.131449545559776, 2.946712883475238, 4.072765195903846),
    30: (0.6827556933212927, 1.3104150253913955, 1.697260886593957,
         2.0422724563012378, 2.7499956535672254, 3.6459586350420627),
    99: (0.6769759855461531, 1.2901614420344854, 1.6603911560169906,
         1.9842169515864174, 2.626405457280827, 3.391528833363685),
    1000: (0.6747351646070093, 1.2823987214609247, 1.6463788172854643,
           1.9623390808264083, 2.580754698065951, 3.300282648423944),
    10**4: (0.6745142844835927, 1.2816362297304775, 1.645006018069243,
            1.960201239890626, 2.5763210466685282, 3.2914999659416355),
    10**6: (0.6744899955310875, 1.281552412129939, 1.6448551507220404,
            1.959966356814107, 2.5758342201053344, 3.2905364612487222),
}


def ulps(value: float, reference: float) -> float:
    return abs(value - reference) / math.ulp(reference)


class TestSummarize:
    def test_known_values(self):
        summary = summarize_replications([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == pytest.approx(3.0)
        assert summary.std == pytest.approx(1.5811388, rel=1e-6)
        # 95% t CI with df=4: half-width = t*std/sqrt(5).
        assert summary.half_width == pytest.approx(
            T_TABLE[4][LEVELS.index(0.95)] * summary.std / 5 ** 0.5, rel=1e-12)
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_single_value_degenerates(self):
        summary = summarize_replications([7.0])
        assert summary.mean == 7.0
        assert summary.ci_low == summary.ci_high == 7.0
        assert summary.std == 0.0

    def test_identical_values_zero_width(self):
        summary = summarize_replications([2.0, 2.0, 2.0])
        assert summary.half_width == pytest.approx(0.0)

    def test_higher_confidence_wider(self):
        values = [1.0, 2.0, 3.0, 4.0]
        narrow = summarize_replications(values, confidence=0.80)
        wide = summarize_replications(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            summarize_replications([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(MeasurementError):
            summarize_replications([1.0], confidence=1.5)

    def test_str_format(self):
        text = str(summarize_replications([1.0, 2.0, 3.0]))
        assert "±" in text and "95% CI" in text and "n=3" in text

    @pytest.mark.parametrize("confidence, label", [(0.999, "99.9% CI"),
                                                   (0.29, "29% CI"),
                                                   (0.95, "95% CI")])
    def test_str_keeps_the_whole_level(self, confidence, label):
        text = str(summarize_replications([1.0, 2.0, 3.0], confidence))
        assert f"({label}, n=3)" in text


class TestTCritical:
    @pytest.mark.parametrize("df", sorted(T_TABLE))
    def test_matches_frozen_table(self, df):
        tolerance = 1e-12 if df <= 1000 else 1e-10
        for confidence, expected in zip(LEVELS, T_TABLE[df]):
            assert _t_critical(confidence, df) == pytest.approx(
                expected, rel=tolerance), confidence

    # The closed forms tan(pi c / 2) (df=1) and c sqrt(2 / (1 - c^2))
    # (df=2), written in 1 - c (exact for c in [1/2, 1)) so the
    # reference itself is good to an ulp or two.
    @pytest.mark.parametrize("confidence", LEVELS)
    def test_df1_is_the_cauchy_quantile(self, confidence):
        closed = 1.0 / math.tan(math.pi * (1.0 - confidence) / 2.0)
        assert ulps(_t_critical(confidence, 1), closed) <= 4

    @pytest.mark.parametrize("confidence", LEVELS)
    def test_df2_closed_form(self, confidence):
        closed = confidence * math.sqrt(
            2.0 / ((1.0 - confidence) * (1.0 + confidence)))
        assert ulps(_t_critical(confidence, 2), closed) <= 4

    def test_increases_with_confidence_decreases_with_df(self):
        grid = {df: [_t_critical(c, df) for c in LEVELS] for df in T_TABLE}
        for row in grid.values():
            assert row == sorted(row) and len(set(row)) == len(row)
        for column in zip(*(grid[df] for df in sorted(grid))):
            assert list(column) == sorted(column, reverse=True)
            assert len(set(column)) == len(column)

    @pytest.mark.parametrize("confidence", LEVELS)
    def test_tends_to_the_normal_quantile(self, confidence):
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        # t = z (1 + (z^2 + 1) / (4 df) + O(df^-2)).
        for df in (10**4, 10**6):
            excess = _t_critical(confidence, df) / z - 1.0
            assert excess == pytest.approx((z * z + 1) / (4 * df), rel=1e-3)
        assert _t_critical(confidence, 10**12) == pytest.approx(z, rel=1e-10)

    def test_degenerate_level_gives_zero_width(self):
        assert _t_critical(1e-20, 3) == 0.0

    @pytest.mark.parametrize("df", sorted(T_TABLE))
    def test_each_call_takes_under_10_ms(self, df):
        # Best of three per call, so a descheduled call is not a failure.
        seconds = [min(timeit.repeat(lambda: _t_critical(confidence, df),
                                     number=1, repeat=3))
                   for confidence in LEVELS]
        assert max(seconds) < 0.010, seconds


def test_stats_run_without_scipy():
    """Summaries import and run with scipy unimportable."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from repro.runner.records import RunRecord
        from repro.runner.stats import summarize_grouped, summarize_replications
        from repro.runner.store import ResultStore

        summary = summarize_replications([1.0, 2.0, 3.0, 4.0, 5.0])
        assert 2.77 < summary.half_width * 5 ** 0.5 / summary.std < 2.78
        store = ResultStore.from_records([
            RunRecord(index=i, name=f"r{i}", config={"params": {"f": i % 2}},
                      seed=i, duration=float(i)) for i in range(6)])
        grouped = summarize_grouped(store, "config.params.f", "duration")
        assert sorted(grouped) == [0, 1] and grouped[1].mean == 3.0
        assert sys.modules.pop("scipy") is None
        assert not [name for name in sys.modules
                    if name.split(".")[0] == "scipy"]
    """)
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestReplicateMeasure:
    def test_deviation_over_seeds(self):
        params = default_params(n=4, f=1)
        summary = replicate_measure(
            lambda seed: benign_scenario(params, duration=3.0, seed=seed),
            lambda result: result.max_deviation(warmup_for(params)),
            seeds=[1, 2, 3],
        )
        assert summary.n == 3
        assert 0.0 < summary.mean < params.bounds().max_deviation
        assert len(summary.values) == 3
        assert summary.ci_high < params.bounds().max_deviation
