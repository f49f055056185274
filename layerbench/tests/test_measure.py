"""The benchmark's metric code on canned inputs.

    python3 -m pytest layerbench/tests
"""

import math

import pytest

from measure import (
    Request,
    Rung,
    SpeedLog,
    f2_score,
    growing_backlog,
    hit_ratio,
    macro_labels,
    max_ok_rate,
    percentile,
    rung_verdict,
)
from spans import Ledger


# -- percentiles: at least 10 samples beyond -----------------------------------


def test_p95_needs_200_samples():
    with pytest.raises(ValueError):
        percentile(range(199), 0.95)
    value, n = percentile(range(1, 201), 0.95)
    assert (value, n) == (190, 200)
    assert sum(1 for v in range(1, 201) if v > value) == 10


def test_p50_needs_20_samples():
    with pytest.raises(ValueError):
        percentile(range(19), 0.5)
    assert percentile(range(1, 21), 0.5) == (10, 20)


def test_failed_operations_count_as_infinite():
    assert percentile([0.01] * 189 + [math.inf] * 11, 0.95)[0] == math.inf
    assert percentile([0.01] * 190 + [math.inf] * 10, 0.95)[0] == 0.01


# -- F2 ------------------------------------------------------------------------------


def test_f2_weights_recall():
    truth = [True, True, True, True, False, False]
    # 2 of 4 positives found, no false positives: P = 1, R = 0.5
    predicted = [True, True, False, False, False, False]
    assert f2_score(truth, predicted) == pytest.approx(5 * 0.5 / (4 + 0.5))
    # every positive found plus 2 false positives: P = 4/6, R = 1
    predicted = [True] * 6
    assert f2_score(truth, predicted) == pytest.approx(5 * (4 / 6) / (4 * 4 / 6 + 1))


def test_missing_verdicts_count_as_missed_detections():
    truth, predicted = macro_labels((True, False), None)
    assert (truth, predicted) == ([True, False], [False, False])
    with pytest.raises(ValueError):
        macro_labels((True,), ["obfuscated", "normal"])


# -- self time of nested spans ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    ledger = Ledger(clock)

    def leaf(seconds):
        clock.now += seconds

    lex = ledger.span("vba.lex", leaf)

    def analyze():
        clock.now += 1.0  # collect, before
        lex(2.0)
        lex(3.0)
        clock.now += 0.5  # collect, after

    collect = ledger.span("vba.collect", analyze)

    def run():
        clock.now += 0.25
        collect()
        leaf_span(4.0)

    leaf_span = ledger.span("ole.extract", leaf)
    ledger.span("engine", run)()

    assert ledger.calls == {"engine": 1, "vba.collect": 1, "vba.lex": 2, "ole.extract": 1}
    assert ledger.self_s["vba.lex"] == 5.0
    assert ledger.self_s["vba.collect"] == 1.5
    assert ledger.self_s["ole.extract"] == 4.0
    assert ledger.self_s["engine"] == 0.25
    assert ledger.total_s["engine"] == sum(ledger.self_s.values()) == 10.75


def test_span_survives_an_exception():
    clock = FakeClock()
    ledger = Ledger(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError

    outer = ledger.span("engine", lambda: inner())
    inner = ledger.span("ole.extract", boom)
    with pytest.raises(RuntimeError):
        outer()
    assert ledger.self_s == {"ole.extract": 1.0, "engine": 0.0}
    assert ledger._open == []


def test_installed_wrappers_are_removed():
    import repro.vba.analyzer as analyzer

    original = analyzer.tokenize
    ledger = Ledger()
    with ledger.installed():
        assert analyzer.tokenize is not original
        analyzer.analyze("Sub A()\nEnd Sub\n")
    assert analyzer.tokenize is original
    assert ledger.calls["vba.lex"] == ledger.calls["vba.collect"] == 1
    assert ledger.counts["vba.lex.tokens"] > 0


# -- cache-hit ratios from cache_info() deltas -------------------------------------


def test_hit_ratio_uses_deltas():
    before = {"hits": 10, "misses": 90, "feature_hits": 0, "feature_misses": 5}
    after = {"hits": 38, "misses": 94, "feature_hits": 0, "feature_misses": 9}
    assert hit_ratio(before, after) == 28 / 32
    assert hit_ratio(before, after, "feature_") == 0.0
    assert hit_ratio(before, before) == 0.0


# -- the ladder and the backlog rule ----------------------------------------------


def rung(name, rate, latencies, late=0.0, statuses=None):
    requests = []
    for index, latency in enumerate(latencies):
        due = index / rate
        status = 200 if statuses is None else statuses[index]
        requests.append(Request(due, due + late, due + latency, status, late))
    return Rung(name, rate, requests)


def test_backlog_rule():
    steady = [0.05, 0.4] * 100
    assert not growing_backlog(steady)
    growing = [0.05 + 0.02 * i for i in range(200)]
    assert growing_backlog(growing)
    # a slow stretch in the middle is not a trend
    assert not growing_backlog([0.05] * 80 + [2.0] * 40 + [0.05] * 80)


def test_rung_verdicts():
    ceiling = 5.0
    assert rung_verdict(rung("low", 5, [0.03] * 200), ceiling) == "ok"
    assert rung_verdict(rung("over", 20, [0.03 + 0.05 * i for i in range(200)]), ceiling) == "slow"
    assert rung_verdict(rung("x", 5, [0.03] * 189 + [6.0] * 11), ceiling) == "slow"
    refused = [200] * 199 + [503]
    assert rung_verdict(rung("x", 5, [0.03] * 200, statuses=refused), ceiling) == "slow"
    assert rung_verdict(rung("x", 5, [0.03] * 200, late=0.05), ceiling) == "invalid"


def test_max_ok_rate_climbs_until_the_first_failing_rung():
    ceiling = 5.0
    low = rung("low", 5, [0.03] * 200)
    high = rung("high", 10, [0.03] * 200)
    over = rung("over", 20, [0.03 + 0.05 * i for i in range(200)])
    assert max_ok_rate([low, high, over], ceiling) == pytest.approx(200 / (199 / 10 + 0.03))
    assert max_ok_rate([over, low], ceiling) == pytest.approx(200 / (199 / 5 + 0.03))
    # a rung above a failing one does not count, even if it passed
    lucky = rung("top", 40, [0.03] * 200)
    assert max_ok_rate([low, over, lucky], ceiling) == pytest.approx(low.ok_rate())
    assert max_ok_rate([over], ceiling) == 0.0
    assert low.refused() == {} and low.failed == 0


# -- speed normalization ------------------------------------------------------------


def test_speed_log_takes_the_median_probe_around_an_interval():
    speed = SpeedLog()
    speed.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5), (10.0, 3.0)]
    assert speed.around(0.8, 1.2, pad=0.5) == 2.0
    assert speed.around(0.0, 2.0, pad=0.5) == 1.5
    # no probe within the pad: the nearest one
    assert speed.around(7.0, 8.0, pad=0.5) == 3.0
    speed.probe()
    assert speed.samples[-1][1] > 0
    wall = SpeedLog(wall=True)
    wall.probe()
    assert wall.samples[-1][1] > 0
