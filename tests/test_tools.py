"""The verdict rule of ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stats(parent, change, pairs_won, pairs=10):
    """A ``summarize`` entry: each side's (q1, median, q3) and the pairs won."""
    parent, change = (dict(zip(("q1", "median", "q3"), side)) for side in (parent, change))
    return {"parent": parent, "change": change, "median_change": change["median"] / parent["median"] - 1.0,
            "pairs_won": pairs_won, "pairs": pairs}


@pytest.mark.parametrize(
    "parent, change, won, pairs, better, verdict",
    [
        # 9 of 10 pairs won and a median 10 up against an interquartile range of 4.
        ((98, 100, 102), (108, 110, 112), 9, 10, "higher", "gain"),
        ((98, 100, 102), (88, 90, 92), 9, 10, "lower", "gain"),
        # Every pair won, but the median moved by no more than the range.
        ((98, 100, 102), (103, 104, 105), 10, 10, "higher", "no change"),
        ((98, 100, 102), (95, 96, 97), 10, 10, "lower", "no change"),
        # A large move won in only 8 of 10 pairs.
        ((98, 100, 102), (108, 110, 112), 8, 10, "higher", "no change"),
        # 18 of 20 pairs are nine tenths; 17 are not.
        ((98, 100, 102), (108, 110, 112), 18, 20, "higher", "gain"),
        ((98, 100, 102), (108, 110, 112), 17, 20, "higher", "no change"),
        # Worse by more than the 25% bound, and by less.
        ((98, 100, 102), (70, 74, 78), 0, 10, "higher", "worse than bound"),
        ((98, 100, 102), (76, 80, 84), 0, 10, "higher", "no change"),
        ((98, 100, 102), (120, 126, 130), 0, 10, "lower", "worse than bound"),
        ((98, 100, 102), (120, 124, 130), 0, 10, "lower", "no change"),
    ],
)
def test_verdict(bench_pairs, parent, change, won, pairs, better, verdict):
    assert bench_pairs.verdict(stats(parent, change, won, pairs), better, 0.25) == verdict


def test_summarize_records_a_verdict_per_metric(bench_pairs):
    runs = [{"parent": {"metrics": {"w": {"epochs_per_s": 100.0 + i % 3, "peak_rss_mb": 100.0}}},
             "change": {"metrics": {"w": {"epochs_per_s": 110.0 + i % 3, "peak_rss_mb": 111.0}}}}
            for i in range(10)]
    summary = bench_pairs.summarize(runs, {"epochs_per_s": "higher", "peak_rss_mb": "lower"},
                                    {"epochs_per_s": 0.25, "peak_rss_mb": 0.1})
    assert summary["w"]["epochs_per_s"]["verdict"] == "gain"
    assert summary["w"]["peak_rss_mb"]["verdict"] == "worse than bound"


def test_summarize_skips_a_failed_run_but_not_the_others(bench_pairs):
    runs = [{"parent": {"metrics": {"w": {"peak_rss_mb": 100.0 + i % 3}}},
             "change": {"metrics": {"w": {"peak_rss_mb": 80.0 + i % 3}}}}
            for i in range(11)]
    runs[0]["change"]["metrics"] = {}  # the first run failed
    summary = bench_pairs.summarize(runs, {"peak_rss_mb": "lower"}, {"peak_rss_mb": 0.1})
    assert summary["w"]["peak_rss_mb"]["pairs"] == 10
    assert summary["w"]["peak_rss_mb"]["verdict"] == "gain"
