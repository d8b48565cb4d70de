"""The verdict rule of ``tools/bench_pairs.py`` and the output comparison of
``tools/output_digest.py``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return load_tool("bench_pairs")


@pytest.fixture(scope="module")
def output_digest():
    return load_tool("output_digest")


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


def test_worst_change_is_the_largest_relative_move_of_a_number(output_digest):
    assert output_digest.worst_change("x,1.0,4\n", "x,1.0,4\n") == 0.0
    assert output_digest.worst_change("x,2.0,-4\n", "x,1.5,-5e0\n") == pytest.approx(0.25)
    assert output_digest.worst_change("x,1.0\n", "y,1.0\n") is None
    assert output_digest.worst_change("x,1.0\n", "x,1.0,2.0\n") is None


def test_moved_cells_names_a_column_or_a_summary_row(output_digest):
    before, after = "epoch,mae_x,mode\n1,0.5,coop\n2,0.25,coop\n", "epoch,mae_x,mode\n1,0.5,fed\n2,0.2,coop\n"
    assert output_digest.moved_cells(before, after) == {"mae_x": pytest.approx(0.2), "mode": None}
    summary = "metric,value\nmae_x,0.5\ntx_bits,100\n"
    assert output_digest.moved_cells(summary, summary.replace("100", "110")) == {"tx_bits": pytest.approx(1 / 11)}
    assert output_digest.moved_cells(summary, "metric,value,extra\nmae_x,0.5,1\ntx_bits,100,1\n") == {}


@pytest.mark.parametrize(
    "change, status, line",
    [
        ({}, 0, None),
        ({"run/epochs.csv": "epoch,mae_x\n1,0.4\n"}, 1, "       0.2  run/epochs.csv  (mae_x 0.2)"),
        ({"run/log.jsonl": '{"kind": "fed"}\n'}, 1, "      text  run/log.jsonl"),
        ({"run/grid.csv": None}, 1, " only in A  run/grid.csv"),
        ({"run/extra.csv": "a\n"}, 1, " only in B  run/extra.csv"),
    ],
    ids=["identical", "moved-number", "changed-text", "only-in-a", "only-in-b"],
)
def test_compare_lists_each_moved_file_and_fails_if_any_moved(output_digest, tmp_path, capsys, change, status, line):
    files = {"run/epochs.csv": "epoch,mae_x\n1,0.5\n", "run/log.jsonl": '{"kind": "coop"}\n',
             "run/grid.csv": "0.25,0.75\n"}
    for side, contents in (("a", files), ("b", {**files, **change})):
        for rel, text in contents.items():
            if text is not None:
                (tmp_path / side / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / side / rel).write_text(text)
    assert output_digest.compare(tmp_path / "a", tmp_path / "b") == status
    total = len(files) + ("run/extra.csv" in change)
    expected = ([line] if line else []) + [f"{status} of {total} files moved"]
    assert capsys.readouterr().out.splitlines() == expected
