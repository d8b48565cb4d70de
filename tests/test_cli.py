import csv
import json

import pytest

from radarfuse.cli import main
from radarfuse.config import resolve_scenario
from radarfuse.sidelink import read_replay

from test_harness import SMALL


@pytest.fixture()
def small_scenario(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return path


def test_run_subcommand(tmp_path, small_scenario, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--config", str(small_scenario), "--epochs", "6", "--seed", "2",
        "--out", str(out), "--messages-out", str(tmp_path / "replay.jsonl"),
        "--dump-grids", "3",
    ])
    assert rc == 0
    assert (out / "epochs.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "grids" / "epoch00006_radar1.csv").exists()
    assert len(read_replay(tmp_path / "replay.jsonl")) == 6 * 3
    assert "mae_x" in capsys.readouterr().out


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda radar: radar.setdefault("model", {}).update(noise_sigmaa=0.1), "radar 2: unknown model key 'noise_sigmaa'"),
        (lambda radar: radar.pop("yaw_deg"), "radar 2: missing key 'yaw_deg'"),
        (lambda radar: radar.pop("position"), "radar 2: missing key 'position'"),
    ],
    ids=["unknown-model-key", "missing-yaw", "missing-position"],
)
def test_run_rejects_bad_radar_keys_in_one_line(tmp_path, capsys, edit, reason):
    data = json.loads(resolve_scenario("converging").read_text())
    edit(next(r for r in data["radars"] if r["id"] == 2))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["run", "--config", str(bad), "--epochs", "2", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_run_rejects_missing_scenario(tmp_path, capsys):
    rc = main(["run", "--config", "nope.json", "--out", str(tmp_path / "o")])
    assert rc != 0


def test_sweep_and_report(tmp_path, small_scenario, capsys):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--config", str(small_scenario), "--epochs", "6",
        "--seeds", "2", "--modes", "isolated,federation", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == {"isolated", "federation"}

    rc = main(["report", "--out", str(out)])
    assert rc == 0
    with open(out / "report.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert [r["mode"] for r in agg] == ["federation", "isolated"]
    assert "runs=2" in capsys.readouterr().out


def test_report_without_sweep_fails(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path)])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_kl_subcommand(tmp_path, small_scenario):
    out = tmp_path / "kl"
    rc = main(["kl", "--config", str(small_scenario), "--epochs", "8", "--out", str(out)])
    assert rc == 0
    with open(out / "kl_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    comparisons = {(r[0], r[1]) for r in rows[1:]}
    assert ("global_vs_federated", "pooled") in comparisons
    for radar in ("1", "2", "3"):
        assert ("global_vs_federated", radar) in comparisons
        assert ("global_vs_local", radar) in comparisons
