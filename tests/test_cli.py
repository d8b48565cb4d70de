import csv
import json

import pytest

from radarfuse import config, harness
from radarfuse.cli import main
from radarfuse.config import load_config, resolve_scenario

from test_harness import SMALL
from test_sidelink import read_log


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
    assert len(read_log(tmp_path / "replay.jsonl")) == 6 * 3
    assert "mae_x" in capsys.readouterr().out


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def run_edited_converging(tmp_path, edit):
    """``radarfuse run`` on a 2-epoch copy of the converging scenario changed
    by ``edit``, which edits the scenario in place or returns the file's text."""
    data = json.loads(resolve_scenario("converging").read_text())
    data["epochs"] = 2
    text = edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(text if isinstance(text, str) else json.dumps(data))
    return main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda radar: radar.setdefault("model", {}).update(noise_sigmaa=0.1), "radar 2: unknown model key 'noise_sigmaa'"),
        (lambda radar: radar.pop("yaw_deg"), "radar 2: missing key 'yaw_deg'"),
        (lambda radar: radar.pop("position"), "radar 2: missing key 'position'"),
        (lambda radar: radar.setdefault("model", {}).update(noise_sigma=None), "radar 2: model.noise_sigma must be a number, got null"),
        (lambda radar: radar.update(yaw_deg="east"), 'radar 2: yaw_deg must be a number, got "east"'),
        (lambda radar: radar["model"].update(fov_azimuth=1.0), "radar 2: unknown model key 'fov_azimuth'"),
        (lambda radar: radar["model"].update(range_resolution=3.0), "radar 2: unknown model key 'range_resolution'"),
        (lambda radar: radar["model"].update(azimuth_resolution=1.4),
         "radar 2: unknown model key 'azimuth_resolution'"),
        (lambda radar: radar["model"].update(azimuth_resolution_deg=80.0),
         "radar 2: unknown model key 'azimuth_resolution_deg'"),
    ],
    ids=["unknown-model-key", "missing-yaw", "missing-position", "null-model-field", "string-yaw",
         "radians-fov", "range-resolution", "azimuth-resolution", "azimuth-resolution-deg"],
)
def test_run_rejects_bad_radar_keys_in_one_line(tmp_path, capsys, edit, reason):
    rc = run_edited_converging(tmp_path, lambda data: edit(next(r for r in data["radars"] if r["id"] == 2)))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda data: data.update(radars=[]), "at least one radar is required"),
        (lambda data: data["targets"][0].pop("speed"), "target 1: missing key 'speed'"),
        (lambda data: data.pop("area"), "scenario: missing key 'area'"),
        (lambda data: data["clock"]["offsets"].update({"9": 0.01}), "clock.offsets: radar 9 is not deployed"),
        (lambda data: data.update(epoch=5), "scenario: unknown key 'epoch'"),
        (lambda data: data["targets"][0].update(spead=1.0), "target 1: unknown key 'spead'"),
        (lambda data: data["dbscan"].update(epsilon=0.3), "dbscan: unknown key 'epsilon'"),
        (lambda data: data["mixture"].update(em_max_iter=5), "mixture: unknown key 'em_max_iter'"),
        (lambda data: data["clock"].update(jitter=0.001), "clock: unknown key 'jitter'"),
        (lambda data: data.update(area=[0, 8]), "area must be [x_min, x_max, y_min, y_max]"),
        (lambda data: data.update(landmarks=list(data["landmarks"].values())), "landmarks must be an object, got array"),
        (lambda data: data["targets"].__setitem__(0, "L"), "targets must be a list of objects"),
        (lambda data: data.update(tau=None), "tau must be a number, got null"),
        (lambda data: data.update(seed=[1]), "seed must be an integer, got [1]"),
        (lambda data: data.update(kl_reference="false"), 'kl_reference must be true or false, got "false"'),
        (lambda data: data.update(seed=1.7), "seed must be an integer, got 1.7"),
        (lambda data: data.update(epochs=12.9), "epochs must be an integer, got 12.9"),
        (lambda data: data["mixture"].update(m_max=2.5), "mixture: m_max must be an integer, got 2.5"),
        (lambda data: data["dbscan"].update(min_pts=True), "dbscan: min_pts must be an integer, got true"),
        (lambda data: data["targets"][0].update(speed="fast"), 'target 1: speed must be a number, got "fast"'),
        (lambda data: data["clock"]["offsets"].update({"2": None}), "clock.offsets: 2 must be a number, got null"),
        (lambda data: data.update(area=[0, 8, None, 8]), "area must be a number, got null"),
        (lambda data: data["targets"][0].update(waypoints="DE"), "target 1: waypoints must be a list of landmark names"),
        (lambda data: data.update(topology=5), 'topology must be "full" or a list of [from, to] edges'),
        (lambda data: data.update(topology=None), 'topology must be "full" or a list of [from, to] edges'),
        (lambda data: data.update(update_period_s=None), "update_period_s must be a decimal string or a number, got null"),
        (lambda data: data.update(update_period_s=True), "update_period_s must be a decimal string or a number, got true"),
        (lambda data: data.update(update_period_s="abc"), 'update_period_s must be a decimal string or a number, got "abc"'),
        (lambda data: data["clock"]["offsets"].update({"x": 0.0}), 'clock.offsets: key "x" must be a radar id'),
        (lambda data: data["clock"]["offsets"].update({"1.5": 0.0}), 'clock.offsets: key "1.5" must be a radar id'),
        (lambda data: data["radars"][1].update(position=["a", 0, 0]), 'radar 2: position must be a number, got "a"'),
        (lambda data: data["targets"][0].update(body_extent="x"), 'target 1: body_extent must be a list of 3 numbers, got "x"'),
        (lambda data: data["landmarks"].update(C=["a", 1]), 'landmarks: C must be a number, got "a"'),
        (lambda data: data["radars"][1].update(position=[0, 0]), "radar 2: position must be a list of 3 numbers, got [0, 0]"),
        (lambda data: data.update(min_separation=float("nan")), "min_separation must be a finite number, got NaN"),
        (lambda data: data["dbscan"].update(eps=float("nan")), "dbscan: eps must be a finite number, got NaN"),
        (lambda data: data.update(prior_speed=float("inf")), "prior_speed must be a finite number, got Infinity"),
        (lambda data: data.update(area=[0, 1e400, 0, 8]), "area must be a finite number, got Infinity"),
        (lambda data: data.update(area=[0, 10**400, 0, 8]), f"area must be a finite number, got {10**400}"),
        (lambda data: data.update(topology=[[1, 2], [1, 2], [2, 1]]), "edge (1, 2) is repeated"),
        (lambda data: data.update(update_period_s="1e400"), "update period must be > 0 and finite as a double"),
        (lambda data: data.update(update_period_s="1e-400"), "update period must be > 0 and finite as a double"),
        (lambda data: data.update(update_period_s="-0.01"), "update period must be > 0 and finite as a double"),
        (lambda data: data.update(prior_speed=-1.0), "prior_speed must be >= 0 and finite"),
        (lambda data: data.update(seed=-1), "seed must be >= 0"),
        (lambda data: data["mixture"].update(m_max=0), "mixture: m_max must be >= 1"),
        (lambda data: data["mixture"].update(em_max_iters=-1), "mixture: em_max_iters must be >= 0"),
        (lambda data: data["mixture"].update(em_tol=-1.0), "mixture: em_tol must be >= 0 and finite"),
        (lambda data: data["radars"][1].setdefault("model", {}).update(max_range=-1),
         "radar 2: model: max_range must be > 0 and finite"),
        (lambda data: data["radars"][1].setdefault("model", {}).update(fov_azimuth_deg=0),
         "radar 2: model: fov_azimuth must be > 0 and finite"),
        (lambda data: data["radars"][1].setdefault("model", {}).update(noise_sigma=-0.1),
         "radar 2: model: noise_sigma must be >= 0 and finite"),
        (lambda data: data["radars"][1].setdefault("model", {}).update(occlusion_attenuation=5.0),
         "radar 2: model: occlusion_attenuation must be in [0, 1]"),
        (lambda data: data["radars"][1].setdefault("model", {}).update(occlusion_attenuation=-2.0),
         "radar 2: model: occlusion_attenuation must be in [0, 1]"),
        (lambda data: data.update(grid_resolution=0), "area / grid_resolution: resolution must be > 0"),
        (lambda data: data.update(area=[8, 0, 0, 8]), "area / grid_resolution: grid extent must be non-degenerate"),
        (lambda data: data["clock"].update(jitter_std=-0.001), "clock: jitter_std must be finite and >= 0"),
        (lambda data: json.dumps(data)[:-1] + ', "tau": 0.9}', 'key "tau" is repeated'),
        (lambda data: json.dumps(data).replace('"offsets": {', '"offsets": {"2": 0.0, ', 1), 'key "2" is repeated'),
        (lambda data: data["clock"]["offsets"].update({"01": 0.0}), 'clock.offsets: key "01" must be a radar id'),
        (lambda data: data["clock"]["offsets"].update({" 2": 0.0}), 'clock.offsets: key " 2" must be a radar id'),
        (lambda data: data["clock"]["offsets"].update({"+3": 0.0}), 'clock.offsets: key "+3" must be a radar id'),
        (lambda data: data["targets"][1].update(id=1), "duplicate target id 1"),
    ],
    ids=[
        "no-radars", "target-without-speed", "no-area", "offset-of-undeployed-radar",
        "unknown-top-level-key", "unknown-target-key", "unknown-dbscan-key", "unknown-mixture-key",
        "unknown-clock-key", "two-value-area", "landmark-list", "target-not-an-object",
        "null-tau", "list-seed", "string-kl-reference", "fractional-seed", "fractional-epochs",
        "fractional-m-max", "boolean-min-pts", "string-target-speed", "null-clock-offset", "null-area-bound",
        "string-waypoints", "number-topology", "null-topology", "null-update-period", "boolean-update-period",
        "string-update-period", "letter-offset-key", "fractional-offset-key", "string-radar-coordinate",
        "string-body-extent", "string-landmark-coordinate", "two-coordinate-radar-position",
        "nan-min-separation", "nan-dbscan-eps", "infinite-prior-speed", "overflowing-area-bound",
        "overflowing-integer-area-bound", "repeated-topology-edge", "overflowing-update-period",
        "underflowing-update-period", "negative-update-period", "negative-prior-speed", "negative-seed",
        "zero-m-max", "negative-em-max-iters", "negative-em-tol", "negative-max-range", "zero-fov",
        "negative-noise-sigma", "large-occlusion-attenuation", "negative-occlusion-attenuation",
        "zero-grid-resolution", "reversed-area", "negative-jitter", "repeated-top-level-key",
        "repeated-offset-key", "zero-padded-offset-key", "space-padded-offset-key", "plus-signed-offset-key",
        "duplicate-target-id",
    ],
)
def test_run_rejects_bad_scenario_keys_in_one_line(tmp_path, capsys, edit, reason):
    assert run_edited_converging(tmp_path, edit) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not (tmp_path / "o").exists()  # refused before the run starts


REQUIRED_KEYS = [(section, key) for section, keys in config._KEYS.items()
                 for key, (_, default) in keys.items() if default is config.REQUIRED]


@pytest.mark.parametrize("section, key", REQUIRED_KEYS, ids=[f"{s or 'scenario'}-{k}" for s, k in REQUIRED_KEYS])
def test_run_refuses_a_scenario_without_a_required_key(tmp_path, capsys, section, key):
    # An entry without an id is named by "?".
    where = {"": "scenario", "target": "target 1", "radar": "radar 2"}[section]
    if key == "id":
        where = f"{section} ?"

    def drop(data):
        {"": data, "target": data["targets"][0], "radar": data["radars"][1]}[section].pop(key)

    assert run_edited_converging(tmp_path, drop) == 1
    assert capsys.readouterr().err == f"error: {where}: missing key {key!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, kind",
    [("[1, 2]", "array"), ("42", "number"), ("null", "null"), ('"text"', "string"), ('[["area", 1]]', "array"),
     ("false", "false")],
    ids=["list", "number", "null", "string", "list-of-pairs", "boolean"],
)
def test_run_rejects_a_scenario_that_is_not_an_object(tmp_path, capsys, text, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: scenario must be an object, got {kind}\n"


def test_run_refuses_a_grid_dump_period_below_one(tmp_path, small_scenario, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(small_scenario), "--out", str(out), "--dump-grids", "-1"]) == 1
    assert capsys.readouterr().err == "error: grid dump period must be >= 1 epoch, got -1\n"
    assert not out.exists()  # refused before anything is created


@pytest.mark.parametrize(
    "argv",
    [["kl", "--mode", "isolated"], ["sweep", "--seed", "7"], ["sweep", "--mode", "cooperation"]],
    ids=["kl-mode", "sweep-seed", "sweep-mode"],
)
def test_an_option_the_command_does_not_read_is_refused(tmp_path, small_scenario, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--config", str(small_scenario), "--epochs", "2", "--out", str(out)])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


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


def test_sweep_rejects_an_unknown_mode_before_any_run(tmp_path, capsys, monkeypatch, small_scenario):
    def no_run(cfg, **kwargs):
        raise AssertionError(f"ran {cfg.mode}")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    rc = main(["sweep", "--config", str(small_scenario), "--epochs", "2", "--seeds", "1",
               "--modes", "isolated,bogus", "--out", str(tmp_path / "sweep")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: mode must be one of ('isolated', 'cooperation', 'federation'), got 'bogus'\n"
    )
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "argv, reason",
    [(["run", "--seed", "-1"], "seed must be >= 0"),
     (["sweep", "--seed-start", "-1", "--workers", "2"], "seed must be >= 0"),
     (["sweep", "--seeds", "-3"], "--seeds must be >= 1, got -3"),
     (["sweep", "--seeds", "0"], "--seeds must be >= 1, got 0"),
     (["sweep", "--workers", "-2"], "--workers must be >= 1, got -2"),
     (["sweep", "--workers", "0"], "--workers must be >= 1, got 0"),
     (["sweep", "--modes", ","], "a sweep needs at least one mode"),
     (["sweep", "--modes", "isolated, isolated"], "mode 'isolated' is listed twice")],
    ids=["run-negative-seed", "sweep-negative-seed-start", "sweep-negative-seeds", "sweep-zero-seeds",
         "sweep-negative-workers", "sweep-zero-workers", "sweep-no-mode", "sweep-repeated-mode"],
)
def test_seed_and_sweep_options_are_refused_in_one_line(tmp_path, small_scenario, capsys, argv, reason):
    out = tmp_path / "out"
    assert main([*argv, "--config", str(small_scenario), "--epochs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()  # refused before any run


@pytest.mark.parametrize("epochs", [6, 0], ids=["floats", "empty-cells"])
def test_read_sweep_returns_the_rows_of_run_sweep(tmp_path, small_scenario, epochs):
    # Floats round-trip through their shortest form; a run of no epochs has
    # no MAE or P_u, written as empty cells and read back as None.
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(small_scenario), "--epochs", str(epochs), "--seeds", "2", "--seed-start", "3",
            "--modes", "cooperation,isolated", "--out", str(out)]
    assert main(argv) == 0
    rows = harness.run_sweep(load_config(str(small_scenario), epochs=epochs), [3, 4], ["cooperation", "isolated"])
    assert all(isinstance(row["mae_x"], float if epochs else type(None)) for row in rows)
    assert harness.read_sweep(out / "sweep.csv") == rows


def test_report_refuses_a_sweep_without_a_column(tmp_path, capsys):
    header = [name for name in harness.SWEEP_COLUMNS if name != "mae_y"]
    (tmp_path / "sweep.csv").write_text(",".join(header) + "\nisolated,0,0.1,3,0.5,100.0\n")
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'sweep.csv'}: no 'mae_y' column\n"
    assert not (tmp_path / "report.csv").exists()


def test_report_refuses_a_sweep_that_repeats_a_column(tmp_path, capsys):
    header = [*harness.SWEEP_COLUMNS, "mae_x"]
    (tmp_path / "sweep.csv").write_text(",".join(header) + "\nisolated,0,0.1,0.2,3,0.5,100.0,9.9\n")
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'sweep.csv'}: column 'mae_x' is repeated\n"
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "row, reason",
    [("isolated,0,0.1", "line 3: 3 cells, the header has 7"),
     ("isolated,0,0.1,0.2,3,0.5,100.0,9", "line 3: 8 cells, the header has 7"),
     ("isolated,zero,0.1,0.2,3,0.5,100.0", "line 3, column 'seed': cannot read 'zero' as int"),
     ("isolated,0,0.1,0.2,3,half,100.0", "line 3, column 'p_u': cannot read 'half' as float"),
     ("isolated,0,nan,0.2,3,0.5,100.0", "line 3, column 'mae_x': cannot read 'nan' as float"),
     ("isolated,0,0.1,-inf,3,0.5,100.0", "line 3, column 'mae_y': cannot read '-inf' as float"),
     ("isolated,0,0.1,0.2,3,0.5,1e999", "line 3, column 'tx_rate_ego': cannot read '1e999' as float")],
    ids=["short-row", "long-row", "word-seed", "word-p-u", "nan-mae-x", "minus-infinity-mae-y", "overflowing-rate"],
)
def test_report_refuses_a_malformed_sweep_row(tmp_path, capsys, row, reason):
    header = ",".join(harness.SWEEP_COLUMNS)
    (tmp_path / "sweep.csv").write_text(f"{header}\nisolated,1,0.1,0.2,3,0.5,100.0\n{row}\n")
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'sweep.csv'}, {reason}\n"
    assert not (tmp_path / "report.csv").exists()


def test_report_without_sweep_fails(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path)])
    assert rc != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kl_reference", [True, False], ids=["reference-on", "reference-off"])
def test_kl_subcommand(tmp_path, kl_reference):
    # ``kl`` computes the pooled reference whatever the scenario says.
    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps({**SMALL, "kl_reference": kl_reference}))
    out = tmp_path / "kl"
    rc = main(["kl", "--config", str(scenario), "--epochs", "8", "--out", str(out)])
    assert rc == 0
    with open(out / "kl_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    comparisons = {(r[0], r[1]) for r in rows[1:]}
    assert ("global_vs_federated", "pooled") in comparisons
    for radar in ("1", "2", "3"):
        assert ("global_vs_federated", radar) in comparisons
        assert ("global_vs_local", radar) in comparisons
