"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps functions at the module bindings the runner
looks them up in and reads some of their arguments by position. These tests
import it as it stands (no bytecode is written beside it), run every mode
under it and check that the wrappers see the work and that closing the
tracer restores every binding.
"""

import importlib
import sys
from pathlib import Path

import pytest

import radarfuse
from radarfuse.config import MODES, config_from_dict

from test_harness import SMALL

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WRAPPED_MODULES = (radarfuse.config, radarfuse.harness, radarfuse.fusion, radarfuse.sensor)


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_counts_em_work_in_every_mode_and_restores_every_binding(tracing):
    bindings = {module: dict(vars(module)) for module in WRAPPED_MODULES}
    tracer = tracing.Tracer()
    tracing.install(tracer, radarfuse)
    try:
        for module, attr, original in tracer._patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} is not wrapped"
        for mode in MODES:
            cfg = config_from_dict(SMALL, mode=mode, epochs=3, kl_reference=mode == "federation")
            radarfuse.harness.run_experiment(cfg)
    finally:
        tracer.close()
    for module, before in bindings.items():
        after = vars(module)
        assert after.keys() == before.keys()
        moved = [name for name, value in before.items() if after[name] is not value]
        assert not moved, f"{module.__name__}: {moved} not restored"
    layers = tracing.layer_metrics(tracer, 0.0)
    assert layers["mixture.fit_em.calls"] > 0
    assert layers["mixture.fit_em.points"] > 0
    assert layers["mixture.fit_em.point_components"] >= layers["mixture.fit_em.points"]
    assert layers["mixture.kl_divergence.calls"] > 0


def traced(tracing, cfg):
    """The tracer's spans and layer metrics of one run of ``cfg``."""
    tracer = tracing.Tracer()
    tracing.install(tracer, radarfuse)
    try:
        radarfuse.harness.run_experiment(cfg)
    finally:
        tracer.close()
    return tracer.spans, tracing.layer_metrics(tracer, 0.0)


@pytest.mark.parametrize("mode", MODES)
def test_own_dbscan_runs_inside_preprocess_with_exact_clocks(tracing, mode):
    # The tracer tells a radar's own DBSCAN from that of a received cloud
    # by its parent span; with exact clocks no received cloud is clustered.
    cfg = config_from_dict(SMALL, mode=mode, epochs=4, kl_reference=False)
    spans, layers = traced(tracing, cfg)
    parents = [spans[parent][0] if parent >= 0 else None for name, parent, *_ in spans if name == "sensor.dbscan"]
    own = len(cfg.radars) * cfg.n_epochs
    assert parents == ["sensor.preprocess"] * own
    assert layers["sensor.dbscan.calls"] == layers["sensor.preprocess.calls"] == own
    assert layers["sensor.dbscan.received_calls"] == 0


def test_a_late_radars_received_clouds_are_counted_as_received(tracing):
    # Radar 2 one period late: its previous-epoch cloud is clustered once
    # for both receivers in epochs 2..6, as test_harness's
    # test_each_delivered_message_is_decoded_once counts.
    cfg = config_from_dict(SMALL, mode="cooperation", epochs=6, kl_reference=False, clock={"offsets": {"2": 0.010}})
    _, layers = traced(tracing, cfg)
    own = len(cfg.radars) * cfg.n_epochs
    assert layers["sensor.dbscan.received_calls"] == 6 - 1
    assert layers["sensor.dbscan.calls"] == own + 6 - 1
    assert layers["sensor.preprocess.calls"] == own
