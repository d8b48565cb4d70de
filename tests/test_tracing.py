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
