"""The end-to-end benchmark's tracer still finds and fires every hook.

``benchmarks/e2e/layers.py`` wraps module attributes of ``repro`` from
outside.  ``benchmarks/e2e`` is not collected by the tier-1 suite, so a
deleted or renamed boundary would otherwise break the benchmark's traced
pass without failing any test here.
"""

import importlib.util
from pathlib import Path

from repro import PGODriverConfig, PGOVariant, run_pgo
from repro.hw import PMUConfig
from repro.inference import incremental as inference_session
from repro.workloads import WorkloadSpec, build_workload

LAYERS_PATH = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
               / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_fire_and_sessions_count_solves():
    layers = _load_layers()
    module = build_workload(WorkloadSpec("hooks", seed=9, n_leaf=3,
                                         n_dispatch=1, n_mid=2, n_wrapper=1,
                                         n_workers=1, n_services=1,
                                         requests=30))
    config = PGODriverConfig(pmu=PMUConfig(period=31))
    assert inference_session.current() is None
    tracer = layers.Tracer()
    # Raises if any HOOKS boundary or incremental.install is gone.
    tracer.install()
    try:
        for variant in (PGOVariant.AUTOFDO, PGOVariant.CSSPGO_FULL):
            run_pgo(module, variant, [30], [30], config)
    finally:
        tracer.uninstall()

    # One session per cycle, each counting fresh solves.
    assert len(tracer.sessions) == 2
    for session in tracer.sessions:
        assert session.solved > 0
        assert session.reused == 0
    # Every layer the benchmark attributes was actually reached.
    assert [layer for layer in layers.LAYERS
            if tracer.self_s[layer] <= 0] == []
