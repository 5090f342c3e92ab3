"""Driver details: continuous profiling iterations, measurement wrappers,
and how long each collection's samples live."""

import gc
import weakref

import pytest

from repro import (PGODriverConfig, PGOVariant, build, measure_run, run_pgo,
                   speedup_over)
from repro.pgo import driver
from repro.hw import PMUConfig
from repro.workloads import WorkloadSpec, build_vectorops, build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(WorkloadSpec("drv", seed=3, n_leaf=4, n_dispatch=2,
                                       n_mid=3, n_wrapper=1, n_workers=2,
                                       n_services=2, requests=60))


class TestIterations:
    def test_single_iteration_supported(self, workload):
        config = PGODriverConfig(pmu=PMUConfig(period=31),
                                 profile_iterations=1)
        result = run_pgo(workload, PGOVariant.AUTOFDO, [60], [60], config)
        assert result.eval.cycles > 0

    def test_second_iteration_profiles_pgo_binary(self, workload):
        """With iterations=2, the last profiling build consumed a profile
        (its annotation stats exist); with 1 it did not."""
        one = PGODriverConfig(pmu=PMUConfig(period=31), profile_iterations=1)
        two = PGODriverConfig(pmu=PMUConfig(period=31), profile_iterations=2)
        r1 = run_pgo(workload, PGOVariant.AUTOFDO, [60], [60], one)
        r2 = run_pgo(workload, PGOVariant.AUTOFDO, [60], [60], two)
        assert r1.profiling_build.annotation is None
        assert r2.profiling_build.annotation is not None

    def test_instr_ignores_iterations(self, workload):
        config = PGODriverConfig(pmu=PMUConfig(period=31),
                                 profile_iterations=3)
        result = run_pgo(workload, PGOVariant.INSTR, [60], [60], config)
        assert result.eval.cycles > 0
        assert len(result.profiling_runs) == 1  # one instrumented run

    def test_every_profiling_iteration_is_recorded(self, workload):
        """Per-iteration measurements and sample counts are all kept;
        the old scalar fields stay as last-iteration aliases."""
        config = PGODriverConfig(pmu=PMUConfig(period=31),
                                 profile_iterations=3)
        result = run_pgo(workload, PGOVariant.CSSPGO_FULL, [60], [60], config)
        assert len(result.profiling_runs) == 3
        assert result.profiling_run is result.profiling_runs[-1]
        samples = result.extras["samples_per_iteration"]
        assert len(samples) == 3 and all(n > 0 for n in samples)
        assert result.extras["samples"] == samples[-1]
        inference = result.extras["frame_inference_per_iteration"]
        assert len(inference) == 3
        assert result.extras["frame_inference"] == inference[-1]

    def test_iteration_measurements_differ_across_builds(self, workload):
        """Iteration 0 profiles the plain build, iteration 1 the optimized
        one — their instruction counts should not be identical."""
        config = PGODriverConfig(pmu=PMUConfig(period=31),
                                 profile_iterations=2)
        result = run_pgo(workload, PGOVariant.CSSPGO_FULL, [60], [60], config)
        first, second = result.profiling_runs
        assert first.instructions != second.instructions


class TestSampleLifetime:
    """A collection's samples are freed once they are spent.

    Runs with the cyclic collector off, so only references count: the
    samples must go when the driver lets go of them, not at some later
    collection.  Each collection's ``PerfData`` is watched through a weakref
    taken where ``_profile_collection`` returns it, and the data profgen
    reads through one taken where ``_generate_profile`` is called.
    """

    @pytest.fixture
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    def _watch(self, monkeypatch):
        """Hook the driver; returns the list of ``(event, alive)`` pairs,
        ``alive`` being one flag per collection watched so far."""
        collections, inputs, log = [], [], []

        def alive():
            return [ref() is not None for ref in collections]

        def collect(*args, **kwargs):
            log.append(("collect", alive()))
            data, measurement = real_collect(*args, **kwargs)
            collections.append(weakref.ref(data))
            return data, measurement

        def generate(variant, profiling, data, *args, **kwargs):
            inputs.append(weakref.ref(data))
            return real_generate(variant, profiling, data, *args, **kwargs)

        def measure(*args, **kwargs):
            log.append(("measure", alive()
                        + [ref() is not None for ref in inputs]))
            return real_measure(*args, **kwargs)

        real_collect = driver._profile_collection
        real_generate = driver._generate_profile
        real_measure = driver.measure_run
        monkeypatch.setattr(driver, "_profile_collection", collect)
        monkeypatch.setattr(driver, "_generate_profile", generate)
        monkeypatch.setattr(driver, "measure_run", measure)
        return log

    @pytest.mark.parametrize("variant", [PGOVariant.AUTOFDO,
                                         PGOVariant.CSSPGO_FULL])
    def test_sequential_iterations(self, workload, monkeypatch,
                                   collector_off, variant):
        log = self._watch(monkeypatch)
        config = PGODriverConfig(pmu=PMUConfig(period=31),
                                 profile_iterations=2)
        result = run_pgo(workload, variant, [60], [60], config)
        assert result.extras["samples_per_iteration"][0] > 0
        # Iteration 0's samples are gone before iteration 1 collects, and
        # the last iteration's before evaluation.
        assert log == [("collect", []), ("collect", [False]),
                       ("measure", [False] * 4)]

    def test_independent_profiling(self, workload, monkeypatch,
                                   collector_off):
        log = self._watch(monkeypatch)
        config = PGODriverConfig(pmu=PMUConfig(period=31),
                                 profile_iterations=3,
                                 independent_profiling=True)
        result = run_pgo(workload, PGOVariant.CSSPGO_FULL, [60], [60], config)
        assert result.extras["samples"] > 0
        # Each run's session goes once it is merged; the merged samples go
        # before evaluation.
        assert log == [("collect", []), ("collect", [False]),
                       ("collect", [False, False]), ("measure", [False] * 4)]


class TestMeasurement:
    def test_measure_run_consistency(self, workload):
        artifacts = build(workload, PGOVariant.NONE)
        a = measure_run(artifacts, [60])
        b = measure_run(artifacts, [60])
        assert a.cycles == b.cycles  # deterministic simulator
        assert a.instructions == b.instructions

    def test_speedup_sign_convention(self, workload):
        artifacts = build(workload, PGOVariant.NONE)

        class Fake:
            def __init__(self, cycles):
                self.eval = type("E", (), {"cycles": cycles})()

        assert speedup_over(Fake(110.0), Fake(100.0)) == pytest.approx(0.10)
        assert speedup_over(Fake(100.0), Fake(110.0)) < 0


class TestVectorOpsPipeline:
    def test_csspgo_full_cycle_on_fig4(self):
        module = build_vectorops(vector_len=16)
        config = PGODriverConfig(pmu=PMUConfig(period=17))
        result = run_pgo(module, PGOVariant.CSSPGO_FULL, [30], [30], config)
        assert result.eval.cycles > 0
        # The context profile must contain scalarOp split by vector head.
        contexts = [c for c in result.profile.contexts
                    if c[-1][0] in ("scalarOp", "scalarAdd", "scalarSub")
                    or any(f[0] in ("addVectorHead", "subVectorHead")
                           for f in c)]
        assert contexts
