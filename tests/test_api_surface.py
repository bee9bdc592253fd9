"""API-surface tests: exports, docstrings, and module hygiene."""

import importlib
import inspect

import pytest

import repro

MODULES = [
    "repro",
    "repro.common.bits",
    "repro.common.log",
    "repro.common.params",
    "repro.common.rng",
    "repro.common.stats",
    "repro.common.telemetry",
    "repro.isa.instructions",
    "repro.trace.behaviors",
    "repro.trace.cfg",
    "repro.trace.fbmeta",
    "repro.trace.oracle",
    "repro.trace.reader",
    "repro.trace.workloads",
    "repro.memory.cache",
    "repro.memory.hierarchy",
    "repro.memory.mshr",
    "repro.memory.tlb",
    "repro.branch.btb",
    "repro.branch.btb2l",
    "repro.branch.gshare",
    "repro.branch.history",
    "repro.branch.ittage",
    "repro.branch.loop",
    "repro.branch.perceptron",
    "repro.branch.ras",
    "repro.branch.tage",
    "repro.frontend.bpu",
    "repro.frontend.fetch",
    "repro.frontend.ftq",
    "repro.prefetch.base",
    "repro.prefetch.djolt",
    "repro.prefetch.eip",
    "repro.prefetch.fnl_mma",
    "repro.prefetch.next_line",
    "repro.prefetch.profile_guided",
    "repro.prefetch.rdip",
    "repro.prefetch.sn4l_dis_btb",
    "repro.common.registry",
    "repro.core.backend",
    "repro.core.batch",
    "repro.core.build",
    "repro.core.metrics",
    "repro.core.schedule",
    "repro.core.simulator",
    "repro.core.typed",
    "repro.check.reference",
    "repro.experiments.analysis",
    "repro.experiments.bench",
    "repro.experiments.cache",
    "repro.experiments.configs",
    "repro.experiments.figures",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.viz",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if inspect.getmodule(attr) is not module:
            continue  # re-exports documented at their home
        if inspect.isclass(attr) or inspect.isfunction(attr):
            assert attr.__doc__, f"{name}.{attr_name} lacks a docstring"


class TestTopLevelExports:
    def test_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_symbols(self):
        # The README quickstart must keep working.
        from repro import SimParams, simulate  # noqa: F401

        params = SimParams()
        assert params.frontend.ftq_entries == 24


class TestBenchmarkImports:
    """Names the sweep benchmark's traced pass imports from the program."""

    def test_batch_names_form_no_batch(self):
        from repro.common.params import SimParams
        from repro.core.batch import batch_width, batchable, simulate_batch
        from repro.experiments import runner

        params = SimParams(warmup_instructions=300, sim_instructions=1_000)
        ok, reason = batchable(params)
        assert not ok and reason
        assert simulate_batch("srv_web", []) == []
        with pytest.raises(ValueError, match="not batchable"):
            simulate_batch("srv_web", [params])
        assert runner.batch_width is batch_width
        assert batch_width() >= 2

    def test_kernel_names_hold_the_one_kernel(self):
        from repro.common.params import SimParams
        from repro.core.schedule import CYCLE_SCHEDULE
        from repro.core.simulator import Simulator
        from repro.core.typed import backend_name, typed_eligible
        from repro.experiments import runner

        params = SimParams(warmup_instructions=300, sim_instructions=1_000)
        assert backend_name() == Simulator.kernel_backend == "typed-python"
        assert runner.resolve_kernel_mode(params) is params
        # typed_eligible: "no observer feature", so the traced pass
        # profiles exactly the prefetcher and checked configs.
        assert typed_eligible(params)
        assert typed_eligible(params.replace(prefetcher="perfect"))
        assert not typed_eligible(params.replace(prefetcher="eip27"))
        assert not typed_eligible(params.replace(check_invariants=True))
        stages = {"predict", "probe", "fetch", "backend_retire", "memory_fill", "prefetch"}
        assert stages <= {p.name for p in CYCLE_SCHEDULE}
