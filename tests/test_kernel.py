"""The flat cycle kernel against the reference model, plus its labels.

Every run executes the schedule-generated flat kernel
(:mod:`repro.core.schedule`), whose stage bodies lower the component
methods.  The methods stay the reference model:
:func:`repro.check.reference.run_reference` steps them cycle by cycle
with no idle skip.  The whole contract is *bit-identity* -- a flat run
must reproduce the reference run counter for counter -- so these tests
pin it across every registered prefetcher and direction predictor,
through the idle-skip drain, for both warmup modes, and under the
telemetry, checker and profiler feature sets.
"""

import pytest

from repro.check.reference import run_reference
from repro.cli import main
from repro.common.params import SimParams
from repro.common.telemetry import Telemetry, TelemetryConfig
from repro.core.prof import StageProfiler
from repro.core.schedule import KERNEL_BACKEND
from repro.core.simulator import Simulator, simulate
from repro.core.typed import backend_name, typed_eligible
from repro.prefetch import prefetcher_names
from repro.trace.workloads import make_trace

WORKLOAD = "srv_web"


def fast(**kwargs):
    kwargs.setdefault("warmup_instructions", 500)
    kwargs.setdefault("sim_instructions", 2_000)
    return SimParams(**kwargs)


def identity(a, b):
    """Full bit-identity between two RunResults."""
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.ipc == b.ipc
    assert a.stats.as_dict() == b.stats.as_dict()


def run_pair(params, workload=WORKLOAD, **observers):
    """Flat and reference runs of ``params`` on one shared trace.

    ``observers`` maps ``telemetry``/``profiler`` to zero-argument
    factories, so each of the two runs gets its own observer object.
    Returns ``(flat result, reference result, flat sim, flat observers,
    reference observers)``.
    """
    n = params.warmup_instructions + params.sim_instructions
    program, stream = make_trace(workload, n)
    made = {name: factory() for name, factory in observers.items()}
    flat_sim = Simulator(params, program, stream, **made)
    flat = flat_sim.run(workload)
    ref_made = {name: factory() for name, factory in observers.items()}
    ref = run_reference(Simulator(params, program, stream, **ref_made), workload)
    return flat, ref, flat_sim, made, ref_made


class TestLabels:
    def test_backend_name_is_the_one_label(self):
        assert backend_name() == KERNEL_BACKEND == "typed-python"

    def test_run_records_the_one_label(self):
        program, stream = make_trace(WORKLOAD, 2_500)
        for params in (fast(), fast(check_invariants=True), fast(prefetcher="eip27")):
            sim = Simulator(params, program, stream)
            sim.run(WORKLOAD)
            assert sim.kernel_backend == KERNEL_BACKEND

    def test_params_have_no_kernel_field(self):
        with pytest.raises(TypeError):
            SimParams(kernel="typed")


class TestEligibility:
    """``typed_eligible`` now means "no observer feature in params"."""

    def test_plain_config_is_eligible(self):
        assert typed_eligible(fast())
        assert typed_eligible(fast(prefetcher="perfect"))

    def test_checker_disables(self):
        assert not typed_eligible(fast(check_invariants=True))

    @pytest.mark.parametrize("prefetcher", prefetcher_names())
    def test_dedicated_prefetcher_disables(self, prefetcher):
        assert not typed_eligible(fast(prefetcher=prefetcher))


class TestFlatReferenceIdentity:
    def test_default_workload(self):
        flat, ref, *_ = run_pair(fast())
        identity(flat, ref)

    def test_simulate_runs_the_flat_kernel(self):
        program, stream = make_trace(WORKLOAD, 2_500)
        ref = run_reference(Simulator(fast(), program, stream), WORKLOAD)
        identity(simulate(WORKLOAD, fast()), ref)

    @pytest.mark.parametrize("prefetcher", ["none", "perfect", *prefetcher_names()])
    def test_every_prefetcher(self, prefetcher):
        flat, ref, *_ = run_pair(fast(prefetcher=prefetcher))
        identity(flat, ref)

    @pytest.mark.parametrize("direction", ["tage", "gshare", "perceptron", "perfect"])
    def test_every_direction_predictor(self, direction):
        params = fast().with_branch(
            direction_kind=direction, perfect_direction=direction == "perfect"
        )
        flat, ref, *_ = run_pair(params)
        identity(flat, ref)

    def test_functional_warmup(self):
        flat, ref, *_ = run_pair(fast(warmup_mode="functional", prefetcher="eip27"))
        identity(flat, ref)

    def test_perfect_btb_and_two_level(self):
        flat, ref, *_ = run_pair(fast().with_branch(perfect_btb=True))
        identity(flat, ref)
        flat, ref, *_ = run_pair(fast(prefetcher="fnl_mma").with_branch(btb_l1_entries=256))
        identity(flat, ref)

    def test_pfc_and_history_variants(self):
        flat, ref, *_ = run_pair(fast().with_frontend(pfc_enabled=True))
        identity(flat, ref)
        flat, ref, *_ = run_pair(fast().with_frontend(wrong_path_fills=False))
        identity(flat, ref)
        flat, ref, *_ = run_pair(fast(prefetcher="nl1").with_frontend(history_policy="GHR2"))
        identity(flat, ref)

    def test_idle_skip_drain_stretch(self):
        # A tiny FTQ with a large mispredict penalty produces long
        # stalled stretches where the decode queue drains while fetch is
        # blocked -- the idle skip's fetch-bandwidth drain is the hot
        # path here, and starvation accounting must match the
        # cycle-by-cycle reference exactly.
        params = (
            fast()
            .with_frontend(ftq_entries=2, decode_queue_size=32)
            .replace(core=fast().core.__class__(retire_width=8, mispredict_penalty=20))
        )
        flat, ref, *_ = run_pair(params)
        identity(flat, ref)
        assert flat.stats.get("starvation_cycles") > 0

    def test_small_mshr_pressure(self):
        params = fast(prefetcher="nl1").replace(
            memory=fast().memory.__class__(mshr_entries=2, l1i_kib=16)
        )
        flat, ref, *_ = run_pair(params)
        identity(flat, ref)
        assert flat.stats.get("mshr_stall") > 0


class TestFeatureSets:
    """Observer feature sets run the flat kernel and match the reference."""

    @pytest.mark.parametrize("prefetcher", ["none", "eip27", "sn4l_dis_btb"])
    def test_telemetry_counters_events_and_samples(self, prefetcher):
        def tel():
            return Telemetry(TelemetryConfig(interval_stride=500, ring_capacity=50_000))

        flat, ref, sim, made, ref_made = run_pair(fast(prefetcher=prefetcher), telemetry=tel)
        assert "telemetry" in sim.active_features()
        identity(flat, ref)
        flat_tel, ref_tel = made["telemetry"], ref_made["telemetry"]
        assert flat_tel.ring.total == ref_tel.ring.total > 0
        assert flat_tel.ring.events() == ref_tel.ring.events()
        assert flat_tel.sampler.rows == ref_tel.sampler.rows
        kinds = flat_tel.ring.counts
        for kind in ("fill", "demand_miss", "flush", "ftq_push", "ftq_pop"):
            assert kinds.get(kind, 0) > 0, kind

    @pytest.mark.parametrize("prefetcher", ["none", "djolt"])
    def test_checker(self, prefetcher):
        flat, ref, sim, *_ = run_pair(fast(prefetcher=prefetcher, check_invariants=True))
        identity(flat, ref)
        assert sim.checker.cycles_checked > 0

    @pytest.mark.parametrize("prefetcher", ["none", "rdip"])
    def test_profile(self, prefetcher):
        flat, ref, sim, made, _ = run_pair(fast(prefetcher=prefetcher), profiler=StageProfiler)
        assert "profile" in sim.active_features()
        identity(flat, ref)
        assert made["profiler"].total_self_ns > 0


class TestKernelCli:
    def test_lists_points_and_dumps_flat_source(self, capsys):
        assert main(["kernel", "--features", "prefetcher", "--dump"]) == 0
        out = capsys.readouterr().out
        assert "memory_fill -> backend_retire" in out and "prefetch ->" in out
        assert "idle_skip" not in out  # a prefetcher keeps every cycle
        assert "def _kernel(sim, target, warmup, guard):" in out
        assert "pf_on_access(line," in out

    def test_unknown_feature_exits_2(self):
        assert main(["kernel", "--features", "warp_drive"]) == 2
