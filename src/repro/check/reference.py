"""Reference model of the cycle loop: the component methods, stepped.

The simulator runs one schedule-generated flat kernel
(:mod:`repro.core.schedule`) whose stage bodies lower the component
methods into straight-line code.  The methods themselves --
``InstructionMemory.tick``, ``FetchUnit.complete_fills``,
``Backend.cycle``, ``FetchUnit.fetch_stage``,
``BranchPredictionUnit.cycle``, ``FetchUnit.probe_stage`` (with
``InstructionMemory.demand_probe``) and ``Prefetcher.cycle`` -- stay the
readable reference model.  :func:`reference_kernel` drives them one
cycle at a time in schedule order, with no idle-cycle skip, and
:func:`run_reference` wraps it in the same warmup and result phases as
:meth:`Simulator.run <repro.core.simulator.Simulator.run>`.

A flat-kernel run must equal a reference run of the same simulator
configuration counter for counter (and event for event under
telemetry); the fuzzer's ``flat_reference_identity`` property and
``tests/test_kernel.py`` pin that.
"""

from __future__ import annotations

from repro.core.metrics import RunResult


def reference_kernel(sim, target: int, warmup: int, guard: int) -> None:
    """Step ``sim`` through the component methods until ``target`` commits.

    Same signature and contract as the schedule-built kernel; every
    observer the simulator carries (telemetry, checker, prefetcher)
    is driven at its schedule point.
    """
    memory, fetch, backend, bpu, ftq = sim.memory, sim.fetch, sim.backend, sim.bpu, sim.ftq
    telemetry, prefetcher, checker = sim.telemetry, sim.prefetcher, sim.checker
    cycle = sim.cycle
    while sim.backend.committed < target:
        if telemetry is not None:
            telemetry.now = cycle
        fills = memory.tick(cycle)
        if fills:
            fetch.complete_fills(fills, cycle)
        before = backend.committed
        backend.cycle(cycle)
        if not sim._measuring and backend.committed >= warmup:
            sim.cycle = cycle
            sim._begin_measurement()
        if telemetry is not None:
            telemetry.tick(cycle, backend.committed - before, sim._measuring)
        fetch.fetch_stage(cycle)
        bpu.cycle(cycle, ftq)
        fetch.probe_stage(cycle)
        if prefetcher is not None:
            prefetcher.cycle(cycle)
        if checker is not None:
            checker.check_cycle(cycle)
        cycle += 1
        if cycle > guard:
            sim.cycle = cycle
            raise sim._livelock_error(target)
    sim.cycle = cycle


def run_reference(sim, workload_name: str = "") -> RunResult:
    """:meth:`Simulator.run` with :func:`reference_kernel` as the cycle loop."""
    reference_kernel(sim, *sim.start_run(workload_name))
    return sim.finish_run(workload_name)
