"""Leftover names of the removed lockstep batch path.

Every sweep point now runs through the one scalar
:func:`repro.core.simulator.simulate` path.  These names stay only
because the sweep benchmark's traced pass (``perfbench/traced.py``)
still imports them, together with
:func:`repro.experiments.runner.batch_width`, until a benchmark-only
change drops its batch experiment.  Each is reduced to what is now
true: no config is batchable, so no batch is ever formed.
"""

from __future__ import annotations

from repro.common.params import SimParams
from repro.core.metrics import RunResult
from repro.trace.workloads import WorkloadSpec

_REMOVED = "lockstep batching was removed"


def batchable(params: SimParams, telemetry=None, profiler=None) -> tuple[bool, str]:
    """Always ``(False, reason)``: no config joins a batch any more."""
    return False, _REMOVED


def simulate_batch(
    workload: WorkloadSpec | str, params_list: list[SimParams]
) -> list[RunResult]:
    """``[]`` for an empty list; ``ValueError`` for any config, none being batchable."""
    if params_list:
        raise ValueError(f"config {params_list[0].label()!r} is not batchable: {_REMOVED}")
    return []


def batch_width() -> int:
    """The constant width the traced pass chunks (never-formed) batches by."""
    return 8
