"""Leftover names of the removed typed/interpreted kernel choice.

Every run executes the one schedule-generated flat cycle kernel
(:func:`repro.core.schedule.build_kernel`).  These names stay only
because the sweep benchmark (``perfbench/run.py``,
``perfbench/traced.py``) still imports them, together with
:func:`repro.experiments.runner.resolve_kernel_mode`, until a
benchmark-only change drops them.  Each is reduced to what is now true.
"""

from __future__ import annotations

from repro.common.params import SimParams
from repro.core.schedule import KERNEL_BACKEND


def backend_name() -> str:
    """The one kernel label, :data:`repro.core.schedule.KERNEL_BACKEND`."""
    return KERNEL_BACKEND


def typed_eligible(params: SimParams) -> bool:
    """True when a run of ``params`` carries no observer feature.

    The checker feature comes from ``check_invariants`` and the
    prefetcher feature from any dedicated prefetcher (``perfect`` is a
    memory flag, not a component); telemetry and the profiler are
    attached per run, not set in params.
    """
    return not params.check_invariants and params.prefetcher in ("none", "perfect")
