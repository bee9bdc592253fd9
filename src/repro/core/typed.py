"""Typed-kernel backend selection (``REPRO_KERNEL`` / ``SimParams.kernel``).

The simulator has two cycle-loop backends:

``interp``
    The schedule-generated interpreted kernel
    (:func:`repro.core.schedule.build_kernel`) -- composed from
    :data:`~repro.core.schedule.CYCLE_SCHEDULE` for any feature set.

``typed``
    The hand-lowered flat kernel (:mod:`repro.core.typedkern`) for the
    *uninstrumented* feature set only.  It is bit-identical to the
    interpreted kernel by contract (pinned by ``tests/test_typed.py``
    and the ``typed_interp_identity`` fuzz property) and exists purely
    for speed.  When the optional mypyc toolchain has compiled
    ``typedkern`` into an extension module the backend reports
    ``typed-compiled``; otherwise the pure-Python module runs as-is and
    reports ``typed-python``.

Selection is three-valued (:data:`KERNEL_MODES`): ``SimParams.kernel``
is ``auto`` (defer to the ``REPRO_KERNEL`` environment variable,
defaulting to ``typed``), ``typed`` (prefer the typed kernel, falling
back to ``interp`` per-run when the simulator carries features the
typed kernel does not support), or ``interp`` (force the interpreted
kernel).  Because both backends are bit-identical, the choice never
changes results -- it is still resolved into cache keys, manifests,
``--stats-json`` and bench history lines so every recorded number
names the backend that produced it.
"""

from __future__ import annotations

import os

from repro.common.params import KERNEL_MODES, SimParams
from repro.core.typedkern import typed_kernel

__all__ = [
    "KERNEL_MODES",
    "backend_name",
    "kernel_backend_for_params",
    "resolve_kernel_mode",
    "supported",
    "typed_eligible",
    "typed_kernel",
]

_ENV_VAR = "REPRO_KERNEL"


def resolve_kernel_mode(mode: str) -> str:
    """Resolve a :data:`KERNEL_MODES` value to ``typed`` or ``interp``.

    Explicit modes pass through; ``auto`` reads ``REPRO_KERNEL``
    (itself allowed to say ``auto``) and defaults to ``typed`` -- the
    typed backend is always importable (pure-Python fallback), so auto
    only ever needs the interpreted kernel for unsupported feature
    sets, which :func:`supported` handles per-run.
    """
    if mode != "auto":
        if mode not in KERNEL_MODES:
            raise ValueError(f"kernel mode must be one of {KERNEL_MODES}, got {mode!r}")
        return mode
    raw = os.environ.get(_ENV_VAR, "").strip().lower()
    if not raw or raw == "auto":
        return "typed"
    if raw not in KERNEL_MODES:
        raise ValueError(
            f"{_ENV_VAR} must be one of {KERNEL_MODES}, got {raw!r}"
        )
    return raw


def supported(sim) -> tuple[bool, str]:
    """Can ``sim`` run on the typed kernel?  Returns ``(ok, reason)``.

    The typed kernel lowers only the uninstrumented schedule: any
    active feature (telemetry, checker, dedicated prefetcher,
    profiler) composes extra hook points into the loop, so those runs
    use the interpreted kernel.
    """
    features = sim.active_features()
    if features:
        return False, (
            f"active features {sorted(features)} require the interpreted kernel"
        )
    return True, ""


def backend_name() -> str:
    """``typed-compiled`` when mypyc's extension shadows ``typedkern``,
    else ``typed-python``."""
    from repro.core import typedkern

    source = getattr(typedkern, "__file__", "") or ""
    return "typed-python" if source.endswith(".py") else "typed-compiled"


def typed_eligible(params: SimParams) -> bool:
    """Would a scalar run of ``params`` (no telemetry/profiler attached)
    select the typed kernel?

    Mirrors :func:`supported` from params alone: the checker feature
    comes from ``check_invariants`` and the prefetcher feature from any
    dedicated prefetcher (``perfect`` is a memory flag, not a
    component).  The cache layer uses this to derive the recorded
    backend from resolved params.
    """
    if resolve_kernel_mode(params.kernel) == "interp":
        return False
    if params.check_invariants:
        return False
    return params.prefetcher in ("none", "perfect")


def kernel_backend_for_params(params: SimParams) -> str:
    """The backend label an uninstrumented scalar run of ``params``
    records: ``typed-compiled`` / ``typed-python`` / ``interp``."""
    return backend_name() if typed_eligible(params) else "interp"
