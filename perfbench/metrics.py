"""Metric names, units and bounds: the one list run.py, the tests and
BENCHMARK.json agree on."""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: (name, unit, better, bound) -- host time unless stated; one value per
#: workload per run, each the median over the run's samples.  The time
#: bounds are the widest allowed: on a shared two-vCPU host, contention
#: from neighbours moves every host time by up to 25% for minutes at a
#: time, while run-to-run spread in a quiet period is 4-10%.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sim_ips", "instr/s", "higher", 0.25),
    ("warm_wall_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("cache_mib", "MiB", "lower", 0.1),
]

STAGES = ("predict", "probe", "fetch", "backend_retire", "memory_fill", "prefetch")
"""Schedule stages whose share of profiled kernel self time is reported."""

#: (name, unit, better) -- from the traced pass.
PER_LAYER = [
    ("sweep.expand_s", "s", "lower"),
    ("sweep.merge_s", "s", "lower"),
    ("runner.busy_frac", "fraction", "higher"),
    ("runner.unit_p50_s", "s", "lower"),
    ("runner.unit_max_s", "s", "lower"),
    ("runner.batched_points", "count", "lower"),
    ("trace.materialize_s", "s", "lower"),
    ("trace.records_decoded", "count", "lower"),
    ("trace.chunk_hits", "count", "higher"),
    ("core.build_s", "s", "lower"),
    ("core.warmup_s", "s", "lower"),
    ("core.kernel_s", "s", "lower"),
    ("core.kernel_ns_per_cycle", "ns", "lower"),
    ("core.kernel_ns_per_instr", "ns", "lower"),
    ("core.typed_points", "count", "higher"),
    ("core.interp_points", "count", "lower"),
    ("core.batch_s", "s", "lower"),
    ("core.scalar_s", "s", "lower"),
    *[(f"kernel.stage.{stage}_share", "fraction", "lower") for stage in STAGES],
    ("cache.key_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("model.ipc_geomean", "instr/cycle", "higher"),
    ("model.cycles", "cycles", "lower"),
    ("model.branch_mpki", "1/kinstr", "lower"),
    ("model.l1i_mpki", "1/kinstr", "lower"),
    ("model.starvation_per_kilo", "1/kinstr", "lower"),
    ("model.tag_accesses_per_kilo", "1/kinstr", "lower"),
    ("model.prefetch_accuracy", "fraction", "higher"),
    ("model.prefetch_coverage", "fraction", "higher"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.overhead_frac", "fraction", "lower"),
    ("bench.residual_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
