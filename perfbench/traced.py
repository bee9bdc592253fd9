"""The traced pass: each layer's public functions, called serially in-process.

Every span is recorded here, around calls into the program; nothing
inside the program is instrumented.  Spans accumulate seconds per name
in memory and are read out when the pass ends.

The pass covers every point of the spec, in expansion order:

* ``sweep``   -- ``load_spec`` + ``expand``; ``merge_sweep`` on a copy of
  the cold run's shard manifest;
* ``trace``   -- ``make_trace`` (synthetic generation or ChampSim decode),
  with the decode counters from ``CACHE_STATS``;
* ``core``    -- ``Simulator(...)`` construction; ``functional_warmup``
  on a twin simulator built from the same inputs; ``Simulator.run``,
  whose time minus the twin's warmup is the cycle kernel;
* ``cache``   -- ``run_key``, ``ResultCache.put`` and ``ResultCache.get``.

After it, and outside its wall time, two experiments run:
``simulate_batch`` against scalar runs of the same batchable points,
and the ``StageProfiler`` over one point of each interpreted-kernel
config.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from perfbench.e2e import Verdict, ledger_events, load_rows, same_tables
from perfbench.metrics import STAGES
from perfbench.workloads import TABLE_METRICS


class Spans:
    """Seconds accumulated per span name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


def resolve(params):
    """The runner's environment resolution, through its public functions."""
    from repro.experiments.runner import (
        resolve_check_mode,
        resolve_kernel_mode,
        resolve_warmup_mode,
    )

    return resolve_kernel_mode(resolve_check_mode(resolve_warmup_mode(params)))


def runner_metrics(ledger_dir: Path) -> dict[str, float]:
    """Pool occupancy and work-unit times from a cold sweep's run ledger.

    Busy fraction is the summed unit wall time over jobs x sweep wall.
    """
    from repro.common.ledger import summarize_ledger

    events = ledger_events(ledger_dir) or []
    summary = summarize_ledger(events)
    units: dict[str, float] = {}
    batched = 0
    for event in events:
        if event["event"] == "finished":
            units[event["unit"]] = event["wall_seconds"]
            batched += event.get("unit_size", 1) > 1
    jobs = summary["config"].get("jobs") or 1
    duration = summary["duration_seconds"] or 0.0
    walls = list(units.values()) or [0.0]
    return {
        "runner.busy_frac": sum(walls) / (jobs * duration) if duration else 0.0,
        "runner.unit_p50_s": statistics.median(walls),
        "runner.unit_max_s": max(walls),
        "runner.batched_points": batched,
    }


def _same_result(a, b) -> bool:
    return (a.instructions, a.cycles, a.stats.as_dict()) == (
        b.instructions,
        b.cycles,
        b.stats.as_dict(),
    )


def traced_pass(spec_path: Path, work: Path, cold_out: Path) -> tuple[dict, dict, Verdict]:
    """Run the traced pass; returns (metrics, kernel backend counts, verdict).

    ``cold_out`` holds the cold sweep's outputs: its shard manifest is
    merged again here, and its table is the reference every in-process
    result must match exactly.
    """
    from repro.common.stats import amean, geomean
    from repro.core.simulator import Simulator
    from repro.core.warmup import functional_warmup
    from repro.experiments.cache import (
        CACHE_STATS,
        ResultCache,
        params_fingerprint,
        run_key,
    )
    from repro.experiments.spec import expand, load_spec, metric_value
    from repro.experiments.sweep import merge_sweep
    from repro.trace.source import clear_registered_workloads
    from repro.trace.workloads import make_trace

    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    verdict = Verdict()
    spans = Spans()
    counters_before = CACHE_STATS.as_dict()

    # Cold lookup caches: the sweep process starts with none.
    clear_registered_workloads()
    params_fingerprint.cache_clear()

    start = time.perf_counter()
    with spans("sweep.expand_s"):
        spec = load_spec(spec_path)
        points = expand(spec)

    results = {}
    resolved = {}
    backends: dict[str, int] = defaultdict(int)
    for point in points:
        params = resolve(point.params)
        resolved[point.point_id] = params
        n = params.warmup_instructions + params.sim_instructions
        with spans("trace.materialize_s"):
            program, stream = make_trace(point.workload, n)
        with spans("core.build_s"):
            sim = Simulator(params, program, stream)
        if params.warmup_mode == "functional" and params.warmup_instructions > 0:
            with spans("twin_build_s"):
                twin = Simulator(params, program, stream)
            with spans("core.warmup_s"):
                functional_warmup(twin)
        with spans("run_s"):
            result = sim.run(point.workload)
        backends[sim.kernel_backend] += 1
        results[point.point_id] = result

    # The cache layer, with its key memo cleared as a fresh process has it.
    run_key.cache_clear()
    params_fingerprint.cache_clear()
    keys = {}
    with spans("cache.key_s"):
        for point in points:
            keys[point.point_id] = run_key(point.workload, resolved[point.point_id])
    cache = ResultCache(work / "cache")
    with spans("cache.put_s"):
        for point in points:
            cache.put(keys[point.point_id], results[point.point_id])
    with spans("cache.get_s"):
        for point in points:
            if cache.get(keys[point.point_id]) is None:
                verdict.fail({point.point_id}, "cache.get missed a point it just stored")

    merge_dir = work / "merge"
    merge_dir.mkdir(parents=True)
    for shard in cold_out.glob("shard-*-of-*.json"):
        shutil.copy(shard, merge_dir / shard.name)
    try:
        with spans("sweep.merge_s"):
            merge_sweep(spec, points, merge_dir)
    except ValueError as exc:
        verdict.problems.append(f"merge of the cold shard manifest failed: {exc}")
    traced_wall = time.perf_counter() - start

    counters = CACHE_STATS.as_dict()

    def delta(name: str) -> int:
        return counters.get(name, 0) - counters_before.get(name, 0)

    cold_rows = {row["point"]: row for row in load_rows(cold_out) or []}
    mismatched = {
        pid
        for pid, result in results.items()
        if pid not in cold_rows
        or any(metric_value(result, m) != cold_rows[pid][m] for m in TABLE_METRICS)
    }
    if mismatched:
        verdict.fail(mismatched, f"{len(mismatched)} in-process result(s) differ from the cold table")
    if not same_tables(merge_dir, cold_out):
        verdict.problems.append("re-merged table differs from the cold table")

    seconds = spans.seconds
    kernel_s = seconds["run_s"] - seconds["core.warmup_s"]
    all_results = list(results.values())
    cycles = sum(r.cycles for r in all_results)
    instructions = sum(r.instructions for r in all_results)
    metrics = {
        "sweep.expand_s": seconds["sweep.expand_s"],
        "sweep.merge_s": seconds["sweep.merge_s"],
        "trace.materialize_s": seconds["trace.materialize_s"],
        "trace.records_decoded": delta("trace_records_decoded"),
        "trace.chunk_hits": delta("trace_chunk_hit"),
        "core.build_s": seconds["core.build_s"],
        "core.warmup_s": seconds["core.warmup_s"],
        "core.kernel_s": kernel_s,
        "core.kernel_ns_per_cycle": kernel_s * 1e9 / cycles,
        "core.kernel_ns_per_instr": kernel_s * 1e9 / instructions,
        "core.typed_points": sum(n for b, n in backends.items() if b.startswith("typed")),
        "core.interp_points": backends.get("interp", 0),
        "cache.key_s": seconds["cache.key_s"],
        "cache.put_s": seconds["cache.put_s"],
        "cache.get_s": seconds["cache.get_s"],
        "cache.bytes_written": delta("cache_bytes_written"),
        "model.ipc_geomean": geomean(r.ipc for r in all_results),
        "model.cycles": cycles,
        "model.branch_mpki": amean(r.branch_mpki for r in all_results),
        "model.l1i_mpki": amean(r.l1i_mpki for r in all_results),
        "model.starvation_per_kilo": amean(r.starvation_per_kilo for r in all_results),
        "model.tag_accesses_per_kilo": amean(r.tag_accesses_per_kilo for r in all_results),
        "model.prefetch_accuracy": amean(r.prefetch_accuracy for r in all_results),
        "model.prefetch_coverage": amean(r.prefetch_coverage for r in all_results),
        "bench.traced_wall_s": traced_wall,
        "bench.residual_s": traced_wall - sum(seconds.values()),
    }
    metrics.update(batch_experiment(points, resolved, results, verdict))
    metrics.update(stage_shares(points, resolved))
    return metrics, dict(backends), verdict


def batch_experiment(points, resolved, results, verdict: Verdict) -> dict[str, float]:
    """``simulate_batch`` against scalar runs of the same batchable points.

    Both timed regions include picking the points the runner would
    batch (not typed-eligible, ``batchable``, grouped per workload and
    trace length in chunks of the runner's batch width); where no point
    qualifies, both read only that selection.  Batched results must
    equal the traced pass's scalar ones exactly.
    """
    from repro.core.batch import batchable, simulate_batch
    from repro.core.simulator import Simulator
    from repro.core.typed import typed_eligible
    from repro.experiments.runner import batch_width
    from repro.trace.workloads import make_trace

    def groups() -> list[tuple[str, list]]:
        by_trace: dict[tuple[str, int], list] = defaultdict(list)
        for point in points:
            params = resolved[point.point_id]
            if not typed_eligible(params) and batchable(params)[0]:
                n = params.warmup_instructions + params.sim_instructions
                by_trace[(point.workload, n)].append(point)
        width = batch_width()
        return [
            (workload, members[i : i + width])
            for (workload, _n), members in by_trace.items()
            for i in range(0, len(members), width)
            if len(members[i : i + width]) > 1
        ]

    start = time.perf_counter()
    batched = {}
    for workload, members in groups():
        out = simulate_batch(workload, [resolved[p.point_id] for p in members])
        batched.update(zip((p.point_id for p in members), out))
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    for workload, members in groups():
        for point in members:
            params = resolved[point.point_id]
            program, stream = make_trace(workload, params.warmup_instructions + params.sim_instructions)
            Simulator(params, program, stream).run(workload)
    scalar_s = time.perf_counter() - start

    differ = {pid for pid, result in batched.items() if not _same_result(result, results[pid])}
    if differ:
        verdict.fail(differ, f"{len(differ)} batched result(s) differ from scalar runs")
    return {"core.batch_s": batch_s, "core.scalar_s": scalar_s}


def stage_shares(points, resolved) -> dict[str, float]:
    """Share of profiled kernel self time per schedule stage.

    Profiles the first workload's point of each config that runs the
    interpreted kernel; 0 for every stage where no point does.
    """
    from repro.core.prof import StageProfiler
    from repro.core.simulator import simulate
    from repro.core.typed import typed_eligible

    acc: dict[str, int] = defaultdict(int)
    seen_labels = set()
    for point in points:
        params = resolved[point.point_id]
        if typed_eligible(params) or point.label in seen_labels:
            continue
        seen_labels.add(point.label)
        profiler = StageProfiler()
        simulate(point.workload, params, profiler=profiler)
        for name, ns in zip(profiler.point_names, profiler.acc):
            acc[name] += ns
    total = sum(acc.values())
    return {
        f"kernel.stage.{stage}_share": (acc[stage] / total if total else 0.0) for stage in STAGES
    }
