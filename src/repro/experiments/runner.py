"""Cached simulation runner and aggregation helpers.

Every figure shares the same baselines, so results are memoised at two
levels: an in-process dict and the persistent on-disk cache
(:mod:`repro.experiments.cache`).  Both are keyed by the same stable
content hash of ``(workload, SimParams)``, so equal-but-distinct
parameter objects built via ``dataclasses.replace`` always hit.

:func:`run_matrix` fans uncached (workload, configuration) points
across a ``concurrent.futures.ProcessPoolExecutor``; the simulator is
deterministic by seed, so parallel results are bit-identical to serial
ones.  Worker count comes from ``REPRO_JOBS`` (default
``os.cpu_count()``; ``1`` keeps everything in-process).

Aggregation follows the paper's reporting (Section V): geometric mean
for IPC speedups, arithmetic mean for per-kilo-instruction metrics.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.common.ledger import open_ledger
from repro.common.log import configure as configure_logging
from repro.common.log import current_level_name, get_logger
from repro.common.params import WARMUP_MODES, SimParams
from repro.common.stats import amean, geomean
from repro.core.batch import batch_width  # noqa: F401 - imported by perfbench/traced.py
from repro.core.build import resolve_components
from repro.core.metrics import RunResult
from repro.core.simulator import simulate
from repro.experiments.cache import CACHE_STATS, ResultCache, cache_enabled, run_key
from repro.experiments.configs import repro_jobs
from repro.trace.workloads import make_trace

_CACHE: dict[str, RunResult] = {}
"""In-process memo, keyed by the stable content hash (run_key)."""

log = get_logger("experiments.runner")


def _disk() -> ResultCache | None:
    return ResultCache() if cache_enabled() else None


def _peak_rss_kib() -> int | None:
    """This process's peak resident-set size in KiB (None if unavailable)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX platform
        return None


def _unit_meta(started_ts: float, wall: float, instructions: int) -> dict:
    """Execution metadata one work unit reports back to the parent.

    Feeds the run ledger (``started``/``finished`` events) and the
    provenance manifests the disk cache writes alongside results.
    """
    return {
        "pid": os.getpid(),
        "started_ts": started_ts,
        "wall_seconds": wall,
        "instructions": instructions,
        "peak_rss_kib": _peak_rss_kib(),
    }


def _simulate_unit(workload: str, params: SimParams) -> tuple[RunResult, dict]:
    """Worker entry point: one simulation plus its execution metadata
    (top-level for pickling)."""
    started_ts = time.time()
    t0 = time.perf_counter()
    result = simulate(workload, params)
    wall = time.perf_counter() - t0
    n = params.warmup_instructions + params.sim_instructions
    return result, _unit_meta(started_ts, wall, n)


def _pool_worker_init(log_level: str) -> None:
    """Pool-worker initializer: inherit the parent's logging config.

    Workers spawned by ``ProcessPoolExecutor`` start with unconfigured
    logging on spawn-based platforms (and would silently drop
    ``--log-level debug`` diagnostics); the parent threads its effective
    level through so worker-side messages surface identically.
    """
    configure_logging(log_level)


def resolve_warmup_mode(params: SimParams) -> SimParams:
    """Resolve ``warmup_mode="auto"`` for sweep execution.

    The sweep runner defaults to functional fast-forward warmup
    (``REPRO_WARMUP_MODE`` overrides, e.g. ``cycle`` to recover the old
    behaviour).  Resolution happens *before* cache keys are computed,
    so cached results are always tagged with the concrete mode and the
    two modes never share entries.  Explicit modes pass through.
    """
    if params.warmup_mode != "auto":
        return params
    mode = os.environ.get("REPRO_WARMUP_MODE", "functional").strip().lower()
    if mode == "auto" or mode not in WARMUP_MODES:
        raise ValueError(
            f"REPRO_WARMUP_MODE must be 'cycle' or 'functional', got {mode!r}"
        )
    return params.replace(warmup_mode=mode)


def resolve_check_mode(params: SimParams) -> SimParams:
    """Apply the ``REPRO_CHECK`` invariant-checking override.

    ``REPRO_CHECK=1`` forces every sweep simulation to run with the
    runtime invariant layer on (``SimParams.check_invariants``) -- a
    whole-experiment self-check mode.  Like warmup-mode resolution this
    happens *before* cache keys are computed; checked runs are
    bit-identical to unchecked ones but never share cache entries, so a
    checked sweep actually re-executes every point under the checker.
    """
    raw = os.environ.get("REPRO_CHECK", "").strip().lower()
    if raw in ("", "0", "false", "no"):
        return params
    if raw not in ("1", "true", "yes"):
        raise ValueError(f"REPRO_CHECK must be a boolean flag, got {raw!r}")
    if params.check_invariants:
        return params
    return params.replace(check_invariants=True)


def resolve_kernel_mode(params: SimParams) -> SimParams:
    """``params`` unchanged: there is one cycle kernel to resolve to.

    Kept only because the sweep benchmark (``perfbench/traced.py``)
    still calls it.
    """
    return params


def _resolve(params: SimParams) -> SimParams:
    """All environment overrides, in cache-key order.

    Also resolves every registry-named component up front, so an
    unknown prefetcher/predictor/BTB-variant name fails fast in the
    submitting process instead of inside a sweep worker.
    """
    resolve_components(params)
    return resolve_check_mode(resolve_warmup_mode(params))


def run_config(workload: str, params: SimParams) -> RunResult:
    """Simulate (memoised + disk-cached) one workload configuration."""
    params = _resolve(params)
    key = run_key(workload, params)
    result = _CACHE.get(key)
    if result is not None:
        CACHE_STATS.bump("cache_memo_hit")
        return result
    disk = _disk()
    if disk is not None:
        result = disk.get(key)
        if result is not None:
            _CACHE[key] = result
            return result
    CACHE_STATS.bump("sim_runs")
    result, meta = _simulate_unit(workload, params)
    _CACHE[key] = result
    if disk is not None:
        disk.put(key, result, meta=_manifest_meta(meta))
    return result


def clear_cache() -> None:
    """Drop memoised results (tests use this for isolation).

    Only the in-process memo is dropped; the on-disk cache is managed
    separately (``repro cache clear`` / :class:`ResultCache.clear`).
    """
    _CACHE.clear()


def cache_size() -> int:
    """Number of memoised (workload, params) results."""
    return len(_CACHE)


def _workload_name(workload) -> str:
    """Catalogue name of a workload argument (string or explicit spec)."""
    return workload if isinstance(workload, str) else workload.name


def _manifest_meta(meta: dict) -> dict:
    """Provenance-manifest fields derived from one unit's execution meta."""
    return {
        "wall_seconds": meta["wall_seconds"],
        "peak_rss_kib": meta["peak_rss_kib"],
        "worker_pid": meta["pid"],
    }


def run_points(
    points: Iterable[tuple[str, SimParams]],
    jobs: int | None = None,
    ledger_context: dict | None = None,
) -> dict[str, RunResult]:
    """Resolve many (workload, params) points, in parallel when allowed.

    Returns ``{run_key: RunResult}`` covering every requested point.
    Cached points (memo or disk) never re-simulate; the remainder fans
    out across a process pool when ``jobs`` (default ``REPRO_JOBS``)
    exceeds 1 and more than one simulation is pending.

    With ``REPRO_LEDGER`` set, every deduplicated point's lifecycle is
    journalled to a run-ledger JSONL file (``queued`` ->
    ``cache_hit`` | ``started`` -> ``finished`` | ``failed``); the
    ledger only observes, so ledgered sweeps stay bit-identical to
    plain ones.  When a work unit raises, the remaining units still run
    (so the ledger reconciles) and the first failure re-raises after
    the sweep drains.  That includes a workload whose trace fails to
    materialise: its points fail, the rest of the sweep still runs.
    """
    jobs = repro_jobs() if jobs is None else max(1, jobs)
    disk = _disk()
    ledger = open_ledger(context=ledger_context)
    if ledger is not None:
        ledger.begin(jobs=jobs)

    resolved: dict[str, RunResult] = {}
    pending: dict[str, tuple[str, SimParams]] = {}
    n_hits = 0
    for workload, params in points:
        params = _resolve(params)
        key = run_key(workload, params)
        if key in resolved or key in pending:
            continue
        if ledger is not None:
            ledger.queued(key, _workload_name(workload), params.label())
        result = _CACHE.get(key)
        if result is not None:
            CACHE_STATS.bump("cache_memo_hit")
            resolved[key] = result
            n_hits += 1
            if ledger is not None:
                ledger.cache_hit(key, _workload_name(workload), params.label(), "memo")
            continue
        if disk is not None:
            result = disk.get(key)
            if result is not None:
                _CACHE[key] = result
                resolved[key] = result
                n_hits += 1
                if ledger is not None:
                    ledger.cache_hit(key, _workload_name(workload), params.label(), "disk")
                continue
        pending[key] = (workload, params)

    log.debug(
        "run_points: %d point(s) resolved from cache, %d pending",
        len(resolved),
        len(pending),
    )
    if not pending:
        if ledger is not None:
            ledger.end(queued=n_hits, cache_hits=n_hits, finished=0, failed=0)
        return resolved

    CACHE_STATS.bump("sim_runs", len(pending))
    units = [(f"u{i}", key) for i, key in enumerate(pending)]
    n_finished = 0
    n_failed = 0
    failure: BaseException | None = None

    def _record_unit(unit_id: str, key: str, result: RunResult, meta: dict) -> None:
        nonlocal n_finished
        workload, params = pending[key]
        resolved[key] = result
        _CACHE[key] = result
        if disk is not None:
            disk.put(key, result, meta=_manifest_meta(meta))
        n_finished += 1
        if ledger is not None:
            name = _workload_name(workload)
            ledger.started(key, name, unit_id, meta["pid"], meta["started_ts"])
            wall = meta["wall_seconds"]
            ledger.finished(
                key,
                name,
                params.label(),
                unit_id,
                meta["pid"],
                wall,
                meta["instructions"],
                meta["instructions"] / wall if wall > 0 else 0.0,
                result.ipc,
            )

    def _record_failure(unit_id: str, key: str, exc: BaseException) -> None:
        nonlocal n_failed, failure
        n_failed += 1
        if failure is None:
            failure = exc
        log.error("work unit %s failed: %s", unit_id, exc)
        if ledger is not None:
            workload, params = pending[key]
            ledger.failed(key, _workload_name(workload), params.label(), unit_id, str(exc))

    if jobs > 1 and len(units) > 1:
        log.debug("fanning %d work unit(s) across %d worker(s)", len(units), jobs)
        # Pre-generate the needed traces so forked workers inherit warm
        # lru_caches instead of regenerating per process.  A trace that
        # fails here fails the units that need it, as it would in them.
        broken: dict[tuple[str, int], BaseException] = {}
        runnable = []
        for unit_id, key in units:
            workload, params = pending[key]
            n = params.warmup_instructions + params.sim_instructions
            trace = (_workload_name(workload), n)
            if trace not in broken:
                try:
                    make_trace(workload, n)
                except Exception as exc:
                    broken[trace] = exc
            if trace in broken:
                _record_failure(unit_id, key, broken[trace])
            else:
                runnable.append((unit_id, key))
        if runnable:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(runnable)),
                initializer=_pool_worker_init,
                initargs=(current_level_name(),),
            ) as pool:
                futures = {
                    pool.submit(_simulate_unit, *pending[key]): (unit_id, key)
                    for unit_id, key in runnable
                }
                for future in as_completed(futures):
                    unit_id, key = futures[future]
                    try:
                        result, meta = future.result()
                    except Exception as exc:
                        _record_failure(unit_id, key, exc)
                        continue
                    _record_unit(unit_id, key, result, meta)
    else:
        for unit_id, key in units:
            try:
                result, meta = _simulate_unit(*pending[key])
            except Exception as exc:
                _record_failure(unit_id, key, exc)
                continue
            _record_unit(unit_id, key, result, meta)

    if ledger is not None:
        ledger.end(
            queued=n_hits + len(pending),
            cache_hits=n_hits,
            finished=n_finished,
            failed=n_failed,
        )
    if failure is not None:
        raise failure
    return resolved


def run_matrix(
    configs: Mapping[str, SimParams],
    workloads: Iterable[str],
    jobs: int | None = None,
) -> dict[str, dict[str, RunResult]]:
    """Run every (config, workload) pair; returns results[label][workload]."""
    workloads = list(workloads)
    by_key = run_points(
        ((wl, params) for params in configs.values() for wl in workloads),
        jobs=jobs,
    )
    return {
        label: {wl: by_key[run_key(wl, _resolve(params))] for wl in workloads}
        for label, params in configs.items()
    }


def geomean_speedup(
    results: Mapping[str, Mapping[str, RunResult]],
    label: str,
    baseline_label: str,
) -> float:
    """Geometric-mean IPC speedup of ``label`` over ``baseline_label``."""
    rows = results[label]
    base = results[baseline_label]
    return geomean([rows[wl].ipc / base[wl].ipc for wl in rows])


def mean_metric(
    results: Mapping[str, Mapping[str, RunResult]],
    label: str,
    metric: str,
) -> float:
    """Arithmetic mean of a :class:`RunResult` property across workloads."""
    rows = results[label]
    return amean([getattr(r, metric) for r in rows.values()])
