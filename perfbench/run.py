"""Sweep-level benchmark: cold and warm ``repro sweep`` on three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload btb_pfc_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats dry-run + cold sweep + warm sweep subprocesses for
at least ``--seconds`` (and at least three times) and reports the
end-to-end metrics as medians over the repetitions.  ``--trace 1`` runs
one repetition for its ledger and checks, an untraced serial sweep, and
the in-process traced pass, and reports the per-layer metrics.  Either
way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

JOBS = 2
"""Pool workers for every parallel sweep, whatever the host's core count."""

MIN_REPS = 3

TRACED_SPANS = (
    "sweep.expand_s",
    "sweep.merge_s",
    "trace.materialize_s",
    "core.build_s",
    "core.warmup_s",
    "core.kernel_s",
    "cache.key_s",
    "cache.put_s",
    "cache.get_s",
)
"""Per-layer times inside the traced pass's wall, printed with their share."""

EXIT_USAGE = 2
EXIT_REFUSED = 3


def isolate_environment() -> None:
    """Drop inherited ``REPRO_*`` settings (workload set, windows, kernel,
    batching, checking, cache and ledger locations, ...)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def expected_points(spec_path: Path) -> tuple[dict[str, int], int]:
    """Point ID -> measurement window, and the simulated instructions
    (warmup plus measured) summed over every point."""
    from repro.experiments.spec import expand, load_spec

    points = expand(load_spec(spec_path))
    windows = {p.point_id: p.params.sim_instructions for p in points}
    total = sum(p.params.warmup_instructions + p.params.sim_instructions for p in points)
    return windows, total


def fmt(name: str, value, unit: str, note: str = "") -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:30s} {text:>14s} {unit}{note}"


def end_to_end(spec_path: Path, run_dir: Path, seconds: float, expected, total_instr):
    """Repeat the untraced sweep; medians of every end-to-end metric."""
    from perfbench.e2e import Verdict, check_rep, kernel_backends, load_rows, model_digest, sweep_rep

    reps = []
    verdict = Verdict()
    failed = 0
    backends: Counter = Counter()
    digests = set()
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        rep = sweep_rep(spec_path, run_dir / f"rep{len(reps)}", SRC, JOBS)
        rep_verdict = check_rep(rep, expected)
        failed += len(rep_verdict.failed)
        verdict.problems.extend(rep_verdict.problems)
        backends |= kernel_backends(rep.cache_dir)
        digests.add(model_digest(load_rows(rep.cold_out)))
        shutil.rmtree(rep.cache_dir, ignore_errors=True)
        reps.append(rep)
        print(
            f"rep {len(reps)}: setup_s={' '.join(f'{t.seconds:.4f}' for t in rep.setups)} "
            f"wall_s={rep.cold.seconds:.4f} "
            f"warm_wall_s={' '.join(f'{t.seconds:.4f}' for t in rep.warms)} "
            f"peak_rss_kib={rep.cold.peak_rss_kib} cache_bytes={rep.cache_bytes}"
        )
    if len(digests) != 1:
        verdict.problems.append(f"model digest differs between repetitions: {sorted(digests)}")
    attempted = len(expected) * len(reps)
    wall = statistics.median(r.cold.seconds for r in reps)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(t.seconds for r in reps for t in r.setups),
        "sim_ips": total_instr / wall,
        "warm_wall_s": statistics.median(t.seconds for r in reps for t in r.warms),
        "peak_rss_mib": statistics.median(r.cold.peak_rss_kib for r in reps) / 1024,
        "cache_mib": statistics.median(r.cache_bytes for r in reps) / 2**20,
    }
    info = {
        "reps": len(reps),
        "backends": dict(backends),
        "digest": min(digests),
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, verdict, info


def traced(spec_path: Path, run_dir: Path, expected):
    """One ledgered repetition, an untraced serial sweep, the traced pass."""
    from perfbench.e2e import (
        check_rep,
        check_same_table,
        kernel_backends,
        load_rows,
        model_digest,
        run_timed,
        sweep_argv,
        sweep_env,
        sweep_rep,
    )
    from perfbench.traced import runner_metrics, traced_pass

    rep = sweep_rep(spec_path, run_dir / "rep0", SRC, JOBS)
    verdict = check_rep(rep, expected)
    # The traced pass runs every point scalar, so its untraced twin does too.
    serial_out = run_dir / "serial"
    serial_env = sweep_env(SRC, run_dir / "serial-cache", 1, None)
    serial_env["REPRO_BATCH"] = "0"
    serial = run_timed(sweep_argv(spec_path, serial_out), serial_env, run_dir / "serial.log")
    if serial.returncode != 0:
        verdict.problems.append(f"serial sweep exited with code {serial.returncode}")
    verdict.merge(check_same_table(serial_out, rep.cold_out, expected, "serial"))

    metrics = runner_metrics(rep.cold_ledger)
    layer_metrics, backends, traced_verdict = traced_pass(spec_path, run_dir / "traced", rep.cold_out)
    verdict.merge(traced_verdict)
    metrics.update(layer_metrics)
    metrics["bench.untraced_wall_s"] = serial.seconds
    metrics["bench.overhead_frac"] = metrics["bench.traced_wall_s"] / serial.seconds - 1
    info = {
        "reps": 1,
        "backends": dict(kernel_backends(rep.cache_dir) | Counter(backends)),
        "digest": model_digest(load_rows(rep.cold_out)),
        "failed_frac": len(verdict.failed) / len(expected),
    }
    return metrics, len(expected), len(verdict.failed), verdict, info


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return EXIT_USAGE
    isolate_environment()
    sys.path.insert(0, str(SRC))

    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import build_spec, write_spec
    from repro.core.typed import backend_name

    if backend_name() == "typed-compiled":
        print("perfbench: refusing to run on the typed-compiled kernel backend", file=sys.stderr)
        return EXIT_REFUSED

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
        spec = build_spec(args.workload, args.seed, ROOT, WORK / "inputs" / f"seed-{args.seed}")
        spec_path = write_spec(spec, run_dir / f"{args.workload}.json")
        expected, total_instr = expected_points(spec_path)
        print(
            f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
            f"python={platform.python_version()} nproc={os.cpu_count()} jobs={JOBS} "
            f"points={len(expected)}",
            flush=True,
        )
        if args.trace:
            metrics, attempted, failed, verdict, info = traced(spec_path, run_dir, expected)
            names = [name for name, *_ in PER_LAYER]
        else:
            metrics, attempted, failed, verdict, info = end_to_end(
                spec_path, run_dir, args.seconds, expected, total_instr
            )
            names = [name for name, *_ in END_TO_END]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if "typed-compiled" in info["backends"]:
        print("perfbench: a point ran on the typed-compiled backend; not reporting", file=sys.stderr)
        return EXIT_REFUSED

    backends = " ".join(f"{k}={v}" for k, v in sorted(info["backends"].items()))
    print(f"repetitions: {info['reps']}; kernel backends (points): {backends}")
    print(
        f"model digest {info['digest']} (simulated statistics; the model is "
        "unvalidated against hardware, so no error figure is given)"
    )
    traced_wall = metrics.get("bench.traced_wall_s")
    for name in names:
        note = ""
        if traced_wall and name in TRACED_SPANS:
            note = f"  ({metrics[name] / traced_wall:.1%} of traced wall)"
        print(fmt(name, metrics[name], UNITS[name], note))
    print(fmt("failed_frac", info["failed_frac"], "fraction", f"  ({failed} of {attempted} points)"))
    for problem in verdict.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not verdict.problems and failed == 0
    print(f"checks: {'ok' if correct else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
