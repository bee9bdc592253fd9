"""The benchmark's three workloads, written as sweep specs.

Each workload is one declarative ``repro sweep`` spec, chosen so that a
different layer carries most of the cost:

* ``btb_pfc_sweep`` -- Fig 7's BTB-size x PFC matrix.  Every point runs
  the typed cycle kernel with no dedicated prefetcher, so host time is
  almost all kernel and branch-predictor work; trace and cache costs
  are amortised over twelve configs per trace.
* ``prefetch_shootout`` -- the shape of Figs 6a and 9: FTQ size x
  dedicated prefetcher.  The only workload whose points run the
  interpreted schedule kernel, ``repro.prefetch`` and the runner's
  lockstep batching.
* ``trace_scan`` -- every catalogue workload plus seeded ChampSim traces
  and the committed golden fixture, at short windows with only two
  configs each, so trace materialisation, pool dispatch and cache
  writes are not amortised.  The only workload that runs the ChampSim
  decoder.

The windows are scaled down from the figures' 25K + 60K so that one
cold sweep takes a few seconds at two workers; the matrix shapes are
the figures' own.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

TABLE_METRICS = [
    "ipc",
    "cycles",
    "instructions",
    "branch_mpki",
    "l1i_mpki",
    "starvation_per_kilo",
    "tag_accesses_per_kilo",
    "prefetch_accuracy",
    "prefetch_coverage",
]
"""Columns of every merged table: the model statistics the digest covers,
plus ``instructions`` for the full-window check."""

WORKLOADS = {
    "btb_pfc_sweep": "Fig 7 matrix: typed kernel and branch predictor dominate; trace and cache barely show",
    "prefetch_shootout": "Figs 6a/9 shape: only workload on the interpreted kernel, prefetchers and lockstep batching",
    "trace_scan": "many traces, two configs each: trace materialisation, ChampSim decode and pool dispatch show",
}

SEEDED_TRACES = 16
"""ChampSim traces ``trace_scan`` encodes from the seed (plus the golden fixture)."""

GOLDEN_FIXTURE = Path("tests") / "data" / "golden.champsim.xz"
"""Committed ChampSim fixture, relative to the checkout root."""


def _spec(name: str, workloads, warmup: int, sim: int, matrix: dict, exclude=()) -> dict:
    spec = {
        "sweep": name,
        "workloads": workloads,
        "base": {"warmup_instructions": warmup, "sim_instructions": sim},
        "matrix": matrix,
        "output": {"metrics": TABLE_METRICS},
    }
    if exclude:
        spec["exclude"] = list(exclude)
    return spec


def seeded_traces(seed: int, out_dir: Path, n_instructions: int) -> list[dict]:
    """Encode ``SEEDED_TRACES`` synthetic programs as ChampSim files.

    Each trace takes a catalogue program shape with program and oracle
    seeds drawn from ``seed``, runs the oracle for ``n_instructions``
    and writes the stream with
    :func:`repro.trace.champsim.write_champsim_trace`, alternating xz and
    gzip so both decompressors run.  Files already present for this
    seed are reused, so generation stays out of every timed region.
    Returns the spec's workload entries.
    """
    from repro.trace.cfg import generate_program
    from repro.trace.champsim import write_champsim_trace
    from repro.trace.oracle import run_oracle
    from repro.trace.workloads import default_workloads

    catalogue = default_workloads()
    rng = random.Random(seed)
    entries = []
    for i in range(SEEDED_TRACES):
        shape = catalogue[i % len(catalogue)]
        program_seed = rng.randrange(1, 2**31)
        oracle_seed = rng.randrange(1, 2**31)
        suffix = "xz" if i % 2 == 0 else "gz"
        name = f"cs{i}_{shape.name}"
        path = out_dir / f"{name}.champsim.{suffix}"
        if not path.is_file():
            program = generate_program(shape.program_spec, program_seed)
            stream = run_oracle(program, n_instructions, oracle_seed)
            tmp = path.with_name(f"tmp{os.getpid()}-{path.name}")
            write_champsim_trace(tmp, stream)
            tmp.replace(path)
        entries.append({"name": name, "trace": str(path)})
    return entries


def build_spec(workload: str, seed: int, root: Path, inputs_dir: Path) -> dict:
    """The sweep spec for one benchmark workload.

    ``root`` is the checkout root (for the golden fixture); seeded
    trace files are written under ``inputs_dir``.
    """
    if workload == "btb_pfc_sweep":
        return _spec(
            workload,
            "quick",
            6_000,
            15_000,
            {
                "branch.btb_entries": [256, 512, 1024, 2048, 8192, 32768],
                "frontend.pfc_enabled": [False, True],
            },
        )
    if workload == "prefetch_shootout":
        return _spec(
            workload,
            "quick",
            6_000,
            15_000,
            {
                "frontend.ftq_entries": [2, 24],
                "prefetcher": ["none", "nl1", "eip27", "djolt", "fnl_mma"],
            },
        )
    if workload == "trace_scan":
        from repro.trace.source import TRACE_SLACK
        from repro.trace.workloads import default_workloads

        warmup, sim = 2_000, 8_000
        inputs_dir.mkdir(parents=True, exist_ok=True)
        traces = seeded_traces(seed, inputs_dir, warmup + sim + TRACE_SLACK + 2)
        golden = {"name": "golden", "trace": str(root / GOLDEN_FIXTURE)}
        return _spec(
            workload,
            [w.name for w in default_workloads()] + traces + [golden],
            warmup,
            sim,
            {"frontend.ftq_entries": [2, 24], "frontend.pfc_enabled": [False, True]},
            # FDP (24 entries + PFC) against no FDP (2 entries, no PFC).
            exclude=[
                {"frontend.ftq_entries": 2, "frontend.pfc_enabled": True},
                {"frontend.ftq_entries": 24, "frontend.pfc_enabled": False},
            ],
        )
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_spec(spec: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path
