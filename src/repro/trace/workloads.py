"""Workload catalogue.

Mirrors the IPC-1 benchmark mix the paper evaluates (Section V):
*server* traces with instruction footprints far exceeding the 32KB
L1I and large taken-branch footprints, *client* traces with moderate
footprints, and *spec* traces that are loop-heavy with smaller
footprints.  Each workload is a (ProgramSpec, seed) pair; programs and
oracle streams regenerate deterministically from the spec.

The paper selects workloads whose perfect-I-cache uplift exceeds 5%;
``tests/test_workloads.py`` asserts the same property for this
catalogue.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from repro.trace.cfg import Program, ProgramSpec, generate_program
from repro.trace.oracle import OracleStream, run_oracle
from repro.trace.source import (  # noqa: F401  (TRACE_SLACK re-exported)
    TRACE_SLACK,
    WorkloadSource,
    resolve_workload,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One catalogue entry: a named, seeded program shape.

    Implements the :class:`~repro.trace.source.WorkloadSource` protocol
    as the ``synthetic`` source: everything regenerates
    deterministically from ``(program_spec, seeds)``.
    """

    name: str
    category: str
    program_spec: ProgramSpec
    program_seed: int
    oracle_seed: int

    def __post_init__(self) -> None:
        if self.category not in ("server", "client", "spec"):
            raise ValueError(f"unknown category {self.category!r}")

    @property
    def source_kind(self) -> str:
        return "synthetic"

    def materialize(self, n_instructions: int) -> tuple[Program, OracleStream]:
        """Regenerate the program and run the oracle over the window."""
        program = generate_program(self.program_spec, self.program_seed)
        stream = run_oracle(program, n_instructions + TRACE_SLACK, self.oracle_seed)
        # Compile the fetch-block metadata eagerly so it is cached with
        # the trace: the sweep runner's workers materialise a chunk's
        # trace before timing any unit, so no unit's wall time includes
        # the compile, and every later unit on the trace reuses it.
        program.fetch_meta()
        return program, stream

    def expected_stream(self, n_instructions: int) -> OracleStream:
        """A fresh oracle run over a fresh program: the independent copy
        the differential checker replays against the simulator."""
        program = generate_program(self.program_spec, self.program_seed)
        return run_oracle(program, n_instructions + TRACE_SLACK, self.oracle_seed)

    def fingerprint_data(self) -> dict:
        return {
            "kind": "synthetic",
            "name": self.name,
            "category": self.category,
            "program_spec": dataclasses.asdict(self.program_spec),
            "program_seed": self.program_seed,
            "oracle_seed": self.oracle_seed,
        }

    def info(self) -> dict:
        return {
            "source": self.source_kind,
            "program_seed": self.program_seed,
            "oracle_seed": self.oracle_seed,
            "n_functions": self.program_spec.n_functions,
            "n_phases": self.program_spec.n_phases,
        }


def _server_spec(**overrides) -> ProgramSpec:
    """Large flat code footprint, deep call chains, hard branches."""
    base = ProgramSpec(
        n_functions=1200,
        blocks_per_function=(4, 13),
        instrs_per_block=(4, 12),
        cond_fraction=0.40,
        jump_fraction=0.07,
        call_fraction=0.22,
        indirect_jump_fraction=0.015,
        indirect_call_fraction=0.02,
        early_return_fraction=0.03,
        loops_per_function=(0, 1),
        loop_trip=(2, 10),
        frac_never_taken=0.28,
        frac_mostly_taken=0.39,
        frac_pattern=0.30,
        frac_random=0.03,
        n_phases=6,
        functions_per_phase=24,
        phase_repeats=1,
    )
    return dataclasses.replace(base, **overrides)


def _client_spec(**overrides) -> ProgramSpec:
    """Moderate footprint with more reuse than server."""
    base = ProgramSpec(
        n_functions=420,
        blocks_per_function=(4, 14),
        instrs_per_block=(4, 12),
        cond_fraction=0.44,
        jump_fraction=0.08,
        call_fraction=0.18,
        indirect_jump_fraction=0.02,
        indirect_call_fraction=0.02,
        early_return_fraction=0.03,
        loops_per_function=(0, 2),
        loop_trip=(3, 24),
        frac_never_taken=0.27,
        frac_mostly_taken=0.39,
        frac_pattern=0.32,
        frac_random=0.02,
        n_phases=5,
        functions_per_phase=55,
        phase_repeats=2,
    )
    return dataclasses.replace(base, **overrides)


def _spec_spec(**overrides) -> ProgramSpec:
    """Loop-heavy, smaller footprint, predictable branches (SPEC-like)."""
    base = ProgramSpec(
        n_functions=300,
        blocks_per_function=(8, 20),
        instrs_per_block=(5, 13),
        cond_fraction=0.48,
        jump_fraction=0.06,
        call_fraction=0.13,
        indirect_jump_fraction=0.01,
        indirect_call_fraction=0.01,
        early_return_fraction=0.02,
        loops_per_function=(1, 3),
        loop_trip=(8, 80),
        frac_never_taken=0.30,
        frac_mostly_taken=0.37,
        frac_pattern=0.31,
        frac_random=0.02,
        call_budget=600,
        n_phases=3,
        functions_per_phase=40,
        phase_repeats=1,
    )
    return dataclasses.replace(base, **overrides)


def default_workloads() -> list[WorkloadSpec]:
    """The full evaluation catalogue (8 workloads across 3 categories)."""
    return [
        WorkloadSpec("srv_web", "server", _server_spec(), 101, 9101),
        WorkloadSpec("srv_db", "server", _server_spec(n_functions=1400, functions_per_phase=28), 202, 9202),
        WorkloadSpec("srv_cache", "server", _server_spec(n_functions=1000, functions_per_phase=20, frac_random=0.06, frac_pattern=0.27), 303, 9303),
        WorkloadSpec("clt_browser", "client", _client_spec(), 404, 9404),
        WorkloadSpec("clt_media", "client", _client_spec(n_functions=520, phase_repeats=3), 505, 9505),
        WorkloadSpec("spc_int_a", "spec", _spec_spec(), 606, 9606),
        WorkloadSpec("spc_int_b", "spec", _spec_spec(n_functions=340, loop_trip=(6, 40), functions_per_phase=36), 707, 9707),
        WorkloadSpec("spc_fp", "spec", _spec_spec(n_functions=260, phase_repeats=2, frac_random=0.02, frac_pattern=0.31), 808, 9808),
    ]


def workload_by_name(name: str) -> WorkloadSource:
    """Look a workload up: catalogue, registry, or a trace file path.

    Synthetic catalogue names resolve to their :class:`WorkloadSpec`;
    registered external sources (and bare trace-file paths, which are
    auto-registered) resolve through
    :func:`repro.trace.source.resolve_workload`.
    """
    return resolve_workload(name)


@lru_cache(maxsize=32)
def _cached_trace(name: str, n_instructions: int) -> tuple[Program, OracleStream]:
    return resolve_workload(name).materialize(n_instructions)


def make_trace(
    workload: WorkloadSource | str, n_instructions: int
) -> tuple[Program, OracleStream]:
    """Materialise (program, oracle stream) for a workload.

    ``n_instructions`` is the window the simulator will commit; the
    stream carries :data:`TRACE_SLACK` extra instructions of run-ahead
    margin.  Results are cached per (workload, length) because every
    experiment configuration reuses the same trace.  The workload may
    be a source object, a catalogue/registered name, or a trace file
    path.
    """
    if isinstance(workload, str):
        return _cached_trace(workload, n_instructions)
    try:
        if resolve_workload(workload.name) == workload:
            return _cached_trace(workload.name, n_instructions)
    except KeyError:
        pass
    # An unregistered source object: materialise without the name memo
    # (a name lookup could resolve to a different source).
    return workload.materialize(n_instructions)
