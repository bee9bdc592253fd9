"""Synthetic program generation.

A :class:`Program` is a static code image: functions made of basic
blocks laid out contiguously in a byte-addressed code region, exactly
like the text segment the paper's frontend fetches from.  Programs are
generated from a :class:`ProgramSpec` with a seeded RNG, so a given
(spec, seed) pair always yields the same image.

Structural guarantees (they make the oracle interpreter total):

* the call graph is a DAG -- a function only calls higher-indexed
  functions, so there is no recursion;
* within a function, all control flow moves forward except designated
  counted-loop back-edges, whose :class:`~repro.trace.behaviors.LoopBehaviour`
  eventually falls through; hence every call returns;
* function 0 (``main``) is a phase driver that cycles forever over
  groups of callees -- the oracle stops it by instruction count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import SplitMix64
from repro.isa.instructions import BranchKind, Instruction
from repro.trace.behaviors import (
    BiasedBehaviour,
    CondBehaviour,
    IndirectBehaviour,
    LoopBehaviour,
    PatternBehaviour,
)

_FUNC_ALIGN = 64


@dataclass(frozen=True)
class ProgramSpec:
    """Shape parameters for synthetic program generation.

    The behaviour-mixture fields must sum to 1; they control how hard
    the conditional branches are for a direction predictor, which in
    turn sets the workload's branch MPKI.
    """

    n_functions: int = 60
    blocks_per_function: tuple[int, int] = (4, 14)
    instrs_per_block: tuple[int, int] = (3, 9)

    # Terminator mixture for non-final blocks (remainder is plain
    # fall-through). Final blocks always return.
    cond_fraction: float = 0.45
    jump_fraction: float = 0.08
    call_fraction: float = 0.18
    indirect_jump_fraction: float = 0.02
    indirect_call_fraction: float = 0.02
    early_return_fraction: float = 0.03

    # Counted loops per function.
    loops_per_function: tuple[int, int] = (0, 2)
    loop_trip: tuple[int, int] = (4, 40)

    # Conditional behaviour mixture.
    frac_never_taken: float = 0.25
    frac_mostly_taken: float = 0.30
    frac_pattern: float = 0.30
    frac_random: float = 0.15
    pattern_len: tuple[int, int] = (3, 9)
    bias_epsilon: float = 0.03
    """Residual flip probability of 'biased' branches."""

    indirect_fanout: tuple[int, int] = (2, 5)
    indirect_random_fraction: float = 0.25
    """Fraction of indirect branches whose target choice is random."""

    call_budget: int = 400
    """Worst-case dynamic instruction cost a callee may have.  Functions
    are generated leaf-first with their worst-case cost tracked; call
    sites only target functions under this budget, which bounds the cost
    of any call subtree and keeps per-phase execution length stable
    (without it, call cascades have heavy-tailed costs that let a single
    phase member absorb an entire trace)."""

    # main() phase driver.
    n_phases: int = 4
    functions_per_phase: int = 10
    phase_repeats: int = 6

    base_addr: int = 0x10_0000

    def __post_init__(self) -> None:
        if self.n_functions < 2:
            raise ValueError("need main plus at least one callee")
        mixture = (
            self.cond_fraction
            + self.jump_fraction
            + self.call_fraction
            + self.indirect_jump_fraction
            + self.indirect_call_fraction
            + self.early_return_fraction
        )
        if mixture > 1.0 + 1e-9:
            raise ValueError("terminator fractions exceed 1")
        beh = self.frac_never_taken + self.frac_mostly_taken + self.frac_pattern + self.frac_random
        if abs(beh - 1.0) > 1e-6:
            raise ValueError("behaviour fractions must sum to 1")
        for lo, hi in (
            self.blocks_per_function,
            self.instrs_per_block,
            self.loop_trip,
            self.pattern_len,
            self.indirect_fanout,
            self.loops_per_function,
        ):
            if lo > hi or lo < 0:
                raise ValueError("range bounds must satisfy 0 <= lo <= hi")
        if self.blocks_per_function[0] < 2:
            raise ValueError("functions need at least 2 blocks")
        if self.instrs_per_block[0] < 1:
            raise ValueError("blocks need at least 1 instruction")
        if self.base_addr % _FUNC_ALIGN:
            raise ValueError("base_addr must be 64-byte aligned")


@dataclass(slots=True)
class BlockDef:
    """One basic block in the final, address-assigned program.

    ``start`` is the address of the first instruction; the terminator
    (if ``kind`` is a branch) is the *last* instruction of the block.
    ``target`` is the direct-branch destination; ``targets`` lists the
    candidate destinations of an indirect terminator.
    """

    start: int
    n_instrs: int
    kind: BranchKind = BranchKind.NONE
    target: int = 0
    behaviour: int = -1
    targets: tuple[int, ...] = ()

    @property
    def term_addr(self) -> int:
        """Address of the block's last (terminator) instruction."""
        return self.start + 4 * (self.n_instrs - 1)

    @property
    def fall_addr(self) -> int:
        """Address immediately after the block (sequential successor)."""
        return self.start + 4 * self.n_instrs


@dataclass(frozen=True)
class FunctionInfo:
    """Descriptive record of one laid-out function."""

    index: int
    start: int
    end: int
    n_blocks: int
    n_instrs: int


@dataclass
class Program:
    """A generated static code image plus its dynamic behaviour tables."""

    spec: ProgramSpec
    entry: int
    blocks: dict[int, BlockDef]
    branches: dict[int, Instruction]
    behaviours: list[CondBehaviour | IndirectBehaviour]
    functions: list[FunctionInfo]
    code_start: int
    code_end: int
    block_of_term: dict[int, int] = field(default_factory=dict)
    _fetch_meta: object = field(default=None, repr=False, compare=False)
    """Lazily compiled :class:`~repro.trace.fbmeta.FetchBlockMeta`."""

    def fetch_meta(self):
        """The program's precompiled fetch-block metadata (memoized).

        Compiled once per program; the image is immutable, so the flat
        arrays stay valid for the program's lifetime and are shared by
        every simulator bound to it (including forked sweep workers).
        """
        meta = self._fetch_meta
        if meta is None:
            from repro.trace.fbmeta import FetchBlockMeta

            meta = FetchBlockMeta(self)
            self._fetch_meta = meta
        return meta

    def instruction_at(self, addr: int) -> Instruction | None:
        """Return the branch instruction at ``addr``, or None for non-branches.

        Models pre-decode of fetched bytes: addresses outside the code
        region or between branches decode as plain instructions.
        """
        return self.branches.get(addr)

    def in_code(self, addr: int) -> bool:
        return self.code_start <= addr < self.code_end

    def reset_behaviours(self) -> None:
        """Reset all behaviour state so an oracle run starts fresh."""
        for beh in self.behaviours:
            beh.reset()

    @property
    def footprint_bytes(self) -> int:
        return self.code_end - self.code_start

    @property
    def static_instructions(self) -> int:
        return sum(f.n_instrs for f in self.functions)

    @property
    def static_branches(self) -> int:
        return len(self.branches)

    def static_taken_candidates(self) -> int:
        """Static branches that can ever be taken (everything that is not
        a never-taken biased conditional); approximates the taken-branch
        BTB footprint."""
        count = 0
        for instr in self.branches.values():
            if not instr.kind.is_conditional:
                count += 1
                continue
            if not 0 <= instr.behaviour < len(self.behaviours):
                # Trace-reconstructed images carry no behaviour table;
                # every observed conditional counts as a taken candidate.
                count += 1
                continue
            beh = self.behaviours[instr.behaviour]
            if isinstance(beh, BiasedBehaviour) and beh.p_taken <= 0.05:
                continue
            count += 1
        return count


@dataclass(slots=True)
class _ProtoBlock:
    """Pass-1 block: indices instead of addresses."""

    n_instrs: int
    kind: BranchKind = BranchKind.NONE
    target_block: int = -1
    callee: int = -1
    callees: tuple[int, ...] = ()
    target_blocks: tuple[int, ...] = ()
    behaviour: int = -1


def _make_cond_behaviour(spec: ProgramSpec, rng: SplitMix64) -> CondBehaviour:
    """Draw one conditional behaviour from the spec's mixture."""
    roll = rng.random()
    if roll < spec.frac_never_taken:
        return BiasedBehaviour(spec.bias_epsilon)
    roll -= spec.frac_never_taken
    if roll < spec.frac_mostly_taken:
        return BiasedBehaviour(1.0 - spec.bias_epsilon)
    roll -= spec.frac_mostly_taken
    if roll < spec.frac_pattern:
        length = rng.randint(*spec.pattern_len)
        pattern = tuple(rng.chance(0.5) for _ in range(length))
        # Degenerate all-same patterns are just biased branches; force a flip.
        if all(pattern) or not any(pattern):
            pattern = pattern[:-1] + (not pattern[-1],)
        return PatternBehaviour(pattern)
    return BiasedBehaviour(0.35 + 0.3 * rng.random())


def _generate_function(
    spec: ProgramSpec,
    rng: SplitMix64,
    behaviours: list,
    wcost: list[int],
    callees_desc: list[int],
) -> tuple[list[_ProtoBlock], int]:
    """Pass 1: build one callee function as proto-blocks.

    Functions are generated leaf-first (highest index first); ``wcost``
    holds the worst-case dynamic instruction cost of already-generated
    higher-index functions, and call sites only target callees whose
    cost fits :attr:`ProgramSpec.call_budget`.  ``callees_desc`` lists
    those eligible callees in descending index order (the caller
    appends each function once generated), so draws index it from the
    end to pick from the ascending list.  Returns the proto-blocks and
    this function's own worst-case cost.
    """
    n_blocks = rng.randint(*spec.blocks_per_function)
    protos = [_ProtoBlock(n_instrs=rng.randint(*spec.instrs_per_block)) for _ in range(n_blocks)]
    protos[-1].kind = BranchKind.RETURN
    n_eligible = len(callees_desc)

    for i in range(n_blocks - 1):
        block = protos[i]
        later = list(range(i + 1, n_blocks))
        roll = rng.random()
        if roll < spec.cond_fraction and later:
            block.kind = BranchKind.COND_DIRECT
            block.target_block = rng.choice(later)
            behaviours.append(_make_cond_behaviour(spec, rng))
            block.behaviour = len(behaviours) - 1
        elif roll < spec.cond_fraction + spec.jump_fraction and len(later) > 1:
            block.kind = BranchKind.UNCOND_DIRECT
            # Skipping at least one block keeps jumps observable.
            block.target_block = rng.choice(later[1:])
        elif roll < spec.cond_fraction + spec.jump_fraction + spec.call_fraction and n_eligible:
            block.kind = BranchKind.CALL_DIRECT
            # rng.choice over the ascending list, indexed from the end.
            block.callee = callees_desc[n_eligible - 1 - rng.next_u64() % n_eligible]
        elif (
            roll
            < spec.cond_fraction
            + spec.jump_fraction
            + spec.call_fraction
            + spec.indirect_jump_fraction
            and len(later) >= 2
        ):
            block.kind = BranchKind.INDIRECT
            fanout = min(rng.randint(*spec.indirect_fanout), len(later))
            picks = list(later)
            rng.shuffle(picks)
            block.target_blocks = tuple(sorted(picks[:fanout]))
            behaviours.append(_make_indirect_behaviour(spec, len(block.target_blocks), rng))
            block.behaviour = len(behaviours) - 1
        elif (
            roll
            < spec.cond_fraction
            + spec.jump_fraction
            + spec.call_fraction
            + spec.indirect_jump_fraction
            + spec.indirect_call_fraction
            and n_eligible >= 2
        ):
            block.kind = BranchKind.INDIRECT_CALL
            fanout = min(rng.randint(*spec.indirect_fanout), n_eligible)
            picks = callees_desc[::-1]
            rng.shuffle(picks)
            block.callees = tuple(sorted(picks[:fanout]))
            behaviours.append(_make_indirect_behaviour(spec, len(block.callees), rng))
            block.behaviour = len(behaviours) - 1
        elif (
            roll
            < spec.cond_fraction
            + spec.jump_fraction
            + spec.call_fraction
            + spec.indirect_jump_fraction
            + spec.indirect_call_fraction
            + spec.early_return_fraction
        ):
            block.kind = BranchKind.RETURN
        # else: plain fall-through (kind stays NONE)

    loop_ranges = _add_loops(spec, protos, rng, behaviours)
    return protos, _worst_case_cost(protos, loop_ranges, wcost)


def _worst_case_cost(
    protos: list[_ProtoBlock],
    loop_ranges: list[tuple[int, int, int]],
    wcost: list[int],
) -> int:
    """Upper bound on one invocation's dynamic instruction count.

    Straight-line sum of every block (loops multiply their body by the
    trip count; loop bodies contain no calls by construction) plus the
    worst-case cost of every call site's callee.
    """
    mult = [1] * len(protos)
    for header, tail, trip in loop_ranges:
        for i in range(header, tail + 1):
            mult[i] *= trip
    total = 0
    for i, block in enumerate(protos):
        total += block.n_instrs * mult[i]
        if block.kind is BranchKind.CALL_DIRECT:
            total += wcost[block.callee]
        elif block.kind is BranchKind.INDIRECT_CALL and block.callees:
            total += max(wcost[c] for c in block.callees)
    return total


def _make_indirect_behaviour(spec: ProgramSpec, n_targets: int, rng: SplitMix64) -> IndirectBehaviour:
    if rng.chance(spec.indirect_random_fraction):
        weights = tuple(0.2 + rng.random() for _ in range(n_targets))
        return IndirectBehaviour(n_targets, mode="random", weights=weights)
    return IndirectBehaviour(n_targets, mode="roundrobin")


def _add_loops(
    spec: ProgramSpec,
    protos: list[_ProtoBlock],
    rng: SplitMix64,
    behaviours: list,
) -> list[tuple[int, int, int]]:
    """Convert some blocks into counted-loop back-edges.

    Loop ranges are kept disjoint so the only backward edges are the
    counted ones, preserving guaranteed termination.  Loop bodies must
    not contain call blocks: a counted loop around a call site would
    multiply the callee subtree's instruction count, and nested such
    loops compound exponentially, collapsing the trace into a tiny
    working set (inner loops in real code are overwhelmingly call-free
    straight-line/conditional code).
    """
    n_blocks = len(protos)
    n_loops = rng.randint(*spec.loops_per_function)
    used_upto = 0
    ranges: list[tuple[int, int, int]] = []
    for _ in range(n_loops):
        # Need header < tail < last block, tail beyond previously used range.
        if used_upto + 2 > n_blocks - 2:
            break
        header = rng.randint(used_upto, n_blocks - 3)
        tail = rng.randint(header + 1, n_blocks - 2)
        if any(
            protos[i].kind in (BranchKind.CALL_DIRECT, BranchKind.INDIRECT_CALL)
            for i in range(header, tail + 1)
        ):
            used_upto = tail + 1
            continue
        block = protos[tail]
        block.kind = BranchKind.COND_DIRECT
        block.target_block = header
        block.callee = -1
        block.callees = ()
        block.target_blocks = ()
        trip = rng.randint(*spec.loop_trip)
        behaviours.append(LoopBehaviour(trip))
        block.behaviour = len(behaviours) - 1
        ranges.append((header, tail, trip))
        used_upto = tail + 1
    return ranges


def _generate_main(
    spec: ProgramSpec,
    rng: SplitMix64,
    behaviours: list,
) -> list[_ProtoBlock]:
    """Pass 1 for the ``main`` phase driver (function 0).

    Layout per phase: one call block per phase member, then a counted
    back-edge repeating the phase; the final block jumps back to the
    first so execution cycles over phases forever.
    """
    callees = list(range(1, spec.n_functions))
    rng.shuffle(callees)
    protos: list[_ProtoBlock] = []
    for phase in range(spec.n_phases):
        members = [
            callees[(phase * spec.functions_per_phase + k) % len(callees)]
            for k in range(spec.functions_per_phase)
        ]
        phase_start = len(protos)
        for callee in members:
            protos.append(
                _ProtoBlock(
                    n_instrs=rng.randint(2, 4),
                    kind=BranchKind.CALL_DIRECT,
                    callee=callee,
                )
            )
        # Counted phase-repeat back-edge.
        behaviours.append(LoopBehaviour(spec.phase_repeats))
        protos.append(
            _ProtoBlock(
                n_instrs=2,
                kind=BranchKind.COND_DIRECT,
                target_block=phase_start,
                behaviour=len(behaviours) - 1,
            )
        )
    # Eternal outer loop over all phases.
    protos.append(
        _ProtoBlock(n_instrs=2, kind=BranchKind.UNCOND_DIRECT, target_block=0)
    )
    # main never returns; give it a terminal return block anyway so the
    # layout invariant (last block returns) holds.
    protos.append(_ProtoBlock(n_instrs=1, kind=BranchKind.RETURN))
    return protos


def generate_program(spec: ProgramSpec, seed: int) -> Program:
    """Generate a full :class:`Program` from ``spec`` with ``seed``."""
    rng = SplitMix64(seed)
    behaviours: list[CondBehaviour | IndirectBehaviour] = []

    # Leaf-first generation so each call site knows its callees' costs.
    wcost = [0] * spec.n_functions
    proto_functions: list[list[_ProtoBlock] | None] = [None] * spec.n_functions
    fn_rngs = [rng.fork(fn) for fn in range(spec.n_functions)]
    callees_desc: list[int] = []
    for fn in range(spec.n_functions - 1, 0, -1):
        protos, cost = _generate_function(spec, fn_rngs[fn], behaviours, wcost, callees_desc)
        proto_functions[fn] = protos
        wcost[fn] = cost
        if 0 < cost <= spec.call_budget:
            callees_desc.append(fn)
    proto_functions[0] = _generate_main(spec, fn_rngs[0], behaviours)

    # Pass 2: assign addresses.
    fn_starts: list[int] = []
    block_starts: list[list[int]] = []
    cursor = spec.base_addr
    for protos in proto_functions:
        cursor = (cursor + _FUNC_ALIGN - 1) & ~(_FUNC_ALIGN - 1)
        fn_starts.append(cursor)
        starts = []
        for block in protos:
            starts.append(cursor)
            cursor += 4 * block.n_instrs
        block_starts.append(starts)
    code_end = cursor

    blocks: dict[int, BlockDef] = {}
    branch_map: dict[int, Instruction] = {}
    functions: list[FunctionInfo] = []
    block_of_term: dict[int, int] = {}

    for fn, protos in enumerate(proto_functions):
        starts = block_starts[fn]
        n_instrs_total = 0
        for i, proto in enumerate(protos):
            start = starts[i]
            n_instrs_total += proto.n_instrs
            target = 0
            targets: tuple[int, ...] = ()
            if proto.kind in (BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT):
                target = starts[proto.target_block]
            elif proto.kind is BranchKind.CALL_DIRECT:
                target = fn_starts[proto.callee]
            elif proto.kind is BranchKind.INDIRECT:
                targets = tuple(starts[j] for j in proto.target_blocks)
            elif proto.kind is BranchKind.INDIRECT_CALL:
                targets = tuple(fn_starts[c] for c in proto.callees)
            block = BlockDef(
                start=start,
                n_instrs=proto.n_instrs,
                kind=proto.kind,
                target=target,
                behaviour=proto.behaviour,
                targets=targets,
            )
            blocks[start] = block
            if proto.kind.is_branch:
                term = block.term_addr
                branch_map[term] = Instruction(
                    addr=term,
                    kind=proto.kind,
                    target=target if proto.kind.is_pc_relative else 0,
                    behaviour=proto.behaviour,
                )
                block_of_term[term] = start
        functions.append(
            FunctionInfo(
                index=fn,
                start=fn_starts[fn],
                end=starts[-1] + 4 * protos[-1].n_instrs,
                n_blocks=len(protos),
                n_instrs=n_instrs_total,
            )
        )

    return Program(
        spec=spec,
        entry=fn_starts[0],
        blocks=blocks,
        branches=branch_map,
        behaviours=behaviours,
        functions=functions,
        code_start=spec.base_addr,
        code_end=code_end,
        block_of_term=block_of_term,
    )
