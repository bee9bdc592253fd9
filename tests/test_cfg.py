"""Structural tests for synthetic program generation (repro.trace.cfg)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import BranchKind
from repro.trace.behaviors import LoopBehaviour
from repro.trace.cfg import generate_program
from repro.trace.workloads import default_workloads
from tests.conftest import tiny_spec


@pytest.fixture(scope="module")
def program():
    return generate_program(tiny_spec(), seed=7)


class TestSpecValidation:
    def test_rejects_bad_fraction_sum(self):
        with pytest.raises(ValueError):
            tiny_spec(frac_never_taken=0.9, frac_mostly_taken=0.9)

    def test_rejects_terminator_overflow(self):
        with pytest.raises(ValueError):
            tiny_spec(cond_fraction=0.9, call_fraction=0.5)

    def test_rejects_too_few_functions(self):
        with pytest.raises(ValueError):
            tiny_spec(n_functions=1)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            tiny_spec(instrs_per_block=(5, 3))

    def test_rejects_unaligned_base(self):
        with pytest.raises(ValueError):
            tiny_spec(base_addr=0x1010)


class TestLayout:
    def test_blocks_contiguous_within_function(self, program):
        for fn in program.functions:
            blocks = sorted(
                (b for b in program.blocks.values() if fn.start <= b.start < fn.end),
                key=lambda b: b.start,
            )
            for a, b in zip(blocks, blocks[1:]):
                assert a.fall_addr == b.start

    def test_function_alignment(self, program):
        for fn in program.functions:
            assert fn.start % 64 == 0

    def test_code_bounds(self, program):
        assert program.code_start == program.spec.base_addr
        assert all(
            program.code_start <= b.start < program.code_end
            for b in program.blocks.values()
        )

    def test_entry_is_main_start(self, program):
        assert program.entry == program.functions[0].start

    def test_footprint_positive(self, program):
        assert program.footprint_bytes > 0
        assert program.static_instructions * 4 <= program.footprint_bytes


class TestControlFlowTargets:
    def test_direct_targets_are_block_starts(self, program):
        for block in program.blocks.values():
            if block.kind in (BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT, BranchKind.CALL_DIRECT):
                assert block.target in program.blocks

    def test_indirect_targets_are_block_starts(self, program):
        for block in program.blocks.values():
            if block.kind in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL):
                assert block.targets
                for t in block.targets:
                    assert t in program.blocks

    def test_calls_target_function_entries(self, program):
        entries = {fn.start for fn in program.functions}
        for block in program.blocks.values():
            if block.kind is BranchKind.CALL_DIRECT:
                assert block.target in entries

    def test_call_graph_is_dag(self, program):
        """Callees always have strictly higher function index."""
        start_to_index = {fn.start: fn.index for fn in program.functions}

        def owner(addr):
            for fn in program.functions:
                if fn.start <= addr < fn.end:
                    return fn.index
            raise AssertionError(f"address {addr:#x} outside all functions")

        for block in program.blocks.values():
            if block.kind is BranchKind.CALL_DIRECT:
                assert start_to_index[block.target] > owner(block.start)
            elif block.kind is BranchKind.INDIRECT_CALL:
                for t in block.targets:
                    assert start_to_index[t] > owner(block.start)


class TestBranchMap:
    def test_branch_map_matches_blocks(self, program):
        for block in program.blocks.values():
            instr = program.instruction_at(block.term_addr)
            if block.kind.is_branch:
                assert instr is not None
                assert instr.kind == block.kind
            else:
                assert instr is None

    def test_non_terminator_addresses_are_plain(self, program):
        for block in program.blocks.values():
            addr = block.start
            while addr < block.term_addr:
                assert program.instruction_at(addr) is None
                addr += 4

    def test_block_of_term_consistent(self, program):
        for term, start in program.block_of_term.items():
            assert program.blocks[start].term_addr == term


class TestLoops:
    def test_loop_back_edges_use_loop_behaviour(self, program):
        for block in program.blocks.values():
            if block.kind is BranchKind.COND_DIRECT and block.target < block.start:
                beh = program.behaviours[block.behaviour]
                assert isinstance(beh, LoopBehaviour)

    def test_loop_bodies_have_no_calls(self, program):
        # Applies to generated callee functions only: main's phase loops
        # intentionally wrap call blocks (bounded by phase_repeats).
        main_end = program.functions[0].end
        for block in program.blocks.values():
            if block.start < main_end:
                continue
            if block.kind is BranchKind.COND_DIRECT and block.target < block.start:
                addr = block.target
                while addr <= block.start:
                    body = program.blocks.get(addr)
                    assert body is not None
                    assert body.kind not in (BranchKind.CALL_DIRECT, BranchKind.INDIRECT_CALL)
                    addr = body.fall_addr


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = generate_program(tiny_spec(), seed=3)
        b = generate_program(tiny_spec(), seed=3)
        assert a.code_end == b.code_end
        assert set(a.branches) == set(b.branches)
        assert [blk.kind for blk in a.blocks.values()] == [blk.kind for blk in b.blocks.values()]

    def test_different_seed_different_program(self):
        a = generate_program(tiny_spec(), seed=3)
        b = generate_program(tiny_spec(), seed=4)
        assert set(a.branches) != set(b.branches)


def program_digest(program) -> str:
    """SHA-256 over a program's blocks, branches, behaviours and functions."""
    h = hashlib.sha256()

    def put(*fields):
        h.update(repr(fields).encode())

    put(program.entry, program.code_start, program.code_end)
    for start, b in sorted(program.blocks.items()):
        put("block", start, b.start, b.n_instrs, b.kind.name, b.target, b.behaviour, b.targets)
    for addr, i in sorted(program.branches.items()):
        put("branch", addr, i.addr, i.kind.name, i.target, i.behaviour)
    for beh in program.behaviours:
        public = [s for s in type(beh).__slots__ if not s.startswith("_")]
        put("behaviour", type(beh).__name__, *(getattr(beh, s) for s in public))
    for f in program.functions:
        put("function", f.index, f.start, f.end, f.n_blocks, f.n_instrs)
    return h.hexdigest()


CATALOGUE_DIGESTS = {
    "srv_web": "ad3e20fd1d6c0935d0012fbb9f9934cfcbc311cf2e6e1f64cf0196f29c96fe36",
    "srv_db": "fa37da6d07fa3e7c39ba5ce33bc4fa7e57da93811016c0b7a2ba2e55dae5b3f3",
    "srv_cache": "1c133ce7ab4a0844c8d348e000abfd7fa4e840054b1b6c3a7215fff42c452afe",
    "clt_browser": "295f381160ea369bd1f9121618ed1869ee130af6aa556d6bf60dc2ac610245bd",
    "clt_media": "9f82f01fee305b295135a7a847dbb36ab4eb4586707eed9a269a837af9879cbb",
    "spc_int_a": "28c33e59e1462cd055dec931c1d6d39feb7cafc46cb313300e13437df3a8c66c",
    "spc_int_b": "86f0f9e65eb29c67e2445df72c462b7aacdd9fc8ac5f30c7a0caecf47bfdb1eb",
    "spc_fp": "c50d03a97baf16f50f4e1cf3441eddca0a2768598e19668de8b660931969f460",
}
"""Pinned digests of every catalogue program: a change to the generator
(a speed-up, say) must leave each program bit-identical."""


@pytest.mark.parametrize("workload", default_workloads(), ids=lambda w: w.name)
def test_catalogue_programs_are_pinned(workload):
    program = generate_program(workload.program_spec, workload.program_seed)
    assert program_digest(program) == CATALOGUE_DIGESTS[workload.name]


class TestCallBudget:
    def test_small_budget_limits_calls(self):
        tight = generate_program(tiny_spec(call_budget=10), seed=5)
        loose = generate_program(tiny_spec(call_budget=5000), seed=5)
        def n_calls(p):
            return sum(1 for b in p.blocks.values() if b.kind is BranchKind.CALL_DIRECT)
        # With a 10-instruction budget almost no callee qualifies.
        assert n_calls(tight) <= n_calls(loose)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generation_invariants_hold_for_any_seed(seed):
    program = generate_program(tiny_spec(), seed=seed)
    # Every terminator branch lives in the branch map; every direct
    # target is a block start; the taken-candidate count is bounded.
    for block in program.blocks.values():
        if block.kind.is_branch:
            assert block.term_addr in program.branches
        if block.kind in (BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT):
            assert block.target in program.blocks
    assert 0 < program.static_taken_candidates() <= program.static_branches
