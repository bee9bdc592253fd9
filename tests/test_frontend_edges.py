"""Edge-case tests for the decoupled frontend.

Covers interactions the main test files don't: decode-queue
backpressure, MSHR exhaustion with retry, fetch groups spanning FTQ
entries, returns through the speculative RAS, ITTAGE-driven indirect
prediction, and IDEAL-history bookkeeping.
"""


from repro.common.params import HistoryPolicy, SimParams
from repro.core.simulator import Simulator
from repro.isa.instructions import BranchKind, Instruction
from repro.trace.cfg import generate_program
from repro.trace.oracle import run_oracle
from tests.conftest import make_program, make_stream, seg, tiny_spec
from tests.test_fetch import Harness


class TestDecodeQueueBackpressure:
    def test_tiny_decode_queue_throttles_but_progresses(self):
        program = generate_program(tiny_spec(), seed=31)
        stream = run_oracle(program, 5_000, seed=32)
        params = SimParams(
            warmup_instructions=500, sim_instructions=2_000
        ).with_frontend(decode_queue_size=6)
        result = Simulator(params, program, stream).run("t")
        assert result.instructions > 0

    def test_dq_never_overflows(self):
        stream = make_stream([seg(0x1000, 2048)])
        h = Harness(stream, make_program({}), params=SimParams().with_frontend(decode_queue_size=8))
        for cycle in range(600):
            fills = h.memory.tick(cycle)
            if fills:
                h.fetch.complete_fills(fills, cycle)
            h.fetch.fetch_stage(cycle)
            assert h.dq.total_instrs <= 8
            h.bpu.cycle(cycle, h.ftq)
            h.fetch.probe_stage(cycle)


class TestMSHRPressure:
    def test_mshr_full_retries_and_completes(self):
        program = generate_program(tiny_spec(), seed=41)
        stream = run_oracle(program, 5_000, seed=42)
        params = SimParams(warmup_instructions=500, sim_instructions=2_000).with_memory(
            mshr_entries=1
        )
        result = Simulator(params, program, stream).run("t")
        assert result.instructions > 0


class TestSpanningFetch:
    def test_one_cycle_consumes_multiple_ready_entries(self):
        # Pure sequential stream: entries are full 8-instr blocks; with
        # fetch width 6 a cycle must split across entries eventually.
        stream = make_stream([seg(0x1000, 2048)])
        h = Harness(stream, make_program({}))
        consumed_entries = set()
        for cycle in range(300):
            fills = h.memory.tick(cycle)
            if fills:
                h.fetch.complete_fills(fills, cycle)
            before = len(h.ftq)
            h.fetch.fetch_stage(cycle)
            after = len(h.ftq)
            if before - after >= 1 and h.dq.total_instrs >= 6:
                consumed_entries.add(cycle)
            h.bpu.cycle(cycle, h.ftq)
            h.fetch.probe_stage(cycle)
        assert consumed_entries  # fetch made progress across entries


class TestReturnsAndIndirects:
    def test_detected_return_uses_spec_ras(self):
        # call at 0x100C -> 0x8000; return at 0x8004 -> 0x1010.
        stream = make_stream(
            [
                seg(0x1000, 4, 0x8000, [(0x100C, BranchKind.CALL_DIRECT, True, 0x8000)]),
                seg(0x8000, 2, 0x1010, [(0x8004, BranchKind.RETURN, True, 0x1010)]),
                seg(0x1010, 512),
            ]
        )
        program = make_program(
            {
                0x100C: Instruction(0x100C, BranchKind.CALL_DIRECT, 0x8000),
                0x8004: Instruction(0x8004, BranchKind.RETURN),
            }
        )
        h = Harness(stream, program)
        h.btb.insert(0x100C, BranchKind.CALL_DIRECT, 0x8000)
        h.btb.insert(0x8004, BranchKind.RETURN, 0)
        for cycle in range(6):
            h.bpu.cycle(cycle, h.ftq)
        entries = list(h.ftq)
        ret_entry = next(e for e in entries if e.term_addr == 0x8004)
        assert ret_entry.pred_taken and ret_entry.pred_target == 0x1010
        assert ret_entry.fault is None

    def test_indirect_uses_ittage_over_btb_target(self):
        stream = make_stream(
            [
                seg(0x1000, 4, 0x9000, [(0x100C, BranchKind.INDIRECT, True, 0x9000)]),
                seg(0x9000, 512),
            ]
        )
        program = make_program({0x100C: Instruction(0x100C, BranchKind.INDIRECT)})
        h = Harness(stream, program)
        # BTB remembers a stale target; ITTAGE has the fresh one.
        h.btb.insert(0x100C, BranchKind.INDIRECT, 0x8000)
        h.bpu.ittage.update(0x100C, 0, 0x9000)
        h.bpu.cycle(0, h.ftq)
        entry = h.ftq[0]
        assert entry.pred_target == 0x9000
        assert entry.fault is None

    def test_indirect_falls_back_to_btb_target(self):
        stream = make_stream(
            [
                seg(0x1000, 4, 0x8000, [(0x100C, BranchKind.INDIRECT, True, 0x8000)]),
                seg(0x8000, 512),
            ]
        )
        program = make_program({0x100C: Instruction(0x100C, BranchKind.INDIRECT)})
        h = Harness(stream, program)
        h.btb.insert(0x100C, BranchKind.INDIRECT, 0x8000)
        h.bpu.cycle(0, h.ftq)
        assert h.ftq[0].pred_target == 0x8000


class TestIdealHistory:
    def test_ideal_pushes_every_oracle_branch(self):
        stream = make_stream(
            [
                seg(
                    0x1000,
                    8,
                    0x8000,
                    [
                        (0x1004, BranchKind.COND_DIRECT, False, 0x9000),
                        (0x101C, BranchKind.UNCOND_DIRECT, True, 0x8000),
                    ],
                ),
                seg(0x8000, 512),
            ]
        )
        program = make_program(
            {
                0x1004: Instruction(0x1004, BranchKind.COND_DIRECT, 0x9000, 0),
                0x101C: Instruction(0x101C, BranchKind.UNCOND_DIRECT, 0x8000),
            }
        )
        h = Harness(stream, program, policy=HistoryPolicy.IDEAL)
        h.btb.insert(0x101C, BranchKind.UNCOND_DIRECT, 0x8000)
        h.bpu.cycle(0, h.ftq)
        entry = h.ftq[0]
        # Both oracle branches contribute pushes (NT then T).
        assert entry.dir_pushes == ((0x1004, False), (0x101C, True))
        assert h.bpu.hist == 0b01


class TestTLBEffects:
    def test_tlb_misses_counted(self):
        program = generate_program(tiny_spec(), seed=51)
        stream = run_oracle(program, 5_000, seed=52)
        params = SimParams(warmup_instructions=500, sim_instructions=2_000).with_memory(
            itlb_entries=2, itlb_page_bytes=4096
        )
        sim = Simulator(params, program, stream)
        sim.run("t")
        assert sim.memory.itlb.misses > 0
