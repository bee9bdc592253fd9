"""Tests for the fetch pipeline and Post-Fetch Correction."""


from repro.branch.btb import BTB
from repro.branch.history import HistoryManager
from repro.branch.ittage import ITTAGE
from repro.common.params import HistoryPolicy, SimParams
from repro.common.stats import StatSet
from repro.core.backend import DecodeQueue
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.fetch import FetchUnit
from repro.frontend.ftq import FTQ, STATE_AWAIT_FILL, STATE_READY
from repro.isa.instructions import BranchKind, Instruction
from repro.memory.hierarchy import InstructionMemory
from tests.conftest import cond, jump, make_program, make_stream, seg


class Harness:
    """Real frontend components over a hand-made program/oracle."""

    def __init__(self, stream, program, params=None, policy=HistoryPolicy.THR, taken_pcs=()):
        params = (params or SimParams()).with_frontend(history_policy=policy)
        self.params = params
        self.stats = StatSet()
        self.memory = InstructionMemory(params.memory, self.stats)
        self.btb = BTB(1024, 4)
        self.mgr = HistoryManager(policy, 64)

        class StubDirection:
            def __init__(self, pcs):
                self.taken_pcs = set(pcs)

            def predict(self, pc, hist):
                return pc in self.taken_pcs

            def update(self, pc, hist, taken):
                pass

        self.direction = StubDirection(taken_pcs)
        self.bpu = BranchPredictionUnit(
            params, program, stream, self.btb, self.direction, ITTAGE(64), self.mgr, self.stats
        )
        self.ftq = FTQ(params.frontend.ftq_entries)
        self.dq = DecodeQueue(params.frontend.decode_queue_size)
        self.fetch = FetchUnit(
            params=params,
            program=program,
            stream=stream,
            ftq=self.ftq,
            memory=self.memory,
            bpu=self.bpu,
            hist_mgr=self.mgr,
            direction=self.direction,
            decode_queue=self.dq,
            stats=self.stats,
        )

    def run_cycles(self, n, start=0):
        """Step the frontend in schedule order; a stand-in backend drains
        up to ``retire_width`` instructions per cycle (no flushes)."""
        width = self.params.core.retire_width
        for cycle in range(start, start + n):
            fills = self.memory.tick(cycle)
            if fills:
                self.fetch.complete_fills(fills, cycle)
            budget = width
            while budget > 0 and self.dq.head() is not None:
                head = self.dq.head()
                take = min(budget, head.n - head.pos)
                self.dq.consume_from_head(take)
                budget -= take
            self.fetch.fetch_stage(cycle)
            self.bpu.cycle(cycle, self.ftq)
            self.fetch.probe_stage(cycle)


class TestProbeStage:
    def test_miss_starts_fill_before_head(self):
        stream = make_stream([seg(0x1000, 256)])
        program = make_program({})
        h = Harness(stream, program)
        h.run_cycles(3)
        # Multiple FTQ entries; at least the first two were probed.
        states = [e.state for e in h.ftq]
        assert STATE_AWAIT_FILL in states or STATE_READY in states

    def test_fill_wakes_entries(self):
        stream = make_stream([seg(0x1000, 256)])
        h = Harness(stream, make_program({}))
        h.run_cycles(400)
        assert h.stats.get("l1i_miss") > 0
        assert h.dq.total_instrs > 0 or h.stats.get("committed_instructions") == 0


class TestPFC:
    def make_undetected_jump(self):
        """Oracle jumps at 0x1008 (undetected by the empty BTB)."""
        stream = make_stream(
            [seg(0x1000, 3, 0x8000, [jump(0x1008, 0x8000)]), seg(0x8000, 256)]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.UNCOND_DIRECT, 0x8000)}
        )
        return stream, program

    def test_case1_fires_for_undetected_unconditional(self):
        stream, program = self.make_undetected_jump()
        h = Harness(stream, program)
        h.run_cycles(400)
        assert h.stats.get("pfc_case1") >= 1
        assert h.stats.get("pfc_corrected_mispredict") >= 1
        assert h.stats.get("frontend_resteer") >= 1

    def test_case1_resteers_bpu_to_target(self):
        stream, program = self.make_undetected_jump()
        h = Harness(stream, program)
        h.run_cycles(400)
        # After PFC the stream continued on the correct path: entries at
        # 0x8000 exist and the head entry was truncated at the branch.
        starts = {e.start for e in h.ftq} | {0x8000 if h.bpu.pc >= 0x8000 else 0}
        assert any(s >= 0x8000 for s in starts)

    def test_case1_disabled_without_pfc(self):
        stream, program = self.make_undetected_jump()
        h = Harness(stream, program, params=SimParams().with_frontend(pfc_enabled=False))
        h.run_cycles(400)
        assert h.stats.get("pfc_case1") == 0

    def test_case2_fires_for_hinted_conditional(self):
        stream = make_stream(
            [seg(0x1000, 3, 0x8000, [cond(0x1008, True, 0x8000)]), seg(0x8000, 256)]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.COND_DIRECT, 0x8000, 0)}
        )
        h = Harness(stream, program, taken_pcs=[0x1008])
        h.run_cycles(400)
        assert h.stats.get("pfc_case2") >= 1
        assert h.stats.get("pfc_corrected_mispredict") >= 1

    def test_case2_skipped_when_hint_not_taken(self):
        stream = make_stream(
            [seg(0x1000, 3, 0x8000, [cond(0x1008, True, 0x8000)]), seg(0x8000, 256)]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.COND_DIRECT, 0x8000, 0)}
        )
        h = Harness(stream, program, taken_pcs=[])
        h.run_cycles(400)
        assert h.stats.get("pfc_case2") == 0

    def test_pfc_false_positive_detected(self):
        """Hint says taken but the branch is actually never taken."""
        stream = make_stream(
            [
                seg(0x1000, 64, 0x9000, [cond(0x1008, False, 0x8000), jump(0x10FC, 0x9000)]),
                seg(0x9000, 256),
            ]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.COND_DIRECT, 0x8000, 0)}
        )
        h = Harness(stream, program, taken_pcs=[0x1008])
        h.run_cycles(400)
        assert h.stats.get("pfc_case2") >= 1
        assert h.stats.get("pfc_false_positive") >= 1

    def test_undetected_indirect_not_correctable(self):
        stream = make_stream(
            [seg(0x1000, 3, 0x8000, [(0x1008, BranchKind.INDIRECT, True, 0x8000)]), seg(0x8000, 256)]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.INDIRECT)}
        )
        h = Harness(stream, program)
        h.run_cycles(400)
        assert h.stats.get("pfc_uncorrectable_indirect") >= 1
        assert h.stats.get("pfc_case1") == 0


class TestHistoryFixup:
    def test_ghr2_fixup_flush_on_undetected_not_taken(self):
        # A not-taken conditional at 0x1008, never in the BTB.
        stream = make_stream(
            [seg(0x1000, 256, 0, [cond(0x1008, False, 0x8000)])]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.COND_DIRECT, 0x8000, 0)}
        )
        h = Harness(stream, program, policy=HistoryPolicy.GHR2)
        h.run_cycles(200)
        assert h.stats.get("ghr_fixup_flush") >= 1

    def test_ghr0_no_fixup(self):
        stream = make_stream(
            [seg(0x1000, 256, 0, [cond(0x1008, False, 0x8000)])]
        )
        program = make_program(
            {0x1008: Instruction(0x1008, BranchKind.COND_DIRECT, 0x8000, 0)}
        )
        h = Harness(stream, program, policy=HistoryPolicy.GHR0)
        h.run_cycles(200)
        assert h.stats.get("ghr_fixup_flush") == 0


class TestMissClassification:
    def test_shallow_ftq_misses_fully_exposed(self):
        stream = make_stream([seg(0x1000, 4096)])
        params = SimParams().with_frontend(ftq_entries=2, pfc_enabled=False)
        h = Harness(stream, make_program({}), params=params)
        h.run_cycles(3000)
        exposure = h.stats
        assert exposure.get("miss_fully_exposed") > 0
        assert exposure.get("miss_covered") == 0

    def test_deep_ftq_covers_misses(self):
        stream = make_stream([seg(0x1000, 4096)])
        h = Harness(stream, make_program({}), params=SimParams().with_frontend(ftq_entries=32))
        h.run_cycles(3000)
        assert h.stats.get("miss_covered") > 0
