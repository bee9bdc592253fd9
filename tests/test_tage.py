"""Tests for the TAGE direction predictor (repro.branch.tage)."""

import itertools
import json
import os
import subprocess
import sys

import pytest

from repro.branch import tage as tage_module
from repro.branch.history import HistoryManager
from repro.branch.tage import FOLD_MEMO_BOUND, TAGE, TageConfig
from repro.common.params import HistoryPolicy


def make_tage(kib=18, hist=260):
    return TAGE(TageConfig.for_budget_kib(kib, hist))


class TestConfig:
    def test_history_lengths_geometric(self):
        cfg = TageConfig.for_budget_kib(18)
        lengths = cfg.history_lengths()
        assert lengths[0] == cfg.min_history
        assert lengths[-1] == cfg.max_history
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_budget_scaling(self):
        assert (
            TageConfig.for_budget_kib(9).storage_bits()
            < TageConfig.for_budget_kib(18).storage_bits()
            < TageConfig.for_budget_kib(36).storage_bits()
        )

    def test_storage_near_budget(self):
        bits = TageConfig.for_budget_kib(18).storage_bits()
        assert 14 * 1024 * 8 <= bits <= 24 * 1024 * 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TageConfig(0, 1024, 8192, 10, 4, 260)
        with pytest.raises(ValueError):
            TageConfig(4, 1000, 8192, 10, 4, 260)
        with pytest.raises(ValueError):
            TageConfig(4, 1024, 8192, 10, 100, 50)

    def test_single_table_lengths(self):
        cfg = TageConfig(1, 1024, 8192, 10, 4, 64)
        assert cfg.history_lengths() == [64]


class TestLearning:
    def test_unseen_branch_defaults_not_taken(self):
        assert make_tage().predict(0x4000, 0) is False

    def test_learns_always_taken(self):
        tage = make_tage()
        for _ in range(8):
            tage.update(0x4000, 0, True)
        assert tage.predict(0x4000, 0) is True

    def test_learns_always_not_taken(self):
        tage = make_tage()
        for _ in range(8):
            tage.update(0x4000, 0, False)
        assert tage.predict(0x4000, 0) is False

    def test_learns_history_correlated_pattern(self):
        """Deterministically interleaved patterned branches: >90% accuracy."""
        tage = make_tage()
        mgr = HistoryManager(HistoryPolicy.THR, 260)
        branches = []
        for i in range(20):
            pattern = itertools.cycle([(j % (2 + i % 4)) != 0 for j in range(2 + i % 4)])
            branches.append((0x4000 + 32 * i, pattern))
        hist = 0
        correct = total = 0
        for it in range(8000):
            pc, cyc = branches[it % len(branches)]
            taken = next(cyc)
            pred = tage.predict(pc, hist)
            tage.update(pc, hist, taken)
            if it > 2000:
                total += 1
                correct += pred == taken
            if taken:
                hist = mgr.push_taken(hist, pc, pc + 64)
        assert correct / total > 0.9

    def test_allocation_happens_on_mispredict(self):
        tage = make_tage()
        # alternate outcomes under distinct histories
        tage.update(0x4000, 0, True)
        tage.update(0x4000, 0, False)
        assert tage.allocations > 0

    def test_counters_track(self):
        tage = make_tage()
        tage.predict(0x4000, 0)
        tage.update(0x4000, 0, True)
        assert tage.predictions >= 1 and tage.updates == 1


class TestHistorySensitivity:
    def test_same_pc_different_history_can_differ(self):
        tage = make_tage()
        h1, h2 = 0b1010, 0b0101
        for _ in range(12):
            tage.update(0x4000, h1, True)
            tage.update(0x4000, h2, False)
        assert tage.predict(0x4000, h1) is True
        assert tage.predict(0x4000, h2) is False

    def test_fold_cache_bounded(self):
        """The shared memo keeps its bound however many TAGEs fill it."""
        assert FOLD_MEMO_BOUND == 8192
        first, second = make_tage(), make_tage()
        for h in range(10_000):
            first.predict(0x4000, h)
            second.predict(0x4000, h + 10_000)
        assert first._fold_memo is second._fold_memo
        assert len(first._fold_memo) <= FOLD_MEMO_BOUND


_RUN_SNIPPET = """
import json, sys
from repro.common.params import SimParams
from repro.core.simulator import simulate
from repro.experiments.spec import apply_setting
params = SimParams(warmup_instructions=1000, sim_instructions=3000)
for key, value in json.loads(sys.argv[1]).items():
    params = apply_setting(params, key, value)
print(json.dumps(simulate("srv_web", params).stats.as_dict(), sort_keys=True))
"""


def _run_counters(settings: dict) -> dict:
    """Simulate srv_web under ``settings`` in this process."""
    from repro.common.params import SimParams
    from repro.core.simulator import simulate
    from repro.experiments.spec import apply_setting

    params = SimParams(warmup_instructions=1000, sim_instructions=3000)
    for key, value in settings.items():
        params = apply_setting(params, key, value)
    return simulate("srv_web", params).stats.as_dict()


class TestSharedFoldMemo:
    """The fold memo is shared per geometry and never moves a result."""

    def test_same_geometry_shares(self):
        first, second = make_tage(18, 260), make_tage(18, 260)
        assert first._fold_memo is second._fold_memo
        assert first._pc_mix_memo is second._pc_mix_memo
        first.predict(0x4000, 0xABCDEF)
        assert 0xABCDEF in second._fold_memo

    def test_geometries_never_share(self):
        tages = [make_tage(kib, hist) for kib in (9, 18, 36) for hist in (260, 280)]
        memos = {id(t._fold_memo) for t in tages}
        assert len(memos) == len(tages)

    def test_folds_match_unshared_computation(self):
        """Packed folds equal the per-table folds computed directly."""
        from repro.common.bits import fold

        tage = make_tage(36, 280)
        width = tage._idx_bits + tage._tag_bits
        for hist in (0, 1, (1 << 279) - 1, 0x1234_5678_9ABC_DEF0 << 100):
            packed = tage._folds(hist)
            for table, mask in enumerate(tage._hist_masks):
                entry = packed >> (table * width)
                assert entry & tage._idx_mask == fold(hist & mask, tage._idx_bits)
                assert (entry >> tage._idx_bits) & tage._tag_mask == fold(
                    (hist & mask) * 3, tage._tag_bits
                )

    def test_run_after_other_geometry_matches_fresh_process(self):
        target = {"branch.tage_storage_kib": 18, "frontend.history_policy": "THR"}
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        fresh = subprocess.run(
            [sys.executable, "-c", _RUN_SNIPPET, json.dumps(target)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        expected = json.loads(fresh.stdout)
        # Fill other geometries' memos first, then the target's own memo
        # from a sibling config, before the run under test.
        _run_counters({"branch.tage_storage_kib": 36, "frontend.history_policy": "GHR2"})
        _run_counters({"branch.tage_storage_kib": 9})
        assert _run_counters(target) == expected
        _run_counters({**target, "branch.btb_entries": 512})
        assert _run_counters(target) == expected

    def test_cleared_memo_mid_run_matches(self):
        """A memo cleared at its bound refills with the same values."""
        target = {"branch.tage_storage_kib": 9}
        tage_module._FOLD_MEMOS.clear()
        expected = _run_counters(target)
        geometry = TageConfig.for_budget_kib(9)
        memo = TAGE(geometry)._fold_memo
        # Stale-looking filler keys no real history reaches, one short
        # of the bound: the run's second miss clears the memo.
        memo.clear()
        memo.update((-1 - i, 0) for i in range(FOLD_MEMO_BOUND - 1))
        assert _run_counters(target) == expected
        assert min(memo) >= 0  # the filler was cleared out
