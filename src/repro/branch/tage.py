"""TAGE conditional direction predictor (Seznec, CBP).

A bimodal base table plus ``n_tables`` partially-tagged tables indexed
with geometrically increasing history lengths.  The paper's baseline is
an 18KB TAGE with 260-bit taken-only target history; Fig 12 sweeps
9/18/36KB.

Simulation notes:

* History is the :mod:`repro.branch.history` int; per-table indices and
  tags are hashes of (pc, masked history).  The masked-history folds
  are memoised per history value: between taken branches every slot
  shares the same history (paper footnote 1), and configs that differ
  only outside the direction predictor (BTB size, PFC, FTQ depth) push
  the same committed histories.  The memo is therefore one dict per
  geometry ``(history lengths, index bits, tag bits)``, shared by every
  TAGE in the process, so sibling sweep points in one worker fold each
  distinct history once.  The folds are a pure function of the history
  and the geometry, so sharing them cannot move a statistic; each entry
  is one packed int (table ``t``'s index fold at bit
  ``t * (idx_bits + tag_bits)``, its tag fold just above), and the memo
  is cleared when it reaches :data:`FOLD_MEMO_BOUND` entries.  The folds
  cannot be kept as incrementally updated circular-shift registers
  instead: :func:`~repro.common.bits.fold` ends in a ``mix64`` finaliser,
  and the tag fold hashes ``(hist & mask) * 3``, whose carries are not
  linear over XOR.
* ``predict`` is pure; ``update`` recomputes the provider from the
  history captured at prediction time (the caller passes the same
  history value), which keeps speculative prediction and commit-time
  training decoupled, as in the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import fold, mix64

_CTR_MAX = 3  # 3-bit signed counter in [-4, 3]
_CTR_MIN = -4
_U_MAX = 3

FOLD_MEMO_BOUND = 8192
"""Entries a geometry's fold memo holds before it is cleared."""

_PC_MIX_MEMO_BOUND = 65536

_FOLD_MEMOS: dict[tuple[tuple[int, ...], int, int], dict[int, int]] = {}
"""Geometry ``(history lengths, index bits, tag bits)`` -> history -> packed folds."""

_PC_MIX_MEMOS: dict[int, dict[int, list[int]]] = {}
"""``n_tables`` -> branch PC -> per-table PC hash."""


@dataclass(frozen=True)
class TageConfig:
    """Geometry of a TAGE instance."""

    n_tables: int
    table_entries: int
    bimodal_entries: int
    tag_bits: int
    min_history: int
    max_history: int
    u_reset_period: int = 512 * 1024

    def __post_init__(self) -> None:
        if self.n_tables < 1:
            raise ValueError("need at least one tagged table")
        for n in (self.table_entries, self.bimodal_entries):
            if n <= 0 or n & (n - 1):
                raise ValueError("table sizes must be powers of two")
        if not 1 <= self.min_history < self.max_history:
            raise ValueError("history lengths must satisfy 1 <= min < max")

    def history_lengths(self) -> list[int]:
        """Geometric series from min_history to max_history."""
        if self.n_tables == 1:
            return [self.max_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (self.n_tables - 1))
        lengths = []
        for i in range(self.n_tables):
            length = int(round(self.min_history * ratio**i))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        lengths[-1] = self.max_history
        return lengths

    def storage_bits(self) -> int:
        """Approximate storage: ctr(3)+u(2)+tag per tagged entry, 2b bimodal."""
        tagged = self.n_tables * self.table_entries * (3 + 2 + self.tag_bits)
        return tagged + 2 * self.bimodal_entries

    @classmethod
    def for_budget_kib(cls, kib: int, max_history: int = 260) -> "TageConfig":
        """Standard sizings used in the evaluation (Fig 12)."""
        if kib <= 9:
            return cls(8, 512, 4096, 10, 4, max_history)
        if kib <= 18:
            return cls(8, 1024, 8192, 10, 4, max_history)
        return cls(8, 2048, 16384, 11, 4, max_history)


class TAGE:
    """The predictor proper."""

    __slots__ = (
        "config",
        "lengths",
        "_hist_masks",
        "_idx_bits",
        "_idx_mask",
        "_tag_bits",
        "_tag_mask",
        "_ctr",
        "_tag",
        "_u",
        "_bimodal",
        "_bimodal_mask",
        "_use_alt_on_na",
        "_tick",
        "_fold_memo",
        "_fold_shifts",
        "_pc_mix_memo",
        "_table_salts",
        "predictions",
        "updates",
        "allocations",
    )

    def __init__(self, config: TageConfig) -> None:
        self.config = config
        self.lengths = config.history_lengths()
        self._hist_masks = [(1 << length) - 1 for length in self.lengths]
        self._idx_bits = config.table_entries.bit_length() - 1
        self._idx_mask = config.table_entries - 1
        self._tag_bits = config.tag_bits
        self._tag_mask = (1 << config.tag_bits) - 1
        n = config.n_tables
        size = config.table_entries
        self._ctr = [[0] * size for _ in range(n)]
        self._tag = [[-1] * size for _ in range(n)]
        self._u = [[0] * size for _ in range(n)]
        # Weakly not-taken start: an unseen branch predicts not-taken,
        # matching the sequential-fetch default of a real frontend.
        self._bimodal = [-1] * config.bimodal_entries
        self._bimodal_mask = config.bimodal_entries - 1
        self._use_alt_on_na = 0  # in [-8, 7]
        self._tick = 0
        self._fold_memo = _FOLD_MEMOS.setdefault(
            (tuple(self.lengths), self._idx_bits, self._tag_bits), {}
        )
        width = self._idx_bits + self._tag_bits
        self._fold_shifts = [(t, t * width) for t in range(n - 1, -1, -1)]
        self._pc_mix_memo = _PC_MIX_MEMOS.setdefault(n, {})
        self._table_salts = [(t * 0x9E3779B1) for t in range(n)]
        self.predictions = 0
        self.updates = 0
        self.allocations = 0

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _folds(self, hist: int) -> int:
        """Packed per-table (index_fold, tag_fold) of the masked history.

        Table ``t``'s index fold sits at bit ``t * (idx_bits + tag_bits)``
        and its tag fold ``idx_bits`` above that.
        """
        memo = self._fold_memo
        folds = memo.get(hist)
        if folds is None:
            idx_bits = self._idx_bits
            tag_bits = self._tag_bits
            masks = self._hist_masks
            folds = 0
            for table, shift in self._fold_shifts:
                masked = hist & masks[table]
                folds |= (fold(masked, idx_bits) | fold(masked * 3, tag_bits) << idx_bits) << shift
            if len(memo) >= FOLD_MEMO_BOUND:
                memo.clear()
            memo[hist] = folds
        return folds

    def _pc_mixes(self, pc: int) -> list[int]:
        """Per-table PC hash; the branch PC working set is small, so
        one dict lookup replaces ``n_tables`` mix64 evaluations."""
        memo = self._pc_mix_memo
        mixes = memo.get(pc)
        if mixes is None:
            base = mix64(pc >> 2)
            mixes = [base ^ salt for salt in self._table_salts]
            if len(memo) >= _PC_MIX_MEMO_BOUND:
                memo.clear()
            memo[pc] = mixes
        return mixes

    def _index_and_tag(self, table: int, pc: int, folds: int) -> tuple[int, int]:
        # Each fold is exactly idx_bits / tag_bits wide, so masking after
        # the XOR also drops the neighbouring tables' bits.
        tfolds = folds >> (table * (self._idx_bits + self._tag_bits))
        pc_mix = self._pc_mixes(pc)[table]
        idx = (tfolds ^ pc_mix) & self._idx_mask
        tag = ((tfolds >> self._idx_bits) ^ (pc_mix >> 13)) & self._tag_mask
        return idx, tag

    def _bimodal_index(self, pc: int) -> int:
        return (pc >> 2) & self._bimodal_mask

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, pc: int, hist: int) -> bool:
        """Return the predicted direction for ``pc`` under ``hist``."""
        self.predictions += 1
        taken, _ = self._predict_full(pc, self._folds(hist))
        return taken

    def _predict_full(self, pc: int, folds: int):
        mixes = self._pc_mixes(pc)
        idx_bits = self._idx_bits
        idx_mask = self._idx_mask
        tag_mask = self._tag_mask
        tags = self._tag
        provider = -1
        provider_idx = -1
        alt = -1
        alt_idx = -1
        for table, shift in self._fold_shifts:
            tfolds = folds >> shift
            pc_mix = mixes[table]
            idx = (tfolds ^ pc_mix) & idx_mask
            if tags[table][idx] == ((tfolds >> idx_bits) ^ (pc_mix >> 13)) & tag_mask:
                if provider < 0:
                    provider, provider_idx = table, idx
                else:
                    alt, alt_idx = table, idx
                    break
        bimodal_taken = self._bimodal[(pc >> 2) & self._bimodal_mask] >= 0
        if provider < 0:
            return bimodal_taken, (provider, provider_idx, alt, alt_idx, bimodal_taken)
        ctr = self._ctr[provider][provider_idx]
        provider_taken = ctr >= 0
        weak = ctr in (-1, 0)
        if alt >= 0:
            alt_taken = self._ctr[alt][alt_idx] >= 0
        else:
            alt_taken = bimodal_taken
        if weak and self._use_alt_on_na >= 0 and self._u[provider][provider_idx] == 0:
            return alt_taken, (provider, provider_idx, alt, alt_idx, bimodal_taken)
        return provider_taken, (provider, provider_idx, alt, alt_idx, bimodal_taken)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def update(self, pc: int, hist: int, taken: bool) -> None:
        """Train with the resolved outcome; ``hist`` must be the history
        that prediction used (the architectural history before this
        branch)."""
        self.updates += 1
        folds = self._folds(hist)
        predicted, meta = self._predict_full(pc, folds)
        provider, provider_idx, alt, alt_idx, bimodal_taken = meta

        mispredicted = predicted != taken

        if provider >= 0:
            ctr = self._ctr[provider][provider_idx]
            provider_taken = ctr >= 0
            alt_taken = self._ctr[alt][alt_idx] >= 0 if alt >= 0 else bimodal_taken
            # Track whether the alternate would have done better on
            # newly-allocated (weak, u=0) entries.
            if ctr in (-1, 0) and self._u[provider][provider_idx] == 0 and provider_taken != alt_taken:
                if alt_taken == taken:
                    self._use_alt_on_na = min(7, self._use_alt_on_na + 1)
                else:
                    self._use_alt_on_na = max(-8, self._use_alt_on_na - 1)
            # Useful bit: provider was right where the alternate was wrong.
            if provider_taken == taken and alt_taken != taken:
                self._u[provider][provider_idx] = min(_U_MAX, self._u[provider][provider_idx] + 1)
            elif provider_taken != taken and alt_taken == taken:
                self._u[provider][provider_idx] = max(0, self._u[provider][provider_idx] - 1)
            self._ctr[provider][provider_idx] = self._saturate(ctr, taken)
        else:
            idx = self._bimodal_index(pc)
            self._bimodal[idx] = self._saturate(self._bimodal[idx], taken)

        if mispredicted and provider < self.config.n_tables - 1:
            self._allocate(pc, folds, taken, provider)

        self._tick += 1
        if self._tick >= self.config.u_reset_period:
            self._tick = 0
            for table in range(self.config.n_tables):
                u_col = self._u[table]
                for i in range(len(u_col)):
                    u_col[i] >>= 1

    def _saturate(self, ctr: int, taken: bool) -> int:
        if taken:
            return min(_CTR_MAX, ctr + 1)
        return max(_CTR_MIN, ctr - 1)

    def _allocate(self, pc: int, folds, taken: bool, provider: int) -> None:
        """Allocate up to one entry in a longer-history table."""
        start = provider + 1
        for table in range(start, self.config.n_tables):
            idx, tag = self._index_and_tag(table, pc, folds)
            if self._u[table][idx] == 0:
                self._tag[table][idx] = tag
                self._ctr[table][idx] = 0 if taken else -1
                self.allocations += 1
                return
        # No free entry: age the candidates so future allocations succeed.
        for table in range(start, self.config.n_tables):
            idx, _ = self._index_and_tag(table, pc, folds)
            self._u[table][idx] = max(0, self._u[table][idx] - 1)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        return self.config.storage_bits()
