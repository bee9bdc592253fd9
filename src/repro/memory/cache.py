"""Generic set-associative cache model.

Holds line *presence* only (this is an instruction-side simulator; data
values come from the static program image).  LRU replacement, explicit
tag-probe accounting -- Fig 9's I-cache tag-access comparison is driven
by the ``tag_probes`` counter, so every lookup path is explicit about
whether it models a real tag-array access.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CacheAccess:
    """Result of a cache probe."""

    hit: bool
    way: int
    """Way holding the line on a hit (the FTQ records this, Table III)."""
    victim: int
    """Line address evicted by a fill (0 when no eviction happened)."""


_MISS = CacheAccess(hit=False, way=-1, victim=0)
"""Shared miss result: immutable, so one instance serves every miss."""


class Cache:
    """Set-associative, LRU, line-presence cache.

    Sets are lists ordered most-recent-first; a list is tiny (the
    associativity), so MRU reordering is cheap.

    ``probe`` sits on the per-cycle path (every FTQ entry's tag lookup
    plus every prefetcher probe), so the set index uses a mask when
    ``n_sets`` is a power of two and falls back to ``%`` otherwise.
    """

    __slots__ = (
        "name",
        "assoc",
        "line_bytes",
        "n_sets",
        "_line_shift",
        "_line_mask",
        "_set_mask",
        "_sets",
        "tag_probes",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, n_lines: int, assoc: int, line_bytes: int, name: str = "cache") -> None:
        if n_lines <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        if n_lines % assoc:
            raise ValueError("n_lines must be a multiple of assoc")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        self.name = name
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = n_lines // assoc
        self._line_shift = line_bytes.bit_length() - 1
        self._line_mask = ~(line_bytes - 1)
        # Power-of-two set counts (every catalogue geometry) index with
        # a mask; -1 selects the modulo fallback.
        self._set_mask = self.n_sets - 1 if self.n_sets & (self.n_sets - 1) == 0 else -1
        # Each set: list of line addresses, index 0 = MRU.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.tag_probes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_index(self, addr: int) -> int:
        if self._set_mask >= 0:
            return (addr >> self._line_shift) & self._set_mask
        return (addr >> self._line_shift) % self.n_sets

    def line_of(self, addr: int) -> int:
        """Line address containing byte address ``addr``."""
        return addr & self._line_mask

    def probe(self, addr: int, count_tag_access: bool = True) -> CacheAccess:
        """Tag lookup without fill.  Promotes the line to MRU on a hit."""
        if count_tag_access:
            self.tag_probes += 1
        line = addr & self._line_mask
        idx = addr >> self._line_shift
        idx = idx & self._set_mask if self._set_mask >= 0 else idx % self.n_sets
        ways = self._sets[idx]
        if ways:
            if ways[0] == line:  # MRU fast path: the common streaming case
                self.hits += 1
                return CacheAccess(hit=True, way=0, victim=0)
            for way, held in enumerate(ways):
                if held == line:
                    self.hits += 1
                    ways.remove(line)
                    ways.insert(0, line)
                    return CacheAccess(hit=True, way=way, victim=0)
        self.misses += 1
        return _MISS

    def contains(self, addr: int) -> bool:
        """Presence check with no side effects (no LRU update, no stats)."""
        line = self.line_of(addr)
        return line in self._sets[self._set_index(addr)]

    def fill(self, addr: int) -> CacheAccess:
        """Install the line holding ``addr``; returns the way and any victim.

        Filling a line already present just refreshes its LRU position.
        """
        line = self.line_of(addr)
        ways = self._sets[self._set_index(addr)]
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            return CacheAccess(hit=True, way=0, victim=0)
        victim = 0
        if len(ways) >= self.assoc:
            victim = ways.pop()
            self.evictions += 1
        ways.insert(0, line)
        return CacheAccess(hit=False, way=0, victim=victim)

    def fill_range(self, start: int, end: int) -> None:
        """Install every line overlapping ``[start, end)``.

        Leaves exactly the state (MRU order, ``evictions``) that
        :meth:`fill` on each line in ascending address order would.  The
        lines of one set are every ``n_sets``-th line of the range, so an
        empty set takes the last ``assoc`` of them, most recent first, in
        one slice and counts the rest as evictions; a set that already
        holds lines falls back to per-line :meth:`fill`.
        """
        shift = self._line_shift
        first = start >> shift
        stop = (end + self.line_bytes - 1) >> shift
        n_sets = self.n_sets
        assoc = self.assoc
        for i in range(first, min(stop, first + n_sets)):
            lines = range(i << shift, stop << shift, n_sets << shift)
            ways = self._sets[i % n_sets]
            if ways:
                for line in lines:
                    self.fill(line)
                continue
            self.evictions += max(0, len(lines) - assoc)
            ways[:] = lines[::-1][:assoc]

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if present."""
        line = self.line_of(addr)
        ways = self._sets[self._set_index(addr)]
        if line in ways:
            ways.remove(line)
            return True
        return False

    def reset_stats(self) -> None:
        """Zero the counters (used at the warmup/measure boundary)."""
        self.tag_probes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(ways) for ways in self._sets)

    def snapshot(self) -> dict[str, int | float]:
        """Point-in-time counter snapshot for telemetry (no side effects)."""
        probes = self.tag_probes
        return {
            "tag_probes": probes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "occupancy": self.occupancy,
            "capacity_lines": self.n_sets * self.assoc,
            "hit_rate": self.hits / (self.hits + self.misses) if self.hits + self.misses else 0.0,
        }

    def validate(self) -> list[str]:
        """Structural invariants (:mod:`repro.check`); side-effect free.

        Per-set occupancy bound, no duplicate lines, line-address
        alignment, and correct set indexing of every resident line.
        """
        problems: list[str] = []
        for idx, ways in enumerate(self._sets):
            if len(ways) > self.assoc:
                problems.append(
                    f"{self.name} set {idx}: {len(ways)} lines exceed associativity {self.assoc}"
                )
            if len(set(ways)) != len(ways):
                problems.append(f"{self.name} set {idx}: duplicate resident line")
            for line in ways:
                if line % self.line_bytes:
                    problems.append(f"{self.name} set {idx}: misaligned line {line:#x}")
                elif self._set_index(line) != idx:
                    problems.append(
                        f"{self.name}: line {line:#x} resident in set {idx}, "
                        f"indexes to set {self._set_index(line)}"
                    )
        return problems

    def resident_lines(self) -> set[int]:
        """All resident line addresses (for tests and invariants)."""
        out: set[int] = set()
        for ways in self._sets:
            out.update(ways)
        return out
