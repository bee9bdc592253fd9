"""The declarative per-cycle stage schedule and the cycle-kernel builder.

This module is the **single source of truth for the simulator's cycle
loop**.  :data:`CYCLE_SCHEDULE` declares, in execution order, the six
per-cycle pipeline stages plus the named hook points that optional
subsystems attach to:

========  ==================  ===========  =================================
order     point               kind         active when
========  ==================  ===========  =================================
1         profile_prologue    hook         a stage profiler is attached
2         telemetry_clock     hook         a telemetry hub is attached
3         memory_fill         stage        always
4         retire_count        hook         a telemetry hub is attached
5         backend_retire      stage        always
6         measure_boundary    hook         always
7         telemetry_tick      hook         a telemetry hub is attached
8         fetch               stage        always
9         predict             stage        always
10        probe               stage        always
11        prefetch            stage        a dedicated prefetcher is built
12        invariant_sweep     hook         ``params.check_invariants``
13        idle_skip           hook         no telemetry/checker/prefetcher/profile
14        livelock_guard      hook         always
========  ==================  ===========  =================================

The stage bodies are *flat*: each one is the lowered form of the
component method it stands for -- ``InstructionMemory.tick`` plus
``FetchUnit.complete_fills`` (memory_fill), ``Backend.cycle``
(backend_retire), ``FetchUnit.fetch_stage`` (fetch),
``BranchPredictionUnit.cycle`` (predict), ``FetchUnit.probe_stage``
with ``InstructionMemory.demand_probe`` (probe) -- operating on ints
and pre-bound component internals instead of per-cycle method
dispatch.  Rare and cold paths stay calls into the components so their
logic exists once: commit training, the pipeline flush, PFC
pre-decode, the L2/DRAM fill path, BTB scans and the direction,
indirect and loop predictors.  The component methods remain the
*reference model*: :func:`repro.check.reference.reference_kernel`
steps them cycle by cycle, and the fuzzer's ``flat_reference_identity``
property plus ``tests/test_kernel.py`` pin every feature set of the
flat kernel to it counter for counter.

Observers on rare paths live inside the flat bodies, guarded by a bound
local that is ``None`` when the feature is off: the dedicated
prefetcher's ``on_fill``/``on_access`` (``pf_on_fill``,
``pf_on_access``) and the event-trace hub (``hub``, see
:attr:`repro.common.telemetry.Telemetry.attach`), which receives the
``fill``, ``demand_miss``, ``flush``, ``ftq_push`` and ``ftq_pop``
events exactly where the component methods emit them.  Per-cycle
observers compose in as hook points, so absent features cost nothing.

Under the ``profile`` feature (:mod:`repro.core.prof`) the emitter
additionally wraps each composed point's body with perf-counter reads
accumulating per-stage self time -- timers only observe, so profiled
runs stay bit-identical to plain runs.

:func:`build_kernel` *specializes* one loop body from the schedule at
run time: it composes only the points whose feature is active into
Python source, compiles it once per feature combination (memoised
process-wide), and returns the kernel function.  Every telemetry x
checker x prefetcher x profile combination is generated from the same
declaration -- observing hooks compose in, they never fork the loop,
so checked / traced runs stay bit-identical to plain runs (pinned by
the fuzzer's ``checked_bit_identity`` / ``traced_bit_identity``
properties).

Each point also declares its *bindings*: the ``sim`` attributes it
snapshots into locals before the loop starts.  Component objects and
their containers are stable for the whole run -- the
measurement-boundary swap replaces only ``.stats`` (the
``measure_boundary`` hook rebinds ``counters``), and the one reassigned
container, the speculative RAS stack, is reached through the bound RAS
object.  Bindings shared by several bodies are declared by the first
always-active point that uses them.  :func:`validate_stage_interfaces`
checks that every binding resolves on a built simulator.
"""

from __future__ import annotations

import textwrap
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from repro.branch.history import TARGET_SHIFT
from repro.core.backend import _Chunk
from repro.frontend.bpu import compute_fault
from repro.frontend.ftq import FTQEntry
from repro.isa.instructions import BranchKind
from repro.memory.mshr import MSHREntry

#: Feature flags a schedule point may require.  A kernel is specialized
#: for one subset of these (the simulator's active features).
#: ``profile`` additionally changes how the kernel is *emitted*: every
#: composed point body is wrapped with perf-counter self-time
#: accumulation (see :mod:`repro.core.prof`).
FEATURES = ("telemetry", "checker", "prefetcher", "profile")

KERNEL_BACKEND = "typed-python"
"""The label every run records for the cycle kernel that produced it
(``Simulator.kernel_backend``, cache manifests, bench payloads).  There
is one kernel; the label keeps the name earlier runs recorded for the
flat kernel so manifests and bench history stay one series."""

_KERNEL_GLOBALS = {
    "bisect_left": bisect_left,
    "bisect_right": bisect_right,
    "TARGET_SHIFT": TARGET_SHIFT,
    "Chunk": _Chunk,
    "FTQEntry": FTQEntry,
    "MSHREntry": MSHREntry,
    "compute_fault": compute_fault,
    "COND": BranchKind.COND_DIRECT,
    "CALL_DIRECT": BranchKind.CALL_DIRECT,
    "RETURN": BranchKind.RETURN,
    "INDIRECT": BranchKind.INDIRECT,
    "INDIRECT_CALL": BranchKind.INDIRECT_CALL,
    # Sort key matching MSHRFile.pop_ready (stable sort on ready_cycle).
    "ready_key": attrgetter("ready_cycle"),
}
"""Module-level names the generated kernel source refers to."""


@dataclass(frozen=True)
class SchedulePoint:
    """One stage or hook point of the per-cycle schedule.

    ``binds`` are prologue source lines (run once, before the loop)
    that snapshot ``sim`` attributes into locals; ``body`` are the
    per-cycle source lines.  ``requires`` names the feature flag that
    must be active for the point to be composed into the kernel
    (``None`` means always active).
    """

    name: str
    kind: str  # "stage" | "hook"
    body: tuple[str, ...]
    binds: tuple[str, ...] = ()
    requires: str | None = None
    excludes: tuple[str, ...] = ()
    """Feature flags that suppress the point: it is composed in only
    when *none* of these are active.  Used by pure fast-path
    optimisations (idle_skip) that must stand aside whenever an
    observing subsystem wants to see every cycle."""

    def __post_init__(self) -> None:
        if self.kind not in ("stage", "hook"):
            raise ValueError(f"schedule point kind must be stage|hook, got {self.kind!r}")
        if self.requires is not None and self.requires not in FEATURES:
            raise ValueError(f"unknown feature {self.requires!r}; known: {FEATURES}")
        for feature in self.excludes:
            if feature not in FEATURES:
                raise ValueError(f"unknown feature {feature!r}; known: {FEATURES}")


def _lines(source: str) -> tuple[str, ...]:
    """Source lines of a dedented code block."""
    return tuple(textwrap.dedent(source).strip("\n").splitlines())


def _stage(name: str, body: str, binds: str = "", requires=None):
    """Shorthand for a pipeline-stage schedule point."""
    return SchedulePoint(name, "stage", _lines(body), _lines(binds), requires)


def _hook(name: str, body: str, binds: str = "", requires=None, excludes: tuple[str, ...] = ()):
    """Shorthand for a hook-point schedule point."""
    return SchedulePoint(name, "hook", _lines(body), _lines(binds), requires, excludes)


CYCLE_SCHEDULE: tuple[SchedulePoint, ...] = (
    # Stage-profiler bindings (no per-cycle body of its own: the
    # emitter wraps every *other* point's body with `_clk`/`_pacc`
    # accesses when the profile feature is active).
    _hook(
        "profile_prologue",
        requires="profile",
        binds="""
            _clk = sim.profiler.clock
            _pacc = sim.profiler.acc
        """,
        body="",
    ),
    # Refresh the telemetry clock before any stage can emit an event.
    _hook(
        "telemetry_clock",
        requires="telemetry",
        binds="tel = sim.telemetry",
        body="tel.now = cycle",
    ),
    # 1. Memory fill completion -> L1I install -> FTQ wakeups
    #    (InstructionMemory.tick + FetchUnit.complete_fills).  Also
    #    binds the locals every later body shares: the counter dict and
    #    the event hub.
    _stage(
        "memory_fill",
        binds="""
            counters = sim.stats._counters
            hub = sim.event_hub
            memory = sim.memory
            mshrs = memory.mshrs
            by_line = mshrs._by_line
            l1i_fill = memory.l1i.fill
            prefetched_untouched = memory._prefetched_untouched
            pf_on_fill = sim.prefetcher.on_fill if sim.prefetcher is not None else None
        """,
        body="""
            if by_line:
                fills = [m for m in by_line.values() if m.ready_cycle <= cycle]
                if fills:
                    for m in fills:
                        del by_line[m.line]
                    if len(fills) > 1:
                        fills.sort(key=ready_key)
                    for m in fills:
                        line = m.line
                        victim = l1i_fill(line).victim
                        if victim and victim in prefetched_untouched:
                            prefetched_untouched.discard(victim)
                            counters["prefetch_useless"] += 1
                        if m.is_prefetch:
                            counters["prefetch_fill"] += 1
                            prefetched_untouched.add(line)
                        if hub is not None:
                            hub.event("fill", line=line, prefetch=m.is_prefetch, wait=cycle - m.issue_cycle)
                    for m in fills:
                        for waiter in m.waiters:
                            if waiter.state == 2:  # AWAIT_FILL -> READY
                                waiter.state = 3
                                waiter.way = 0
                                waiter.ready_cycle = cycle
                        if pf_on_fill is not None:
                            pf_on_fill(m.line, cycle, m.is_prefetch)
        """,
    ),
    # Snapshot the retire counter so telemetry_tick sees this cycle's delta.
    _hook(
        "retire_count",
        requires="telemetry",
        body="before = backend.committed",
    ),
    # 2. Backend retire (Backend.cycle); a consumed fault flushes the
    #    pipeline through the backend's flush callback.
    _stage(
        "backend_retire",
        binds="""
            backend = sim.backend
            dq = sim.decode_queue
            chunks = dq._chunks
            retire_width = backend._retire_width
            trainer_advance = backend.trainer.advance
            on_flush = backend.flush_callback
        """,
        body="""
            if dq.total_instrs < retire_width:
                counters["starvation_cycles"] += 1
            budget = retire_width
            while budget > 0 and chunks:
                chunk = chunks[0]
                avail = chunk.n - chunk.pos
                take = budget if budget < avail else avail
                fault = chunk.fault
                if fault is not None and chunk.pos <= chunk.fault_index < chunk.pos + take:
                    take = chunk.fault_index - chunk.pos + 1
                    fault_hit = True
                else:
                    fault_hit = False
                if chunk.wrong_path:
                    counters["wrong_path_consumed"] += take
                else:
                    backend.committed += take
                    counters["committed_instructions"] += take
                    trainer_advance(take)
                chunk.pos += take
                dq.total_instrs -= take
                if chunk.pos >= chunk.n:
                    chunks.popleft()
                budget -= take
                if fault_hit:
                    counters["branch_mispredictions"] += 1
                    counters["mispredict_" + fault.kind_label] += 1
                    if fault.branch_kind is COND:
                        counters["cond_mispredictions"] += 1
                    if hub is not None:
                        hub.event("flush", pc=fault.pc, fault=fault.kind_label, branch=fault.branch_kind.name)
                    on_flush(fault, cycle)
                    break
        """,
    ),
    # Warmup -> measurement boundary: swap in fresh counters exactly once.
    _hook(
        "measure_boundary",
        body="""
            if not sim._measuring and backend.committed >= warmup:
                sim.cycle = cycle
                sim._begin_measurement()
                counters = sim.stats._counters
        """,
    ),
    # Cycle accounting + interval sampling, fed the cycle's retire count.
    _hook(
        "telemetry_tick",
        requires="telemetry",
        binds="tel_tick = sim.telemetry.tick",
        body="tel_tick(cycle, backend.committed - before, sim._measuring)",
    ),
    # 3. Fetch stage (FetchUnit.fetch_stage): ready head FTQ entries ->
    #    decode queue.  Pre-decode (PFC, GHR2/3 fixups) runs on an
    #    entry's first fetch; the call is bound only when one is on.
    _stage(
        "fetch",
        binds="""
            ftq = sim.ftq
            entries = ftq._entries
            dq_capacity = dq.capacity
            fetch_width = sim.fetch._fetch_width
            predecode_on = sim.params.frontend.pfc_enabled or sim.fetch.mgr.fixes_not_taken
            predecode_checks = sim.fetch._predecode_checks if predecode_on else None
        """,
        body="""
            budget = dq_capacity - dq.total_instrs
            if budget > fetch_width:
                budget = fetch_width
            while budget > 0 and entries:
                head = entries[0]
                if head.state != 3 or head.ready_cycle > cycle:
                    if dq.total_instrs < fetch_width:
                        head.starved_while_head = True
                    break
                if not head.pfc_checked:
                    head.pfc_checked = True
                    if predecode_checks is not None:
                        predecode_checks(head, cycle)
                consumed = head.consumed
                if consumed == 0 and head.missed:
                    # Fig 14 miss classification, at first consumption.
                    if head.miss_issued_at_head:
                        counters["miss_fully_exposed"] += 1
                    elif head.starved_while_head:
                        counters["miss_partially_exposed"] += 1
                    else:
                        counters["miss_covered"] += 1
                remaining = ((head.term_addr - head.start) >> 2) + 1 - consumed
                take = budget if budget < remaining else remaining
                fault = None
                fault_index = -1
                wrong_path = head.cursor_seg == -1
                head_fault = head.fault
                if head_fault is not None:
                    rel = (head_fault.pc - head.start) >> 2
                    if consumed <= rel < consumed + take:
                        fault = head_fault
                        fault_index = rel - consumed
                    elif consumed > rel:
                        wrong_path = True  # past the divergence point
                chunks.append(Chunk(take, fault, fault_index, wrong_path))
                dq.total_instrs += take
                head.consumed = consumed + take
                budget -= take
                if take == remaining:
                    del entries[0]
                    if ftq.probe_ptr > 0:
                        ftq.probe_ptr -= 1
                    if hub is not None:
                        hub.event("ftq_pop", uid=head.uid, start=head.start, missed=head.missed)
        """,
    ),
    # 4. Branch prediction (BranchPredictionUnit.cycle): new FTQ entries.
    _stage(
        "predict",
        binds="""
            bpu = sim.bpu
            ftq_capacity = ftq.n_entries
            ras = bpu.ras
            ras_capacity = ras.n_entries
            mgr = bpu.mgr
            hist_mask = mgr.mask
            target_history = mgr._target_history
            ideal = mgr._ideal
            push_outcome = mgr.push_outcome
            ideal_pushes = bpu._ideal_pushes
            direction_predict = bpu.direction.predict if bpu.direction is not None else None
            loop_pred = bpu.loop
            ittage_predict = bpu.ittage.predict
            scan_block = bpu.btb.scan_block
            was_l2_sourced = bpu.btb.was_l2_sourced if bpu._two_level_btb else None
            btb_l2_extra = sim.params.branch.btb_l2_extra_latency
            predict_width = bpu._predict_width
            max_taken = bpu._max_taken
            perfect_btb = bpu._perfect_btb
            perfect_direction = bpu._perfect_direction
            perfect_indirect = bpu._perfect_indirect
            block_mask = bpu._block_mask
            block_last_off = bpu._block_last
            segments = bpu._segments
            meta_addrs = bpu._meta_addrs
            meta_triples = bpu._meta_triples
            stream = sim.stream
            program = sim.program
            new_entry = FTQEntry.__new__
        """,
        body="""
            if cycle >= bpu.stall_until:
                pbudget = predict_width
                taken_budget = max_taken
                while pbudget > 0 and len(entries) < ftq_capacity:
                    start = bpu.pc
                    cursor_seg = bpu.cursor_seg
                    on_path = cursor_seg != -1
                    seg = segments[cursor_seg] if on_path else None
                    block_last = (start & block_mask) + block_last_off
                    hist = bpu.hist
                    hist_snapshot = hist
                    detected = []
                    dir_pushes = []
                    ras_stack = ras._stack
                    ras_top = ras_stack[-1] if ras_stack else None
                    pred_taken = False
                    pred_target = 0
                    term_addr = block_last
                    if perfect_btb:
                        candidates = meta_triples[
                            bisect_left(meta_addrs, start) : bisect_right(meta_addrs, block_last)
                        ]
                    else:
                        candidates = [(e.addr, e.kind, e.target) for e in scan_block(start, block_last)]
                    for addr, kind, btb_target in candidates:
                        if kind is COND:
                            override = loop_pred.predict(addr) if loop_pred is not None else None
                            if override is not None:
                                taken = override
                            elif perfect_direction:
                                taken = (
                                    seg is not None
                                    and seg.next_start != 0
                                    and seg.end == addr
                                    and seg.taken_branch is not None
                                )
                            else:
                                taken = direction_predict(addr, hist)
                            detected.append(addr)
                            if not taken:
                                if not target_history and not ideal:
                                    hist = (hist << 1) & hist_mask
                                    dir_pushes.append((addr, False))
                                continue
                            tgt = btb_target
                        else:
                            detected.append(addr)
                            # Only register-indirect kinds consult the
                            # oracle/ITTAGE; returns get the RAS below.
                            if kind is INDIRECT or kind is INDIRECT_CALL:
                                if perfect_indirect and seg is not None and seg.end == addr and seg.next_start:
                                    tgt = seg.next_start
                                else:
                                    predicted_tgt = ittage_predict(addr, hist)
                                    tgt = predicted_tgt if predicted_tgt is not None else btb_target
                            else:
                                tgt = btb_target
                        # A taken branch terminates the entry; apply its RAS effect.
                        if kind is CALL_DIRECT or kind is INDIRECT_CALL:
                            ras.pushes += 1
                            ras_stack = ras._stack
                            if len(ras_stack) >= ras_capacity:
                                ras_stack.pop(0)
                                ras.overflows += 1
                            ras_stack.append(addr + 4)
                        elif kind is RETURN:
                            ras.pops += 1
                            ras_stack = ras._stack
                            if ras_stack:
                                tgt = ras_stack.pop()
                            else:
                                ras.underflows += 1
                        if not ideal:
                            if target_history:
                                hist = ((hist << TARGET_SHIFT) ^ (addr >> 2) ^ (tgt >> 3)) & hist_mask
                            else:
                                hist = ((hist << 1) | 1) & hist_mask
                                dir_pushes.append((addr, True))
                        pred_taken = True
                        pred_target = tgt
                        term_addr = addr
                        counters["bpu_taken_predictions"] += 1
                        break
                    if ideal:
                        if on_path:
                            hist = ideal_pushes(seg, start, term_addr, hist, dir_pushes)
                        else:
                            for d_addr in detected:
                                bit = d_addr == term_addr and pred_taken
                                hist = push_outcome(hist, d_addr, bit, pred_target)
                                dir_pushes.append((d_addr, bit))
                    detected_upto = tuple(detected)
                    fault = None
                    cont_seg = -1
                    if on_path:
                        fault, cont_seg = compute_fault(
                            stream, cursor_seg, start, term_addr, pred_taken, pred_target,
                            detected_upto, program,
                        )
                    # FTQEntry without __init__/__post_init__: the bounds
                    # are instruction aligned by construction.
                    entry = new_entry(FTQEntry)
                    entry.uid = bpu._uid
                    entry.start = start
                    entry.term_addr = term_addr
                    entry.pred_taken = pred_taken
                    entry.pred_target = pred_target
                    entry.hist_snapshot = hist_snapshot
                    entry.detected = detected_upto
                    entry.dir_pushes = tuple(dir_pushes)
                    entry.ras_top = ras_top
                    entry.cursor_seg = cursor_seg if on_path else -1
                    entry.fault = fault
                    entry.state = 1  # AWAIT_PROBE
                    entry.way = -1
                    entry.ready_cycle = -1
                    entry.consumed = 0
                    entry.missed = False
                    entry.miss_issued_at_head = False
                    entry.starved_while_head = False
                    entry.pfc_checked = False
                    bpu._uid += 1
                    bpu.hist = hist
                    bpu.pc = pred_target if pred_taken else term_addr + 4
                    bpu.cursor_seg = cont_seg if on_path and fault is None else -1
                    entries.append(entry)
                    n_instrs = ((term_addr - start) >> 2) + 1
                    if hub is not None:
                        hub.event("ftq_push", uid=entry.uid, start=start, n=n_instrs, taken=pred_taken)
                    counters["ftq_entries_created"] += 1
                    pbudget -= n_instrs
                    if pred_taken:
                        # A taken prediction served by the second-level
                        # BTB bubbles the prediction pipeline.
                        if was_l2_sourced is not None and was_l2_sourced(term_addr):
                            counters["btb_l2_taken_predictions"] += 1
                            until = cycle + 1 + btb_l2_extra
                            if until > bpu.stall_until:
                                bpu.stall_until = until
                            break
                        taken_budget -= 1
                        if taken_budget <= 0:
                            break
        """,
    ),
    # 5. Probe stage (FetchUnit.probe_stage + InstructionMemory.demand_probe):
    #    the oldest entries awaiting translation probe the I-TLB and the
    #    I-cache tags; misses start fills long before the head.
    _stage(
        "probe",
        binds="""
            probe_width = sim.fetch._probe_width
            wrong_path_fills = sim.fetch._wrong_path_fills
            mshr_capacity = mshrs.n_entries
            l1i = memory.l1i
            l1i_sets = l1i._sets
            l1i_line_shift = l1i._line_shift
            l1i_line_mask = l1i._line_mask
            l1i_set_mask = l1i._set_mask
            l1i_n_sets = l1i.n_sets
            fill_latency = memory._fill_latency
            perfect_mem = memory.perfect
            tlb = memory.itlb
            tlb_pages = tlb._pages
            tlb_capacity = tlb.n_entries
            tlb_page_mask = ~(tlb.page_bytes - 1)
            tlb_miss_latency = tlb.miss_latency
            pf_on_access = sim.prefetcher.on_access if sim.prefetcher is not None else None
        """,
        body="""
            n = len(entries)
            pp = ftq.probe_ptr
            while pp < n and entries[pp].state != 1:
                pp += 1
            ftq.probe_ptr = pp
            probes = probe_width
            for idx in range(pp, n):
                if probes <= 0:
                    break
                entry = entries[idx]
                if entry.state != 1:
                    continue
                if not wrong_path_fills and entry.cursor_seg == -1:
                    # Ablation: wrong-path entries consume no memory bandwidth.
                    entry.state = 3
                    entry.ready_cycle = cycle + 1
                    entry.way = 0
                    continue
                probes -= 1
                addr = entry.start
                page = addr & tlb_page_mask
                if page in tlb_pages:
                    tlb_pages.move_to_end(page)
                    tlb.hits += 1
                    tlb_lat = 0
                else:
                    tlb.misses += 1
                    if len(tlb_pages) >= tlb_capacity:
                        tlb_pages.popitem(last=False)
                    tlb_pages[page] = None
                    tlb_lat = tlb_miss_latency
                counters["l1i_tag_access"] += 1
                line = addr & l1i_line_mask
                l1i.tag_probes += 1
                set_shift = addr >> l1i_line_shift
                ways = l1i_sets[set_shift & l1i_set_mask if l1i_set_mask >= 0 else set_shift % l1i_n_sets]
                way = -1
                if ways:
                    if ways[0] == line:  # MRU fast path
                        way = 0
                    else:
                        w = 1
                        n_ways = len(ways)
                        while w < n_ways:
                            if ways[w] == line:
                                way = w
                                del ways[w]
                                ways.insert(0, line)
                                break
                            w += 1
                if way >= 0:
                    l1i.hits += 1
                    counters["l1i_hit"] += 1
                    if line in prefetched_untouched:
                        prefetched_untouched.discard(line)
                        counters["prefetch_useful"] += 1
                    entry.state = 3
                    entry.way = way
                    entry.ready_cycle = cycle + tlb_lat + 1
                else:
                    l1i.misses += 1
                    counters["l1i_tag_miss"] += 1
                    if perfect_mem:
                        # Perfect prefetching: the line appears at
                        # once, the request still counts as traffic.
                        counters["l1i_miss"] += 1
                        l1i_fill(addr)
                        counters["memory_requests"] += 1
                        entry.state = 3
                        entry.way = 0
                        entry.ready_cycle = cycle + tlb_lat + 1
                    else:
                        inflight = by_line.get(line)
                        if inflight is not None:
                            # Secondary miss: merge into the outstanding
                            # fill; a merge into a prefetch promotes it.
                            primary = inflight.is_prefetch
                            if primary:
                                counters["prefetch_late"] += 1
                                counters["l1i_miss"] += 1
                            else:
                                counters["l1i_miss_secondary"] += 1
                            mshrs.merges += 1
                            inflight.is_prefetch = False
                            inflight.waiters.append(entry)
                            entry.state = 2  # AWAIT_FILL
                            entry.missed = primary
                            entry.miss_issued_at_head = primary and idx == 0
                        elif len(by_line) >= mshr_capacity:
                            counters["mshr_stall"] += 1
                            counters["probe_retry"] += 1
                            entry.missed = True
                        else:
                            counters["l1i_miss"] += 1
                            mshr = MSHREntry(
                                line=line,
                                issue_cycle=cycle,
                                ready_cycle=cycle + tlb_lat + fill_latency(line),
                                is_prefetch=False,
                            )
                            mshr.waiters.append(entry)
                            by_line[line] = mshr
                            mshrs.allocations += 1
                            if len(by_line) > mshrs.peak_occupancy:
                                mshrs.peak_occupancy = len(by_line)
                            if hub is not None:
                                hub.event("demand_miss", line=line, latency=mshr.ready_cycle - cycle)
                            entry.state = 2  # AWAIT_FILL
                            entry.missed = True
                            entry.miss_issued_at_head = idx == 0
                if pf_on_access is not None:
                    # One miss event per transaction: a merge into a
                    # demand fill reads as a hit, as does perfect memory.
                    pf_on_access(line, way >= 0 or perfect_mem or (inflight is not None and not primary), cycle)
        """,
    ),
    # 6. Dedicated prefetcher tick.
    _stage(
        "prefetch",
        requires="prefetcher",
        binds="prefetcher_cycle = sim.prefetcher.cycle",
        body="prefetcher_cycle(cycle)",
    ),
    # End-of-cycle invariant sweep (repro check / the fuzzer).
    _hook(
        "invariant_sweep",
        requires="checker",
        binds="check_cycle = sim.checker.check_cycle",
        body="check_cycle(cycle)",
    ),
    # Idle-cycle fast-forward.  When no frontend stage can act before a
    # known wake-up cycle -- the BPU is stalled (or the FTQ full), the
    # FTQ head is absent / awaiting a fill / not yet consumable, and no
    # entry awaits its probe -- the frontend is a provable no-op until
    # the earliest wake-up (next MSHR completion, BPU stall release,
    # head ready cycle, or the livelock guard).  Two compressible
    # shapes:
    #
    # * decode queue empty: every intervening cycle is exactly one
    #   backend starvation bump, so the loop jumps straight to the
    #   wake-up and bumps starvation in bulk;
    # * decode queue holding only fault-free chunks (the
    #   fetch-bandwidth-bound stretch): only the backend acts, and with
    #   no fault in flight no flush can occur, so the drain retires
    #   cycle by cycle -- per-cycle starvation accounting,
    #   take-splitting, the measurement boundary and fetch's
    #   starved-while-head flag replicated -- without running the no-op
    #   frontend stages.  Once the queue empties mid-drain the rest
    #   collapses to the bulk starvation bump of the first shape.
    #
    # The target check mirrors the loop condition: once the last
    # instruction has committed, the loop is about to exit and a skip
    # would pad cycles the cycle-by-cycle loop never runs.
    #
    # Composed in only on the plain fast path: any observer that wants
    # to see every cycle (telemetry ticks, the invariant checker, a
    # prefetcher that may act on any cycle, the profiler) suppresses
    # it, which is also what lets the fuzzer's bit-identity properties
    # pin the skipped path against the cycle-by-cycle one.
    _hook(
        "idle_skip",
        excludes=("telemetry", "checker", "prefetcher", "profile"),
        body="""
            if backend.committed < target:
                head = entries[0] if entries else None
                wake = 0
                if head is None:
                    wake = guard + 1
                elif head.state == 2:  # AWAIT_FILL: woken by an MSHR completion
                    wake = guard + 1
                elif head.state == 3 and head.ready_cycle > cycle + 1:  # READY, later
                    wake = head.ready_cycle
                if wake:
                    if len(entries) < ftq_capacity:
                        if bpu.stall_until <= cycle + 1:
                            wake = 0  # the BPU can predict next cycle
                        elif bpu.stall_until < wake:
                            wake = bpu.stall_until
                    if wake:
                        for e in entries:
                            if e.state == 1:  # AWAIT_PROBE: probe acts next cycle
                                wake = 0
                                break
                if wake:
                    if by_line:
                        next_fill = min(m.ready_cycle for m in by_line.values())
                        if next_fill < wake:
                            wake = next_fill
                    if wake > guard + 1:
                        wake = guard + 1
                if wake > cycle + 1:
                    if not chunks:
                        counters["starvation_cycles"] += wake - cycle - 1
                        cycle = wake - 1
                    elif all(c.fault is None for c in chunks):
                        end = wake - 1
                        while cycle < end:
                            cycle += 1
                            if dq.total_instrs < retire_width:
                                counters["starvation_cycles"] += 1
                            budget = retire_width
                            while budget > 0 and chunks:
                                chunk = chunks[0]
                                avail = chunk.n - chunk.pos
                                take = budget if budget < avail else avail
                                if chunk.wrong_path:
                                    counters["wrong_path_consumed"] += take
                                else:
                                    backend.committed += take
                                    counters["committed_instructions"] += take
                                    trainer_advance(take)
                                chunk.pos += take
                                dq.total_instrs -= take
                                if chunk.pos >= chunk.n:
                                    chunks.popleft()
                                budget -= take
                            if not sim._measuring and backend.committed >= warmup:
                                sim.cycle = cycle
                                sim._begin_measurement()
                                counters = sim.stats._counters
                            if head is not None and dq.total_instrs < dq_capacity and dq.total_instrs < fetch_width:
                                head.starved_while_head = True
                            if backend.committed >= target:
                                break
                            if not chunks:
                                if end > cycle:
                                    counters["starvation_cycles"] += end - cycle
                                    if head is not None:
                                        head.starved_while_head = True
                                    cycle = end
                                break
        """,
    ),
    # A run exceeding the guard indicates a livelock; fail with context.
    _hook(
        "livelock_guard",
        body="""
            if cycle > guard:
                sim.cycle = cycle
                raise sim._livelock_error(target)
        """,
    ),
)


def active_points(features: frozenset[str]) -> list[SchedulePoint]:
    """The schedule points composed into a kernel for ``features``."""
    unknown = features.difference(FEATURES)
    if unknown:
        raise ValueError(f"unknown feature(s) {sorted(unknown)}; known: {FEATURES}")
    return [
        p
        for p in CYCLE_SCHEDULE
        if (p.requires is None or p.requires in features)
        and not any(f in features for f in p.excludes)
    ]


def profiled_points(features: frozenset[str]) -> list[SchedulePoint]:
    """The points the ``profile`` feature wraps with self-time timers.

    Every composed point with a per-cycle body, in emission order --
    the index into this list is the index into
    :attr:`repro.core.prof.StageProfiler.acc` the emitted kernel
    accumulates into.
    """
    return [p for p in active_points(features) if p.body]


def kernel_source(features: frozenset[str]) -> str:
    """Python source of the cycle kernel specialized for ``features``.

    The kernel signature is ``_kernel(sim, target, warmup, guard)``:
    run cycles until ``sim.backend.committed`` reaches ``target``,
    beginning measurement once ``warmup`` instructions have committed.
    ``cycle += 1`` is loop bookkeeping emitted between the last stage
    and the livelock guard.  When the ``profile`` feature is active
    each point body is bracketed with ``_clk`` reads feeding the
    per-stage accumulator ``_pacc`` (bound by the ``profile_prologue``
    point); the wrap adds observation only, never control flow.
    """
    points = active_points(features)
    profiling = "profile" in features
    profile_index = {id(p): i for i, p in enumerate(profiled_points(features))}
    lines = ["def _kernel(sim, target, warmup, guard):"]
    for point in points:
        for bind in point.binds:
            lines.append(f"    {bind}")
    lines.append("    cycle = sim.cycle")
    lines.append("    while backend.committed < target:")
    for point in points:
        if point.name == "livelock_guard":
            lines.append("        cycle += 1")
        if not point.body:
            continue
        lines.append(f"        # ---- {point.kind}: {point.name}")
        if profiling:
            lines.append("        _pt = _clk()")
        for stmt in point.body:
            lines.append(f"        {stmt}")
        if profiling:
            lines.append(f"        _pacc[{profile_index[id(point)]}] += _clk() - _pt")
    lines.append("    sim.cycle = cycle")
    return "\n".join(lines) + "\n"


_KERNELS: dict[frozenset[str], object] = {}
"""Process-wide memo of compiled kernels, keyed by active feature set."""


def build_kernel(features: frozenset[str]):
    """Compile (memoised) and return the cycle kernel for ``features``."""
    features = frozenset(features)
    kernel = _KERNELS.get(features)
    if kernel is None:
        namespace: dict[str, object] = dict(_KERNEL_GLOBALS)
        code = compile(kernel_source(features), f"<cycle-kernel {sorted(features)}>", "exec")
        exec(code, namespace)  # noqa: S102 - trusted, schedule-generated source
        kernel = _KERNELS[features] = namespace["_kernel"]
    return kernel


def validate_stage_interfaces(sim) -> list[str]:
    """Stage-interface conformance: every binding resolves on ``sim``.

    Runs the prologue of the kernel for ``sim``'s active features one
    binding at a time and returns a list of problems (empty when
    conformant).  Used by tests to pin that the components
    :mod:`repro.core.build` wires expose every attribute the schedule
    binds.
    """
    problems: list[str] = []
    env: dict[str, object] = dict(_KERNEL_GLOBALS, sim=sim)
    for point in active_points(sim.active_features()):
        for bind in point.binds:
            try:
                exec(bind, env)  # noqa: S102 - introspection of own schedule
            except (AttributeError, NameError) as exc:
                problems.append(f"{point.name}: binding {bind!r} failed: {exc}")
    return problems
