"""Run-ledger tests: lifecycle validity, reconciliation, determinism.

Covers the sweep observability contract (docs/OBSERVABILITY.md):

* every job's ledger lifecycle is one of the valid sequences;
* totals reconcile exactly (queued == finished + failed + cache_hits);
* a parallel sweep's ledger matches a serial one modulo timing fields;
* a ledgered sweep's *results* are bit-identical to an unledgered one;
* provenance manifests land beside cached results and survive reads.
"""

import json
import multiprocessing
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.common.ledger import (
    TIMING_FIELDS,
    SweepLedger,
    invalid_sequences,
    job_sequences,
    latest_ledger,
    new_sweep_id,
    read_ledger,
    render_progress,
    render_summary_md,
    summarize_ledger,
)
from repro.common.params import SimParams
from repro.experiments.cache import MANIFEST_SCHEMA_VERSION, ResultCache, run_key
from repro.experiments.runner import _trace_chunks, clear_cache, run_config, run_points
from repro.experiments.spec import expand, parse_spec
from repro.trace import workloads as trace_workloads
from repro.trace.champsim import TraceFormatError

WORKLOADS = ["spc_fp", "srv_web"]


def fast():
    return SimParams(warmup_instructions=1_000, sim_instructions=2_500)


def points():
    return [
        (wl, params)
        for wl in WORKLOADS
        for params in (fast(), fast().with_branch(btb_entries=1024))
    ]


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path):
    """Fresh memo + private disk cache + private ledger dir per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
    clear_cache()
    yield
    clear_cache()


def one_ledger(tmp_path) -> list[dict]:
    """Read back the single ledger file the test's sweep produced."""
    files = sorted((tmp_path / "ledger").glob("*.jsonl"))
    assert len(files) == 1, files
    return read_ledger(files[0])


class TestSweepId:
    def test_ids_unique_within_a_second(self):
        ids = {new_sweep_id(clock=lambda: 1_700_000_000.0) for _ in range(5)}
        assert len(ids) == 5

    def test_sortable_stamp(self):
        a = new_sweep_id(clock=lambda: 1_700_000_000.0)
        b = new_sweep_id(clock=lambda: 1_700_000_060.0)
        assert a < b


class TestLifecycle:
    def test_cold_sweep_sequences_and_reconciliation(self, tmp_path):
        resolved = run_points(points(), jobs=1)
        events = one_ledger(tmp_path)

        assert invalid_sequences(events) == {}
        seqs = job_sequences(events)
        assert set(seqs) == set(resolved)
        assert all(seq[-1] == "finished" for seq in seqs.values())

        summary = summarize_ledger(events)
        assert summary["complete"]
        assert summary["reconciled"]
        totals = summary["totals"]
        assert totals["queued"] == len(resolved) == 4
        assert totals["queued"] == (
            totals["finished"] + totals["failed"] + totals["cache_hits"]
        )

    def test_warm_sweep_is_all_cache_hits(self, tmp_path, monkeypatch):
        run_points(points(), jobs=1)
        clear_cache()  # memo dropped; disk cache stays warm
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger2"))
        run_points(points(), jobs=1)
        events = read_ledger(sorted((tmp_path / "ledger2").glob("*.jsonl"))[0])
        summary = summarize_ledger(events)
        assert summary["reconciled"]
        assert summary["totals"]["cache_hits"] == 4
        assert summary["totals"]["finished"] == 0
        assert summary["cache_hit_rate"] == 1.0
        assert summary["cache_hit_sources"]["disk"] == 4
        assert invalid_sequences(events) == {}

    def test_failed_units_reconcile_and_reraise(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner

        orig = runner._simulate_unit

        def boom(workload, params):
            if workload == "srv_web":
                raise RuntimeError("injected unit failure")
            return orig(workload, params)

        monkeypatch.setattr(runner, "_simulate_unit", boom)
        with pytest.raises(RuntimeError, match="injected unit failure"):
            run_points(points(), jobs=1)
        events = one_ledger(tmp_path)
        assert invalid_sequences(events) == {}
        summary = summarize_ledger(events)
        assert summary["reconciled"]  # failures still reconcile
        assert summary["totals"]["failed"] == 2  # both srv_web points
        assert summary["totals"]["finished"] == 2
        failed = [e for e in events if e["event"] == "failed"]
        assert all("injected unit failure" in e["error"] for e in failed)


def strip_timing(events: list[dict]) -> list[dict]:
    """Project ledger events onto their deterministic fields, sorted."""
    rows = []
    for record in events:
        row = {
            k: v
            for k, v in record.items()
            # "sweep" and "jobs" are identity/pool config, not job data
            if k not in TIMING_FIELDS and k not in ("sweep", "jobs")
        }
        rows.append(row)
    return sorted(rows, key=lambda r: (r.get("key", ""), r["event"]))


class TestDeterminism:
    def test_parallel_ledger_matches_serial_modulo_timing(
        self, tmp_path, monkeypatch
    ):
        serial = run_points(points(), jobs=1)
        serial_events = one_ledger(tmp_path)

        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger2"))
        parallel = run_points(points(), jobs=4)
        parallel_events = read_ledger(
            sorted((tmp_path / "ledger2").glob("*.jsonl"))[0]
        )

        assert strip_timing(serial_events) == strip_timing(parallel_events)
        assert {k: (r.instructions, r.cycles, r.stats.as_dict()) for k, r in serial.items()} == {
            k: (r.instructions, r.cycles, r.stats.as_dict()) for k, r in parallel.items()
        }

    def test_broken_trace_reconciles_in_parallel_as_in_serial(self, tmp_path, monkeypatch):
        # The parallel runner materialises each chunk's trace in the
        # worker before any unit of the chunk runs; a trace that fails
        # there must fail only its own points, exactly as it does inside
        # the serial runner's units.
        blob = (Path(__file__).parent / "data" / "golden.champsim.xz").read_bytes()
        broken = tmp_path / "broken.champsim.xz"
        broken.write_bytes(blob[: len(blob) // 2])
        spec = parse_spec(
            {
                "sweep": "broken",
                "workloads": ["srv_web", {"name": "broken", "trace": str(broken)}],
                "base": {"warmup_instructions": 300, "sim_instructions": 1_500},
                "matrix": {"frontend.ftq_entries": [2, 24]},
            }
        )
        sweep_points = [(p.workload, p.params) for p in expand(spec)]
        ledgers = {}
        for jobs in (1, 2):
            clear_cache()
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache{jobs}"))
            monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / f"ledger{jobs}"))
            with pytest.raises(TraceFormatError):
                run_points(sweep_points, jobs=jobs)
            ledgers[jobs] = read_ledger(sorted((tmp_path / f"ledger{jobs}").glob("*.jsonl"))[0])

        serial, parallel = (summarize_ledger(ledgers[jobs]) for jobs in (1, 2))
        assert parallel["complete"] and parallel["reconciled"]
        assert parallel["totals"] == serial["totals"]
        assert parallel["totals"]["finished"] == parallel["totals"]["failed"] == 2
        assert invalid_sequences(ledgers[2]) == {}
        assert strip_timing(ledgers[1]) == strip_timing(ledgers[2])

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched materialize",
    )
    def test_traces_materialise_in_workers_once_per_chunk(self, tmp_path, monkeypatch):
        log = tmp_path / "materialised.txt"
        materialize = trace_workloads.WorkloadSpec.materialize

        def logged(self, n_instructions):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {self.name}\n")
            return materialize(self, n_instructions)

        monkeypatch.setattr(trace_workloads.WorkloadSpec, "materialize", logged)
        sweep_points = [
            (wl, fast().with_branch(btb_entries=entries))
            for wl in WORKLOADS
            for entries in (256, 512, 1024, 4096)
        ]

        def sweep(jobs):
            clear_cache()
            trace_workloads._cached_trace.cache_clear()
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache{jobs}"))
            monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / f"ledger{jobs}"))
            run_points(sweep_points, jobs=jobs)
            return read_ledger(sorted((tmp_path / f"ledger{jobs}").glob("*.jsonl"))[0])

        parallel = sweep(2)
        records = [line.split() for line in log.read_text().splitlines()]
        serial = sweep(1)

        assert str(os.getpid()) not in {pid for pid, _ in records}
        # Each worker's trace memo serves every later chunk of a trace.
        assert max(Counter(map(tuple, records)).values()) == 1
        units = [(f"u{i}", "", wl, params) for i, (wl, params) in enumerate(sweep_points)]
        chunks = Counter(chunk[0][2] for chunk in _trace_chunks(units, jobs=2))
        per_trace = Counter(name for _, name in records)
        assert set(per_trace) == set(WORKLOADS)
        assert all(per_trace[wl] <= chunks[wl] for wl in WORKLOADS)
        assert strip_timing(serial) == strip_timing(parallel)

    def test_ledgered_results_bit_identical_to_plain(self, tmp_path, monkeypatch):
        ledgered = run_points(points(), jobs=1)
        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        monkeypatch.delenv("REPRO_LEDGER")
        plain = run_points(points(), jobs=1)
        assert not (tmp_path / "cache2" / "nonexistent").exists()
        for key in ledgered:
            a, b = ledgered[key], plain[key]
            assert (a.instructions, a.cycles) == (b.instructions, b.cycles)
            assert a.stats.as_dict() == b.stats.as_dict()


class TestTraceChunks:
    def test_chunks_share_a_trace_and_interleave_across_traces(self):
        a, b = fast(), fast().with_branch(btb_entries=1024)
        units = [(f"a{i}", "", "srv_web", a) for i in range(5)]
        units += [(f"b{i}", "", "spc_fp", b) for i in range(2)]
        # ceil(7 / (4 * 1)) = 2 units per chunk, distinct traces first.
        chunks = _trace_chunks(units, jobs=1)
        assert [[u[0] for u in chunk] for chunk in chunks] == [
            ["a0", "a1"],
            ["b0", "b1"],
            ["a2", "a3"],
            ["a4"],
        ]

    def test_window_length_is_part_of_the_trace(self):
        short = fast()
        long = short.replace(sim_instructions=5_000)
        units = [(f"s{i}", "", "srv_web", short) for i in range(3)]
        units += [(f"l{i}", "", "srv_web", long) for i in range(3)]
        chunks = _trace_chunks(units, jobs=1)
        assert [[u[0] for u in chunk] for chunk in chunks] == [
            ["s0", "s1"],
            ["l0", "l1"],
            ["s2"],
            ["l2"],
        ]


class TestOffSwitch:
    def test_unset_env_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER")
        run_points(points(), jobs=1)
        assert not (tmp_path / "ledger").exists()

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", ""])
    def test_disabling_values(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        run_points(points(), jobs=1)
        assert not (tmp_path / "ledger").exists()


class TestSummaries:
    def test_invalid_sequence_detected(self):
        events = [
            {"event": "queued", "key": "k1"},
            {"event": "finished", "key": "k1"},  # never started
        ]
        assert invalid_sequences(events) == {"k1": ["queued", "finished"]}

    def test_summarizes_a_ledger_written_before_batching_was_removed(self, tmp_path):
        # Older ledgers carry batching/batch_width in sweep_begin and
        # unit_size in finished events, and a batch of two points
        # shares one unit ("u0") and one wall-time measurement.
        def event(name, ts, **fields):
            return {"schema": 1, "sweep": "old", "event": name, "ts": ts, **fields}

        def job(name, key, ts, **fields):
            return event(name, ts, key=key, workload="srv_web", label=f"cfg-{key}", **fields)

        def finished(key, unit, unit_size, pid, wall):
            return job("finished", key, 103.0, unit=unit, unit_size=unit_size, pid=pid,
                       wall_seconds=wall, instructions=1_000, instrs_per_sec=1_000.0, ipc=0.5)

        events = [
            event("sweep_begin", 100.0, jobs=2, batching=True, batch_width=8),
            *(job("queued", key, 100.0) for key in "abcde"),
            job("cache_hit", "e", 100.0, source="disk"),
            job("started", "a", 101.0, unit="u0", pid=11),
            job("started", "b", 101.0, unit="u0", pid=11),
            finished("a", "u0", 2, 11, 2.0),
            finished("b", "u0", 2, 11, 2.0),
            job("started", "c", 101.0, unit="u1", pid=12),
            finished("c", "u1", 1, 12, 1.0),
            job("failed", "d", 102.0, unit="u2", error="boom"),
            event("sweep_end", 104.0, queued=5, cache_hits=1, finished=3, failed=1),
        ]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
        summary = summarize_ledger(read_ledger(path))

        assert summary["totals"] == {
            "queued": 5, "cache_hits": 1, "started": 3, "finished": 3, "failed": 1,
        }
        assert summary["reconciled"] and summary["complete"]
        assert summary["config"] == {"jobs": 2}
        assert summary["duration_seconds"] == 4.0
        assert summary["busy_seconds"] == 3.0
        assert summary["instrs_per_sec"] == 1_000.0
        assert [u["jobs"] for u in summary["slowest_units"]] == [2, 1]
        assert [w["units"] for w in summary["workers"]] == [1, 1]
        assert "- pool: jobs=2" in render_summary_md(summary)
        assert "finished=3" in render_progress(summary)

    def test_renderers_smoke(self, tmp_path):
        run_points(points(), jobs=1)
        summary = summarize_ledger(one_ledger(tmp_path))
        progress = render_progress(summary)
        assert "4/4 jobs" in progress
        md = render_summary_md(summary)
        assert "# Sweep report" in md
        assert "Slowest work units" in md
        assert "Per-worker utilization" in md

    def test_latest_ledger_picks_newest(self, tmp_path):
        directory = tmp_path / "ledger"
        run_points(points()[:1], jobs=1)
        first = latest_ledger(directory)
        run_points(points()[1:2], jobs=1)
        second = latest_ledger(directory)
        assert first is not None and second is not None
        assert second >= first
        assert len(list(directory.glob("*.jsonl"))) == 2

    def test_read_ledger_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "queued", "key": "k"}\n{broken\n\n')
        events = read_ledger(path)
        assert len(events) == 1

    def test_ledger_file_failure_is_silent(self, tmp_path):
        led = SweepLedger(path=tmp_path / "nodir" / "x" / "y.jsonl")
        led.queued("k", "wl", "cfg")  # must not raise
        led.end()


class TestManifests:
    def test_run_config_writes_manifest(self):
        params = fast()
        result = run_config("spc_fp", params)
        cache = ResultCache()
        manifests = cache.manifests()
        assert len(manifests) == 1
        m = manifests[0]
        assert m["manifest_schema"] == MANIFEST_SCHEMA_VERSION
        assert m["workload"] == "spc_fp"
        assert m["ipc"] == result.ipc
        assert m["warmup_mode"] == "functional"  # sweep default resolution
        assert "batched" not in m and "unit_size" not in m
        assert m["wall_seconds"] > 0
        assert "worker_pid" in m and "host" in m and "repro_version" in m

    def test_get_manifest_by_key(self):
        import repro.experiments.runner as runner

        params = runner._resolve(fast())
        run_config("spc_fp", fast())
        key = run_key("spc_fp", params)
        m = ResultCache().get_manifest(key)
        assert m is not None and m["key"] == key

    def test_clear_removes_manifests(self):
        run_config("spc_fp", fast())
        cache = ResultCache()
        assert cache.info()["manifests"] == 1
        cache.clear()
        assert cache.info()["manifests"] == 0
        assert cache.manifests() == []

    def test_info_counts_and_hit_rate(self):
        run_config("spc_fp", fast())
        run_config("spc_fp", fast())  # memo hit
        info = ResultCache().info()
        assert info["manifests"] == info["entries"] == 1
        assert 0.0 <= info["session_hit_rate"] <= 1.0


class TestWorkerLogPropagation:
    def test_initializer_applies_level(self):
        import logging

        from repro.common.log import current_level_name
        from repro.experiments.runner import _pool_worker_init

        _pool_worker_init("debug")
        try:
            assert current_level_name() == "debug"
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            _pool_worker_init("warning")

    def test_current_level_name_roundtrip(self):
        from repro.common.log import configure, current_level_name

        for name in ("info", "warning"):
            configure(name)
            assert current_level_name() == name


class TestSweepReportCli:
    def test_progress_and_summary_outputs(self, tmp_path, capsys):
        from repro.cli import main

        run_points(points(), jobs=1)
        path = str(sorted((tmp_path / "ledger").glob("*.jsonl"))[0])

        assert main(["sweep-report", path]) == 0
        out = capsys.readouterr().out
        assert "4/4 jobs" in out and "complete" in out

        outdir = tmp_path / "reports"
        assert main(["sweep-report", path, "--format", "both", "--out", str(outdir)]) == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert any(f.endswith(".sweep.md") for f in files)
        assert any(f.endswith(".sweep.json") for f in files)
        payload = json.loads(next(outdir.glob("*.sweep.json")).read_text())
        assert payload["reconciled"] is True

    def test_defaults_to_latest_ledger(self, tmp_path, capsys):
        from repro.cli import main

        run_points(points(), jobs=1)
        assert main(["sweep-report"]) == 0
        assert "4/4 jobs" in capsys.readouterr().out

    def test_missing_ledger_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["sweep-report", str(tmp_path / "nope.jsonl")]) == 2
        assert main(["sweep-report"]) == 2  # empty ledger dir
