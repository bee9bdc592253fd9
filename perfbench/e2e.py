"""The untraced pass: ``repro sweep`` as a user runs it, plus its checks.

One repetition runs the sweep as subprocesses against a fresh
result-cache directory: ``--dry-run`` (set-up: imports, spec parse,
expansion, key resolution), the cold sweep, and the same sweep again
against the now-warm cache.  The program's own run ledger
(``REPRO_LEDGER``) is on for the cold and warm sweeps; it only
observes, and the checks below need it.

The checks decide which points failed:

* every expanded point appears exactly once in the merged table;
* every point committed its full measurement window;
* each ledger reconciles (queued = cache hits + finished, none failed),
  and the warm sweep simulated nothing;
* the warm table is byte-identical to the cold table.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.workloads import TABLE_METRICS

SUBPROCESS_TIMEOUT_S = 150.0
"""A sweep still running after this long is killed (and its points fail)."""

TABLE_FILES = ("table.json", "table.csv", "table.md")


@dataclass
class Timed:
    seconds: float
    peak_rss_kib: int
    returncode: int


def run_timed(argv: list[str], env: dict, log_path: Path) -> Timed:
    """Run ``argv`` to completion; wall seconds from launch to exit.

    The peak RSS comes from ``wait4``, which on Linux reports the
    largest of the process and every descendant it waited for -- for a
    sweep, the parent and each pool worker.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        # A session of its own, so a kill reaches the pool workers too.
        proc = subprocess.Popen(
            argv, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        kill = functools.partial(os.killpg, proc.pid, signal.SIGKILL)
        watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(seconds, usage.ru_maxrss, proc.returncode)


def sweep_env(src: Path, cache_dir: Path, jobs: int, ledger_dir: Path | None) -> dict:
    """The environment of one sweep: no inherited ``REPRO_*`` setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["REPRO_JOBS"] = str(jobs)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    if ledger_dir is not None:
        env["REPRO_LEDGER"] = str(ledger_dir)
    return env


def sweep_argv(spec_path: Path, out_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, "-m", "repro", "sweep", str(spec_path), "--out", str(out_dir), *extra]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Rep:
    """One repetition against one fresh cache, and where its outputs are."""

    dir: Path
    setups: list[Timed]
    cold: Timed
    warms: list[Timed]
    cache_bytes: int

    @property
    def cache_dir(self) -> Path:
        return self.dir / "cache"

    @property
    def cold_out(self) -> Path:
        return self.dir / "cold"

    def warm_out(self, i: int) -> Path:
        return self.dir / f"warm{i}"

    @property
    def cold_ledger(self) -> Path:
        return self.dir / "ledger-cold"

    def warm_ledger(self, i: int) -> Path:
        return self.dir / f"ledger-warm{i}"


DRY_RUNS = 1
"""Dry runs before each cold sweep."""

WARM_RUNS = 5
"""Warm sweeps after each cold sweep: at about half a second each, mostly
interpreter start-up and imports, one sample is mostly noise."""


def sweep_rep(spec_path: Path, rep_dir: Path, src: Path, jobs: int) -> Rep:
    """Dry runs, the cold sweep, then warm sweeps, against one fresh cache."""
    rep_dir.mkdir(parents=True)
    cache = rep_dir / "cache"
    setups = [
        run_timed(
            sweep_argv(spec_path, rep_dir / "cold", "--dry-run"),
            sweep_env(src, cache, jobs, None),
            rep_dir / f"dry{i}.log",
        )
        for i in range(DRY_RUNS)
    ]
    cold = run_timed(
        sweep_argv(spec_path, rep_dir / "cold"),
        sweep_env(src, cache, jobs, rep_dir / "ledger-cold"),
        rep_dir / "cold.log",
    )
    cache_bytes = dir_bytes(cache) if cache.is_dir() else 0
    warms = [
        run_timed(
            sweep_argv(spec_path, rep_dir / f"warm{i}"),
            sweep_env(src, cache, jobs, rep_dir / f"ledger-warm{i}"),
            rep_dir / f"warm{i}.log",
        )
        for i in range(WARM_RUNS)
    ]
    return Rep(rep_dir, setups, cold, warms, cache_bytes)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    """Points that failed a check, and why."""

    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def fail(self, points, problem: str) -> None:
        points = set(points)
        self.failed |= points
        self.problems.append(problem)

    def merge(self, other: "Verdict") -> None:
        self.failed |= other.failed
        self.problems.extend(other.problems)


def load_rows(out_dir: Path) -> list[dict] | None:
    try:
        return json.loads((out_dir / "table.json").read_text())["rows"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_table(rows: list[dict] | None, expected: dict[str, int], what: str) -> Verdict:
    """Each expected point once, nothing else, every window committed.

    ``expected`` maps point ID to its measurement window.
    """
    verdict = Verdict()
    if rows is None:
        verdict.fail(expected, f"{what}: no merged table")
        return verdict
    counts = Counter(row.get("point") for row in rows)
    dups = {p for p, n in counts.items() if n > 1}
    if dups:
        verdict.fail(dups & expected.keys(), f"{what}: {len(dups)} point(s) appear more than once")
    missing = expected.keys() - counts.keys()
    if missing:
        verdict.fail(missing, f"{what}: {len(missing)} point(s) missing")
    strangers = counts.keys() - expected.keys()
    if strangers:
        verdict.problems.append(f"{what}: {len(strangers)} row(s) not in the expansion")
    short = {
        row["point"]
        for row in rows
        if row.get("point") in expected
        and not (isinstance(row.get("instructions"), int) and row["instructions"] >= expected[row["point"]])
    }
    if short:
        verdict.fail(short, f"{what}: {len(short)} point(s) did not commit their window")
    return verdict


def ledger_events(ledger_dir: Path) -> list[dict] | None:
    from repro.common.ledger import read_ledger

    files = sorted(ledger_dir.glob("*.jsonl")) if ledger_dir.is_dir() else []
    if len(files) != 1:
        return None
    return read_ledger(files[0])


def check_ledger(ledger_dir: Path, expected: dict[str, int], what: str, warm: bool) -> Verdict:
    """The ledger accounts for every point: queued = hits + finished, none failed."""
    from repro.common.ledger import summarize_ledger

    verdict = Verdict()
    events = ledger_events(ledger_dir)
    if events is None:
        verdict.fail(expected, f"{what}: no single ledger file")
        return verdict
    summary = summarize_ledger(events)
    totals = summary["totals"]
    failed = {e.get("key") for e in events if e["event"] == "failed"}
    if failed:
        verdict.fail(failed, f"{what}: {len(failed)} point(s) failed in the ledger")
    done = {e.get("key") for e in events if e["event"] in ("finished", "cache_hit")}
    if expected.keys() - done:
        verdict.fail(expected.keys() - done, f"{what}: {len(expected.keys() - done)} point(s) never finished")
    if not summary["complete"] or summary["invalid_sequences"]:
        verdict.problems.append(f"{what}: ledger incomplete or has invalid lifecycles")
    if totals["queued"] != totals["cache_hits"] + totals["finished"] or totals["queued"] != len(expected):
        verdict.problems.append(f"{what}: ledger does not reconcile: {totals}")
    if warm:
        resimulated = {e.get("key") for e in events if e["event"] == "started"}
        if resimulated:
            verdict.fail(resimulated, f"{what}: {len(resimulated)} point(s) re-simulated on a warm cache")
    return verdict


def same_tables(a: Path, b: Path) -> bool:
    """Whether two output directories hold byte-identical merged tables."""
    return all(
        (a / name).is_file() and (b / name).is_file() and (a / name).read_bytes() == (b / name).read_bytes()
        for name in TABLE_FILES
    )


def check_same_table(out_dir: Path, cold_out: Path, expected: dict[str, int], what: str) -> Verdict:
    """``out_dir``'s table must equal the cold table byte for byte."""
    verdict = Verdict()
    if not same_tables(out_dir, cold_out):
        cold = {r.get("point"): r for r in load_rows(cold_out) or []}
        other = {r.get("point"): r for r in load_rows(out_dir) or []}
        changed = {p for p in expected if cold.get(p) is None or cold.get(p) != other.get(p)}
        verdict.fail(changed, f"{what} table differs from the cold table")
    return verdict


def check_rep(rep: Rep, expected: dict[str, int]) -> Verdict:
    verdict = Verdict()
    for what, timed in (
        *(("dry run", t) for t in rep.setups),
        ("cold sweep", rep.cold),
        *(("warm sweep", t) for t in rep.warms),
    ):
        if timed.returncode != 0:
            verdict.problems.append(f"{what} exited with code {timed.returncode}")
    verdict.merge(check_table(load_rows(rep.cold_out), expected, "cold table"))
    verdict.merge(check_ledger(rep.cold_ledger, expected, "cold ledger", warm=False))
    for i in range(len(rep.warms)):
        verdict.merge(check_ledger(rep.warm_ledger(i), expected, f"warm ledger {i}", warm=True))
        verdict.merge(check_same_table(rep.warm_out(i), rep.cold_out, expected, f"warm {i}"))
    return verdict


def kernel_backends(cache_dir: Path) -> Counter:
    """Each cached point's kernel backend, from the provenance manifests."""
    backends: Counter = Counter()
    for path in cache_dir.glob("*.manifest.json"):
        try:
            backends[json.loads(path.read_text()).get("kernel_backend", "unknown")] += 1
        except (OSError, ValueError):
            backends["unreadable"] += 1
    return backends


def model_digest(rows: list[dict] | None) -> str:
    """Digest of the simulated statistics, independent of point-ID hashing.

    Identical across runs of one seed at one commit; a speed-only change
    must leave it unchanged.
    """
    if rows is None:
        return "none"
    body = sorted(
        [row.get("workload"), row.get("config"), *(row.get(m) for m in TABLE_METRICS)]
        for row in rows
    )
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16]
