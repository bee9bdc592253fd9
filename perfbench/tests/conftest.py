"""Put the checkout root (for ``perfbench``) and ``src`` (for ``repro``) on the path."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    """No inherited ``REPRO_*`` setting; in-process caches under ``tmp_path``."""
    import os

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "inproc-cache"))
