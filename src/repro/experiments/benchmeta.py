"""Provenance metadata for the benchmark report of ``bench/run.py``.

The report carries a ``meta`` block, so a result on disk is
self-describing: which revision produced it, when, on what interpreter,
and with which seed.  Perf-trajectory comparisons across revisions need
exactly this to be trustworthy.
"""

from __future__ import annotations

import platform
import subprocess
from datetime import datetime, timezone

#: Bumped when the meta-block layout changes shape.
SCHEMA_VERSION = 1


def git_revision() -> str:
    """The repository's current commit hash, or ``"unknown"`` outside git."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = output.stdout.strip()
    return revision if output.returncode == 0 and revision else "unknown"


def run_metadata(seed: int | None = None) -> dict:
    """The ``meta`` block: schema, provenance, timestamp, seed."""
    meta = {
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_revision(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if seed is not None:
        meta["seed"] = seed
    return meta
