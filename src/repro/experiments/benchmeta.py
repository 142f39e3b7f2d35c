"""Shared provenance metadata for the ``BENCH_*.json`` reports.

Every benchmark writer (``bench tuning``, ``bench cluster``,
``bench matrix``, ``bench ablation``) stamps its JSON with the same ``meta``
block, so a report on disk is self-describing: which revision produced
it, when, on what interpreter, and with which seed.  Perf-trajectory
comparisons across PRs need exactly this to be trustworthy.

The block is additive — consumers that predate it ignore the extra key,
and the determinism-sensitive payload stays outside it.
"""

from __future__ import annotations

import platform
import subprocess
from datetime import datetime, timezone

#: Bumped when the shared meta-block layout changes shape.
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


def run_metadata(seed: int | None = None, run_id: str | None = None) -> dict:
    """The shared ``meta`` block: schema, provenance, timestamp, seed.

    ``run_id`` is an optional caller-chosen identifier for the run (the
    ablation harness derives one deterministically from its configuration
    digest, so re-runs of the same matrix are recognisable on disk).
    """
    meta = {
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_revision(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if seed is not None:
        meta["seed"] = seed
    if run_id is not None:
        meta["run_id"] = run_id
    return meta
