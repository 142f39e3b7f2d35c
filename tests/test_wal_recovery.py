"""Recovery and the crash property.

The centrepiece is the hypothesis property: for random durable update
streams and *every* crash point, recovery on the crashed media yields a
disk image bit-identical to replaying the committed (durable) log prefix
onto the base image.  A fixed-seed matrix over all crash points also runs
as a plain test so the full surface is exercised even under ``-k`` or
minimal hypothesis profiles.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.retry import RetryPolicy
from repro.wal.bytestore import MemoryByteStore
from repro.wal.crash import CRASH_POINTS
from repro.wal.durable import DurableDisk
from repro.wal.harness import (
    check_crash_property,
    crash_matrix,
    make_base_image,
    random_steps,
    run_stream,
)
from repro.wal.log import CHECKPOINT, COMMIT, FREE, PAGE_IMAGE, WriteAheadLog
from repro.wal.recovery import recover, replay_durable_prefix

PAGE_SIZE = 512


class TestRecoveryBasics:
    def test_clean_shutdown_recovery_is_a_no_op_on_content(self):
        base = make_base_image(pages=8, seed=3, page_size=PAGE_SIZE)
        outcome = run_stream(base, random_steps(3, 40, 8), seed=3)
        assert not outcome.crashed
        result = check_crash_property(base, outcome)
        assert result.holds

    def test_recovery_is_idempotent(self):
        base = make_base_image(pages=8, seed=4, page_size=PAGE_SIZE)
        outcome = run_stream(
            base, random_steps(4, 60, 8), seed=4,
            crash_point="wal.fsync.torn", crash_after=1,
        )
        wal = WriteAheadLog(store=MemoryByteStore(outcome.wal_image))
        disk = DurableDisk.from_image(outcome.disk_image, page_size=PAGE_SIZE)
        recover(wal, disk)
        once = disk.image()
        recover(wal, disk)
        assert disk.image() == once

    def test_redo_starts_after_last_checkpoint(self):
        base = make_base_image(pages=8, seed=5, page_size=PAGE_SIZE)
        outcome = run_stream(
            base, random_steps(5, 120, 8), seed=5, checkpoint_interval=20,
        )
        wal = WriteAheadLog(store=MemoryByteStore(outcome.wal_image))
        disk = DurableDisk.from_image(outcome.disk_image, page_size=PAGE_SIZE)
        report = recover(wal, disk)
        assert report.checkpoints_seen >= 1
        assert report.redo_from_lsn > 0
        assert report.records_redone < report.records_scanned

    def test_report_counts_the_log(self):
        base = make_base_image(pages=8, seed=7, page_size=PAGE_SIZE)
        outcome = run_stream(
            base, random_steps(7, 120, 8), seed=7, checkpoint_interval=20,
        )
        wal = WriteAheadLog(store=MemoryByteStore(outcome.wal_image))
        disk = DurableDisk.from_image(outcome.disk_image, page_size=PAGE_SIZE)
        report = recover(wal, disk)
        records = list(wal.records())
        later = [r.kind for r in records if r.lsn > report.redo_from_lsn]
        assert report.records_scanned == len(records)
        assert report.last_lsn == records[-1].lsn
        assert report.redo_from_lsn == max(
            r.lsn for r in records if r.kind == CHECKPOINT
        )
        assert report.pages_redone == later.count(PAGE_IMAGE)
        assert report.frees_redone == later.count(FREE)
        assert report.commits_seen == sum(r.kind == COMMIT for r in records)

    def test_recovery_retries_transient_failures(self):
        base = make_base_image(pages=4, seed=6, page_size=PAGE_SIZE)
        outcome = run_stream(
            base, random_steps(6, 30, 4), seed=6,
            crash_point="disk.write.torn",
        )
        wal = WriteAheadLog(store=MemoryByteStore(outcome.wal_image))
        disk = DurableDisk.from_image(outcome.disk_image, page_size=PAGE_SIZE)
        victim = next(r.page_id for r in wal.records() if r.page_id >= 0)
        disk.fail_transiently(victim, op="write", times=2)
        sleeps: list[float] = []
        recover(wal, disk, retry=RetryPolicy(), sleeper=sleeps.append)
        assert disk.image() == replay_durable_prefix(
            wal, base, page_size=PAGE_SIZE
        )
        assert len(sleeps) == 2


class TestCrashMatrix:
    def test_property_holds_at_every_crash_point(self):
        matrix = crash_matrix(seed=11, steps_count=150, base_pages=24)
        crashed = [
            point
            for point, result in matrix.results.items()
            if result.outcome.crashed
        ]
        assert matrix.all_hold, matrix.failing_points()
        # The matrix is only meaningful if the crashes actually fire.
        assert set(crashed) == set(CRASH_POINTS)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_across_seeds(self, seed):
        matrix = crash_matrix(seed=seed, steps_count=90, base_pages=16)
        assert matrix.all_hold, matrix.failing_points()


class TestCrashPropertyHypothesis:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        point=st.sampled_from(CRASH_POINTS),
        crash_after=st.integers(min_value=0, max_value=6),
        group_window=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovery_equals_durable_prefix_replay(
        self, seed, point, crash_after, group_window
    ):
        base = make_base_image(pages=12, seed=seed, page_size=PAGE_SIZE)
        steps = random_steps(seed, 70, 12)
        outcome = run_stream(
            base,
            steps,
            seed=seed,
            crash_point=point,
            crash_after=0 if point.startswith("checkpoint") else crash_after,
            group_window=group_window,
            checkpoint_interval=25,
        )
        result = check_crash_property(base, outcome)
        assert result.holds
