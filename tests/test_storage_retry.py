"""Tests for transient-failure injection and bounded retry."""

from __future__ import annotations

import pytest

from repro.geometry.rect import Rect
from repro.storage.disk import (
    DiskError,
    SimulatedDisk,
    TransientDiskError,
)
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.retry import RetryPolicy, RetryingDisk, call_with_retry
from repro.wal.bytestore import FileByteStore
from repro.wal.durable import DurableDisk


def make_page(page_id: int) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=page_id))
    return page


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03
        )
        assert policy.delay(1) == pytest.approx(0.01)
        assert policy.delay(2) == pytest.approx(0.02)
        assert policy.delay(3) == pytest.approx(0.03)  # capped
        assert policy.delay(4) == pytest.approx(0.03)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestCallWithRetry:
    def test_succeeds_after_transient_burst(self):
        failures = [TransientDiskError("busy"), TransientDiskError("busy")]

        def flaky():
            if failures:
                raise failures.pop()
            return "ok"

        sleeps: list[float] = []
        assert call_with_retry(flaky, RetryPolicy(), sleeps.append) == "ok"
        assert len(sleeps) == 2
        assert sleeps[0] < sleeps[1]  # backoff grows

    def test_budget_exhaustion_reraises_last_error(self):
        def always():
            raise TransientDiskError("still busy")

        with pytest.raises(TransientDiskError):
            call_with_retry(
                always, RetryPolicy(attempts=3), lambda _: None
            )

    def test_permanent_error_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise DiskError("media gone")

        with pytest.raises(DiskError):
            call_with_retry(broken, RetryPolicy(attempts=5), lambda _: None)
        assert len(calls) == 1  # no retry for permanent failures


class TestTransientInjection:
    def test_simulated_disk_transient_countdown(self):
        disk = SimulatedDisk()
        disk.store(make_page(0))
        disk.fail_transiently(0, op="read", times=2)
        for _ in range(2):
            with pytest.raises(TransientDiskError):
                disk.read(0)
        assert disk.read(0).page_id == 0

    def test_file_disk_transient_countdown(self, tmp_path):
        with FileByteStore(tmp_path / "pages.bin") as store:
            disk = DurableDisk(store, page_size=256)
            disk.store(make_page(1))
            disk.fail_transiently(1, op="write", times=1)
            with pytest.raises(TransientDiskError):
                disk.write(make_page(1))
            disk.write(make_page(1))

    def test_transient_write_does_not_reach_the_medium(self):
        disk = SimulatedDisk()
        disk.store(make_page(0))
        disk.fail_transiently(0, op="write", times=1)
        writes_before = disk.stats.writes
        with pytest.raises(TransientDiskError):
            disk.write(make_page(0))
        assert disk.stats.writes == writes_before


class TestRetryingDisk:
    def test_read_and_write_retry(self):
        disk = SimulatedDisk()
        disk.store(make_page(0))
        disk.fail_transiently(0, op="read", times=1)
        disk.fail_transiently(0, op="write", times=1)
        sleeps: list[float] = []
        wrapped = RetryingDisk(disk, RetryPolicy(), sleeps.append)
        assert wrapped.read(0).page_id == 0
        wrapped.write(make_page(0))
        assert len(sleeps) == 2

    def test_forwards_other_attributes(self):
        disk = SimulatedDisk()
        disk.store(make_page(3))
        wrapped = RetryingDisk(disk, RetryPolicy(), lambda _: None)
        assert wrapped.stats.reads == 0
        assert wrapped.peek(3).page_id == 3
