"""Tests for the ``repro.api`` facade and the policy registry."""

from __future__ import annotations

import warnings

import pytest

from repro.api import BufferSystem, build_buffer_system
from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferManager
from repro.buffer.policies import make_policy, policy_names
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.slru import SLRU
from repro.geometry.rect import Rect
from repro.obs.events import TraceRecorder
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.wal.durable import DurableDisk
from repro.wal.manager import DurabilityManager

PAGE_SIZE = 512


def make_page(page_id: int, payload: int = 0) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(
        PageEntry(mbr=Rect(0.0, 0.0, 1.0, 1.0), payload=payload)
    )
    return page


def seeded_disk(pages: int = 32) -> SimulatedDisk:
    disk = SimulatedDisk()
    for page_id in range(pages):
        disk.write(make_page(page_id, payload=page_id))
    disk.stats.reset()
    return disk


#: A deterministic access pattern with rereferences and working-set drift.
ACCESS_PATTERN = [0, 1, 2, 0, 1, 3, 4, 5, 0, 6, 7, 8, 2, 9, 10, 0, 1, 11]


class TestMakePolicy:
    def test_every_registered_name_builds(self):
        for name in policy_names():
            policy = make_policy(name)
            assert policy is not None

    def test_name_is_case_insensitive(self):
        assert make_policy("asb").name == make_policy("ASB").name

    def test_aliases_resolve(self):
        assert make_policy("TWOQ").name == make_policy("2Q").name
        assert make_policy("DOMAIN-SEPARATION").name == make_policy("DOMAIN").name

    def test_parameterised_lru_k_names(self):
        assert isinstance(make_policy("LRU-2"), LRUK)
        seven = make_policy("LRU-7")
        assert isinstance(seven, LRUK)
        assert seven.k == 7

    def test_keywords_are_forwarded(self):
        policy = make_policy("SLRU", candidate_fraction=0.5)
        assert policy.candidate_fraction == 0.5

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError, match="LRU"):
            make_policy("NOT-A-POLICY")

    def test_unknown_keyword_is_a_typeerror_naming_accepted(self):
        with pytest.raises(TypeError, match="candidate_fraction"):
            make_policy("SLRU", fractions=0.5)


class TestDeprecatedKeywords:
    def test_removed_slru_fraction_keyword_raises_typeerror(self):
        with pytest.raises(TypeError, match="'fraction'"):
            SLRU(fraction=0.4)

    def test_removed_asb_initial_fraction_raises_typeerror(self):
        with pytest.raises(TypeError, match="'initial_fraction'"):
            ASB(initial_fraction=0.3)

    def test_canonical_keywords_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SLRU(candidate_fraction=0.25)
            ASB(candidate_fraction=0.25)


class TestBuildDefaults:
    def test_default_build_is_a_sequential_buffer(self):
        system = BufferSystem.build()
        assert isinstance(system.buffer, BufferManager)
        assert not isinstance(system.buffer, ConcurrentBufferManager)
        assert isinstance(system.disk, SimulatedDisk)
        assert system.policy_name == "LRU"
        assert system.durability is None
        assert system.recorder is None
        assert not system.is_concurrent

    def test_default_build_matches_hand_wiring_event_for_event(self):
        """The facade default is bit-identical to the seed construction."""
        hand_recorder = TraceRecorder()
        hand = BufferManager(
            seeded_disk(), 4, LRU(), observer=hand_recorder
        )
        for page_id in ACCESS_PATTERN:
            hand.fetch(page_id)

        facade_recorder = TraceRecorder()
        system = BufferSystem.build(
            policy="LRU", capacity=4, disk=seeded_disk(), trace=facade_recorder
        )
        for page_id in ACCESS_PATTERN:
            system.fetch(page_id)

        assert facade_recorder.events == hand_recorder.events
        assert system.stats_snapshot() == hand.stats.snapshot()

    def test_module_level_alias(self):
        system = build_buffer_system(policy="FIFO", capacity=8)
        assert system.policy_name == "FIFO"
        assert system.capacity == 8


class TestBuildVariants:
    def test_policy_instance_and_factory(self):
        instance = ASB()
        assert BufferSystem.build(policy=instance).buffer.policy is instance
        system = BufferSystem.build(policy=ASB, capacity=8)
        assert system.policy_name == ASB().name

    def test_policy_kwargs_are_forwarded(self):
        system = BufferSystem.build(
            policy="SLRU", policy_kwargs={"candidate_fraction": 0.5}
        )
        assert system.buffer.policy.candidate_fraction == 0.5

    def test_policy_instance_rejected_for_sharded_builds(self):
        with pytest.raises(ValueError, match="factory"):
            BufferSystem.build(policy=LRU(), shards=4)

    def test_sharded_build_is_concurrent(self):
        system = BufferSystem.build(policy="LRU", capacity=16, shards=4)
        assert isinstance(system.buffer, ConcurrentBufferManager)
        assert system.is_concurrent

    def test_trace_true_attaches_a_recorder(self):
        system = BufferSystem.build(trace=True, disk=seeded_disk())
        system.fetch(0)
        assert system.recorder is not None
        assert len(system.recorder.events) > 0

    def test_durability_true_builds_a_durable_stack(self):
        system = BufferSystem.build(
            durability=True, page_size=PAGE_SIZE, capacity=8
        )
        assert isinstance(system.disk, DurableDisk)
        assert isinstance(system.durability, DurabilityManager)
        system.disk.store(make_page(0))
        system.fetch(0)
        system.install(make_page(0, payload=9))
        assert system.commit() > 0
        system.close()

    def test_durability_mapping_forwards_options(self):
        system = BufferSystem.build(
            durability={"group_window": 4}, page_size=PAGE_SIZE
        )
        assert system.durability.wal.group_window == 4

    def test_durability_mapping_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="group_window"):
            BufferSystem.build(durability={"window": 4})

    def test_durability_requires_a_durable_disk(self):
        with pytest.raises(TypeError, match="DurableDisk"):
            BufferSystem.build(durability=True, disk=SimulatedDisk())

    def test_ready_durability_manager_must_match_disk(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        manager = DurabilityManager(disk)
        system = BufferSystem.build(durability=manager, disk=disk)
        assert system.durability is manager
        other = DurableDisk(page_size=PAGE_SIZE)
        with pytest.raises(ValueError, match="different disk"):
            BufferSystem.build(durability=manager, disk=other)

    def test_context_manager_drains(self):
        with BufferSystem.build(disk=seeded_disk(), capacity=4) as system:
            system.fetch(0)
            system.mark_dirty(0)
        assert system.disk.stats.writes == 1

    def test_commit_without_durability_flushes(self):
        system = BufferSystem.build(disk=seeded_disk(), capacity=4)
        system.fetch(1)
        system.mark_dirty(1)
        assert system.commit() == 0
        assert system.disk.stats.writes == 1

    def test_accessor_delegation(self):
        system = BufferSystem.build(disk=seeded_disk(), capacity=4)
        with system.query_scope():
            with system.pinned(3) as page:
                assert page.page_id == 3
        system.pin(3)
        system.unpin(3)
        system.discard(3)
        assert 3 not in system.resident_ids()
        assert len(system) <= system.capacity


class TestBackgroundWritebackFlag:
    def test_default_leaves_flush_interval_alone(self):
        system = BufferSystem.build(durability=True, page_size=PAGE_SIZE)
        assert system.durability.flush_interval == 0

    def test_true_uses_the_default_interval(self):
        from repro.api import DEFAULT_WRITEBACK_INTERVAL

        system = BufferSystem.build(
            durability=True, background_writeback=True, page_size=PAGE_SIZE
        )
        assert system.durability.flush_interval == DEFAULT_WRITEBACK_INTERVAL

    def test_integer_sets_the_interval(self):
        system = BufferSystem.build(
            durability={"group_window": 4},
            background_writeback=16,
            page_size=PAGE_SIZE,
        )
        assert system.durability.flush_interval == 16
        assert system.durability.wal.group_window == 4

    def test_false_disables_the_flusher(self):
        system = BufferSystem.build(
            durability=True, background_writeback=False, page_size=PAGE_SIZE
        )
        assert system.durability.flush_interval == 0

    def test_requires_durability(self):
        with pytest.raises(ValueError, match="requires durability"):
            BufferSystem.build(background_writeback=True)

    def test_false_without_durability_is_a_no_op(self):
        system = BufferSystem.build(background_writeback=False)
        assert system.durability is None

    def test_rejects_double_specification(self):
        with pytest.raises(ValueError, match="not both"):
            BufferSystem.build(
                durability={"flush_interval": 8},
                background_writeback=16,
                page_size=PAGE_SIZE,
            )

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="non-negative"):
            BufferSystem.build(
                durability=True, background_writeback=-1, page_size=PAGE_SIZE
            )

    def test_rejects_ready_manager(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        manager = DurabilityManager(disk)
        with pytest.raises(ValueError, match="ready"):
            BufferSystem.build(
                durability=manager, disk=disk, background_writeback=8
            )


class TestAdmissionFlag:
    def test_default_attaches_no_controller(self):
        assert BufferSystem.build().admission is None

    def test_true_attaches_a_controller(self):
        from repro.server.admission import AdmissionController

        system = BufferSystem.build(admission=True)
        assert isinstance(system.admission, AdmissionController)

    def test_mapping_forwards_limits(self):
        system = BufferSystem.build(
            admission={"max_inflight": 3, "max_queued": 5}
        )
        assert system.admission.max_inflight == 3
        assert system.admission.max_queued == 5

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="max_parallel"):
            BufferSystem.build(admission={"max_parallel": 3})

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="admission"):
            BufferSystem.build(admission=7)

    def test_ready_controller_is_adopted(self):
        from repro.server.admission import AdmissionController

        controller = AdmissionController(max_inflight=2)
        system = BufferSystem.build(admission=controller)
        assert system.admission is controller

    def test_snapshot_includes_admission(self):
        system = BufferSystem.build(admission=True)
        assert "admission" in system.stats_snapshot()
        assert "admission" not in BufferSystem.build().stats_snapshot()

    def test_page_server_prefers_the_system_controller(self):
        from repro.server.core import PageServer

        system = BufferSystem.build(
            capacity=16, shards=2, admission={"max_inflight": 3}
        )
        server = PageServer(system, max_inflight=99)
        assert server.admission is system.admission
        assert server.admission.max_inflight == 3

    def test_page_server_builds_its_own_without_one(self):
        from repro.server.core import PageServer

        system = BufferSystem.build(capacity=16, shards=2)
        server = PageServer(system, max_inflight=99)
        assert server.admission is not None
        assert server.admission.max_inflight == 99
