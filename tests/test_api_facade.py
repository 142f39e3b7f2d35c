"""Tests for the ``repro.api`` facade and the policy registry."""

from __future__ import annotations

import warnings

import pytest

from repro.api import BufferSystem
from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferManager
from repro.buffer.policies import (
    UnknownPolicyError,
    make_policy,
    policy_names,
    policy_param_space,
)
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
        assert make_policy("LRUK").name == make_policy("LRU-K").name

    def test_parameterised_lru_k_names(self):
        assert isinstance(make_policy("LRU-2"), LRUK)
        seven = make_policy("LRU-7")
        assert isinstance(seven, LRUK)
        assert seven.k == 7

    def test_parameterised_k_is_range_checked_like_lru_k(self):
        with pytest.raises(ValueError, match="must be <= 8"):
            make_policy("LRU-K", k=9)
        with pytest.raises(ValueError, match="must be <= 8"):
            make_policy("LRU-9")

    def test_parameterised_name_rejects_keywords_like_the_registry(self):
        with pytest.raises(TypeError, match="accepted keywords: retain_history$"):
            make_policy("LRU-4", bogus=1)
        assert make_policy("LRU-4", retain_history=False).retain_history is False

    def test_parameterised_name_fixes_k(self):
        assert policy_param_space("LRU-4") == policy_param_space("LRU-2")
        with pytest.raises(TypeError, match="accepted keywords: retain_history$"):
            make_policy("LRU-4", k=3)

    def test_the_registry_is_the_paper_set_plus_two_baselines(self):
        assert policy_names() == [
            "A", "ASB", "EA", "EM", "EO", "FIFO", "LRU", "LRU-2", "LRU-3",
            "LRU-5", "LRU-K", "LRU-P", "LRU-T", "M", "MRU", "SLRU",
        ]

    @pytest.mark.parametrize(
        "name, export",
        [
            ("2Q", "TwoQ"),
            ("ARC", "ARC"),
            ("CLOCK", "Clock"),
            ("GCLOCK", "GClock"),
            ("LFU", "LFU"),
            ("RANDOM", "RandomPolicy"),
            ("DOMAIN", "DomainSeparation"),
            ("ENSEMBLE", "EnsemblePolicy"),
            ("AWRP", "AWRP"),
            ("EEVA", "EEvA"),
            ("EEVA-BASE", "EEvA"),
        ],
    )
    def test_retired_policies_are_gone(self, name, export):
        with pytest.raises(UnknownPolicyError):
            make_policy(name)
        with pytest.raises(ImportError):
            exec(f"from repro import {export}", {})

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

    def test_removed_build_and_tree_options_raise_typeerror(self):
        # durability={"flush_interval": n} is the one spelling of the
        # background flusher; R* always reinserts 30 %.
        with pytest.raises(TypeError, match="'background_writeback'"):
            BufferSystem.build(background_writeback=True)
        from repro.sam.rstar import RStarTree

        with pytest.raises(TypeError, match="'reinsert_fraction'"):
            RStarTree(reinsert_fraction=0.0)
        with pytest.raises(TypeError, match="'method'"):
            RStarTree().bulk_load([], method="str")

    @pytest.mark.parametrize(
        "module, export",
        [
            ("repro", "RTree"),
            ("repro", "Quadtree"),
            ("repro", "ZBTree"),
            ("repro.sam", "MqrTree"),
            ("repro", "build_buffer_system"),
            ("repro.geometry", "z_decode"),
            ("repro.geometry", "z_region_ranges"),
            ("repro", "FittedWeights"),
            ("repro", "fit_weights"),
            ("repro.tuning", "TuningConfig"),
            ("repro.tuning", "EnsemblePolicy"),
            ("repro.geometry", "xy_to_hilbert"),
            ("repro.workloads", "KnnQuery"),
            ("repro.workloads", "ClientStream"),
            ("repro.datasets", "density_map"),
            ("repro.experiments", "advise"),
            ("repro.storage", "FileDisk"),
            ("repro.workloads", "zoom_sequence"),
            ("repro.workloads", "session_workload"),
            ("repro.experiments.plots", "bar_chart"),
            ("repro.experiments.plots", "histogram"),
            ("repro.datasets", "us_mainland_like_stream"),
            ("repro.datasets", "DatasetStream"),
            ("repro.datasets", "PAPER_DB1_OBJECTS"),
            ("repro.storage.disk", "LatencyModel"),
        ],
    )
    def test_retired_names_are_gone(self, module, export):
        with pytest.raises(ImportError):
            exec(f"from {module} import {export}", {})

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


class TestBuildVariants:
    @pytest.mark.parametrize("policy", [ASB(), ASB], ids=["instance", "factory"])
    def test_policy_must_be_a_name(self, policy):
        with pytest.raises(TypeError, match="make_policy"):
            BufferSystem.build(policy=policy)

    def test_policy_kwargs_are_forwarded(self):
        system = BufferSystem.build(
            policy="SLRU", policy_kwargs={"candidate_fraction": 0.5}
        )
        assert system.buffer.policy.candidate_fraction == 0.5

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

    def test_durability_default_has_no_background_flusher(self):
        system = BufferSystem.build(durability=True, page_size=PAGE_SIZE)
        assert system.durability.flush_interval == 0
        flushing = BufferSystem.build(
            durability={"flush_interval": 16}, page_size=PAGE_SIZE
        )
        assert flushing.durability.flush_interval == 16

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


class TestAdmissionFlag:
    """PageServer's own limits are the one way to set admission."""

    def test_page_server_builds_its_own_without_one(self):
        from repro.server.core import PageServer

        system = BufferSystem.build(capacity=16, shards=2)
        server = PageServer(system, max_inflight=99)
        assert server.admission is not None
        assert server.admission.max_inflight == 99
