"""Cross-module integration tests: tree + buffer + policies + workloads."""

from __future__ import annotations

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies import (
    LRU,
    make_policy,
    policy_names,
)
from repro.storage.disk import DiskError

#: Every registered policy, by canonical name: a policy added to (or
#: removed from) the registry is covered here without an edit.
ALL_POLICY_FACTORIES = {
    name: (lambda name=name: make_policy(name)) for name in policy_names()
}


class TestPolicyTransparency:
    """Replacement policies must never change query *results* — only costs."""

    @pytest.mark.parametrize("name", sorted(ALL_POLICY_FACTORIES))
    def test_query_results_independent_of_policy(self, name, small_database):
        database = small_database
        query_set = database.query_set("S-W-100", 25)
        reference = [sorted(query.run(database.tree)) for query in query_set]
        buffer = BufferManager(
            database.tree.pagefile.disk, 16, ALL_POLICY_FACTORIES[name]()
        )
        for query, expected in zip(query_set, reference):
            with buffer.query_scope():
                assert sorted(query.run(database.tree, buffer)) == expected

    @pytest.mark.parametrize("name", sorted(ALL_POLICY_FACTORIES))
    def test_capacity_respected_on_real_workload(self, name, small_database):
        database = small_database
        query_set = database.query_set("U-W-33", 25)
        buffer = BufferManager(
            database.tree.pagefile.disk, 12, ALL_POLICY_FACTORIES[name]()
        )
        for query in query_set:
            with buffer.query_scope():
                query.run(database.tree, buffer)
            assert len(buffer) <= 12
        assert buffer.stats.misses > 0


class TestBufferAcrossSams:
    def test_pinning_tree_root_keeps_it_resident(self, small_database):
        tree = small_database.tree
        buffer = BufferManager(tree.pagefile.disk, 12, LRU())
        buffer.fetch(tree.root_id)
        buffer.pin(tree.root_id)
        query_set = small_database.query_set("U-W-33", 20)
        for query in query_set:
            with buffer.query_scope():
                query.run(tree, buffer)
        assert buffer.contains(tree.root_id)


class TestHitAccountingAgainstDisk:
    def test_misses_equal_disk_reads_for_every_policy(self, small_database):
        database = small_database
        query_set = database.query_set("INT-W-100", 20)
        for name, factory in sorted(ALL_POLICY_FACTORIES.items()):
            disk = database.tree.pagefile.disk
            before = disk.stats.reads
            buffer = BufferManager(disk, 16, factory())
            for query in query_set:
                with buffer.query_scope():
                    query.run(database.tree, buffer)
            assert disk.stats.reads - before == buffer.stats.misses, name


class TestFailureInjection:
    def test_disk_error_propagates_and_buffer_stays_consistent(self, small_database):
        tree = small_database.tree
        disk = tree.pagefile.disk
        buffer = BufferManager(disk, 8, LRU())
        # STR allocates bottom-up, so the smallest id is a leaf (the root
        # is allocated last); make sure we do not break the root itself.
        leaf_id = min(tree.all_page_ids())
        assert leaf_id != tree.root_id
        disk.fail_reads.add(leaf_id)
        try:
            with pytest.raises(DiskError):
                buffer.fetch(leaf_id)
            assert not buffer.contains(leaf_id)
            # The buffer keeps working afterwards.
            buffer.fetch(tree.root_id)
            assert buffer.contains(tree.root_id)
        finally:
            disk.fail_reads.discard(leaf_id)

    def test_writeback_failure_surfaces(self, small_database):
        tree = small_database.tree
        disk = tree.pagefile.disk
        buffer = BufferManager(disk, 1, LRU())
        page_ids = tree.all_page_ids()
        buffer.fetch(page_ids[0])
        buffer.mark_dirty(page_ids[0])
        disk.fail_writes.add(page_ids[0])
        try:
            with pytest.raises(DiskError):
                buffer.fetch(page_ids[1])  # triggers eviction + write-back
        finally:
            disk.fail_writes.discard(page_ids[0])
            buffer.frames[page_ids[0]].dirty = False
