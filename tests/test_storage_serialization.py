"""Tests for binary page serialization, the file-backed disk, and tree
save/load."""

from __future__ import annotations

import copy
import json
import pickle
import random
import struct
import sys
import threading
from contextlib import closing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import BufferSystem
from repro.buffer.manager import BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.spatial import SPATIAL_CRITERIA
from repro.geometry.rect import Rect
from repro.obs.events import TraceRecorder
from repro.storage.disk import DiskError
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.serialization import (
    VerifiedPages,
    decode_page,
    encode_page,
    load_tree,
    max_entries_for,
    read_page,
    save_tree,
)
from repro.wal.bytestore import FileByteStore
from repro.wal.durable import DurableDisk, TornPageError


def sample_page(page_id=3, entries=5):
    page = Page(page_id=page_id, page_type=PageType.DIRECTORY, level=2)
    for index in range(entries):
        page.entries.append(
            PageEntry(
                mbr=Rect(index * 0.1, 0.0, index * 0.1 + 0.05, 0.5),
                child=index * 7,
                payload=None if index % 2 else index,
            )
        )
    return page


class TestPageCodec:
    def test_roundtrip(self):
        page = sample_page()
        clone = decode_page(encode_page(page), page.page_id)
        assert clone.page_type is page.page_type
        assert clone.level == page.level
        assert len(clone.entries) == len(page.entries)
        for original, copied in zip(page.entries, clone.entries):
            assert copied.mbr == original.mbr
            assert copied.child == original.child
            assert copied.payload == original.payload

    def test_fixed_size(self):
        assert len(encode_page(sample_page(), page_size=4096)) == 4096

    def test_empty_page_roundtrip(self):
        page = Page(page_id=0, page_type=PageType.DATA, level=0)
        clone = decode_page(encode_page(page), 0)
        assert clone.entries == []
        assert clone.page_type is PageType.DATA

    def test_overfull_page_rejected(self):
        page = Page(page_id=0, page_type=PageType.DATA)
        for index in range(max_entries_for(256) + 1):
            page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=index))
        with pytest.raises(ValueError):
            encode_page(page, page_size=256)

    def test_non_integer_payload_rejected(self):
        page = Page(page_id=0, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload="name"))
        with pytest.raises(ValueError):
            encode_page(page)

    @pytest.mark.parametrize("field", ["child", "payload"])
    @pytest.mark.parametrize("value", [-1, -5, -(2**40)])
    def test_negative_reference_rejected(self, field, value):
        """Every negative value reads back as ``None``; encoding one used to
        succeed and lose it."""
        page = Page(page_id=0, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), **{field: value}))
        with pytest.raises(ValueError, match="cannot carry"):
            encode_page(page)

    @pytest.mark.parametrize("child", [None, 0, 7])
    @pytest.mark.parametrize("payload", [None, 0, 2**62])
    def test_reference_roundtrip(self, child, payload):
        page = Page(page_id=0, page_type=PageType.DATA)
        page.entries.append(PageEntry(Rect(0, 0, 1, 1), child, payload))
        for reader in (decode_page, read_page):
            (entry,) = reader(encode_page(page), 0).entries
            assert (entry.child, entry.payload) == (child, payload)

    def test_corrupt_magic_rejected(self):
        blob = bytearray(encode_page(sample_page()))
        blob[0] = 0xFF
        with pytest.raises(ValueError):
            decode_page(bytes(blob), 3)

    def test_truncated_blob_rejected(self):
        blob = encode_page(sample_page())
        with pytest.raises(ValueError):
            decode_page(blob[:3], 3)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=10),
                st.integers(min_value=0, max_value=2**40),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, raw_entries):
        page = Page(page_id=1, page_type=PageType.DATA, level=0)
        for x, y, w, h, payload in raw_entries:
            page.entries.append(
                PageEntry(mbr=Rect(x, y, x + w, y + h), payload=payload)
            )
        clone = decode_page(encode_page(page), 1)
        assert [e.payload for e in clone.entries] == [
            e.payload for e in page.entries
        ]
        for original, copied in zip(page.entries, clone.entries):
            assert copied.mbr == original.mbr


def file_disk(path, page_size=4096):
    """A durable disk over a file, closed with its file."""
    return closing(DurableDisk(FileByteStore(path), page_size=page_size))


class TestFileDisk:
    """A :class:`DurableDisk` over a :class:`FileByteStore`: the file-backed
    page store that :func:`save_tree` and :func:`load_tree` use."""

    def test_store_read_roundtrip(self, tmp_path):
        with file_disk(tmp_path / "pages.db") as disk:
            disk.store(sample_page(page_id=2))
            page = disk.read(2)
            assert page.page_id == 2
            assert len(page.entries) == 5
            assert disk.stats.reads == 1

    def test_reads_hand_out_the_slot_packed(self, tmp_path):
        with file_disk(tmp_path / "pages.db", page_size=512) as disk:
            disk.store(sample_page(page_id=2))
            slot = encode_page(sample_page(page_id=2), 512)
            for page in (disk.read(2), disk.peek(2)):
                assert page.image() == slot
                assert page.matching(Rect(0.0, 0.0, 0.12, 1.0)) == [0, 7]
                assert page.image() is not None  # scanned inside the image
                assert page == sample_page(page_id=2)

    def test_missing_page_raises(self, tmp_path):
        with file_disk(tmp_path / "pages.db") as disk:
            with pytest.raises(KeyError):
                disk.read(5)

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "pages.db"
        with file_disk(path) as disk:
            disk.store(sample_page(page_id=0))
            disk.store(sample_page(page_id=4))
        with file_disk(path) as reopened:
            assert reopened.page_ids() == [0, 4]
            assert len(reopened.read(4).entries) == 5

    def test_delete_frees_slot(self, tmp_path):
        path = tmp_path / "pages.db"
        with file_disk(path) as disk:
            disk.store(sample_page(page_id=1))
            disk.delete(1)
            assert 1 not in disk
        with file_disk(path) as reopened:
            assert 1 not in reopened

    def test_failure_injection(self, tmp_path):
        with file_disk(tmp_path / "pages.db") as disk:
            disk.store(sample_page(page_id=1))
            disk.fail_reads.add(1)
            with pytest.raises(DiskError):
                disk.read(1)

    def test_sequential_detection(self, tmp_path):
        with file_disk(tmp_path / "pages.db") as disk:
            for page_id in range(3):
                disk.store(sample_page(page_id=page_id))
            disk.read(0)
            disk.read(1)
            disk.read(2)
            assert disk.stats.sequential_reads == 2

    def test_page_size_validation(self, tmp_path):
        with FileByteStore(tmp_path / "pages.db") as store:
            with pytest.raises(ValueError):
                DurableDisk(store, page_size=8)
        with pytest.raises(ValueError):
            DurableDisk(page_size=8)

    def test_buffer_manager_on_file_disk(self, tmp_path):
        with file_disk(tmp_path / "pages.db") as disk:
            for page_id in range(6):
                disk.store(sample_page(page_id=page_id))
            buffer = BufferManager(disk, 3, LRU())
            for page_id in [0, 1, 2, 0, 3, 4, 0, 5]:
                buffer.fetch(page_id)
            assert buffer.stats.misses == disk.stats.reads
            assert len(buffer) <= 3


class TestTreeSaveLoad:
    def test_saved_tree_answers_identically(self, small_tree, tmp_path):
        path = tmp_path / "tree.db"
        save_tree(small_tree, path)
        loaded = load_tree(path)
        try:
            window = Rect(0.35, 0.35, 0.6, 0.6)
            assert sorted(loaded.window_query(window)) == sorted(
                small_tree.window_query(window)
            )
            assert loaded.height == small_tree.height
            assert loaded.entry_count == small_tree.entry_count
        finally:
            loaded.pagefile.disk.close()

    def test_loaded_tree_queryable_through_buffer(self, small_tree, tmp_path):
        path = tmp_path / "tree.db"
        save_tree(small_tree, path)
        loaded = load_tree(path)
        try:
            buffer = BufferManager(loaded.pagefile.disk, 16, ASB())
            window = Rect(0.4, 0.4, 0.55, 0.55)
            with buffer.query_scope():
                results = loaded.window_query(window, buffer)
            assert sorted(results) == sorted(small_tree.window_query(window))
            assert buffer.stats.misses > 0
        finally:
            loaded.pagefile.disk.close()

    def test_mutable_load_supports_updates(self, small_tree, tmp_path):
        path = tmp_path / "tree.db"
        save_tree(small_tree, path)
        loaded = load_tree(path, mutable=True)
        loaded.insert(Rect(0.01, 0.01, 0.02, 0.02), 999_999)
        loaded.validate()
        assert 999_999 in loaded.window_query(Rect(0.0, 0.0, 0.05, 0.05))

    def test_save_overwrites_existing_file(self, small_tree, tmp_path):
        path = tmp_path / "tree.db"
        save_tree(small_tree, path)
        save_tree(small_tree, path)  # must not accumulate stale pages
        loaded = load_tree(path)
        try:
            assert len(loaded.all_page_ids()) == len(small_tree.all_page_ids())
        finally:
            loaded.pagefile.disk.close()

    def test_a_corrupted_slot_is_refused(self, small_tree, tmp_path):
        path = tmp_path / "tree.db"
        save_tree(small_tree, path)
        page_id = small_tree.root_id
        # A byte inside the root's first entry: past the slot's CRC and
        # the page header, so the slot still looks live.
        with open(path, "r+b") as medium:
            medium.seek(page_id * (4 + 4096) + 4 + 8 + 3)
            byte = medium.read(1)
            medium.seek(-1, 1)
            medium.write(bytes([byte[0] ^ 0x40]))
        loaded = load_tree(path)
        try:
            with pytest.raises(TornPageError):
                loaded.pagefile.disk.read(page_id)
        finally:
            loaded.pagefile.disk.close()
        with pytest.raises(TornPageError):
            load_tree(path, mutable=True)

    def test_a_file_saved_without_checksums_is_refused(self, small_tree, tmp_path):
        path = tmp_path / "tree.db"
        save_tree(small_tree, path)
        sidecar = tmp_path / "tree.db.json"
        metadata = json.loads(sidecar.read_text(encoding="utf-8"))
        del metadata["slot_format"]  # what an unchecksummed save wrote
        sidecar.write_text(json.dumps(metadata), encoding="utf-8")
        for mutable in (False, True):
            with pytest.raises(ValueError, match="re-save"):
                load_tree(path, mutable=mutable)


# ----------------------------------------------------------------------
# Packed pages: read_page against decode_page
# ----------------------------------------------------------------------

#: Small slots, so that hypothesis reaches "full" (ten entries) often.
SLOT = 512
FULL = max_entries_for(SLOT)

coordinate = st.floats(allow_nan=True, allow_infinity=True)
reference = st.none() | st.integers(min_value=0, max_value=2**62)


@st.composite
def intervals(draw):
    """``(low, high)`` that :class:`Rect` accepts: ordered, equal, or with a
    NaN bound (no comparison with a NaN is true, so Rect lets it through)."""
    low, high = draw(coordinate), draw(coordinate)
    if draw(st.booleans()):
        high = low
    return (high, low) if low > high else (low, high)


@st.composite
def page_entries(draw):
    (x_min, x_max), (y_min, y_max) = draw(intervals()), draw(intervals())
    return PageEntry(Rect(x_min, y_min, x_max, y_max), draw(reference), draw(reference))


@st.composite
def pages(draw, min_entries=0, max_entries=FULL):
    return Page(
        page_id=draw(st.integers(min_value=0, max_value=2**31)),
        page_type=draw(st.sampled_from(PageType)),
        level=draw(st.integers(min_value=-1, max_value=9)),
        entries=draw(
            st.lists(page_entries(), min_size=min_entries, max_size=max_entries)
        ),
    )


@st.composite
def damaged_slots(draw):
    """An encoded slot after a truncation and up to three byte flips."""
    page = draw(pages())
    blob = bytearray(encode_page(page, SLOT))
    used = 8 + 48 * len(page.entries)
    if draw(st.booleans(), label="truncate"):
        del blob[draw(st.integers(0, len(blob)), label="keep") :]
    for _ in range(draw(st.integers(0, 3), label="flips")):
        if blob:
            # Mostly inside the header and the entries, where it matters.
            limit = used if draw(st.booleans()) else len(blob)
            index = draw(st.integers(0, max(0, min(limit, len(blob)) - 1)))
            blob[index] ^= draw(st.integers(1, 255))
    return bytes(blob)


def outcome(call, *args):
    """What a call returned or raised, comparable across two calls.  The
    ``repr`` tells ``-0.0`` from ``0.0`` and holds for NaN, where ``==`` of
    two separately decoded pages does not."""
    try:
        return repr(call(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


class TestPackedPage:
    @given(pages())
    def test_packed_equals_decoded_without_unpacking(self, page):
        blob = encode_page(page, SLOT)
        packed = read_page(blob, page.page_id)
        eager = decode_page(blob, page.page_id)
        assert len(packed) == len(eager)
        assert packed.is_leaf == eager.is_leaf
        assert packed.children() == eager.children()
        assert outcome(packed.mbr) == outcome(eager.mbr)
        assert (packed.page_id, packed.page_type, packed.level) == (
            eager.page_id,
            eager.page_type,
            eager.level,
        )
        # None of that built an entry object: the image is still served.
        assert packed.image() is blob
        assert encode_page(packed, SLOT) is blob
        assert repr(packed) == repr(eager)
        assert packed.image() is None  # repr read the entries
        assert encode_page(packed, SLOT) == blob

    @given(pages(), page_entries())
    def test_packed_page_is_scanned_inside_its_image(self, page, probe):
        """NaN and infinite bounds included: the image scan makes the four
        comparisons of ``Rect.intersects`` on the same doubles."""
        blob = encode_page(page, SLOT)
        packed = read_page(blob, page.page_id)
        eager = decode_page(blob, page.page_id)
        want = [
            entry.payload if eager.level == 0 else entry.child
            for entry in eager.entries
            if entry.mbr.intersects(probe.mbr)
        ]
        assert packed.matching(probe.mbr) == want
        assert packed.image() is blob
        assert eager.matching(probe.mbr) == want

    @given(pages())
    def test_packed_page_compares_equal_to_its_source(self, page):
        has_nan = any(
            value != value for entry in page.entries for value in entry.mbr.as_tuple()
        )
        packed = read_page(encode_page(page, SLOT), page.page_id)
        assert (packed == page) is not has_nan

    @given(damaged_slots())
    def test_error_parity_on_damaged_slots(self, damaged):
        try:
            eager = decode_page(damaged, 7)
        except Exception as exc:  # noqa: BLE001 - whatever it is, the same
            with pytest.raises(type(exc)) as raised:
                read_page(damaged, 7)
            assert str(raised.value) == str(exc)
        else:
            # Accepted by both, and unpacking what was accepted cannot fail.
            assert repr(read_page(damaged, 7)) == repr(eager)

    @given(pages(), st.data())
    def test_image_is_owned_canonical_bytes(self, page, data):
        blob = encode_page(page, SLOT)
        # A slice of a received frame is copied: a view would pin the frame
        # and reach the log and ``writelines`` as a view.
        frame = b"head" + blob + b"tail"
        packed = read_page(memoryview(frame)[4 : 4 + SLOT], page.page_id)
        assert type(packed.image()) is bytes and packed.image() == blob
        # Non-zero bytes after the last entry are accepted, as decode_page
        # accepts them, and not served on: the page comes back unpacked.
        dirty = bytearray(blob)
        index = data.draw(st.integers(8 + 48 * len(page.entries), SLOT - 1))
        dirty[index] = data.draw(st.integers(1, 255))
        padded = read_page(bytes(dirty), page.page_id)
        assert padded.image() is None
        assert encode_page(padded, SLOT) == blob

    @given(pages(min_entries=1, max_entries=FULL - 1), reference, st.sampled_from("pal"))
    def test_mutation_after_packed_read_is_encoded(self, page, token, how):
        blob = encode_page(page, SLOT)
        packed, eager = read_page(blob, page.page_id), decode_page(blob, page.page_id)
        extra = PageEntry(Rect(0.0, 0.0, 1.0, 1.0), payload=token)
        for target in (packed, eager):
            if how == "p":  # what the served-mixed clients do
                target.entries[0].payload = token
            elif how == "a":
                target.entries.append(extra)
            else:  # assigned over a page whose entries were never read
                target.entries = [extra]
        assert packed.image() is None
        assert encode_page(packed, SLOT) == encode_page(eager, SLOT)
        assert len(packed) == len(eager)
        assert outcome(packed.mbr) == outcome(eager.mbr)
        assert packed.children() == eager.children()

    @given(pages())
    def test_other_slot_size_takes_the_full_encode(self, page):
        blob = encode_page(page, SLOT)
        eager = decode_page(blob, page.page_id)
        for size in (2 * SLOT, SLOT // 2):
            packed = read_page(blob, page.page_id)
            assert outcome(encode_page, packed, size) == outcome(encode_page, eager, size)

    @given(pages())
    def test_deepcopy_and_pickle_round_trip(self, page):
        blob = encode_page(page, SLOT)
        expected = repr(decode_page(blob, page.page_id))
        for clone in (
            copy.deepcopy(read_page(blob, page.page_id)),
            pickle.loads(pickle.dumps(read_page(blob, page.page_id))),
        ):
            assert repr(clone) == expected
            assert encode_page(clone, SLOT) == blob

    def test_concurrent_readers_share_one_entry_list(self):
        """Eight threads reading ``entries`` of one packed page at once all
        get the same list; with two lists, one reader's edits would be lost."""
        blob = encode_page(sample_page(entries=FULL), SLOT)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                page = read_page(blob, 3)
                barrier = threading.Barrier(8)
                seen = []

                def reader():
                    barrier.wait(timeout=10)
                    seen.append(page.entries)

                threads = [threading.Thread(target=reader) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8
                assert all(entries is seen[0] for entries in seen)
        finally:
            sys.setswitchinterval(interval)


class TestPackedReplay:
    """ASB decides from packed pages exactly as it does from page objects."""

    @pytest.fixture(scope="class")
    def media(self, small_tree):
        """The tree's own in-memory disk, a byte copy of it, and the page
        ids a few hundred window queries fetch, in order."""
        source = small_tree.pagefile.disk
        copy_ = DurableDisk()
        for page_id in small_tree.all_page_ids():
            copy_.store(source.peek(page_id))

        class Recorder:
            def __init__(self):
                self.string = []

            def fetch(self, page_id):
                self.string.append(page_id)
                return source.peek(page_id)

        recorder = Recorder()
        rng = random.Random(5)
        for _ in range(300):
            x, y = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
            small_tree.window_query(Rect(x, y, x + 0.08, y + 0.08), recorder)
        return source, copy_, recorder.string

    @pytest.mark.parametrize("criterion", sorted(SPATIAL_CRITERIA))
    def test_same_decisions_on_bytes_and_on_objects(self, media, criterion):
        source, durable, string = media

        def replay(disk):
            recorder = TraceRecorder(kinds=("evict", "adapt"))
            system = BufferSystem.build(
                policy="ASB",
                capacity=24,
                disk=disk,
                trace=recorder,
                policy_kwargs={"criterion": criterion},
            )
            for page_id in string:
                system.buffer.fetch(page_id)
            victims = [e.page_id for e in recorder.events if e.kind == "evict"]
            sizes = [(e.clock, e.size) for e in recorder.events if e.kind == "adapt"]
            return victims, sizes, system.buffer.stats

        on_objects, on_bytes = replay(source), replay(durable)
        assert len(on_objects[0]) > 1000 and len(set(s for _, s in on_objects[1])) > 1
        assert on_bytes == on_objects


# ----------------------------------------------------------------------
# Verify once: VerifiedPages against read_page
# ----------------------------------------------------------------------


def version_blob(page_id: int, version: int) -> bytes:
    """Version ``version`` of a page as a slot: its level, type and entries
    all say which version it is; version 0 is empty."""
    level = version % 3
    page = Page(page_id, PageType.DATA if level == 0 else PageType.DIRECTORY, level)
    for index in range(version % 5):
        x = version + index / 8
        page.entries.append(
            PageEntry(Rect(x, -x, x + 1.0, 1.0), child=index, payload=version)
        )
    return encode_page(page, SLOT)


def seen(page: Page) -> tuple:
    """Everything a read shows, its image's hull included."""
    image = page._image
    return (
        page.page_id,
        page.page_type,
        page.level,
        page.image(),
        None if image is None else repr(image._hull),
        outcome(page.mbr),
        repr(page.entries),
    )


class TestVerifiedPages:
    """``memo.read`` equals ``read_page`` on every input, and shares one
    version's criteria across the reads that find it remembered."""

    PAGES = 4

    @staticmethod
    def variant(rng: random.Random, blob: bytes) -> bytes:
        """``blob`` as it arrives: unchanged or damaged in one of the ways
        a slot or a reply can be."""
        count = struct.unpack_from("<H", blob, 6)[0]
        used = 8 + 48 * count
        data = bytearray(blob)
        kind = rng.choice(
            [
                "same", "same", "same", "magic", "version", "type", "truncate",
                "unordered", "nan", "padding", "longer", "shorter",
            ]
        )
        if kind == "magic":
            data[0:2] = b"XX"
        elif kind == "version":
            data[2] = 9
        elif kind == "type":
            data[3] = 7
        elif kind == "truncate":
            del data[rng.randrange(len(data)) :]
        elif kind in ("unordered", "nan") and count:
            bound = 8 + 48 * rng.randrange(count) + 8 * rng.randrange(4)
            struct.pack_into("<d", data, bound, 1e9 if kind == "unordered" else float("nan"))
        elif kind == "padding" and used < len(data):
            data[rng.randrange(used, len(data))] = 0xAB
        elif kind == "longer":
            data += bytes(rng.randrange(1, 64))
        elif kind == "shorter":
            del data[rng.randrange(used, len(data) + 1) :]
        return bytes(data)

    @pytest.mark.parametrize("seed", range(8))
    def test_reads_equal_read_page(self, seed):
        rng = random.Random(seed)
        memo = VerifiedPages()
        #: page -> (verified prefix, criteria) the memo should remember.
        known: dict = {}

        def remembered(page_id: int, blob: bytes):
            """The criteria of the version ``blob`` is, if remembered."""
            prefix, criteria = known.get(page_id, (b"", None))
            if prefix and blob[: len(prefix)] == prefix and not any(blob[len(prefix) :]):
                return criteria
            return None

        def learn(page_id: int, page: Page, blob: bytes) -> None:
            count = struct.unpack_from("<H", blob, 6)[0]
            known[page_id] = (blob[: 8 + 48 * count], page._derived())

        hits = misses = 0
        for step in range(500):
            page_id = rng.randrange(self.PAGES)
            blob = self.variant(rng, version_blob(page_id, rng.randrange(3)))
            action = rng.choice(["read"] * 6 + ["forget", "remember", "remember unpacked"])
            if action == "forget":
                memo.forget(page_id)
                known.pop(page_id, None)
                continue
            if action.startswith("remember"):
                try:
                    page = read_page(blob, page_id)
                except ValueError:
                    continue
                if action == "remember unpacked":
                    assert len(page.entries) >= 0  # unpacked: not remembered
                memo.remember(page_id, page)
                if page.image() is not None:
                    learn(page_id, page, blob)
                continue
            sent = rng.choice([blob, memoryview(blob), memoryview(bytearray(blob))])
            try:
                page = memo.read(sent, page_id)
            except ValueError as exc:
                with pytest.raises(ValueError) as expected:
                    read_page(blob, page_id)
                assert (type(exc), str(exc)) == (expected.type, str(expected.value)), step
                continue
            if page.image() is not None:
                # The image is the bytes passed in, never remembered ones.
                assert page.image() == blob, step
                assert sent is not blob or page.image() is blob, step
                criteria = remembered(page_id, blob)
                if criteria is not None:
                    assert page._derived() is criteria, step
                    hits += 1
                else:
                    assert page._derived() == {}, step
                    page._derived()["step"] = step
                    learn(page_id, page, blob)
                    misses += 1
            assert seen(page) == seen(read_page(blob, page_id)), step
        assert hits >= 25 and misses >= 100
