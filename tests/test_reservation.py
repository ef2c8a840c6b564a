"""Tests for PTEMagnet reservations and the PaRT radix tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.part import PART_LEVELS, PageReservationTable
from repro.core.reservation import Reservation
from repro.errors import ReservationError
from repro.units import RESERVATION_PAGES


class TestReservation:
    def test_alignment_enforced(self):
        with pytest.raises(ReservationError):
            Reservation(group=0, base_frame=3)

    def test_invalid_mask_rejected(self):
        with pytest.raises(ReservationError):
            Reservation(group=0, base_frame=0, mask=0x1FF)

    def test_map_slot(self):
        r = Reservation(group=1, base_frame=8)
        assert r.map_slot(3) == 11
        assert r.slot_mapped(3)
        assert r.mapped_count == 1
        assert r.ever_mapped == 1

    def test_double_map_raises(self):
        r = Reservation(group=0, base_frame=0)
        r.map_slot(0)
        with pytest.raises(ReservationError):
            r.map_slot(0)

    def test_unmap_slot(self):
        r = Reservation(group=0, base_frame=16)
        r.map_slot(2)
        assert r.unmap_slot(2) == 18
        assert not r.slot_mapped(2)

    def test_unmap_unmapped_raises(self):
        r = Reservation(group=0, base_frame=0)
        with pytest.raises(ReservationError):
            r.unmap_slot(1)

    def test_full_and_empty(self):
        r = Reservation(group=0, base_frame=0)
        assert r.empty and not r.full
        for slot in range(RESERVATION_PAGES):
            r.map_slot(slot)
        assert r.full and not r.empty

    def test_unmapped_frames(self):
        r = Reservation(group=0, base_frame=8)
        r.map_slot(0)
        r.map_slot(7)
        assert r.unmapped_frames() == [9, 10, 11, 12, 13, 14]
        assert r.unmapped_count == 6

    def test_slot_bounds(self):
        r = Reservation(group=0, base_frame=0)
        with pytest.raises(ReservationError):
            r.map_slot(8)
        with pytest.raises(ReservationError):
            r.frame_for_slot(-1)

    def test_lock_counts_acquisitions(self):
        r = Reservation(group=0, base_frame=0)
        r.map_slot(0)
        r.unmap_slot(0)
        assert r.lock.acquisitions == 2

    @given(st.sets(st.integers(min_value=0, max_value=7)))
    @settings(max_examples=40, deadline=None)
    def test_mask_bookkeeping(self, slots):
        r = Reservation(group=0, base_frame=0)
        for slot in slots:
            r.map_slot(slot)
        assert set(r.mapped_slots()) == slots
        assert r.mapped_count == len(slots)
        assert r.unmapped_count == 8 - len(slots)


class TestPartTree:
    def test_lookup_empty(self):
        part = PageReservationTable()
        assert part.lookup(123) is None
        assert part.lookups == 1
        assert part.lookup_hits == 0

    def test_insert_and_lookup(self):
        part = PageReservationTable()
        r = Reservation(group=123, base_frame=8)
        part.insert(r)
        assert part.lookup(123) is r
        assert part.lookup_hits == 1
        assert len(part) == 1

    def test_duplicate_insert_raises(self):
        part = PageReservationTable()
        part.insert(Reservation(group=5, base_frame=0))
        with pytest.raises(ReservationError):
            part.insert(Reservation(group=5, base_frame=8))

    def test_remove(self):
        part = PageReservationTable()
        r = Reservation(group=9, base_frame=16)
        part.insert(r)
        assert part.remove(9) is r
        assert part.lookup(9) is None
        assert len(part) == 0

    def test_remove_missing_raises(self):
        part = PageReservationTable()
        with pytest.raises(ReservationError):
            part.remove(9)

    def test_nodes_pruned_after_remove(self):
        part = PageReservationTable()
        part.insert(Reservation(group=12345, base_frame=0))
        assert part.node_count == 4
        part.remove(12345)
        assert part.node_count == 1

    def test_groups_in_distant_ranges(self):
        part = PageReservationTable()
        groups = [0, 511, 512, 1 << 20, (1 << 30) + 7]
        for i, group in enumerate(groups):
            part.insert(Reservation(group=group, base_frame=8 * i))
        for group in groups:
            assert part.lookup(group).group == group
        assert len(part) == len(groups)

    def test_iter_reservations(self):
        part = PageReservationTable()
        groups = {7, 700, 70000}
        for group in groups:
            part.insert(Reservation(group=group, base_frame=0))
        assert {r.group for r in part.iter_reservations()} == groups

    def test_unmapped_reserved_pages(self):
        part = PageReservationTable()
        a = Reservation(group=1, base_frame=0)
        a.map_slot(0)
        b = Reservation(group=2, base_frame=8)
        b.map_slot(0)
        b.map_slot(1)
        part.insert(a)
        part.insert(b)
        assert part.unmapped_reserved_pages() == 7 + 6

    def test_lock_acquisitions_counted(self):
        part = PageReservationTable()
        part.insert(Reservation(group=3, base_frame=0))
        part.lookup(3)
        assert part.total_lock_acquisitions() >= 8  # 4 insert + 4 lookup

    # Exact lock counts: each query takes the lock of every node it
    # reaches, root first, and removal takes none.

    def test_lookup_miss_at_root_takes_root_lock_only(self):
        part = PageReservationTable()
        assert part.lookup(3) is None
        assert part.root.lock.acquisitions == 1
        assert part.total_lock_acquisitions() == 1

    def test_insert_takes_one_lock_per_level(self):
        part = PageReservationTable()
        entry = Reservation(group=3, base_frame=0)
        part.insert(entry)
        assert part.total_lock_acquisitions() == PART_LEVELS
        assert part.root.lock.acquisitions == 1
        assert entry.lock.acquisitions == 0

    def test_lookup_hit_takes_one_lock_per_level(self):
        part = PageReservationTable()
        entry = Reservation(group=3, base_frame=0)
        part.insert(entry)
        assert part.lookup(3) is entry
        assert part.total_lock_acquisitions() == 2 * PART_LEVELS
        assert part.root.lock.acquisitions == 2
        assert entry.lock.acquisitions == 0
        assert (part.lookups, part.lookup_hits) == (1, 1)

    def test_lookup_misses_count_the_nodes_reached(self):
        part = PageReservationTable()
        part.insert(Reservation(group=3, base_frame=0))
        # Empty slot of the existing leaf: every level's lock.
        assert part.lookup(4) is None
        assert part.total_lock_acquisitions() == 2 * PART_LEVELS
        # No level-1 node for slot 1 of the level-2 node: three locks.
        assert part.lookup(1 << 9) is None
        assert part.total_lock_acquisitions() == 2 * PART_LEVELS + 3
        # Another root slot: the root lock only.
        assert part.lookup(1 << 27) is None
        assert part.total_lock_acquisitions() == 2 * PART_LEVELS + 4
        assert (part.lookups, part.lookup_hits) == (3, 0)

    def test_remove_takes_no_lock(self):
        part = PageReservationTable()
        part.insert(Reservation(group=3, base_frame=0))
        part.insert(Reservation(group=4, base_frame=8))
        before = part.total_lock_acquisitions()
        part.remove(3)
        # The shared leaf keeps group 4, so no node was pruned either.
        assert part.total_lock_acquisitions() == before == 2 * PART_LEVELS
        assert part.node_count == PART_LEVELS

    @given(st.sets(st.integers(min_value=0, max_value=(1 << 33) - 1), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_insert_remove_roundtrip(self, groups):
        part = PageReservationTable()
        for group in groups:
            part.insert(Reservation(group=group, base_frame=0))
        assert len(part) == len(groups)
        for group in groups:
            part.remove(group)
        assert len(part) == 0
        assert part.node_count == 1
