"""The patcher (page moves), register snapshots, and the runtime facade."""

import pytest

from repro.errors import KernelError, ProtectionFault
from repro.kernel.physmem import PhysicalMemory
from repro.resilience import MoveJournal
from repro.runtime import (
    PAGE_SIZE,
    AllocationTable,
    AllocationToEscapeMap,
    CaratRuntime,
    Patcher,
    Region,
    RegionSet,
    RegisterSnapshot,
    page_down,
    page_up,
)

MB = 1024 * 1024


@pytest.fixture
def memory():
    return PhysicalMemory(4 * MB)


@pytest.fixture
def patcher(memory):
    return Patcher(AllocationTable(), AllocationToEscapeMap(), memory)


class TestPageMath:
    def test_page_down_up(self):
        assert page_down(0x1234) == 0x1000
        assert page_up(0x1234) == 0x2000
        assert page_up(0x1000) == 0x1000


class TestPlanMove:
    def test_simple_plan(self, patcher):
        patcher.table.add(0x10100, 64)
        plan = patcher.plan_move(0x10000, 0x11000)
        assert plan.lo == 0x10000
        assert plan.hi == 0x11000
        assert not plan.expanded
        assert len(plan.allocations) == 1

    def test_expansion_on_straddling_allocation(self, patcher):
        # Allocation straddles the 0x11000 boundary.
        patcher.table.add(0x10F80, 0x100)
        plan = patcher.plan_move(0x10000, 0x11000)
        assert plan.expanded
        assert plan.hi == 0x12000
        assert plan.page_count == 2

    def test_expansion_cascades(self, patcher):
        # A chain of straddling allocations: each expansion pulls in the
        # next one.
        patcher.table.add(0x10F80, 0x100)  # crosses into page 0x11
        patcher.table.add(0x11F80, 0x100)  # crosses into page 0x12
        plan = patcher.plan_move(0x10000, 0x11000)
        assert plan.hi == 0x13000
        assert plan.expand_lookups >= 2

    def test_expansion_downward(self, patcher):
        patcher.table.add(0x0FF80, 0x100)  # starts below the range
        plan = patcher.plan_move(0x10000, 0x11000)
        assert plan.lo == 0x0F000

    def test_unaligned_rejected(self, patcher):
        with pytest.raises(KernelError):
            patcher.plan_move(0x10001, 0x11000)
        with pytest.raises(KernelError):
            patcher.plan_move(0x11000, 0x11000)


class TestExecuteMove:
    def test_data_and_escapes_move(self, patcher, memory):
        a = patcher.table.add(0x10000, 64)
        memory.write_u64(0x10000, 0xABCDEF)
        # A cell elsewhere holds a pointer to 0x10008.
        memory.write_u64(0x20000, 0x10008)
        patcher.escapes.record(0x20000)

        plan = patcher.plan_move(0x10000, 0x11000)
        cost = patcher.execute_move(plan, 0x40000, journal=MoveJournal())
        # Data moved.
        assert memory.read_u64(0x40000) == 0xABCDEF
        # Escape patched.
        assert memory.read_u64(0x20000) == 0x40008
        # Table rebased.
        assert patcher.table.at(0x40000) is a
        assert cost.patch_gen_exec > 0
        assert cost.alloc_and_move > 0
        assert cost.total == (
            cost.page_expand + cost.patch_gen_exec + cost.register_patch
            + cost.alloc_and_move
        )

    def test_stale_escape_not_patched(self, patcher, memory):
        patcher.table.add(0x10000, 64)
        memory.write_u64(0x20000, 0x10008)
        patcher.escapes.record(0x20000)
        patcher.escapes.flush(patcher.table, memory.read_u64)
        # The cell is overwritten with a non-pointer before the move.
        memory.write_u64(0x20000, 7)
        plan = patcher.plan_move(0x10000, 0x11000)
        patcher.execute_move(plan, 0x40000, journal=MoveJournal())
        assert memory.read_u64(0x20000) == 7  # untouched

    def test_internal_pointer_cell_moves_and_patches(self, patcher, memory):
        # A linked structure where the escape cell itself lives in the
        # moved page (node->next inside the page).
        patcher.table.add(0x10000, 16)  # node A
        patcher.table.add(0x10010, 16)  # node B
        memory.write_u64(0x10008, 0x10010)  # A.next = B
        patcher.escapes.record(0x10008)
        plan = patcher.plan_move(0x10000, 0x11000)
        patcher.execute_move(plan, 0x50000, journal=MoveJournal())
        # A.next now lives at 0x50008 and must point to B's new home.
        assert memory.read_u64(0x50008) == 0x50010
        # And the escape map must have followed the cell.
        b = patcher.table.at(0x50010)
        assert patcher.escapes.escapes_of(b) == {0x50008}

    def test_register_patching(self, patcher, memory):
        patcher.table.add(0x10000, 64)
        snap = RegisterSnapshot(0, {"r1": 0x10020, "r2": 0x99999}, {"r1", "r2"})
        plan = patcher.plan_move(0x10000, 0x11000)
        cost = patcher.execute_move(plan, 0x40000, [snap], journal=MoveJournal())
        assert snap.slots["r1"] == 0x40020
        assert snap.slots["r2"] == 0x99999
        assert cost.register_patch > 0

    def test_non_pointer_slots_ignored(self):
        snap = RegisterSnapshot(0, {"i": 0x10000}, pointer_slots=set())
        assert snap.patch(0x10000, 0x11000, 0x1000) == 0
        assert snap.slots["i"] == 0x10000

    # Regression: when the destination range overlaps the source (a short
    # downward compaction slide), the old one-at-a-time rebase could land
    # one allocation's new base on another's not-yet-rebased base, and the
    # table's insert-or-replace silently dropped that allocation (rebase
    # now raises instead) — the later rebase then popped the wrong
    # allocation and merged the two escape sets.
    def test_overlapping_move_keeps_allocations_distinct(self, patcher, memory):
        a = patcher.table.add(0x10000, 64)
        b = patcher.table.add(0x11000, 64)
        memory.write_u64(0x20000, 0x10010)  # pointer into A
        memory.write_u64(0x20008, 0x11010)  # pointer into B
        patcher.escapes.record(0x20000)
        patcher.escapes.record(0x20008)
        patcher.escapes.flush(patcher.table, memory.read_u64)

        plan = patcher.plan_move(0x10000, 0x12000)
        patcher.execute_move(plan, 0x11000, journal=MoveJournal())  # slide up one page: overlap

        assert a.address == 0x11000
        assert b.address == 0x12000
        patcher.table.check_invariants()
        # Escape sets stayed per-allocation (not merged).
        assert patcher.escapes.escapes_of(a) == {0x20000}
        assert patcher.escapes.escapes_of(b) == {0x20008}
        # And the cells were patched against the right deltas.
        assert memory.read_u64(0x20000) == 0x11010
        assert memory.read_u64(0x20008) == 0x12010

    def test_overlapping_move_downward(self, patcher, memory):
        a = patcher.table.add(0x10000, 64)
        b = patcher.table.add(0x11000, 64)
        plan = patcher.plan_move(0x10000, 0x12000)
        patcher.execute_move(plan, 0x0F000, journal=MoveJournal())  # slide down one page
        assert a.address == 0x0F000
        assert b.address == 0x10000
        patcher.table.check_invariants()

    def test_unaligned_destination_rejected(self, patcher):
        patcher.table.add(0x10000, 8)
        plan = patcher.plan_move(0x10000, 0x11000)
        with pytest.raises(KernelError):
            patcher.execute_move(plan, 0x40001, journal=MoveJournal())

    def test_move_cost_aggregation(self):
        from repro.runtime.patching import MoveCost

        a = MoveCost(1, 2, 3, 4)
        b = MoveCost(10, 20, 30, 40)
        c = a + b
        assert (c.page_expand, c.patch_gen_exec, c.register_patch, c.alloc_and_move) == (11, 22, 33, 44)
        assert a.prototype_cost == 6
        assert a.prototype_wo_expand == 5
        assert abs(a.wo_expand_fraction - 0.5) < 1e-9


class TestCaratRuntime:
    def _runtime(self, memory):
        regions = RegionSet([Region(0, 2 * MB)])
        return CaratRuntime(memory, regions)

    def test_tracking_callbacks(self, memory):
        rt = self._runtime(memory)
        rt.on_alloc(0x1000, 64)
        assert rt.table.find_containing(0x1010) is not None
        rt.on_escape(0x5000)
        memory.write_u64(0x5000, 0x1010)
        rt.flush_escapes()
        assert rt.escapes.tracked_allocations() == 1
        rt.on_free(0x1000)
        assert len(rt.table) == 0
        assert rt.stats.tracking_events == 3
        assert rt.stats.tracking_cycles > 0

    def test_guard_pass_and_fault(self, memory):
        rt = self._runtime(memory)
        cycles = rt.guard_access(0x1000, 8, "read")
        assert cycles >= 1
        with pytest.raises(ProtectionFault):
            rt.guard_access(5 * MB, 8, "read")
        assert rt.stats.guard_faults == 1

    def test_guard_range_zero_length_passes(self, memory):
        rt = self._runtime(memory)
        rt.guard_range(0xFFFFFFFF, 0)  # bogus address, zero length: OK
        with pytest.raises(ProtectionFault):
            rt.guard_range(5 * MB, 64)

    def test_guard_call_checks_frame(self, memory):
        rt = self._runtime(memory)
        rt.guard_call(0x10000, 256)
        with pytest.raises(ProtectionFault):
            rt.guard_call(128, 256)  # frame would underflow region 0 base...
            # (stack pointer 128 minus 256 goes negative)

    def test_world_stop_resume(self, memory):
        rt = self._runtime(memory)
        cycles = rt.world_stop(thread_count=4)
        assert rt.is_stopped
        assert cycles >= 4 * rt.costs.world_stop_per_thread
        rt.resume()
        assert not rt.is_stopped

    def test_worst_case_allocation(self, memory):
        rt = self._runtime(memory)
        rt.on_alloc(0x10000, 64)
        rt.on_alloc(0x20000, 64)
        for i in range(5):
            cell = 0x30000 + 8 * i
            memory.write_u64(cell, 0x20000 + i)
            rt.on_escape(cell)
        memory.write_u64(0x38000, 0x10000)
        rt.on_escape(0x38000)
        worst = rt.worst_case_allocation()
        assert worst.address == 0x20000

    def test_footprint_reporting(self, memory):
        rt = self._runtime(memory)
        empty = rt.tracking_footprint_bytes()
        rt.on_alloc(0x10000, 64)
        assert rt.tracking_footprint_bytes() > empty
