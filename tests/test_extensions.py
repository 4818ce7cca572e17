"""Extensions beyond the prototype: allocation-granularity movement
(Section 6 future work) and seamless stack expansion (Section 2.2)."""

import pytest

from repro.carat import compile_carat
from repro.errors import KernelError, MoveError, ProtectionFault
from repro.kernel import Kernel
from repro.kernel.pagetable import PAGE_SIZE
from repro.machine.interp import Interpreter
from tests.conftest import LINKED_LIST_SOURCE, machine_fingerprint


class TestAllocationGranularityMoves:
    def _loaded(self, steps=1200):
        binary = compile_carat(LINKED_LIST_SOURCE, module_name="list")
        kernel = Kernel()
        process = kernel.load_carat(binary)
        interp = Interpreter(process, kernel)
        interp.start("main")
        interp.run_steps(steps)
        return kernel, process, interp

    def test_single_allocation_move_preserves_semantics(self):
        kernel, process, interp = self._loaded()
        process.runtime.flush_escapes()
        victim = process.runtime.worst_case_allocation()
        assert victim.kind == "heap"
        snaps = interp.register_snapshots()
        cost, cycles = kernel.request_allocation_move(
            process, victim, register_snapshots=snaps
        )
        interp.apply_snapshots(snaps)
        assert cost.page_expand == 0  # no granularity mismatch
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    def test_no_region_change_needed(self):
        kernel, process, interp = self._loaded()
        regions_before = len(process.regions)
        version_before = process.regions.version
        victim = process.runtime.worst_case_allocation()
        snaps = interp.register_snapshots()
        kernel.request_allocation_move(process, victim, register_snapshots=snaps)
        interp.apply_snapshots(snaps)
        # The destination came from inside the heap region: the region set
        # is untouched — the paper's motivation for dropping pages.
        assert len(process.regions) == regions_before
        assert process.regions.version == version_before

    def test_cheaper_than_page_move(self):
        kernel, process, interp = self._loaded()
        process.runtime.flush_escapes()
        victim = process.runtime.worst_case_allocation()
        snaps = interp.register_snapshots()
        alloc_cost, _ = kernel.request_allocation_move(
            process, victim, register_snapshots=snaps
        )
        interp.apply_snapshots(snaps)
        # Now a page-granularity move of the same allocation's (new) page.
        snaps = interp.register_snapshots()
        _, page_cost, _ = kernel.request_page_move(
            process,
            victim.address & ~(PAGE_SIZE - 1),
            register_snapshots=snaps,
        )
        interp.apply_snapshots(snaps)
        assert alloc_cost.total < page_cost.total
        # The savings come from expansion + bulk movement, as Table 3's
        # "w/o expand" column projects.
        assert alloc_cost.alloc_and_move < page_cost.alloc_and_move
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    def test_move_onto_itself_is_refused_at_admission(self):
        # Regression: a destination equal to the allocation's own address
        # used to skip the copy and then free the block in the heap while
        # the Allocation Table kept it live.
        kernel, process, interp = self._loaded()
        victim = process.runtime.worst_case_allocation()
        before = machine_fingerprint(kernel, process)
        for destination in (victim.address, victim.address + 8, victim.address - 8):
            with pytest.raises(MoveError) as info:
                kernel.request_allocation_move(
                    process, victim, destination=destination
                )
            assert info.value.step == "admission"
        assert kernel.stats.moves_attempted == 0
        assert machine_fingerprint(kernel, process) == before
        assert not process.runtime.is_stopped
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    def test_many_allocation_moves(self):
        kernel, process, interp = self._loaded(steps=200)
        moves = 0
        while True:
            status = interp.run_steps(150)
            if status == "done":
                break
            process.runtime.flush_escapes()
            heap_allocs = [
                a for a in process.runtime.table if a.kind == "heap"
            ]
            if not heap_allocs:
                continue
            victim = heap_allocs[moves % len(heap_allocs)]
            snaps = interp.register_snapshots()
            kernel.request_allocation_move(
                process, victim, register_snapshots=snaps
            )
            interp.apply_snapshots(snaps)
            moves += 1
        assert moves >= 3
        assert interp.output == [str(sum(range(40)))]
        process.runtime.table.check_invariants()


DEEP_RECURSION = """
long deep(long n) {
  long pad[64];
  pad[0] = n;
  if (n == 0) { return 0; }
  return deep(n - 1) + pad[0];
}
void main() { print_long(deep(%d)); }
"""


class TestStackExpansion:
    def _loaded(self, depth, stack_size):
        binary = compile_carat(DEEP_RECURSION % depth, module_name="deep")
        kernel = Kernel()
        # Leave a free gap below the capsule so contiguous expansion can
        # succeed (frames below the first capsule are otherwise reserved).
        spacer = kernel.frames.alloc_address(32)
        process = kernel.load_carat(binary, stack_size=stack_size)
        kernel.frames.free_address(spacer, 32)
        interp = Interpreter(process, kernel)
        return kernel, process, interp

    def test_deep_recursion_faults_on_small_stack(self):
        kernel, process, interp = self._loaded(depth=40, stack_size=8192)
        interp.start("main")
        with pytest.raises(ProtectionFault) as info:
            interp.run_steps(10_000_000)
        assert info.value.access == "stack"

    def test_kernel_expands_and_program_completes(self):
        depth = 40
        kernel, process, interp = self._loaded(depth=depth, stack_size=8192)
        interp.start("main")
        expansions = 0
        while True:
            try:
                status = interp.run_steps(10_000_000)
            except ProtectionFault as fault:
                if fault.access != "stack":
                    raise
                kernel.expand_stack(process, 16 * PAGE_SIZE)
                interp.retry_current_instruction()
                expansions += 1
                continue
            if status == "done":
                break
        assert expansions >= 1
        assert interp.output == [str(sum(range(1, depth + 1)))]

    def test_expansion_grows_the_region(self):
        kernel, process, interp = self._loaded(depth=5, stack_size=8192)
        base_before = process.layout.stack_base
        new_base = kernel.expand_stack(process, 4 * PAGE_SIZE)
        assert new_base < base_before
        assert process.layout.stack_base == new_base
        # The new floor is permitted memory.
        assert process.regions.check(new_base, 8, "write")

    def test_expansion_fails_without_adjacent_frames(self):
        binary = compile_carat(DEEP_RECURSION % 5, module_name="deep")
        kernel = Kernel()
        process = kernel.load_carat(binary, stack_size=8192)
        # Frames below the capsule are the reserved low frames: no room.
        with pytest.raises(KernelError, match="contiguously"):
            kernel.expand_stack(process, 4 * PAGE_SIZE)

    def test_retry_reexecutes_faulting_alloca(self):
        kernel, process, interp = self._loaded(depth=40, stack_size=8192)
        interp.start("main")
        with pytest.raises(ProtectionFault):
            interp.run_steps(10_000_000)
        sp_at_fault = interp.sp
        kernel.expand_stack(process, 16 * PAGE_SIZE)
        interp.retry_current_instruction()
        interp.run_steps(10_000_000)
        # The retried alloca advanced SP past the old floor at some point;
        # the program then completed and unwound.
        assert interp.finished
