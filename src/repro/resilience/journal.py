"""The undo journal behind transactional page moves.

Figure 8's protocol mutates state in *many* places — physical memory
(escape cells, the copied bytes), register snapshots, the Allocation
Table, the escape map, the region set, the frame allocator, the heap
allocator's metadata, the kernel's per-process bookkeeping.  A fault at
any step would historically leave a half-patched machine.  The
:class:`MoveJournal` makes every step undoable: each mutation appends a
:class:`JournalEntry` whose ``undo`` closure restores exactly the state
that mutation changed, and :meth:`MoveJournal.rollback` replays the
undos in reverse order.

The step names below are the campaign axis — every fault-injection
test, every ``--inject-faults`` spec, and the DESIGN.md step table use
these strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import RollbackError

# -- Figure 8 step names (the protocol's fault surface) ----------------------

STEP_WORLD_STOP = "world-stop"          # steps 1-3: signal, dump, barrier
STEP_NEGOTIATE = "negotiate"            # step 4: page-set expansion
STEP_QUIESCE_AGENTS = "quiesce-agents"  # drain translation-client leases
STEP_RESERVE = "reserve-destination"    # kernel allocates the target range
STEP_ESCAPE_FLUSH = "escape-flush"      # batched records resolved
STEP_PATCH_ESCAPES = "patch-escapes"    # steps 5-8: swizzle escaped pointers
STEP_PATCH_REGISTERS = "patch-registers"  # step 9: thread register frames
STEP_COPY_DATA = "copy-data"            # step 10: the bytes move
STEP_REBASE_TRACKING = "rebase-tracking"  # step 11: table + escape map rekey
STEP_REGION_INSTALL = "region-install"  # region swap-out/swap-in
STEP_KERNEL_METADATA = "kernel-metadata"  # heap/globals/layout follow the move
STEP_RELEASE_FRAMES = "release-frames"  # old frames return to the kernel
STEP_RELEASE_OLD = "release-old"        # allocation move: old block freed
STEP_REGION_PERMS = "region-perms"      # protection change: perms swapped
STEP_RESUME = "resume"                  # step 12: completion + threads resume

#: Every step of a page-move transaction, in protocol order — the
#: fault campaign enumerates exactly this list.
PAGE_MOVE_STEPS = (
    STEP_WORLD_STOP,
    STEP_NEGOTIATE,
    STEP_QUIESCE_AGENTS,
    STEP_RESERVE,
    STEP_ESCAPE_FLUSH,
    STEP_PATCH_ESCAPES,
    STEP_PATCH_REGISTERS,
    STEP_COPY_DATA,
    STEP_REBASE_TRACKING,
    STEP_REGION_INSTALL,
    STEP_KERNEL_METADATA,
    STEP_RELEASE_FRAMES,
    STEP_RESUME,
)

#: Steps of an allocation-granularity move (Section 6's design).
ALLOCATION_MOVE_STEPS = (
    STEP_WORLD_STOP,
    STEP_RESERVE,
    STEP_ESCAPE_FLUSH,
    STEP_PATCH_ESCAPES,
    STEP_PATCH_REGISTERS,
    STEP_COPY_DATA,
    STEP_REBASE_TRACKING,
    STEP_RELEASE_OLD,
    STEP_RESUME,
)

#: Steps of a protection-change transaction.
PROTECTION_STEPS = (STEP_WORLD_STOP, STEP_REGION_PERMS, STEP_RESUME)

#: Steps with a mid-step progress hook, where a ``torn`` fault can land
#: between items (half the escapes patched, half the bytes copied, ...).
TORN_CAPABLE_STEPS = frozenset(
    {
        STEP_QUIESCE_AGENTS,
        STEP_PATCH_ESCAPES,
        STEP_PATCH_REGISTERS,
        STEP_COPY_DATA,
        STEP_REBASE_TRACKING,
    }
)


@dataclass
class JournalEntry:
    """One undoable mutation: which step made it, what it was, and the
    closure that exactly reverses it."""

    step: str
    label: str
    undo: Callable[[], None]


class MoveJournal:
    """Ordered undo log for one move-transaction attempt.

    ``record`` appends entries in mutation order; ``rollback`` runs
    their undos newest-first, so each undo sees exactly the state its
    forward mutation left behind.  A journal is single-use: it ends
    either ``committed`` (undos discarded) or ``rolled-back``.
    """

    def __init__(self) -> None:
        self.entries: List[JournalEntry] = []
        self.state = "open"

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, step: str, label: str, undo: Callable[[], None]) -> None:
        if self.state != "open":
            raise RollbackError(f"journal is {self.state}; cannot record")
        self.entries.append(JournalEntry(step, label, undo))

    # -- typed helpers (the common mutation shapes) ----------------------

    def log_u64(self, step: str, memory, address: int, old_value: int) -> None:
        """An 8-byte cell is about to be overwritten (escape patch)."""
        self.record(
            step,
            f"restore u64 at {address:#x}",
            lambda: memory.write_u64(address, old_value),
        )

    def log_image(self, step: str, memory, address: int, length: int) -> None:
        """A byte range is about to be clobbered (the data copy) —
        snapshot it now, restore it verbatim on rollback."""
        old = memory.read_bytes(address, length)
        self.record(
            step,
            f"restore {length} byte(s) at {address:#x}",
            lambda: memory.write_bytes(address, old),
        )

    def log_registers(self, step: str, snapshot) -> None:
        """A thread's register snapshot is about to be patched."""
        old = dict(snapshot.slots)
        def undo() -> None:
            snapshot.slots.clear()
            snapshot.slots.update(old)
        self.record(step, f"restore registers of thread {snapshot.thread_id}", undo)

    # -- outcomes --------------------------------------------------------

    def commit(self) -> None:
        self.state = "committed"
        self.entries.clear()

    def rollback(self) -> int:
        """Undo every journaled mutation, newest first.  Returns the
        number of entries undone.  An undo that raises is wrapped in
        :class:`RollbackError` — the unrecoverable case."""
        if self.state == "rolled-back":
            return 0
        undone = 0
        while self.entries:
            entry = self.entries.pop()
            try:
                entry.undo()
            except Exception as exc:  # noqa: BLE001 - rollback must not half-fail silently
                self.state = "rolled-back"
                raise RollbackError(
                    f"undo failed at step {entry.step!r} ({entry.label}): {exc}"
                ) from exc
            undone += 1
        self.state = "rolled-back"
        return undone
