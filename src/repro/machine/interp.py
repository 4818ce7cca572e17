"""The IR interpreter: the "CPU" both execution models run on.

Executes a loaded process's IR directly against simulated physical
memory, charging the cost model per instruction:

* **traditional mode** — every data access goes through the process MMU
  (DTLB → STLB → pagewalk), page faults trap to the kernel for demand
  paging, and the TLB counters behind Figure 2 accumulate;
* **CARAT mode** — addresses are physical and accesses go straight to
  memory; protection comes from the injected ``carat.guard.*`` calls,
  which dispatch into the runtime (charging the guard mechanism's cost),
  and the tracking callbacks keep the Allocation Table / escape map live.

The interpreter is resumable (``run_steps``) so experiment harnesses can
interleave kernel activity — page moves, protection changes — with
execution, and it can produce/apply the register snapshots the world-stop
protocol patches (SSA values standing in for the register file).
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.carat.intrinsics import (
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_RANGE,
    GUARD_STORE,
    TRACK_ALLOC,
    TRACK_ESCAPE,
    TRACK_FREE,
)
from repro.errors import InterpError, ProtectionFault, SegmentationFault
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    size_of,
    stride_of,
    struct_field_offset,
)
from repro.ir.values import (
    Argument,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantStruct,
    ConstantZero,
    UndefValue,
    Value,
)
from repro.kernel.kernel import Kernel
from repro.kernel.mmu import PageFault
from repro.kernel.pagetable import PAGE_SIZE
from repro.kernel.process import Process
from repro.machine.costs import CostModel
from repro.runtime.patching import RegisterSnapshot
from repro.transform.simplify import fold_icmp, fold_int_binop


class ExitProgram(Exception):
    """Raised internally when the top frame returns; carries the code."""

    def __init__(self, code: int = 0) -> None:
        super().__init__(f"program exited with code {code}")
        self.code = code


@dataclass
class InterpStats:
    """Per-run counters: instructions, cycles, and cost attribution."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    calls: int = 0
    translation_cycles: int = 0
    guard_cycles: int = 0
    tracking_cycles: int = 0
    page_fault_cycles: int = 0
    #: Tiered-memory accounting (CARAT mode on a tiered kernel only).
    fast_tier_accesses: int = 0
    slow_tier_accesses: int = 0
    tier_cycles: int = 0
    #: Fast-engine dispatch-cache accounting (always zero under the
    #: reference engine): basic blocks available in compiled form, and
    #: per-function reuse of the module's compiled-code cache.  These are
    #: wall-clock bookkeeping, not modeled cycles — they never feed the
    #: cost model.
    compiled_blocks: int = 0
    dispatch_cache_hits: int = 0
    dispatch_cache_misses: int = 0
    #: Trace-tier accounting (``--engine trace`` only; both other engines
    #: leave these at zero).  Like the dispatch-cache counters these are
    #: wall-clock bookkeeping: superblocks compiled, side exits back to
    #: the block tier, guard re-specializations after a region-generation
    #: bump, and guard checks served by a specialized (pre-resolved)
    #: parameter check instead of the full mechanism dispatch.
    traces_compiled: int = 0
    trace_exits: int = 0
    trace_respecializations: int = 0
    guard_checks_elided: int = 0
    #: Guest instructions retired inside compiled traces (the rest ran
    #: in the block tier), and aborted trace recordings by reason:
    #: ``depth`` (calls nested past the inline cap), ``length`` (chain
    #: past the block cap), ``reject`` (a chain the compiler cannot
    #: lay out).  Together they say why a run is not fast.
    trace_instructions: int = 0
    trace_aborts: Dict[str, int] = field(
        default_factory=lambda: {"depth": 0, "length": 0, "reject": 0}
    )

    def hot_tier_share(self) -> float:
        """Fraction of tier-accounted accesses served by the fast tier."""
        total = self.fast_tier_accesses + self.slow_tier_accesses
        return self.fast_tier_accesses / total if total else 0.0

    def mpki(self, misses: int) -> float:
        return 1000.0 * misses / self.instructions if self.instructions else 0.0

    def to_dict(self) -> dict:
        """Uniform telemetry schema (``repro.telemetry.metrics``)."""
        return dataclasses.asdict(self)


class _Frame:
    __slots__ = (
        "function",
        "block",
        "index",
        "values",
        "sp_on_entry",
        "result_target",
        "prev_block",
    )

    def __init__(self, function: Function, sp_on_entry: int) -> None:
        self.function = function
        self.block: BasicBlock = function.entry
        self.index = 0
        self.values: Dict[int, Union[int, float]] = {}
        self.sp_on_entry = sp_on_entry
        self.result_target: Optional[Instruction] = None
        self.prev_block: Optional[BasicBlock] = None


_STACK_RED_ZONE = 128
_MATH_BUILTINS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "fabs": abs,
    "floor": math.floor,
}


class Interpreter:
    """One thread of execution; see the module docstring for the model."""

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        max_call_depth: int = 512,
        stack_range: Optional[Tuple[int, int]] = None,
        thread_id: int = 0,
    ) -> None:
        self.process = process
        self.kernel = kernel
        self.memory = kernel.memory
        self.costs = kernel.costs
        self.module = process.binary.module
        self.is_carat = process.is_carat
        self.stats = InterpStats()
        self.output: List[str] = []
        self.thread_id = thread_id
        #: Additional threads run on stacks allocated from the heap
        #: (Section 2.2: "these added stacks are allocated in heap
        #: memory"); the main thread uses the process stack and follows
        #: kernel-driven stack expansion dynamically.
        self._stack_range = stack_range
        self.sp = self.stack_top - _STACK_RED_ZONE
        self.frames: List[_Frame] = []
        self.max_call_depth = max_call_depth
        self.finished = False
        self.exit_code = 0
        #: Called every ``tick_interval`` instructions; harnesses hook
        #: kernel activity (page moves at a given rate) in here.
        self.tick_hook: Optional[Callable[["Interpreter"], None]] = None
        self.tick_interval = 10_000
        self._next_tick = self.tick_interval
        #: Access telemetry probe: called as (address, size, access) for
        #: every load/store when installed (the policy engine's heat
        #: tracker).  ``None`` keeps the hot path unchanged.
        self.access_probe: Optional[Callable[[int, int, str], None]] = None
        #: Attached :class:`~repro.telemetry.CycleProfiler` (set by its
        #: ``attach``).  The reference engine is profiled by wrapping
        #: ``_execute`` on the instance; the fast engine's loop checks
        #: this attribute and switches to its mirrored profiled loop.
        #: ``None`` keeps both hot paths byte-identical to pre-telemetry.
        self.profiler = None
        #: Fast/slow tier boundary for tier-cost accounting.  Addresses
        #: are physical only in CARAT mode, so tier charging is CARAT-only.
        self._tier_boundary: Optional[int] = (
            kernel.memory.fast_size if self.is_carat else None
        )

    @property
    def stack_base(self) -> int:
        if self._stack_range is not None:
            return self._stack_range[0]
        return self.process.layout.stack_base

    @property
    def stack_top(self) -> int:
        if self._stack_range is not None:
            return self._stack_range[1]
        return self.process.stack_top

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def start(self, entry: str = "main", args: Tuple = ()) -> None:
        function = self.module.get_function(entry)
        if function.is_declaration:
            raise InterpError(f"entry point @{entry} has no body")
        frame = _Frame(function, self.sp)
        for formal, actual in zip(function.args, args):
            frame.values[id(formal)] = actual
        self.frames.append(frame)
        self.finished = False

    def run(
        self, entry: str = "main", args: Tuple = (), max_steps: int = 50_000_000
    ) -> int:
        """Run to completion (or the step budget).  Returns the exit code."""
        self.start(entry, args)
        status = self.run_steps(max_steps)
        if status == "running":
            raise InterpError(
                f"step budget exhausted after {self.stats.instructions} "
                f"instructions in @{self.frames[-1].function.name}"
            )
        return self.exit_code

    def resync_stack_pointer(self) -> None:
        """Re-derive ``sp`` from the process layout.  Needed after page
        moves performed between interpreter construction and the first
        instruction (e.g. pre-run fragmentation scatter) — there are no
        live registers to patch yet, only this cached pointer."""
        if self.frames:
            raise InterpError("cannot resync sp while frames are live")
        self.sp = self.stack_top - _STACK_RED_ZONE

    def set_tick_interval(self, interval: int) -> None:
        """Change the safepoint-callback cadence, rearming the pending
        tick (assigning ``tick_interval`` directly leaves the already
        scheduled tick at the old distance)."""
        self.tick_interval = interval
        self._next_tick = min(
            self._next_tick, self.stats.instructions + interval
        )

    def run_steps(self, max_steps: int) -> str:
        """Execute ~``max_steps`` instructions; 'done' or 'running'.

        When pausing, execution continues to the next safepoint (block
        boundary) so the caller can safely perform kernel activity —
        page moves, protection changes — against a patchable state.
        """
        steps = 0
        at_safepoint = False
        while self.frames and (steps < max_steps or not at_safepoint):
            if steps >= max_steps + 100_000:
                break  # degenerate single-block loop; give up on alignment
            frame = self.frames[-1]
            if frame.index >= len(frame.block.instructions):
                raise InterpError(
                    f"fell off block %{frame.block.name} in "
                    f"@{frame.function.name}"
                )
            inst = frame.block.instructions[frame.index]
            frame.index += 1
            try:
                self._execute(frame, inst)
            except ExitProgram as exit_request:
                self.exit_code = exit_request.code
                self.frames.clear()
                break
            steps += 1
            self.stats.instructions += 1
            # Kernel activity (tick hooks => world stops) may only happen at
            # *safepoints*: block boundaries.  Mid-block, an address can be
            # live in integer form (e.g. Opt2's ptrtoint -> arithmetic ->
            # inttoptr chain) where pointer patching cannot see it — the
            # same reason GCs and real CARAT stop threads at safepoints.
            at_safepoint = inst.is_terminator
            if (
                at_safepoint
                and self.stats.instructions >= self._next_tick
            ):
                self._next_tick = self.stats.instructions + self.tick_interval
                if self.tick_hook is not None:
                    self.tick_hook(self)
        if not self.frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"

    # ------------------------------------------------------------------
    # Value evaluation
    # ------------------------------------------------------------------

    def _eval(self, frame: _Frame, value: Value) -> Union[int, float]:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        key = id(value)
        if key in frame.values:
            return frame.values[key]
        if isinstance(value, ConstantNull):
            return 0
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, GlobalVariable):
            try:
                return self.process.globals_map[value.name]
            except KeyError:
                raise InterpError(f"global @{value.name} was not loaded")
        if isinstance(value, (Argument, Instruction)):
            raise InterpError(
                f"use of undefined value %{value.name} in "
                f"@{frame.function.name}"
            )
        raise InterpError(f"cannot evaluate operand {value!r}")

    # ------------------------------------------------------------------
    # Tiered-memory accounting
    # ------------------------------------------------------------------

    def _charge_tier(self, address: int) -> None:
        """Charge the access-latency premium of the tier serving a
        physical address (CARAT mode on a tiered kernel)."""
        if address < self._tier_boundary:
            self.stats.fast_tier_accesses += 1
            extra = self.costs.fast_tier_access
        else:
            self.stats.slow_tier_accesses += 1
            extra = self.costs.slow_tier_access
        if extra:
            self.stats.cycles += extra
            self.stats.tier_cycles += extra

    # ------------------------------------------------------------------
    # Memory with translation / fault handling
    # ------------------------------------------------------------------

    def _translate(self, vaddr: int, access: str) -> int:
        """Traditional-model translation with demand-paging retry."""
        mmu = self.process.mmu
        assert mmu is not None
        for _ in range(3):
            try:
                paddr, cycles = mmu.translate(vaddr, access)
                self.stats.cycles += cycles
                self.stats.translation_cycles += cycles
                return paddr
            except PageFault as fault:
                fault_cycles = self.kernel.handle_page_fault(self.process, fault)
                self.stats.cycles += fault_cycles
                self.stats.page_fault_cycles += fault_cycles
        raise SegmentationFault(vaddr, access)

    def _read_mem(self, address: int, size: int, access: str = "read") -> bytes:
        if not self.is_carat:
            first = self._translate(address, access)
            end_page = (address + size - 1) // PAGE_SIZE
            if address // PAGE_SIZE == end_page:
                return self.memory.read_bytes(first, size)
            # Page-crossing access: translate piecewise.
            out = bytearray()
            offset = 0
            while offset < size:
                vaddr = address + offset
                paddr = self._translate(vaddr, access) if offset else first
                chunk = min(size - offset, PAGE_SIZE - (vaddr % PAGE_SIZE))
                out += self.memory.read_bytes(paddr, chunk)
                offset += chunk
            return bytes(out)
        return self.memory.read_bytes(address, size)

    def _write_mem(self, address: int, data: bytes) -> None:
        if not self.is_carat:
            size = len(data)
            first = self._translate(address, "write")
            end_page = (address + size - 1) // PAGE_SIZE
            if address // PAGE_SIZE == end_page:
                self.memory.write_bytes(first, data)
                return
            offset = 0
            while offset < size:
                vaddr = address + offset
                paddr = self._translate(vaddr, "write") if offset else first
                chunk = min(size - offset, PAGE_SIZE - (vaddr % PAGE_SIZE))
                self.memory.write_bytes(paddr, data[offset : offset + chunk])
                offset += chunk
            return
        self.memory.write_bytes(address, data)

    def _load_typed(self, address: int, ty: Type) -> Union[int, float]:
        size = size_of(ty)
        raw = self._read_mem(address, size, "read")
        if isinstance(ty, IntType):
            return ty.wrap(int.from_bytes(raw, "little", signed=False))
        if isinstance(ty, FloatType):
            import struct

            return struct.unpack("<d" if ty.bits == 64 else "<f", raw)[0]
        if isinstance(ty, PointerType):
            return int.from_bytes(raw, "little", signed=False)
        raise InterpError(f"cannot load a value of type {ty}")

    def _store_typed(self, address: int, ty: Type, value: Union[int, float]) -> None:
        size = size_of(ty)
        if isinstance(ty, IntType):
            raw = (int(value) & ty.max_unsigned).to_bytes(size, "little")
        elif isinstance(ty, FloatType):
            import struct

            raw = struct.pack("<d" if ty.bits == 64 else "<f", float(value))
        elif isinstance(ty, PointerType):
            raw = (int(value) & ((1 << 64) - 1)).to_bytes(8, "little")
        else:
            raise InterpError(f"cannot store a value of type {ty}")
        self._write_mem(address, raw)

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------

    def _execute(self, frame: _Frame, inst: Instruction) -> None:
        self.stats.cycles += self.costs.instruction
        if isinstance(inst, BinaryInst):
            self._exec_binary(frame, inst)
        elif isinstance(inst, LoadInst):
            address = int(self._eval(frame, inst.pointer))
            self.stats.cycles += self.costs.memory_access
            self.stats.loads += 1
            if self._tier_boundary is not None:
                self._charge_tier(address)
            if self.access_probe is not None:
                self.access_probe(address, size_of(inst.type), "read")
            frame.values[id(inst)] = self._load_typed(address, inst.type)
        elif isinstance(inst, StoreInst):
            address = int(self._eval(frame, inst.pointer))
            value = self._eval(frame, inst.value)
            self.stats.cycles += self.costs.memory_access
            self.stats.stores += 1
            if self._tier_boundary is not None:
                self._charge_tier(address)
            if self.access_probe is not None:
                self.access_probe(address, size_of(inst.value.type), "write")
            self._store_typed(address, inst.value.type, value)
        elif isinstance(inst, GEPInst):
            frame.values[id(inst)] = self._exec_gep(frame, inst)
        elif isinstance(inst, ICmpInst):
            lhs = self._eval(frame, inst.lhs)
            rhs = self._eval(frame, inst.rhs)
            bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
            frame.values[id(inst)] = int(
                fold_icmp(inst.predicate, int(lhs), int(rhs), bits)
            )
        elif isinstance(inst, FCmpInst):
            frame.values[id(inst)] = self._exec_fcmp(frame, inst)
        elif isinstance(inst, CastInst):
            frame.values[id(inst)] = self._exec_cast(frame, inst)
        elif isinstance(inst, SelectInst):
            cond = self._eval(frame, inst.condition)
            chosen = inst.true_value if cond else inst.false_value
            frame.values[id(inst)] = self._eval(frame, chosen)
        elif isinstance(inst, AllocaInst):
            frame.values[id(inst)] = self._exec_alloca(frame, inst)
        elif isinstance(inst, BranchInst):
            self._exec_branch(frame, inst)
        elif isinstance(inst, PhiInst):
            # Phis are executed as a group on block entry (see _enter_block);
            # reaching one here means control fell onto it directly.
            raise InterpError(f"phi executed out of band in %{frame.block.name}")
        elif isinstance(inst, CallInst):
            self._exec_call(frame, inst)
        elif isinstance(inst, ReturnInst):
            self._exec_return(frame, inst)
        elif isinstance(inst, UnreachableInst):
            raise InterpError(
                f"reached 'unreachable' in @{frame.function.name} "
                f"(undefined behavior at run time)"
            )
        else:
            raise InterpError(f"unknown instruction {inst.opcode!r}")

    def _exec_binary(self, frame: _Frame, inst: BinaryInst) -> None:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        ty = inst.type
        if isinstance(ty, IntType):
            result = fold_int_binop(inst.opcode, ty, int(lhs), int(rhs))
            if result is None:
                raise InterpError(
                    f"integer fault: {inst.opcode} {lhs}, {rhs} "
                    f"(division by zero or invalid shift)"
                )
            frame.values[id(inst)] = result
            return
        lhs_f, rhs_f = float(lhs), float(rhs)
        op = inst.opcode
        if op == "fadd":
            out = lhs_f + rhs_f
        elif op == "fsub":
            out = lhs_f - rhs_f
        elif op == "fmul":
            out = lhs_f * rhs_f
        elif op == "fdiv":
            if rhs_f == 0.0:
                out = math.inf if lhs_f > 0 else (-math.inf if lhs_f < 0 else math.nan)
            else:
                out = lhs_f / rhs_f
        elif op == "frem":
            out = math.fmod(lhs_f, rhs_f) if rhs_f != 0 else math.nan
        else:
            raise InterpError(f"unknown float op {op!r}")
        frame.values[id(inst)] = out

    def _exec_fcmp(self, frame: _Frame, inst: FCmpInst) -> int:
        lhs = float(self._eval(frame, inst.lhs))
        rhs = float(self._eval(frame, inst.rhs))
        if math.isnan(lhs) or math.isnan(rhs):
            return 0  # ordered comparisons are false on NaN
        table = {
            "oeq": lhs == rhs,
            "one": lhs != rhs,
            "olt": lhs < rhs,
            "ole": lhs <= rhs,
            "ogt": lhs > rhs,
            "oge": lhs >= rhs,
        }
        return int(table[inst.predicate])

    def _exec_cast(self, frame: _Frame, inst: CastInst) -> Union[int, float]:
        value = self._eval(frame, inst.value)
        op = inst.opcode
        if op in ("bitcast", "ptrtoint", "inttoptr"):
            return int(value)
        if op == "trunc":
            assert isinstance(inst.type, IntType)
            return inst.type.wrap(int(value))
        if op == "zext":
            source = inst.value.type
            assert isinstance(source, IntType)
            return source.wrap_unsigned(int(value))
        if op == "sext":
            return int(value)
        if op == "sitofp":
            return float(int(value))
        if op == "fptosi":
            assert isinstance(inst.type, IntType)
            f = float(value)
            if math.isnan(f) or math.isinf(f):
                return 0
            return inst.type.wrap(int(f))
        raise InterpError(f"unknown cast {op!r}")

    def _exec_gep(self, frame: _Frame, inst: GEPInst) -> int:
        address = int(self._eval(frame, inst.pointer))
        current: Type = inst.source_type
        for i, index in enumerate(inst.indices):
            idx = int(self._eval(frame, index))
            if i == 0:
                address += idx * stride_of(current)
                continue
            if isinstance(current, ArrayType):
                address += idx * stride_of(current.element)
                current = current.element
            elif isinstance(current, StructType):
                address += struct_field_offset(current, idx)
                current = current.fields[idx]
            else:
                raise InterpError(f"gep into non-aggregate {current}")
        return address

    def _exec_alloca(self, frame: _Frame, inst: AllocaInst) -> int:
        count = int(self._eval(frame, inst.count))
        size = stride_of(inst.allocated_type) * max(0, count)
        new_sp = (self.sp - size) & ~0xF  # 16-byte align, grows down
        if new_sp <= self.stack_base:
            # Leave self.sp untouched so the kernel can expand the stack
            # and the instruction can be retried.
            raise ProtectionFault(new_sp, size, "stack")
        self.sp = new_sp
        return self.sp

    def _enter_block(self, frame: _Frame, target: BasicBlock) -> None:
        """Branch to ``target``: evaluate its phis as a parallel copy using
        values from the edge we arrived on."""
        source = frame.block
        phis = target.phis()
        if phis:
            staged: List[Tuple[int, Union[int, float]]] = []
            for phi in phis:
                staged.append(
                    (id(phi), self._eval(frame, phi.incoming_for_block(source)))
                )
                self.stats.cycles += self.costs.instruction
                self.stats.instructions += 1
            for key, value in staged:
                frame.values[key] = value
        frame.prev_block = source
        frame.block = target
        frame.index = target.first_non_phi_index()

    def _exec_branch(self, frame: _Frame, inst: BranchInst) -> None:
        if inst.is_conditional:
            cond = self._eval(frame, inst.condition)
            target = inst.targets[0] if cond else inst.targets[1]
        else:
            target = inst.targets[0]
        self._enter_block(frame, target)

    def _exec_return(self, frame: _Frame, inst: ReturnInst) -> None:
        value = (
            self._eval(frame, inst.return_value)
            if inst.return_value is not None
            else None
        )
        self.sp = frame.sp_on_entry
        self.frames.pop()
        if not self.frames:
            if value is not None and isinstance(value, int):
                self.exit_code = value
            raise ExitProgram(self.exit_code)
        caller = self.frames[-1]
        if frame.result_target is not None and value is not None:
            caller.values[id(frame.result_target)] = value

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _exec_call(self, frame: _Frame, inst: CallInst) -> None:
        callee = inst.callee
        if not isinstance(callee, Function):
            raise InterpError("indirect calls are rejected by CARAT restrictions")
        name = callee.name
        if name.startswith("carat."):
            self._exec_intrinsic(frame, inst, name)
            return
        self.stats.calls += 1
        if callee.is_declaration:
            result = self._exec_builtin(frame, inst, name)
            if not inst.type.is_void and result is not None:
                frame.values[id(inst)] = result
            self.stats.cycles += self.costs.call
            return
        if len(self.frames) >= self.max_call_depth:
            raise InterpError(
                f"call depth exceeded ({self.max_call_depth}) calling @{name}"
            )
        self.stats.cycles += self.costs.call
        new_frame = _Frame(callee, self.sp)
        for formal, actual in zip(callee.args, inst.args):
            new_frame.values[id(formal)] = self._eval(frame, actual)
        new_frame.result_target = inst if not inst.type.is_void else None
        self.frames.append(new_frame)

    def _exec_intrinsic(self, frame: _Frame, inst: CallInst, name: str) -> None:
        runtime = self.process.runtime
        if runtime is None:
            # Intrinsics in a traditional process are inert (the baseline
            # binary never contains them; this keeps mixed setups safe).
            return
        args = [self._eval(frame, a) for a in inst.args]
        before = runtime.stats.guard_cycles + runtime.stats.tracking_cycles
        if name == GUARD_LOAD:
            cycles = runtime.guard_access(int(args[0]), int(args[1]), "read")
            self.stats.guard_cycles += cycles
            self.stats.cycles += cycles
        elif name == GUARD_STORE:
            cycles = runtime.guard_access(int(args[0]), int(args[1]), "write")
            self.stats.guard_cycles += cycles
            self.stats.cycles += cycles
        elif name == GUARD_CALL:
            cycles = runtime.guard_call(self.sp, int(args[0]))
            self.stats.guard_cycles += cycles
            self.stats.cycles += cycles
        elif name == GUARD_RANGE:
            access = "write" if len(args) > 2 and int(args[2]) else "read"
            cycles = runtime.guard_range(int(args[0]), int(args[1]), access)
            self.stats.guard_cycles += cycles
            self.stats.cycles += cycles
        elif name == TRACK_ALLOC:
            runtime.on_alloc(int(args[0]), int(args[1]), "heap")
            delta = (
                runtime.stats.guard_cycles + runtime.stats.tracking_cycles - before
            )
            self.stats.tracking_cycles += delta
            self.stats.cycles += delta
        elif name == TRACK_FREE:
            runtime.on_free(int(args[0]))
            delta = (
                runtime.stats.guard_cycles + runtime.stats.tracking_cycles - before
            )
            self.stats.tracking_cycles += delta
            self.stats.cycles += delta
        elif name == TRACK_ESCAPE:
            runtime.on_escape(int(args[0]))
            delta = (
                runtime.stats.guard_cycles + runtime.stats.tracking_cycles - before
            )
            self.stats.tracking_cycles += delta
            self.stats.cycles += delta
        else:
            raise InterpError(f"unknown CARAT intrinsic {name!r}")

    def _exec_builtin(
        self, frame: _Frame, inst: CallInst, name: str
    ) -> Optional[Union[int, float]]:
        args = [self._eval(frame, a) for a in inst.args]
        heap = self.process.heap
        if name == "malloc":
            assert heap is not None
            return heap.malloc(int(args[0]))
        if name == "calloc":
            assert heap is not None
            total = int(args[0]) * int(args[1])
            address = heap.malloc(max(1, total))
            self._memset(address, 0, total)
            return address
        if name == "realloc":
            assert heap is not None
            old, new_size = int(args[0]), int(args[1])
            new = heap.malloc(max(1, new_size))
            if old:
                old_size = heap.size_of(old) or 0
                data = self._read_mem(old, min(old_size, new_size), "read")
                self._write_mem(new, data)
                heap.free(old)
            return new
        if name == "free":
            assert heap is not None
            if int(args[0]):
                heap.free(int(args[0]))
            return None
        if name == "print_long":
            self.output.append(str(int(args[0])))
            return None
        if name == "print_double":
            self.output.append(repr(float(args[0])))
            return None
        if name == "print_str":
            address = int(args[0])
            raw = bytearray()
            for offset in range(1 << 16):
                byte = self._read_mem(address + offset, 1, "read")[0]
                if byte == 0:
                    break
                raw.append(byte)
            self.output.append(raw.decode("utf-8", "replace"))
            return None
        if name in _MATH_BUILTINS:
            try:
                return float(_MATH_BUILTINS[name](float(args[0])))
            except ValueError:
                return math.nan
        if name == "abort":
            raise InterpError("program called abort()")
        raise InterpError(f"call to unimplemented external function @{name}")

    def _memset(self, address: int, byte: int, length: int) -> None:
        remaining = length
        cursor = address
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE - (cursor % PAGE_SIZE))
            self._write_mem(cursor, bytes([byte]) * chunk)
            cursor += chunk
            remaining -= chunk

    def retry_current_instruction(self) -> None:
        """Rewind one instruction after a recoverable fault (e.g. a stack
        guard abort the kernel answered with stack expansion)."""
        if not self.frames:
            raise InterpError("no frame to retry in")
        frame = self.frames[-1]
        if frame.index == 0:
            raise InterpError("cannot retry across a block boundary")
        frame.index -= 1

    # ------------------------------------------------------------------
    # World-stop integration (register snapshots)
    # ------------------------------------------------------------------

    def register_snapshots(self) -> List[RegisterSnapshot]:
        """Dump the live "registers": every pointer-typed SSA value in
        every frame (what the paper's signal handler finds on the stack)."""
        snapshots = []
        for i, frame in enumerate(self.frames):
            slots: Dict[str, int] = {}
            pointer_slots = set()
            for inst in frame.function.instructions():
                key = id(inst)
                if key in frame.values and inst.type.is_pointer:
                    slot = f"{i}:{key}"
                    slots[slot] = int(frame.values[key])
                    pointer_slots.add(slot)
            for arg in frame.function.args:
                key = id(arg)
                if key in frame.values and arg.type.is_pointer:
                    slot = f"{i}:{key}"
                    slots[slot] = int(frame.values[key])
                    pointer_slots.add(slot)
            # The frame's saved stack pointer is a pointer too (it must
            # follow a stack-page move).
            sp_slot = f"{i}:sp"
            slots[sp_slot] = frame.sp_on_entry
            pointer_slots.add(sp_slot)
            if i == len(self.frames) - 1:
                machine_sp = f"{i}:machine_sp"
                slots[machine_sp] = self.sp
                pointer_slots.add(machine_sp)
            snapshots.append(RegisterSnapshot(i, slots, pointer_slots))
        return snapshots

    def apply_snapshots(self, snapshots: List[RegisterSnapshot]) -> None:
        """Write patched register values back into the frames (threads
        resuming after the world stop)."""
        for snapshot in snapshots:
            frame = self.frames[snapshot.thread_id]
            for slot, value in snapshot.slots.items():
                _, key_text = slot.split(":")
                if key_text == "sp":
                    frame.sp_on_entry = value
                elif key_text == "machine_sp":
                    self.sp = value
                else:
                    frame.values[int(key_text)] = value
