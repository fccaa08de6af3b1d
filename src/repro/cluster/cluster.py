"""The MAP execution cluster model.

A cluster holds the register state of all six resident V-Thread slots (one
H-Thread context per slot), an instruction cache, the three function units
and the synchronization stage that interleaves the H-Threads cycle by cycle
(Sections 2, 3.1 and 3.2 of the paper).

The cluster is driven by its node (the MAP chip) in three phases per cycle:

1. :meth:`Cluster.apply_writebacks` -- results of previously issued
   operations (and register writes delivered by the C-Switch) become visible
   and set their scoreboard bits full;
2. the node advances the memory system and switches;
3. :meth:`Cluster.issue` -- the synchronization stage picks at most one ready
   instruction from the resident H-Threads and issues all of its operations.

Because writebacks are applied before issue, an operation of latency *L*
issued at cycle *t* can feed a dependent instruction at cycle *t + L*, and a
cache-hit load (memory-system latency of two cycles plus the two switch
traversals) satisfies a dependent instruction three cycles after issue, as in
Table 1 of the paper.

The issue stage has two implementations selected by ``sim.compile_dispatch``:

* the **interpreted** path (:meth:`Cluster._issue_slow`) re-derives operand
  kinds and the opcode dispatch from the decoded instruction every cycle;
* the **compiled** path (:meth:`Cluster._issue_fast`) resolves each program
  once into :class:`~repro.cluster.dispatch.CompiledInstruction` plans
  (readiness steps over flat register offsets, bound operand readers and
  executors) and runs those.  Plans are derived state stored on the shared
  ``Program`` (:func:`~repro.cluster.dispatch.compile_program`), looked up
  per slot on first issue and never serialised.

Both paths are bit-exact in statistics, traces and snapshots
(``tests/integration/test_dispatch_equivalence.py`` is the differential
gate); instructions the compiler does not cover (sends, remote sources,
malformed references) transparently fall back to the interpreted machinery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.functional_units import (
    ArithmeticFault,
    OperandError,
    evaluate_operation,
)
from repro.cluster.hthread import FINISHED_STATES, HThreadContext, ThreadState
from repro.cluster.icache import InstructionCache
from repro.cluster.issue import HepBarrelPolicy, make_issue_policy
from repro.core.config import (
    ClusterConfig,
    EVENT_SLOT,
    EXCEPTION_SLOT,
    NodeConfig,
)
from repro.events.records import EventRecord, EventType
from repro.isa.instruction import Instruction
from repro.isa.operations import LabelRef, Operation, SYNC_CONDITIONS
from repro.isa.registers import RegFile, RegisterRef
from repro.isa.program import Program
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission, ProtectionError
from repro.memory.page_table import BlockStatus
from repro.memory.requests import MemOpKind, MemRequest
from repro.snapshot.values import (
    decode_counter,
    decode_value,
    encode_counter,
    encode_value,
)

_RUNNABLE = ThreadState.RUNNABLE
#: Issue-stage profile of a cycle with no runnable H-Thread.
_IDLE_PROFILE = ("idle", ())
#: Stall reason of a send waiting for send credits.  Credits return with
#: ACKs, which are not a cluster wake source, so such a scan never parks.
_SEND_CREDIT_STALL = "network output busy or out of send credits"


@dataclass
class RegWrite:
    """A register write travelling over the C-Switch (inter-cluster register
    writes, global-CC broadcasts, memory-system responses and privileged
    ``xregwr`` writes)."""

    vthread: int
    ref: RegisterRef
    value: object
    #: Clear one pending-write reservation on arrival (set for writes that
    #: complete an operation issued by the destination thread, e.g. load
    #: responses and handler ``xregwr`` completions of faulted loads).
    clear_pending: bool = False
    #: Human-readable origin, for traces.
    origin: str = ""


class SimulationError(Exception):
    """Raised for malformed programs (e.g. a remote register used as a source)."""


def _residue_count(start: int, count: int, residue: int, modulus: int) -> int:
    """Number of cycles ``c`` in ``[start, start + count)`` with
    ``c % modulus == residue`` (the HEP barrel's turn cycles for one slot)."""
    first = start + ((residue - start) % modulus)
    if first >= start + count:
        return 0
    return (start + count - 1 - first) // modulus + 1


class Cluster:
    """One of the four execution clusters of a MAP chip."""

    def __init__(
        self,
        cluster_id: int,
        node,
        config: Optional[ClusterConfig] = None,
        node_config: Optional[NodeConfig] = None,
        compile_dispatch: bool = True,
    ):
        self.id = cluster_id
        self.node = node
        self.config = config or ClusterConfig()
        self.node_config = node_config or NodeConfig()
        num_slots = self.node_config.num_vthread_slots
        self.contexts: List[HThreadContext] = [
            HThreadContext(slot=slot, cluster_id=cluster_id, config=self.config, owner=self)
            for slot in range(num_slots)
        ]
        #: Maintained from the contexts' state changes
        #: (:meth:`thread_state_changed`): the runnable slots in slot order,
        #: and how many user-slot H-Threads have not finished.
        self._runnable: Tuple[int, ...] = ()
        self.users_unfinished = 0
        self.icache = InstructionCache(self.config, name=f"n{getattr(node, 'node_id', '?')}c{cluster_id}")
        self.policy = make_issue_policy(self.config, num_slots)
        #: In-flight local writebacks as ``(due_cycle, slot, ref, value,
        #: clear_pending)`` tuples (plain tuples, not objects: the issue
        #: stage appends one per value-producing operation).
        self._writebacks: List[tuple] = []
        self._compile_dispatch = compile_dispatch
        #: Per-slot ``(program, plans)`` dispatch-plan cache (derived state,
        #: never serialised; see :meth:`_slot_plans`).
        self._plan_cache: List[Optional[tuple]] = [None] * num_slots
        #: Per-slot queue-name -> hardware-queue bindings (derived state;
        #: compiled plans carry queue *names* so they stay cluster-neutral
        #: and shareable, and this cache makes the per-cycle resolution O(1)).
        self._queue_cache: List[dict] = [dict() for _ in range(num_slots)]
        # Statistics.  The by-unit/by-slot counters are struct-of-arrays on
        # the hot path: the compiled issue stage bumps flat integer lists and
        # the Counters are folded lazily on read (`_settle_fast_stats`).
        self.instructions_issued = 0
        self.operations_issued = 0
        self._operations_by_unit = Counter()
        self.idle_cycles = 0
        self.no_ready_cycles = 0
        self._issue_by_slot = Counter()
        self.exceptions_raised = 0
        self._unit_fast = [0, 0, 0]  # indexed like dispatch.UNIT_VALUES
        self._slot_fast = [0] * num_slots
        # Parking (event kernel only, see enable_parking): the kernel that
        # may park this cluster, the frozen profile while parked, the first
        # cycle of the park not yet accounted, and whether a wake source
        # fired since the cluster parked.
        self._kernel = None
        self._parked: Optional[tuple] = None
        self._parked_from = 0
        self._stirred = False

    # ------------------------------------------------------------------ loading

    def load_program(
        self,
        slot: int,
        program: Program,
        initial_registers: Optional[dict] = None,
        entry: Optional[str] = None,
    ) -> HThreadContext:
        context = self.contexts[slot]
        self.icache.load(slot, program)
        self._plan_cache[slot] = None
        context.load(program, initial_registers, entry)
        self._stirred = True
        return context

    def context(self, slot: int) -> HThreadContext:
        return self.contexts[slot]

    # ------------------------------------------------------------------ queries

    def thread_state_changed(self, context: HThreadContext, previous: ThreadState) -> None:
        """State-change hook of the contexts (``HThreadContext._set_state``):
        refresh the runnable slots and pass a change in the unfinished-user
        count on to the node."""
        self._runnable = tuple(ctx.slot for ctx in self.contexts if ctx.state is _RUNNABLE)
        if context.slot not in (EVENT_SLOT, EXCEPTION_SLOT):
            delta = (previous in FINISHED_STATES) - context.finished
            if delta:
                self.users_unfinished += delta
                self.node.users_changed(delta)

    @property
    def user_threads_finished(self) -> bool:
        """Rescan of the contexts (the naive loop's oracle for the counts)."""
        return all(
            ctx.finished
            for ctx in self.contexts
            if ctx.slot not in (EVENT_SLOT, EXCEPTION_SLOT)
        )

    # ----------------------------------------------------------- lazy statistics

    @property
    def operations_by_unit(self) -> Counter:
        self._settle_fast_stats()
        return self._operations_by_unit

    @operations_by_unit.setter
    def operations_by_unit(self, counter: Counter) -> None:
        self._unit_fast = [0, 0, 0]
        self._operations_by_unit = counter

    @property
    def issue_by_slot(self) -> Counter:
        self._settle_fast_stats()
        return self._issue_by_slot

    @issue_by_slot.setter
    def issue_by_slot(self, counter: Counter) -> None:
        self._slot_fast = [0] * len(self._slot_fast)
        self._issue_by_slot = counter

    def _settle_fast_stats(self) -> None:
        """Fold the flat fast-path counters into the public Counters."""
        unit_fast = self._unit_fast
        if unit_fast[0] or unit_fast[1] or unit_fast[2]:
            from repro.cluster.dispatch import UNIT_VALUES  # noqa: PLC0415

            counter = self._operations_by_unit
            for index in range(3):
                if unit_fast[index]:
                    counter[UNIT_VALUES[index]] += unit_fast[index]
                    unit_fast[index] = 0
        slot_fast = self._slot_fast
        counter = self._issue_by_slot
        for slot in range(len(slot_fast)):
            if slot_fast[slot]:
                counter[slot] += slot_fast[slot]
                slot_fast[slot] = 0

    # --------------------------------------------------------------- writebacks

    def apply_writebacks(self, cycle: int) -> None:
        if not self._writebacks:
            return
        remaining = []
        contexts = self.contexts
        for wb in self._writebacks:
            if wb[0] <= cycle:
                if len(wb) == 6:
                    # Compiled-dispatch writeback: the flat register offset
                    # was resolved at compile time (clear_pending is always
                    # True for a value-operation result).
                    registers = contexts[wb[1]].registers
                    offset = wb[5]
                    registers.writes += 1
                    registers._values[offset] = wb[3]
                    registers._full[offset] = True
                    if registers._pending[offset] > 0:
                        registers._pending[offset] -= 1
                else:
                    self._write_register(wb[1], wb[2], wb[3], wb[4])
                self._stirred = True
            else:
                remaining.append(wb)
        self._writebacks = remaining

    def receive(self, write: RegWrite, cycle: int) -> None:
        """Apply a register write delivered by the C-Switch."""
        self._write_register(write.vthread, write.ref, write.value, write.clear_pending)
        self._stirred = True

    def _write_register(self, slot: int, ref: RegisterRef, value, clear_pending: bool) -> None:
        registers = self.contexts[slot].registers
        registers.write(ref.local(), value)
        if clear_pending:
            registers.clear_pending(ref.local())

    # -------------------------------------------------------------------- issue

    def issue(self, cycle: int) -> bool:
        """Run the synchronization stage for one cycle; returns True if an
        instruction issued."""
        runnable = self._runnable
        if not runnable:
            self.idle_cycles += 1
            if self._kernel is not None:
                self._park(_IDLE_PROFILE, cycle)
            return False
        order = self.policy.order_cached(cycle, runnable)
        if self._compile_dispatch:
            return self._issue_fast(order, cycle)
        return self._issue_slow(order, cycle)

    def _slot_plans(self, slot: int) -> tuple:
        """The ``(program, plans)`` pair for *slot*, compiling on first use.

        The cache entry is invalidated explicitly by the only two paths that
        change a slot's resident program: :meth:`load_program` and
        :meth:`load_state_dict` (a snapshot restore installs the decoded
        ``Program`` objects).
        """
        from repro.cluster.dispatch import compile_program  # noqa: PLC0415

        program = self.icache._programs.get(slot)
        cached = (program, compile_program(program, self, slot))
        self._plan_cache[slot] = cached
        return cached

    def _queue_binding(self, slot: int, name: str):
        """The hardware queue *name* resolves to for *slot* (None when the
        queue is not readable here), memoized per slot."""
        cache = self._queue_cache[slot]
        try:
            return cache[name]
        except KeyError:
            queue = self.node.queue_for(self.id, slot, name)
            cache[name] = queue
            return queue

    def _issue_fast(self, order, cycle: int) -> bool:
        """Compiled issue scan: same observable behaviour as
        :meth:`_issue_slow`, using precompiled dispatch plans."""
        contexts = self.contexts
        icache = self.icache
        node = self.node
        plan_cache = self._plan_cache
        # (context, reason) of every slot that stalls: the blocked profile
        # the cluster parks with when nothing issues.
        stalled = []
        parkable = True
        for slot in order:
            # The order holds runnable slots only.
            context = contexts[slot]
            cached = plan_cache[slot]
            if cached is None:
                cached = self._slot_plans(slot)
            program, plans = cached
            pc = context.pc
            if pc < 0 or pc >= len(plans):
                # Running off the end of the program is an implicit halt
                # (the fetch is not counted, matching InstructionCache.fetch).
                context.halt(cycle)
                continue
            icache.fetches += 1
            plan = plans[pc]
            if plan is None:
                # Instruction the compiler does not cover: interpreted path.
                instruction = program[pc]
                ready, reason = self._instruction_ready(context, instruction)
                if not ready:
                    context.stall_cycles += 1
                    context.stall_reasons[reason] += 1
                    stalled.append((context, reason))
                    if reason == _SEND_CREDIT_STALL:
                        parkable = False
                    continue
                if context.start_cycle is None:
                    context.start_cycle = cycle
                self._execute_instruction(context, instruction, cycle)
                num_ops = len(instruction)
                for unit in instruction.ops:
                    self._operations_by_unit[unit.value] += 1
                self._issue_by_slot[slot] += 1
            else:
                registers = context.registers
                full = registers._full
                pending = registers._pending
                stall = None
                for kind, arg, reason in plan.steps:
                    if kind == 0:
                        if not full[arg]:
                            stall = reason
                            break
                    elif kind == 1:
                        if pending[arg]:
                            stall = reason
                            break
                    elif kind == 3:
                        queue = self._queue_binding(slot, arg[0])
                        if queue is not None and len(queue) < arg[1]:
                            stall = reason
                            break
                    elif not node.memory_port_available(self.id):
                        stall = reason
                        break
                if stall is not None:
                    context.stall_cycles += 1
                    context.stall_reasons[stall] += 1
                    stalled.append((context, stall))
                    continue
                if context.start_cycle is None:
                    context.start_cycle = cycle
                self._execute_plan(context, plan, pc, cycle)
                num_ops = plan.num_ops
                for index in plan.unit_idx:
                    self._unit_fast[index] += 1
                self._slot_fast[slot] += 1
            self.instructions_issued += 1
            self.operations_issued += num_ops
            context.instructions_issued += 1
            context.operations_issued += num_ops
            self.policy.issued(slot)
            return True

        self.no_ready_cycles += 1
        if self._kernel is not None and parkable:
            self._park(("blocked", tuple(stalled)) if stalled else _IDLE_PROFILE, cycle)
        return False

    def _execute_plan(self, context: HThreadContext, plan, pc: int, cycle: int) -> None:
        """Run one compiled instruction (mirror of
        :meth:`_execute_instruction`: read all operands first, then execute
        every operation, then advance the PC)."""
        registers = context.registers
        values_mem = registers._values
        try:
            ops = plan.ops
            if plan.num_ops == 1:
                cop = ops[0]
                if cop.privilege_msg is not None:
                    raise ProtectionError(cop.privilege_msg)
                values = []
                for mode, arg in cop.readers:
                    if mode == 1:
                        registers.reads += 1
                        values.append(values_mem[arg])
                    elif mode == 0:
                        values.append(arg)
                    elif mode == 2:
                        queue = self._queue_binding(context.slot, arg)
                        if queue is None:
                            raise ProtectionError(
                                f"register {arg!r} is not readable from "
                                f"cluster {self.id} slot {context.slot}")
                        values.append(queue.pop_word())
                    elif mode == 3:
                        values.append(self.node.node_id)
                    else:  # mode == 4: executing cluster's id
                        values.append(self.id)
                outcome_pc = cop.executor(self, context, values, cycle)
                if context.state is _RUNNABLE:
                    context.pc = pc + 1 if outcome_pc is None else outcome_pc
                return
            resolved = []
            for cop in ops:
                if cop.privilege_msg is not None:
                    raise ProtectionError(cop.privilege_msg)
                values = []
                for mode, arg in cop.readers:
                    if mode == 1:
                        registers.reads += 1
                        values.append(values_mem[arg])
                    elif mode == 0:
                        values.append(arg)
                    elif mode == 2:
                        queue = self._queue_binding(context.slot, arg)
                        if queue is None:
                            raise ProtectionError(
                                f"register {arg!r} is not readable from "
                                f"cluster {self.id} slot {context.slot}")
                        values.append(queue.pop_word())
                    elif mode == 3:
                        values.append(self.node.node_id)
                    else:  # mode == 4: executing cluster's id
                        values.append(self.id)
                resolved.append(values)
            next_pc = pc + 1
            for index, cop in enumerate(ops):
                outcome_pc = cop.executor(self, context, resolved[index], cycle)
                if outcome_pc is not None:
                    next_pc = outcome_pc
            if context.state is _RUNNABLE:
                context.pc = next_pc
        except ProtectionError as exc:
            self._raise_exception(context, EventType.PROTECTION, str(exc), cycle)
        except ArithmeticFault as exc:
            self._raise_exception(context, EventType.ARITHMETIC, str(exc), cycle)
        except OperandError as exc:
            raise SimulationError(f"{exc} (instruction {plan.instruction})") from exc

    def _issue_slow(self, order, cycle: int) -> bool:
        """Interpreted issue scan (``sim.compile_dispatch = False``)."""
        for slot in order:
            context = self.contexts[slot]
            instruction = self.icache.fetch(slot, context.pc)
            if instruction is None:
                # Running off the end of the program is an implicit halt.
                context.halt(cycle)
                continue
            ready, reason = self._instruction_ready(context, instruction)
            if not ready:
                context.record_stall(reason)
                continue
            if context.start_cycle is None:
                context.start_cycle = cycle
            self._execute_instruction(context, instruction, cycle)
            self.instructions_issued += 1
            self.operations_issued += len(instruction)
            for unit in instruction.ops:
                self._operations_by_unit[unit.value] += 1
            self._issue_by_slot[slot] += 1
            context.instructions_issued += 1
            context.operations_issued += len(instruction)
            self.policy.issued(slot)
            return True

        self.no_ready_cycles += 1
        return False

    # ------------------------------------------------------- kernel scheduling

    def next_writeback_cycle(self) -> Optional[int]:
        """Earliest due cycle of an in-flight local writeback, or None
        (SimComponent contract for the event kernel)."""
        if not self._writebacks:
            return None
        return min(wb[0] for wb in self._writebacks)

    def idle_profile(self):
        """Dry-run of the synchronization stage for the event kernel.

        Returns ``None`` when the cluster could make progress on the next
        cycle (an instruction is ready, or a PC ran off its program and the
        implicit halt is still pending), meaning the node must stay awake.
        Otherwise returns the frozen per-cycle statistics profile of an
        idle/blocked cycle: ``("idle", ())`` when no H-Thread is runnable,
        or ``("blocked", ((context, stall_reason), ...))`` for the runnable
        slots the issue scan would visit.  The dry-run is side-effect free
        (no fetch counts, no stall records): the profile is replayed in bulk
        by :meth:`account_idle_cycles` when the node wakes.
        """
        stalled = []
        contexts = self.contexts
        for slot in self._runnable:
            context = contexts[slot]
            instruction = self.icache.peek(slot, context.pc)
            if instruction is None:
                return None  # implicit halt pending: a real tick must run
            try:
                ready, reason = self._instruction_ready(context, instruction)
            except SimulationError:
                return None  # let the real issue scan raise at the same cycle
            if ready:
                return None
            stalled.append((context, reason))
        if not stalled:
            return _IDLE_PROFILE
        return ("blocked", tuple(stalled))

    def account_idle_cycles(self, profile, start_cycle: int, num_cycles: int) -> None:
        """Apply *num_cycles* worth of idle/blocked issue-stage statistics in
        one step, exactly as *num_cycles* naive calls of :meth:`issue` on the
        frozen state would have (the state cannot have changed while the
        node slept, so the per-cycle increments are constant -- except under
        the HEP barrel policy, where the scanned slot rotates with the clock
        and the per-slot counts follow the cycle residues)."""
        kind, stalled = profile
        if kind == "idle":
            self.idle_cycles += num_cycles
            return
        self.no_ready_cycles += num_cycles
        if isinstance(self.policy, HepBarrelPolicy):
            modulus = self.policy.num_slots
            for context, reason in stalled:
                visits = _residue_count(start_cycle, num_cycles, context.slot, modulus)
                if visits:
                    self.icache.fetches += visits
                    context.stall_cycles += visits
                    context.stall_reasons[reason] += visits
        else:
            # event-priority and round-robin scan every runnable slot each
            # blocked cycle.
            for context, reason in stalled:
                self.icache.fetches += num_cycles
                context.stall_cycles += num_cycles
                context.stall_reasons[reason] += num_cycles

    # ------------------------------------------------------------------ parking
    #
    # Under the event kernel (repro.core.scheduler) a cluster whose scan
    # issued nothing parks: its state is frozen until a wake source fires,
    # so the node skips its issue scan and the skipped cycles are charged
    # later from the profile of the scan that parked it.  The wake sources
    # are a closed list: register writes into the cluster's contexts
    # (receive, apply_writebacks, load_program, load_state_dict) and pushes
    # onto the hardware queues its handlers read (HardwareQueue.on_push).
    # Everything else that changes readiness runs inside the cluster's own
    # issue.

    def enable_parking(self, kernel) -> None:
        """Let the event *kernel* park this cluster.  Not under the HEP
        barrel (a scan visits one slot, so it does not yield the profile of
        the next cycle) nor on the interpreted path."""
        if self._compile_dispatch and not isinstance(self.policy, HepBarrelPolicy):
            self._kernel = kernel

    def stir(self) -> None:
        """Wake hook: readiness may have changed, so a parked cluster must
        scan again at its next issue slot."""
        self._stirred = True

    def _park(self, profile, cycle: int) -> None:
        self._parked = profile
        self._parked_from = cycle + 1
        self._stirred = False
        self._kernel.parked_clusters.add(self)

    def settle_parked(self, upto_cycle: int) -> None:
        """Charge the parked cycles before *upto_cycle*; stays parked."""
        start = self._parked_from
        delta = upto_cycle - start
        if delta > 0:
            self.account_idle_cycles(self._parked, start, delta)
            self._parked_from = upto_cycle
            self._kernel.cluster_cycles_parked += delta

    def unpark(self, upto_cycle: int) -> None:
        """Settle through *upto_cycle* - 1 and resume per-cycle scans."""
        self.settle_parked(upto_cycle)
        self._parked = None
        self._kernel.parked_clusters.discard(self)

    # ---------------------------------------------------------------- readiness

    def _queue_for(self, context: HThreadContext, name: str):
        return self.node.queue_for(self.id, context.slot, name)

    def _instruction_ready(self, context: HThreadContext, instruction: Instruction) -> Tuple[bool, str]:
        registers = context.registers
        queue_needs: Counter = Counter()

        for op in instruction.operations:
            for src in op.srcs:
                if not isinstance(src, RegisterRef):
                    continue
                if src.is_queue:
                    queue_needs[src.name] += 1
                elif src.is_identity:
                    continue
                elif src.is_remote:
                    raise SimulationError(
                        f"remote register {src} cannot be used as a source operand "
                        f"(instruction {instruction})"
                    )
                elif not registers.is_full(src):
                    return False, f"operand {src} empty"

            for dest in op.dests:
                if dest.is_remote or dest.file is RegFile.GCC:
                    continue
                if registers.is_pending(dest):
                    return False, f"destination {dest} has a write in flight"

            if op.opcode.is_send:
                ready, reason = self._send_ready(context, op)
                if not ready:
                    return False, reason

            if op.opcode.is_memory and not self.node.memory_port_available(self.id):
                return False, "memory port busy"

        for name, count in queue_needs.items():
            queue = self._queue_for(context, name)
            if queue is None:
                # Not a legal queue for this H-Thread: let execution raise the
                # privilege exception.
                continue
            if len(queue) < count:
                return False, f"{name} queue empty"

        return True, ""

    def _send_ready(self, context: HThreadContext, op: Operation) -> Tuple[bool, str]:
        length = self._send_length(op)
        if length is None:
            return False, "send length must be an immediate"
        for index in range(length):
            mc_ref = RegisterRef(RegFile.MC, index)
            if not context.registers.is_full(mc_ref):
                return False, f"message-composition register m{index} empty"
        priority = self._send_priority(op)
        if not self.node.can_send(priority):
            return False, _SEND_CREDIT_STALL
        return True, ""

    @staticmethod
    def _send_length(op: Operation) -> Optional[int]:
        if len(op.srcs) < 3:
            return None
        length = op.srcs[2]
        if isinstance(length, bool) or not isinstance(length, int):
            return None
        return length

    @staticmethod
    def _send_priority(op: Operation) -> int:
        if len(op.srcs) >= 4 and isinstance(op.srcs[3], int):
            return int(op.srcs[3])
        return 1 if op.opcode.name == "sendp" else 0

    # ---------------------------------------------------------------- execution

    def _read_operand(self, context: HThreadContext, operand, cycle: int):
        if isinstance(operand, LabelRef):
            return operand
        if not isinstance(operand, RegisterRef):
            return operand
        if operand.is_queue:
            queue = self._queue_for(context, operand.name)
            if queue is None:
                raise ProtectionError(
                    f"register {operand.name!r} is not readable from cluster {self.id} "
                    f"slot {context.slot}"
                )
            return queue.pop_word()
        if operand.is_identity:
            return {
                "nid": self.node.node_id,
                "cid": self.id,
                "vid": context.slot,
                "zero": 0,
            }[operand.name]
        return context.registers.read(operand)

    def _execute_instruction(self, context: HThreadContext, instruction: Instruction, cycle: int) -> None:
        try:
            resolved: Dict[int, List[object]] = {}
            for op in instruction.operations:
                self._check_privilege(context, op)
                resolved[id(op)] = [self._read_operand(context, src, cycle) for src in op.srcs]

            next_pc = context.pc + 1
            for op in instruction.operations:
                values = resolved[id(op)]
                outcome_pc = self._execute_operation(context, op, values, cycle)
                if outcome_pc is not None:
                    next_pc = outcome_pc
            if context.state is ThreadState.RUNNABLE:
                context.pc = next_pc
        except ProtectionError as exc:
            self._raise_exception(context, EventType.PROTECTION, str(exc), cycle)
        except ArithmeticFault as exc:
            self._raise_exception(context, EventType.ARITHMETIC, str(exc), cycle)
        except OperandError as exc:
            raise SimulationError(f"{exc} (instruction {instruction})") from exc

    def _check_privilege(self, context: HThreadContext, op: Operation) -> None:
        if op.opcode.privileged and context.slot not in (EVENT_SLOT, EXCEPTION_SLOT):
            raise ProtectionError(
                f"privileged operation {op.opcode.name!r} issued from user slot {context.slot}"
            )

    def _execute_operation(
        self, context: HThreadContext, op: Operation, values: List[object], cycle: int
    ) -> Optional[int]:
        """Execute one operation; returns the next PC if the operation is a
        taken control transfer, else None."""
        name = op.opcode.name

        if name == "nop":
            return None
        if name == "mark":
            self.node.trace(cycle, "mark", marker=values[0], cluster=self.id, slot=context.slot,
                            pc=context.pc)
            return None
        if name == "empty":
            for dest in op.dests:
                if dest.is_remote:
                    raise SimulationError("empty cannot target a remote register")
                context.registers.set_empty(dest)
            return None
        if name == "halt":
            context.halt(cycle)
            self.node.trace(cycle, "halt", cluster=self.id, slot=context.slot)
            return context.pc
        if op.opcode.is_branch:
            return self._execute_branch(context, op, values)
        if op.opcode.is_send:
            self._execute_send(context, op, values, cycle)
            return None
        if op.opcode.is_memory:
            self._execute_memory(context, op, values, cycle)
            return None
        if op.opcode.name in _SYSTEM_EXECUTORS:
            _SYSTEM_EXECUTORS[op.opcode.name](self, context, op, values, cycle)
            return None

        # Plain value-producing operation on a function unit.
        value = evaluate_operation(op, values)
        self._schedule_result(context, op, value, cycle)
        return None

    # -- control -----------------------------------------------------------------

    def _execute_branch(self, context: HThreadContext, op: Operation, values: List[object]) -> Optional[int]:
        name = op.opcode.name
        if name == "jmp":
            target = values[0]
            if isinstance(target, LabelRef):
                return op.target
            return int(target)
        condition = values[0]
        if isinstance(condition, LabelRef):
            raise SimulationError(f"branch condition of {op} is a label")
        taken = bool(condition) if name == "br" else not bool(condition)
        if taken:
            if op.target is None:
                raise SimulationError(f"branch {op} has no resolved target")
            return op.target
        return None

    # -- memory ------------------------------------------------------------------

    def _execute_memory(self, context: HThreadContext, op: Operation, values: List[object], cycle: int) -> None:
        name = op.opcode.name
        physical = name in ("pld", "pst")
        is_store = op.opcode.is_store
        if is_store:
            store_value = values[0]
            address_operand = values[1]
            offset = values[2] if len(values) > 2 else 0
        else:
            store_value = None
            address_operand = values[0]
            offset = values[1] if len(values) > 1 else 0

        address = self._effective_address(context, address_operand, offset, is_store, physical)
        pre, post = SYNC_CONDITIONS.get(name, ("x", "x"))

        dest = op.dest if not is_store else None
        request = MemRequest(
            kind=MemOpKind.STORE if is_store else MemOpKind.LOAD,
            address=address,
            data=store_value,
            dest=dest.local() if dest is not None else None,
            vthread=context.slot,
            cluster=self.id,
            sync_pre=pre,
            sync_post=post,
            physical=physical,
            is_fp=dest.file is RegFile.FP if dest is not None else False,
            issue_cycle=cycle,
            req_id=self.node.request_ids(),
        )
        if dest is not None:
            if dest.is_remote:
                raise SimulationError("loads cannot target a remote register")
            context.registers.set_empty(dest)
            context.registers.mark_pending(dest)
        self.node.submit_memory_request(request, cycle)
        self.node.trace(cycle, "mem_issue", req=request.req_id, address=address,
                        store=is_store, cluster=self.id, slot=context.slot,
                        physical=physical)

    def _effective_address(
        self,
        context: HThreadContext,
        address_operand,
        offset,
        is_store: bool,
        physical: bool,
    ) -> int:
        offset = int(offset) if not isinstance(offset, LabelRef) else 0
        if isinstance(address_operand, GuardedPointer):
            target = address_operand.address + offset
            required = PointerPermission.WRITE if is_store else PointerPermission.READ
            address_operand.check(required, target)
            return target
        if (
            self.node.protection_enabled
            and not physical
            and context.slot not in (EVENT_SLOT, EXCEPTION_SLOT)
        ):
            raise ProtectionError(
                "memory access through a non-pointer address with protection enabled"
            )
        return int(address_operand) + offset

    # -- messages ----------------------------------------------------------------

    def _execute_send(self, context: HThreadContext, op: Operation, values: List[object], cycle: int) -> None:
        name = op.opcode.name
        length = self._send_length(op)
        priority = self._send_priority(op)
        body = [
            context.registers.read(RegisterRef(RegFile.MC, index)) for index in range(length)
        ]
        dip = values[1]
        if name == "sendp":
            self.node.send_message(
                cycle=cycle,
                cluster=self.id,
                vthread=context.slot,
                dest_address=None,
                dip=int(dip),
                body=body,
                priority=priority,
                physical_node=int(values[0]),
            )
        else:
            self.node.send_message(
                cycle=cycle,
                cluster=self.id,
                vthread=context.slot,
                dest_address=values[0],
                dip=int(dip),
                body=body,
                priority=priority,
                physical_node=None,
            )

    # -- results -----------------------------------------------------------------

    def _schedule_result(self, context: HThreadContext, op: Operation, value, cycle: int) -> None:
        latency = max(op.opcode.latency, 1)
        for dest in op.dests:
            if dest.file is RegFile.GCC:
                self._check_gcc_pair(dest)
                self.node.cswitch_broadcast(
                    RegWrite(vthread=context.slot, ref=dest.local(), value=value,
                             origin=f"gcc-broadcast c{self.id}"),
                    cycle + latency - 1,
                )
            elif dest.is_remote:
                self.node.cswitch_register_write(
                    dest.cluster,
                    RegWrite(vthread=context.slot, ref=dest.local(), value=value,
                             origin=f"c{self.id}->c{dest.cluster}"),
                    cycle + latency - 1,
                )
            else:
                context.registers.set_empty(dest)
                context.registers.mark_pending(dest)
                self._writebacks.append(
                    (cycle + latency, context.slot, dest, value, True)
                )

    def _check_gcc_pair(self, dest: RegisterRef) -> None:
        if not self.config.enforce_gcc_pairs:
            return
        allowed = (2 * self.id, 2 * self.id + 1)
        if dest.index not in allowed:
            raise ProtectionError(
                f"cluster {self.id} may only broadcast to gcc{allowed[0]}/gcc{allowed[1]}, "
                f"not gcc{dest.index}"
            )

    # -- exceptions ----------------------------------------------------------------

    def _raise_exception(self, context: HThreadContext, event_type: EventType, detail: str, cycle: int) -> None:
        self.exceptions_raised += 1
        context.fault()
        record = EventRecord(
            event_type=event_type,
            address=0,
            data=0,
            vthread=context.slot,
            cluster=self.id,
            cycle=cycle,
            extra={"detail": detail, "pc": context.pc},
        )
        self.node.post_exception(self.id, record, cycle)
        self.node.trace(cycle, "exception", type=event_type.name, cluster=self.id,
                        slot=context.slot, detail=detail)

    # -- statistics ----------------------------------------------------------------

    def stats(self) -> dict:
        self._settle_fast_stats()
        return {
            "instructions_issued": self.instructions_issued,
            "operations_issued": self.operations_issued,
            "operations_by_unit": dict(self._operations_by_unit),
            "idle_cycles": self.idle_cycles,
            "no_ready_cycles": self.no_ready_cycles,
            "issue_by_slot": dict(self._issue_by_slot),
            "exceptions": self.exceptions_raised,
            "icache_fetches": self.icache.fetches,
        }

    # -- snapshot (repro.snapshot state_dict contract) -----------------------------

    def state_dict(self) -> dict:
        self._settle_fast_stats()
        return {
            "contexts": [context.state_dict() for context in self.contexts],
            "icache": self.icache.state_dict(),
            "policy": self.policy.state_dict(),
            "writebacks": [
                {
                    "due_cycle": wb[0],
                    "slot": wb[1],
                    "ref": encode_value(wb[2]),
                    "value": encode_value(wb[3]),
                    "clear_pending": wb[4],
                }
                for wb in self._writebacks
            ],
            "instructions_issued": self.instructions_issued,
            "operations_issued": self.operations_issued,
            "operations_by_unit": encode_counter(self._operations_by_unit),
            "idle_cycles": self.idle_cycles,
            "no_ready_cycles": self.no_ready_cycles,
            "issue_by_slot": encode_counter(self._issue_by_slot),
            "exceptions_raised": self.exceptions_raised,
        }

    def load_state_dict(self, state: dict) -> None:
        if self._parked is not None:
            # The restored counters replace the parked ones: drop the park
            # without charging its cycles.
            self._parked = None
            self._kernel.parked_clusters.discard(self)
        for context, context_state in zip(self.contexts, state["contexts"]):
            context.load_state_dict(context_state)
        self.icache.load_state_dict(state["icache"])
        # The restore may have installed other programs: look the plans up
        # again on next issue.
        self._plan_cache = [None] * len(self._plan_cache)
        self._queue_cache = [dict() for _ in self._queue_cache]
        self.policy.load_state_dict(state["policy"])
        self._writebacks = [
            (
                wb["due_cycle"],
                wb["slot"],
                decode_value(wb["ref"]),
                decode_value(wb["value"]),
                wb["clear_pending"],
            )
            for wb in state["writebacks"]
        ]
        self.instructions_issued = state["instructions_issued"]
        self.operations_issued = state["operations_issued"]
        self.operations_by_unit = decode_counter(state["operations_by_unit"])
        self.idle_cycles = state["idle_cycles"]
        self.no_ready_cycles = state["no_ready_cycles"]
        self.issue_by_slot = decode_counter(state["issue_by_slot"])
        self.exceptions_raised = state["exceptions_raised"]


def _exec_xregwr(cluster: Cluster, context, op, values, cycle) -> None:
    spec, value = values[0], values[1]
    cluster.node.xregwr(int(spec), value, cycle)


def _exec_ltlbw(cluster: Cluster, context, op, values, cycle) -> None:
    va, frame, flags = (int(v) for v in values[:3])
    cluster.node.memory.install_translation(va, frame, flags)


def _exec_ltlbp(cluster: Cluster, context, op, values, cycle) -> None:
    frame = cluster.node.memory.probe_translation(int(values[0]))
    cluster._schedule_result(context, op, frame, cycle)


def _exec_gprobe(cluster: Cluster, context, op, values, cycle) -> None:
    node_id = cluster.node.gtlb_node_of(int(values[0]))
    cluster._schedule_result(context, op, node_id, cycle)


def _exec_bsset(cluster: Cluster, context, op, values, cycle) -> None:
    cluster.node.memory.set_block_status(int(values[0]), BlockStatus(int(values[1])))


def _exec_bsget(cluster: Cluster, context, op, values, cycle) -> None:
    status = cluster.node.memory.get_block_status(int(values[0]))
    cluster._schedule_result(context, op, status, cycle)


def _exec_syncset(cluster: Cluster, context, op, values, cycle) -> None:
    cluster.node.memory.set_sync_bit_virtual(int(values[0]), int(values[1]))


_SYSTEM_EXECUTORS = {
    "xregwr": _exec_xregwr,
    "ltlbw": _exec_ltlbw,
    "ltlbp": _exec_ltlbp,
    "gprobe": _exec_gprobe,
    "bsset": _exec_bsset,
    "bsget": _exec_bsget,
    "syncset": _exec_syncset,
}
