"""Precompiled instruction dispatch for the cluster issue stage.

The interpreted issue path (:meth:`repro.cluster.cluster.Cluster` with
``sim.compile_dispatch = False``) re-derives the same facts about an
instruction on every cycle it is considered: which registers its operands
name, whether each is a queue/identity/plain register, which executor its
opcode selects, what its stall reason strings are.  None of that depends on
machine state -- only on the instruction and the (cluster, slot) it is
resident in -- so this module resolves it once, when a program is first
issued from, into a :class:`CompiledInstruction` plan per program counter:

* ``steps`` -- the readiness checks of
  :meth:`~repro.cluster.cluster.Cluster._instruction_ready`, in the same
  order and with the stall-reason strings precomputed, as ``(kind, arg,
  reason)`` triples over flat register-file offsets
  (:meth:`~repro.cluster.regfile.RegisterSet.flat_offset`) and bound
  hardware-queue objects;
* per-operation ``readers`` -- constant/register-offset/queue operand
  sources, with identity registers (``nid``/``cid``/``vid``/``zero``)
  folded to constants;
* per-operation ``executor`` closures with the opcode dispatch, destination
  offsets, latencies and trace strings bound at compile time.

Plans are **derived state**: they are stored on the
:class:`~repro.isa.program.Program` they were compiled from, keyed by
(slot, register layout), looked up per (cluster, slot) on first issue, and
never serialised into snapshots.  A restore decodes its programs through
the assembler's program cache, so it finds the plans already compiled on
them.
Any instruction the compiler cannot prove it handles bit-exactly -- sends,
remote sources, out-of-range references, opcodes without value semantics --
gets a ``None`` plan and goes down the interpreted path, which also raises
the exact errors malformed programs are documented to raise.  The
differential gate is ``tests/integration/test_dispatch_equivalence.py``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.functional_units import OperandError, value_evaluator
from repro.core.config import EVENT_SLOT, EXCEPTION_SLOT
from repro.isa.instruction import Instruction
from repro.isa.operations import LabelRef, Operation, SYNC_CONDITIONS, Unit
from repro.isa.program import Program
from repro.isa.registers import RegFile, RegisterRef
from repro.memory.guarded_pointer import ProtectionError
from repro.memory.requests import MemOpKind, MemRequest

# Reader modes: (mode, arg) per source operand.  Plans never bind
# cluster-specific objects or identities -- queues are resolved by name
# through the executing cluster's binding cache and nid/cid are read from
# the executing cluster at runtime -- so one compiled plan serves every
# cluster with the same register layout (see ``compile_program``).
READ_CONST = 0    # arg is the value (immediates, labels, folded vid/zero)
READ_REG = 1      # arg is a flat register-file offset
READ_QUEUE = 2    # arg is the queue name; pop one word (raises if unreadable)
READ_NID = 3      # executing node's id
READ_CID = 4      # executing cluster's id

# Readiness-step kinds: (kind, arg, reason) per check.
CHECK_FULL = 0     # arg is a flat offset; stall unless full
CHECK_PENDING = 1  # arg is a flat offset; stall while a write is in flight
CHECK_MEMPORT = 2  # arg unused; stall unless the memory port is free
CHECK_QUEUE = 3    # arg is (queue_name, needed_words); stall while underfull

_UNIT_INDEX = {Unit.IALU: 0, Unit.MEM: 1, Unit.FPU: 2}
#: Fold order of the per-unit fast counters (matches ``_UNIT_INDEX``).
UNIT_VALUES = (Unit.IALU.value, Unit.MEM.value, Unit.FPU.value)


class CompiledOp:
    """One operation of a compiled instruction."""

    __slots__ = ("readers", "privilege_msg", "executor")

    def __init__(self, readers, privilege_msg, executor):
        self.readers = readers
        self.privilege_msg = privilege_msg
        self.executor = executor


class CompiledInstruction:
    """One instruction resolved to readiness steps and bound executors."""

    __slots__ = ("steps", "ops", "num_ops", "unit_idx", "instruction")

    def __init__(self, steps, ops, unit_idx, instruction):
        self.steps = steps
        self.ops = ops
        self.num_ops = len(ops)
        self.unit_idx = unit_idx
        self.instruction = instruction


def compile_program(program: Optional[Program], cluster,
                    slot: int) -> List[Optional[CompiledInstruction]]:
    """The plans of every instruction of *program* for one (cluster, slot).

    Returns one plan (or None = interpreted fallback) per program counter.
    Compiled plans bind nothing cluster-specific -- queues are resolved by
    name at runtime and node/cluster identities are read from the executing
    cluster -- so they are stored on the program itself
    (:attr:`Program.dispatch_plans`, keyed ``(slot, regfile layout_key)``)
    and the same program loaded into many clusters (every SPMD workload,
    every runtime handler, every machine built from the program cache)
    compiles once.  On an NxN mesh this collapses the plan footprint touched
    per simulated cycle by ``4 x N x N``, which is what keeps the busy-heavy
    per-node-tick throughput flat as the mesh grows.
    """
    if program is None:
        return []
    share_key = (slot, cluster.contexts[slot].registers.layout_key)
    plans = program.dispatch_plans.get(share_key)
    if plans is None:
        plans, shareable = _compile_plans(program, cluster, slot)
        if shareable:
            program.dispatch_plans[share_key] = plans
    return plans


def _compile_plans(program: Program, cluster, slot: int):
    """Compile every instruction; returns ``(plans, shareable)``."""
    plans: List[Optional[CompiledInstruction]] = []
    shareable = True
    for pc in range(len(program)):
        try:
            plan = _compile_instruction(program[pc], cluster, slot)
        except Exception:
            # Anything the compiler trips over runs interpreted instead; a
            # surprise is not provably cluster-independent, so don't share.
            plan, shareable = None, False
        plans.append(plan)
    return plans, shareable


def _compile_instruction(instruction: Instruction, cluster,
                         slot: int) -> Optional[CompiledInstruction]:
    operations = instruction.operations
    if not operations:
        return None
    layout = cluster.contexts[slot].registers

    steps: List[Tuple[int, object, str]] = []
    queue_needs = {}
    compiled_ops = []
    unit_idx = []

    for op in operations:
        # -- readiness (must mirror Cluster._instruction_ready exactly) -------
        for src in op.srcs:
            if not isinstance(src, RegisterRef):
                continue
            if src.is_queue:
                queue_needs[src.name] = queue_needs.get(src.name, 0) + 1
            elif src.is_identity:
                continue
            elif src.is_remote:
                return None  # the interpreted readiness check raises
            else:
                offset = layout.flat_offset(src)
                if offset is None:
                    return None
                steps.append((CHECK_FULL, offset, f"operand {src} empty"))
        for dest in op.dests:
            if dest.is_remote or dest.file is RegFile.GCC:
                continue
            offset = layout.flat_offset(dest)
            if offset is None:
                return None
            steps.append((CHECK_PENDING, offset,
                          f"destination {dest} has a write in flight"))
        if op.opcode.is_send:
            return None  # send readiness depends on immediates and credits
        if op.opcode.is_memory:
            steps.append((CHECK_MEMPORT, None, "memory port busy"))

        # -- operand readers ---------------------------------------------------
        readers = []
        for src in op.srcs:
            if isinstance(src, RegisterRef):
                if src.is_queue:
                    # Resolved by name through the executing cluster's queue
                    # binding cache; a missing queue raises at execution time
                    # exactly like the interpreted read.
                    readers.append((READ_QUEUE, src.name))
                elif src.is_identity:
                    if src.name == "nid":
                        readers.append((READ_NID, None))
                    elif src.name == "cid":
                        readers.append((READ_CID, None))
                    else:  # vid / zero fold to plan-wide constants
                        readers.append((READ_CONST, slot if src.name == "vid" else 0))
                elif src.is_remote:
                    return None
                else:
                    offset = layout.flat_offset(src)
                    if offset is None:
                        return None
                    readers.append((READ_REG, offset))
            else:
                # Immediates and LabelRefs pass through unchanged.
                readers.append((READ_CONST, src))

        privilege_msg = None
        if op.opcode.privileged and slot not in (EVENT_SLOT, EXCEPTION_SLOT):
            privilege_msg = (
                f"privileged operation {op.opcode.name!r} issued from user slot {slot}"
            )

        executor = _compile_executor(op, cluster, slot, layout)
        if executor is None:
            return None

        compiled_ops.append(CompiledOp(tuple(readers), privilege_msg, executor))
        unit_idx.append(_UNIT_INDEX[op.unit])

    for name, count in queue_needs.items():
        # The executing cluster resolves the name each check; a cluster
        # without the queue skips the check (execution raises instead),
        # matching the interpreted readiness scan.
        steps.append((CHECK_QUEUE, (name, count), f"{name} queue empty"))

    return CompiledInstruction(tuple(steps), tuple(compiled_ops),
                               tuple(unit_idx), instruction)


# ---------------------------------------------------------------------------
# Executors.  Each is a closure ``run(cluster, context, values, cycle)``
# returning the next PC for taken control transfers and None otherwise,
# mirroring Cluster._execute_operation case by case.
# ---------------------------------------------------------------------------

def _compile_executor(op: Operation, cluster, slot: int, layout):
    # Deferred: repro.cluster.cluster imports this module at its top level.
    from repro.cluster.cluster import _SYSTEM_EXECUTORS, SimulationError  # noqa: PLC0415

    name = op.opcode.name
    if name == "nop":
        return _exec_nop
    if name == "mark":
        return _exec_mark
    if name == "empty":
        return _make_empty(op, layout)
    if name == "halt":
        return _exec_halt
    if op.opcode.is_branch:
        return _make_branch(op, SimulationError)
    if op.opcode.is_send:
        return None
    if op.opcode.is_memory:
        return _make_memory(op, layout)
    system_fn = _SYSTEM_EXECUTORS.get(name)
    if system_fn is not None:
        return _make_system(system_fn, op)
    evaluator = value_evaluator(name)
    if evaluator is None:
        return None  # interpreted path raises "no value semantics"
    return _make_value(op, evaluator, layout)


def _exec_nop(cluster, context, values, cycle):
    return None


def _exec_mark(cluster, context, values, cycle):
    cluster.node.trace(cycle, "mark", marker=values[0], cluster=cluster.id,
                       slot=context.slot, pc=context.pc)
    return None


def _make_empty(op: Operation, layout):
    offsets = []
    for dest in op.dests:
        if dest.is_remote:
            return None  # interpreted path raises SimulationError
        offset = layout.flat_offset(dest)
        if offset is None:
            return None
        offsets.append(offset)
    offsets = tuple(offsets)

    def run(cluster, context, values, cycle):
        full = context.registers._full
        for offset in offsets:
            full[offset] = False
        return None
    return run


def _exec_halt(cluster, context, values, cycle):
    context.halt(cycle)
    cluster.node.trace(cycle, "halt", cluster=cluster.id, slot=context.slot)
    return context.pc


def _make_branch(op: Operation, simulation_error):
    name = op.opcode.name
    target = op.target
    if name == "jmp":
        def run(cluster, context, values, cycle):
            value = values[0]
            if isinstance(value, LabelRef):
                return target
            return int(value)
        return run

    invert = name != "br"
    label_msg = f"branch condition of {op} is a label"
    untargeted_msg = f"branch {op} has no resolved target"

    def run(cluster, context, values, cycle):
        condition = values[0]
        if isinstance(condition, LabelRef):
            raise simulation_error(label_msg)
        taken = (not condition) if invert else bool(condition)
        if taken:
            if target is None:
                raise simulation_error(untargeted_msg)
            return target
        return None
    return run


def _make_memory(op: Operation, layout):
    name = op.opcode.name
    physical = name in ("pld", "pst")
    is_store = op.opcode.is_store
    kind = MemOpKind.STORE if is_store else MemOpKind.LOAD
    pre, post = SYNC_CONDITIONS.get(name, ("x", "x"))

    dest = op.dest if not is_store else None
    dest_offset = None
    is_fp = False
    request_dest = None
    if dest is not None:
        if dest.is_remote:
            return None  # interpreted path raises SimulationError
        dest_offset = layout.flat_offset(dest)
        if dest_offset is None:
            return None
        is_fp = dest.file is RegFile.FP
        request_dest = dest.local()
    has_offset_operand = len(op.srcs) > (2 if is_store else 1)

    def run(cluster, context, values, cycle):
        if is_store:
            store_value = values[0]
            address_operand = values[1]
            offset = values[2] if has_offset_operand else 0
        else:
            store_value = None
            address_operand = values[0]
            offset = values[1] if has_offset_operand else 0
        address = cluster._effective_address(context, address_operand, offset,
                                             is_store, physical)
        request = MemRequest(
            kind=kind,
            address=address,
            data=store_value,
            dest=request_dest,
            vthread=context.slot,
            cluster=cluster.id,
            sync_pre=pre,
            sync_post=post,
            physical=physical,
            is_fp=is_fp,
            issue_cycle=cycle,
            req_id=cluster.node.request_ids(),
        )
        if dest is not None:
            registers = context.registers
            registers._full[dest_offset] = False
            registers._pending[dest_offset] += 1
        cluster.node.submit_memory_request(request, cycle)
        cluster.node.trace(cycle, "mem_issue", req=request.req_id, address=address,
                           store=is_store, cluster=cluster.id, slot=context.slot,
                           physical=physical)
        return None
    return run


def _make_system(system_fn, op: Operation):
    def run(cluster, context, values, cycle):
        system_fn(cluster, context, op, values, cycle)
        return None
    return run


def _make_value(op: Operation, evaluator, layout):
    name = op.opcode.name
    latency = max(op.opcode.latency, 1)

    # The overwhelmingly common case: exactly one local, non-GCC destination.
    if (len(op.dests) == 1 and not op.dests[0].is_remote
            and op.dests[0].file is not RegFile.GCC):
        dest = op.dests[0]
        dest_offset = layout.flat_offset(dest)
        if dest_offset is None:
            return None

        def run(cluster, context, values, cycle):
            try:
                value = evaluator(values)
            except (TypeError, IndexError) as exc:
                raise OperandError(f"bad operands for {name}: {values!r}") from exc
            registers = context.registers
            registers._full[dest_offset] = False
            registers._pending[dest_offset] += 1
            cluster._writebacks.append(
                (cycle + latency, context.slot, dest, value, True, dest_offset))
            return None
        return run

    actions = []
    for dest in op.dests:
        action = _make_dest_action(dest, latency, layout)
        if action is None:
            return None
        actions.append(action)
    actions = tuple(actions)

    def run(cluster, context, values, cycle):
        try:
            value = evaluator(values)
        except (TypeError, IndexError) as exc:
            raise OperandError(f"bad operands for {name}: {values!r}") from exc
        for action in actions:
            action(cluster, context, value, cycle)
        return None
    return run


def _make_dest_action(dest: RegisterRef, latency: int, layout):
    # Deferred: repro.cluster.cluster imports this module at its top level.
    from repro.cluster.cluster import RegWrite  # noqa: PLC0415

    if dest.file is RegFile.GCC and not dest.is_remote:
        dest_local = dest.local()
        dest_index = dest.index

        def act(cluster, context, value, cycle):
            cluster_id = cluster.id
            if cluster.config.enforce_gcc_pairs:
                allowed = (2 * cluster_id, 2 * cluster_id + 1)
                if dest_index not in allowed:
                    raise ProtectionError(
                        f"cluster {cluster_id} may only broadcast to "
                        f"gcc{allowed[0]}/gcc{allowed[1]}, not gcc{dest_index}"
                    )
            cluster.node.cswitch_broadcast(
                RegWrite(vthread=context.slot, ref=dest_local, value=value,
                         origin=f"gcc-broadcast c{cluster_id}"),
                cycle + latency - 1,
            )
        return act

    if dest.is_remote:
        dest_local = dest.local()
        dest_cluster = dest.cluster

        def act(cluster, context, value, cycle):
            cluster.node.cswitch_register_write(
                dest_cluster,
                RegWrite(vthread=context.slot, ref=dest_local, value=value,
                         origin=f"c{cluster.id}->c{dest_cluster}"),
                cycle + latency - 1,
            )
        return act

    dest_offset = layout.flat_offset(dest)
    if dest_offset is None:
        return None

    def act(cluster, context, value, cycle):
        registers = context.registers
        registers._full[dest_offset] = False
        registers._pending[dest_offset] += 1
        cluster._writebacks.append(
            (cycle + latency, context.slot, dest, value, True, dest_offset))
    return act
