"""Assembled MAP programs.

A :class:`Program` is the unit of code loaded into one H-Thread: an ordered
tuple of 3-wide instructions plus the label map produced by the assembler.
Programs are stored by the loader in the (always-hit) per-cluster instruction
cache model; the simulator addresses instructions by index (the program
counter is an instruction index).

:func:`~repro.isa.assembler.assemble` hands out one shared ``Program`` per
``(source, name)``, so a program is read-only: the dataclass is frozen, the
instructions are a tuple and the labels a read-only mapping.  The one
mutable part is :attr:`Program.dispatch_plans`, derived state that
:func:`~repro.cluster.dispatch.compile_program` fills on first issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.isa.instruction import Instruction


@dataclass(frozen=True)
class Program:
    """An assembled program for a single H-Thread."""

    name: str = "program"
    instructions: Tuple[Instruction, ...] = ()
    labels: Mapping[str, int] = field(default_factory=lambda: MappingProxyType({}))
    source: str = ""
    #: Compiled dispatch plans keyed ``(slot, regfile layout_key)`` (derived
    #: state shared by every cluster running this program; never compared
    #: or serialised).
    dispatch_plans: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def label_address(self, label: str) -> int:
        """Return the instruction index a label refers to."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"label {label!r} not defined in program {self.name!r}") from None

    @property
    def static_length(self) -> int:
        """Number of (3-wide) instructions in the program.

        This is the "static depth of the instruction sequence" metric used in
        Section 3.1 / Figure 5 of the paper when comparing single- and
        multi-H-Thread schedules of the stencil kernels.
        """
        return len(self.instructions)

    @property
    def operation_count(self) -> int:
        """Total number of operations across all instructions."""
        return sum(len(instr) for instr in self.instructions)

    def listing(self) -> str:
        """Return a human-readable listing with instruction indices."""
        lines = [f"; program {self.name} ({len(self)} instructions)"]
        reverse_labels: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            reverse_labels.setdefault(index, []).append(label)
        for index, instr in enumerate(self.instructions):
            for label in reverse_labels.get(index, []):
                lines.append(f"{label}:")
            body = " | ".join(str(op) for op in instr.operations) or "nop"
            lines.append(f"  {index:4d}: {body}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"Program({self.name!r}, {len(self)} instructions)"
