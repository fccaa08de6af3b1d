"""The assembler's program cache hands out shared, read-only programs.

:func:`repro.isa.assembler.assemble` returns one ``Program`` per
``(source, name)``, so every machine, factory and snapshot restore in a
process shares it (and the dispatch plans compiled on it).  Sharing is only
safe if a caller cannot change a program under the others, and if what the
cache returns after many runs is still exactly what a fresh assembly gives.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.api import get_workload
from repro.isa import assembler
from repro.isa.assembler import AssemblyError, assemble
from repro.isa.operations import Unit
from repro.sweep import get_spec
from repro.sweep.runner import SweepRunner

SOURCE = """
loop:   add i1, i1, #1 | ld f2, i3, #8
        lt i4, i1, #10
        br i4, loop
        halt
"""

#: The five communication workloads of the scenario matrix, smallest mesh.
MATRIX_RUNS = [
    ("stencil", {"kind": "7pt", "n_hthreads": 2}),
    ("ping-pong", {"rounds": 8}),
    ("flood", {"messages": 16}),
    ("remote-memory", {"mode": "remote", "repeats": 12}),
    ("coherence", {"repeats": 12}),
]


def test_same_source_and_name_share_one_program():
    first = assemble(SOURCE, "cached")
    assert assemble(SOURCE, name="cached") is first
    assert assemble(source=SOURCE, name="cached") is first
    other = assemble(SOURCE, "renamed")
    assert other is not first
    assert other.name == "renamed"
    assert assemble(SOURCE) is assemble(SOURCE, "program")


def test_errors_are_raised_on_every_call():
    for _ in range(3):
        with pytest.raises(AssemblyError):
            assemble("frobnicate i1, i2", "broken")


def test_a_shared_program_cannot_be_mutated():
    program = assemble(SOURCE, "read-only")
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.instructions = ()
    with pytest.raises(AttributeError):
        program.instructions.append(program.instructions[0])
    with pytest.raises(TypeError):
        program.instructions[0] = program.instructions[1]
    with pytest.raises(TypeError):
        program.labels["loop"] = 3
    assert program.labels["loop"] == 0


def _assert_deep_equal(cached, fresh):
    assert cached == fresh
    assert cached.name == fresh.name and cached.source == fresh.source
    assert dict(cached.labels) == dict(fresh.labels)
    assert len(cached.instructions) == len(fresh.instructions)
    for mine, theirs in zip(cached.instructions, fresh.instructions):
        assert (mine.label, mine.source_line, mine.source_text) == (
            theirs.label, theirs.source_line, theirs.source_text)
        assert list(mine.ops) == list(theirs.ops)
        for unit in Unit:
            op, fresh_op = mine.op_in(unit), theirs.op_in(unit)
            if op is None:
                assert fresh_op is None
                continue
            assert op.opcode == fresh_op.opcode
            assert op.dests == fresh_op.dests
            assert op.srcs == fresh_op.srcs
            assert op.unit is fresh_op.unit
            assert op.target == fresh_op.target


def test_cached_programs_stay_pristine_after_many_runs(tmp_path, monkeypatch):
    """Run the smoke sweep and five scenario-matrix workloads in one process
    on a cold cache, then compare every program the cache handed out with
    an uncached assembly of its source."""
    handed_out = []

    def parse(source, name):
        program = assembler._parse_program(source, name)
        handed_out.append(program)
        return program

    monkeypatch.setattr(assembler, "_cached_program",
                        lru_cache(maxsize=assembler.PROGRAM_CACHE_SIZE)(parse))
    runner = SweepRunner(str(tmp_path / "smoke"), jobs=1, force=True, log=lambda _: None)
    result = runner.run(get_spec("smoke"))
    assert all(record["status"] == "ok" for record in result.records)
    for workload, params in MATRIX_RUNS:
        metrics = get_workload(workload).call(dict(params, mesh=[2, 2, 1]))
        assert metrics["verified"] is True, workload

    assert len(handed_out) > 10
    calls = assembler._cached_program.cache_info()
    assert calls.hits > 0, "no program was reused"
    for program in handed_out:
        _assert_deep_equal(program, assembler._parse_program(program.source, program.name))
