"""The benchmark's four workloads: seeded inputs, set-up, run and checks.

Each workload is a small object with the same four steps, so the driver
(``bench_driver.py``) can time them uniformly:

* ``generate(seed)`` builds the workload's inputs.  It is a pure function of
  the seed: it draws from its own ``random.Random`` and touches no machine,
  so two calls with one seed return equal (frozen) inputs.
* ``setup(inputs, work_dir)`` does everything before the first simulated
  cycle and returns a :class:`Scenario` holding the built machine (or, for
  ``paper-figures``, the expanded sweep spec).
* ``Scenario.run()`` is the run phase: the simulated cycles.
* ``Scenario.check()`` reads the outputs, compares them with values computed
  from the inputs alone (never from the simulator) and returns a
  :class:`CheckResult`.

Every machine uses the repository's default configuration
(``MachineConfig.small``: event kernel, compiled dispatch, in-memory trace
sink on).  ``store-flood`` additionally shrinks the message queues, which is
what makes its hot nodes return messages to their senders.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import MachineConfig
from repro.core.machine import MMachine
from repro.isa import assembler
from repro.report import compare
from repro.report import render as report_render
from repro.report.manifest import Manifest
from repro.sweep.runner import SweepRunner
from repro.sweep.specs import get_spec
from repro.workloads import synthetic

#: Base virtual address of the benchmark's data regions.
REGION = 0x100000
#: Cycle limit for one simulated run; every workload finishes far below it.
MAX_CYCLES = 2_000_000


@dataclass
class CheckResult:
    """Output checks of one repetition: how many ran, and what failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def stats_digest(machine: MMachine) -> str:
    """Digest of the simulated results: cycles, instructions, messages,
    NACKs and retransmissions, and the per-node statistics summary."""
    stats = machine.stats()
    nets = [node.net for node in machine.nodes]
    document = {
        "summary": stats.summary(),
        "node_stats": stats.node_stats,
        "nacks": sum(net.nacks_received for net in nets),
        "retransmissions": sum(net.retransmissions for net in nets),
        "rejections": sum(net.enqueue_rejections for net in nets),
    }
    text = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _rng(name: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512 by ``random``, independent of
    # PYTHONHASHSEED, so the stream is stable across processes.
    return random.Random(f"{name}:{seed}")


class Scenario:
    """One built repetition of a workload (see the module docstring)."""

    sim_cycles = 0
    instructions = 0
    digest = ""

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> CheckResult:
        raise NotImplementedError

    def accuracy(self) -> Dict[str, float]:
        """Accuracy against the paper (only ``paper-figures`` has any)."""
        return {"report.paper_max_rel_err": 0.0, "report.paper_values": 0,
                "report.expectations_ok": 0}


class MachineScenario(Scenario):
    """A scenario that drives one machine to completion."""

    def __init__(self, workload: "MachineWorkload", inputs, machine: MMachine):
        self.workload = workload
        self.inputs = inputs
        self.machine = machine

    def run(self) -> None:
        self.machine.run_until_user_done(max_cycles=MAX_CYCLES)
        summary = self.machine.stats().summary()
        self.sim_cycles = summary["cycles"]
        self.instructions = summary["instructions"]
        self.digest = stats_digest(self.machine)

    def check(self) -> CheckResult:
        outputs = self.workload.outputs(self.machine, self.inputs)
        return self.workload.check(self.inputs, outputs)


class MachineWorkload:
    """Shared shape of the three single-machine workloads."""

    name = ""

    def generate(self, seed: int, **sizes):
        raise NotImplementedError

    def build(self, inputs) -> MMachine:
        raise NotImplementedError

    def outputs(self, machine: MMachine, inputs) -> Dict[object, object]:
        raise NotImplementedError

    def check(self, inputs, outputs) -> CheckResult:
        raise NotImplementedError

    def setup(self, inputs, work_dir: str) -> Scenario:
        return MachineScenario(self, inputs, self.build(inputs))


# ---------------------------------------------------------------------------
# busy-mesh: the busy-stencil register loop on every cluster of a big mesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BusyMeshInputs:
    mesh: Tuple[int, int, int]
    iterations: int
    #: Initial ``(i1, i2, i3)`` of every H-Thread, indexed
    #: ``node * clusters + cluster``.
    initial: Tuple[Tuple[int, int, int], ...]


def busy_mesh_program(iterations: int) -> str:
    """The loop of the ``busy-stencil`` workload, with the three starting
    values taken from registers i1-i3 instead of immediates."""
    return f"""
        mov i4, #0
        mov i7, #0
loop:   add i5, i1, i2
        add i5, i5, i3
        shr i6, i5, #1
        mov i1, i2
        mov i2, i3
        mov i3, i6
        add i7, i7, i6
        add i4, i4, #1
        lt i8, i4, #{iterations}
        br i8, loop
        halt
    """


def busy_mesh_checksum(a: int, b: int, c: int, iterations: int) -> int:
    checksum = 0
    for _ in range(iterations):
        smoothed = (a + b + c) >> 1
        a, b, c = b, c, smoothed
        checksum += smoothed
    return checksum


class BusyMesh(MachineWorkload):
    name = "busy-mesh"
    clusters = MachineConfig().node.num_clusters

    def generate(self, seed: int, mesh=(16, 16, 1), iterations: int = 16) -> BusyMeshInputs:
        rng = _rng(self.name, seed)
        threads = mesh[0] * mesh[1] * mesh[2] * self.clusters
        initial = tuple(
            (rng.randrange(1 << 12), rng.randrange(1 << 12), rng.randrange(1 << 12))
            for _ in range(threads)
        )
        return BusyMeshInputs(mesh=tuple(mesh), iterations=iterations, initial=initial)

    def build(self, inputs: BusyMeshInputs) -> MMachine:
        machine = MMachine(MachineConfig.small(*inputs.mesh))
        program = assembler.assemble(busy_mesh_program(inputs.iterations), name="busy-mesh")
        for node in range(machine.num_nodes):
            for cluster in range(self.clusters):
                a, b, c = inputs.initial[node * self.clusters + cluster]
                machine.load_hthread(node, 0, cluster, program,
                                     registers={"i1": a, "i2": b, "i3": c})
        return machine

    def outputs(self, machine: MMachine, inputs: BusyMeshInputs) -> Dict[object, object]:
        return {
            (node, cluster): machine.register_value(node, 0, cluster, "i7")
            for node in range(machine.num_nodes)
            for cluster in range(self.clusters)
        }

    def check(self, inputs: BusyMeshInputs, outputs) -> CheckResult:
        result = CheckResult()
        for index, (a, b, c) in enumerate(inputs.initial):
            key = divmod(index, self.clusters)
            expected = busy_mesh_checksum(a, b, c, inputs.iterations)
            result.expect(outputs.get(key) == expected,
                          f"checksum of node {key[0]} cluster {key[1]}: "
                          f"{outputs.get(key)} != {expected}")
        return result


# ---------------------------------------------------------------------------
# remote-reads: dependent pointer chains through other nodes' memory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    reader: int
    #: Addresses of the chain's cells, in the order the reader visits them.
    cells: Tuple[int, ...]
    #: The value in the last cell: the reader's expected final pointer.
    terminal: int


@dataclass(frozen=True)
class RemoteReadsInputs:
    mesh: Tuple[int, int, int]
    chains: Tuple[Chain, ...]


def region_base(node: int, page_size: int, pages_per_node: int = 1) -> int:
    """Base address of the page-group the benchmark maps on *node*."""
    return REGION + node * page_size * pages_per_node


def pointer_chain_program(hops: int) -> str:
    """Follow *hops* pointers from i1 (every load depends on the last one),
    summing what was loaded into i5."""
    return f"""
        mov i3, #0
        mov i5, #0
loop:   ld i1, i1
        add i5, i5, i1
        add i3, i3, #1
        lt i6, i3, #{hops}
        br i6, loop
        halt
    """


class RemoteReads(MachineWorkload):
    name = "remote-reads"
    page_size = MachineConfig().memory.page_size_words

    def generate(self, seed: int, mesh=(8, 8, 1), readers: int = 16,
                 hops: int = 50) -> RemoteReadsInputs:
        rng = _rng(self.name, seed)
        nodes = mesh[0] * mesh[1] * mesh[2]
        # Each node hands out its page's words in a seeded order, so cells
        # never collide and land on different cache lines and banks.
        free = {node: rng.sample(range(self.page_size), self.page_size)
                for node in range(nodes)}
        chains = []
        for reader in sorted(rng.sample(range(nodes), readers)):
            others = [node for node in range(nodes) if node != reader]
            cells = []
            for _ in range(hops):
                home = rng.choice(others)
                cells.append(region_base(home, self.page_size) + free[home].pop())
            chains.append(Chain(reader=reader, cells=tuple(cells),
                                terminal=rng.randrange(1, 1 << 30)))
        return RemoteReadsInputs(mesh=tuple(mesh), chains=tuple(chains))

    def build(self, inputs: RemoteReadsInputs) -> MMachine:
        machine = MMachine(MachineConfig.small(*inputs.mesh))
        for node in range(machine.num_nodes):
            machine.map_on_node(node, region_base(node, self.page_size))
        for chain in inputs.chains:
            for cell, target in zip(chain.cells, chain.cells[1:] + (chain.terminal,)):
                machine.write_word(cell, target)
        programs = {}
        for chain in inputs.chains:
            hops = len(chain.cells)
            if hops not in programs:
                programs[hops] = assembler.assemble(pointer_chain_program(hops),
                                                    name="remote-reads")
            machine.load_hthread(chain.reader, 0, 0, programs[hops],
                                 registers={"i1": chain.cells[0]})
        return machine

    def outputs(self, machine: MMachine, inputs: RemoteReadsInputs) -> Dict[object, object]:
        outputs = {}
        for chain in inputs.chains:
            outputs[(chain.reader, "pointer")] = machine.register_value(chain.reader, 0, 0, "i1")
            outputs[(chain.reader, "sum")] = machine.register_value(chain.reader, 0, 0, "i5")
        return outputs

    def check(self, inputs: RemoteReadsInputs, outputs) -> CheckResult:
        result = CheckResult()
        for chain in inputs.chains:
            pointer = outputs.get((chain.reader, "pointer"))
            result.expect(pointer == chain.terminal,
                          f"reader {chain.reader}: final pointer {pointer} != {chain.terminal}")
            expected_sum = sum(chain.cells[1:]) + chain.terminal
            total = outputs.get((chain.reader, "sum"))
            result.expect(total == expected_sum,
                          f"reader {chain.reader}: sum {total} != {expected_sum}")
        return result


# ---------------------------------------------------------------------------
# store-flood: one-way remote stores converging on a few hot nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flow:
    sender: int
    hot: int
    #: First destination address; the sender stores to consecutive words.
    address: int
    value_base: int


@dataclass(frozen=True)
class StoreFloodInputs:
    mesh: Tuple[int, int, int]
    queue_words: int
    stores: int
    hot: Tuple[int, ...]
    flows: Tuple[Flow, ...]


class StoreFlood(MachineWorkload):
    name = "store-flood"
    page_size = MachineConfig().memory.page_size_words
    #: Address-space pages reserved per hot node (only the pages its
    #: senders' slices use are mapped).
    pages_per_hot = 16

    def generate(self, seed: int, mesh=(8, 8, 1), senders: int = 32, stores: int = 40,
                 hot: int = 4, queue_words: int = 6) -> StoreFloodInputs:
        rng = _rng(self.name, seed)
        nodes = mesh[0] * mesh[1] * mesh[2]
        hot_nodes = tuple(sorted(rng.sample(range(nodes), hot)))
        cold = [node for node in range(nodes) if node not in hot_nodes]
        flows = []
        used = {node: 0 for node in hot_nodes}
        # Senders, in seeded order, are dealt round-robin over the hot nodes,
        # so every seed loads each hot node with the same number of senders.
        for index, sender in enumerate(rng.sample(cold, senders)):
            target = hot_nodes[index % hot]
            address = region_base(target, self.page_size, self.pages_per_hot) + used[target]
            used[target] += stores
            flows.append(Flow(sender=sender, hot=target, address=address,
                              value_base=rng.randrange(1, 1 << 24)))
        return StoreFloodInputs(mesh=tuple(mesh), queue_words=queue_words, stores=stores,
                                hot=hot_nodes, flows=tuple(flows))

    def build(self, inputs: StoreFloodInputs) -> MMachine:
        config = MachineConfig.small(*inputs.mesh)
        config.network.message_queue_words = inputs.queue_words
        machine = MMachine(config)
        for node in inputs.hot:
            words = inputs.stores * sum(1 for flow in inputs.flows if flow.hot == node)
            machine.map_on_node(node, region_base(node, self.page_size, self.pages_per_hot),
                                num_pages=max(1, -(-words // self.page_size)))
        dip = machine.runtime.dip("remote_store")
        for flow in inputs.flows:
            program = synthetic.remote_store_sender_program(
                flow.address, dip, inputs.stores, value_base=flow.value_base)
            machine.load_hthread(flow.sender, 0, 0, program)
        return machine

    def outputs(self, machine: MMachine, inputs: StoreFloodInputs) -> Dict[object, object]:
        outputs = {}
        for flow in inputs.flows:
            for offset in range(inputs.stores):
                outputs[flow.address + offset] = machine.read_word(flow.address + offset)
        nets = [machine.nodes[node].net for node in inputs.hot]
        outputs["accepted"] = sum(net.messages_received - net.enqueue_rejections
                                  for net in nets)
        return outputs

    def check(self, inputs: StoreFloodInputs, outputs) -> CheckResult:
        result = CheckResult()
        for flow in inputs.flows:
            for offset in range(inputs.stores):
                address = flow.address + offset
                expected = flow.value_base + offset
                result.expect(outputs.get(address) == expected,
                              f"word {address:#x}: {outputs.get(address)} != {expected}")
        # Every store is accepted exactly once: none lost, none duplicated.
        total = len(inputs.flows) * inputs.stores
        result.expect(outputs.get("accepted") == total,
                      f"hot nodes accepted {outputs.get('accepted')} stores, sent {total}")
        return result


# ---------------------------------------------------------------------------
# paper-figures: the built-in sweep, rendered and checked against the paper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperInputs:
    spec_name: str


class PaperScenario(Scenario):
    def __init__(self, spec, work_dir: str):
        self.spec = spec
        self.expected_runs = [run.run_id for run in spec.expand()]
        self.work_dir = work_dir
        self.records: List[dict] = []
        self.rows: List[compare.CheckRow] = []

    def run(self) -> None:
        runner = SweepRunner(os.path.join(self.work_dir, "sweep"), jobs=1, force=True,
                             log=lambda message: None)
        result = runner.run(self.spec)
        self.results_path = result.results_path
        self.records = result.records
        measured = [record["metrics"] for record in self.records
                    if isinstance(record["metrics"].get("cycles"), int)]
        self.sim_cycles = sum(metrics["cycles"] for metrics in measured)
        self.instructions = sum(metrics.get("instructions") or 0 for metrics in measured)
        document = sorted(
            (record["run_id"], record["status"], record["metrics"]) for record in self.records
        )
        text = json.dumps(document, sort_keys=True, default=str)
        self.digest = hashlib.sha256(text.encode()).hexdigest()[:32]

    def check(self) -> CheckResult:
        report = report_render.render_report(Manifest.load(self.results_path),
                                             os.path.join(self.work_dir, "report"))
        self.rows = report.check_rows
        return check_paper(self.expected_runs, self.records, self.rows)

    def accuracy(self) -> Dict[str, float]:
        """The largest relative error against the paper over the
        expectations that carry a non-zero paper value, how many do, and how
        many expectations are inside their band."""
        with_value = [row for row in self.rows if row.paper and row.measured]
        errors = [abs(value - row.paper) / abs(row.paper)
                  for row in with_value for value in row.measured]
        return {
            "report.paper_max_rel_err": max(errors, default=0.0),
            "report.paper_values": len(with_value),
            "report.expectations_ok": sum(1 for row in self.rows if row.status == compare.OK),
        }


def check_paper(expected_runs: List[str], records: List[dict],
                rows: List[compare.CheckRow]) -> CheckResult:
    """Every expected run completed and verified, and every paper
    expectation is inside its band (a skipped expectation fails)."""
    result = CheckResult()
    by_id = {record["run_id"]: record for record in records}
    for run_id in expected_runs:
        record = by_id.get(run_id)
        verified = (record is not None and record["status"] == "ok"
                    and record["metrics"].get("verified", True) is True)
        result.expect(verified, f"sweep run {run_id} missing, failed or unverified")
    for row in rows:
        result.expect(row.status == compare.OK,
                      f"paper expectation {row.key}: {row.status} "
                      f"(measured {row.measured}, band [{row.lo}, {row.hi}])")
    return result


class PaperFigures:
    name = "paper-figures"

    def generate(self, seed: int) -> PaperInputs:
        # The built-in sweep is fixed; the seed selects nothing.
        return PaperInputs(spec_name="paper-figures")

    def setup(self, inputs: PaperInputs, work_dir: str) -> Scenario:
        return PaperScenario(get_spec(inputs.spec_name), work_dir)


WORKLOADS = {
    workload.name: workload
    for workload in (BusyMesh(), RemoteReads(), StoreFlood(), PaperFigures())
}
