"""Differential tests: the event kernel vs the naive reference loop.

``MachineConfig.sim.kernel`` selects between the activity-tracked,
cycle-skipping scheduler (``"event"``, the default) and the original
tick-everything loop (``"naive"``).  The two must be indistinguishable to
any observer of the architecture: identical final cycle counts, register
values, memory contents and -- the strictest part -- identical statistics,
including the per-cycle idle/stall counters the naive loop accrues on every
blocked cycle, which the event kernel reconstructs in bulk when it skips
node ticks.

Every scenario below builds the same machine twice, runs the same workload
under both kernels, and compares everything observable.  It also checks the
thread bookkeeping both kernels rely on -- each cluster's runnable slots and
the unfinished-user counts of clusters, nodes and the event kernel, kept
from state-change notifications -- against a rescan of the contexts.
"""

import pytest

from repro import MMachine, MachineConfig
from repro.cluster.cluster import Cluster
from repro.cluster.hthread import HThreadContext, ThreadState
from repro.core.config import EVENT_SLOT, EXCEPTION_SLOT
from repro.node.node import Node
from repro.workloads.stencil import make_stencil_workload
from repro.workloads.synthetic import (
    expected_many_to_one_values,
    many_to_one_store_programs,
    remote_store_sender_program,
)

HEAP = 0x10000
REGION = 0x40000

KERNELS = ("naive", "event")


# --------------------------------------------------------------------------- helpers


def _compare_machines(naive: MMachine, event: MMachine) -> None:
    """Assert that two finished machines are observably identical."""
    assert event.cycle == naive.cycle, "final cycle counts differ"

    naive_stats = naive.stats()
    event_stats = event.stats()
    for node_naive, node_event in zip(naive_stats.node_stats, event_stats.node_stats):
        assert node_event == node_naive, f"node {node_naive['node_id']} stats differ"

    for node_naive, node_event in zip(naive.nodes, event.nodes):
        # Mesh-interface counters (not all are part of node.stats()).
        for attribute in ("acks_received", "nacks_received", "retransmissions",
                          "enqueue_rejections", "credits"):
            assert getattr(node_event.net, attribute) == getattr(node_naive.net, attribute)
        # Per-thread microarchitectural state and stall accounting -- the
        # part the event kernel reconstructs in bulk for skipped cycles.
        for cluster_naive, cluster_event in zip(node_naive.clusters, node_event.clusters):
            assert cluster_event.icache.fetches == cluster_naive.icache.fetches
            for ctx_naive, ctx_event in zip(cluster_naive.contexts, cluster_event.contexts):
                assert ctx_event.state is ctx_naive.state
                assert ctx_event.pc == ctx_naive.pc
                assert ctx_event.instructions_issued == ctx_naive.instructions_issued
                assert ctx_event.stall_cycles == ctx_naive.stall_cycles
                assert dict(ctx_event.stall_reasons) == dict(ctx_naive.stall_reasons)
                assert ctx_event.start_cycle == ctx_naive.start_cycle
                assert ctx_event.halt_cycle == ctx_naive.halt_cycle

    for attribute in ("messages_injected", "messages_delivered", "total_latency",
                      "total_hops", "link_contention_cycles"):
        assert getattr(event.mesh, attribute) == getattr(naive.mesh, attribute)

    _assert_thread_bookkeeping(naive)
    _assert_thread_bookkeeping(event)


def _assert_thread_bookkeeping(machine: MMachine) -> None:
    """The maintained runnable slots and unfinished-user counts equal a
    rescan of the contexts."""
    total = 0
    for node in machine.nodes:
        node_total = 0
        for cluster in node.clusters:
            runnable = tuple(ctx.slot for ctx in cluster.contexts
                             if ctx.state is ThreadState.RUNNABLE)
            assert cluster._runnable == runnable, f"{node} c{cluster.id} runnable slots"
            unfinished = sum(1 for ctx in cluster.contexts
                             if ctx.slot not in (EVENT_SLOT, EXCEPTION_SLOT)
                             and not ctx.finished)
            assert cluster.users_unfinished == unfinished, f"{node} c{cluster.id} users"
            node_total += unfinished
        assert node.users_unfinished == node_total, f"{node} users"
        assert node.user_threads_finished == (node_total == 0)
        total += node_total
    if machine.kernel is not None:
        assert machine.kernel.users_unfinished == total, "machine-wide users"


def _run_both(scenario):
    """Run *scenario(kernel)* under both kernels and compare the machines."""
    machines = {kernel: scenario(kernel) for kernel in KERNELS}
    _compare_machines(machines["naive"], machines["event"])
    return machines


def _config(shape=(2, 1, 1), mode="remote", kernel="event", **network_overrides):
    config = MachineConfig.small(*shape)
    config.runtime.shared_memory_mode = mode
    config.sim.kernel = kernel
    for key, value in network_overrides.items():
        setattr(config.network, key, value)
    return config


# --------------------------------------------------------------------- workload: stencil


class TestStencilEquivalence:
    """Compute-heavy single-node workloads (Figure 5 kernels)."""

    @pytest.mark.parametrize("kind, n_hthreads", [("7pt", 1), ("7pt", 4), ("27pt", 2)])
    def test_stencil(self, kind, n_hthreads):
        def scenario(kernel):
            machine = MMachine(_config(shape=(1, 1, 1), kernel=kernel))
            machine.map_on_node(0, HEAP, num_pages=16)
            workload = make_stencil_workload(kind=kind, n_hthreads=n_hthreads)
            workload.setup(machine)
            machine.run_until_user_done(max_cycles=30000)
            assert workload.verify(machine)
            return machine

        _run_both(scenario)

    def test_stencil_under_hep_barrel_policy(self):
        """The HEP barrel rotates the scanned slot with the clock, so the
        event kernel's bulk stall accounting must follow cycle residues."""

        def scenario(kernel):
            config = _config(shape=(1, 1, 1), kernel=kernel)
            config.cluster.issue_policy = "hep"
            machine = MMachine(config)
            machine.map_on_node(0, HEAP, num_pages=16)
            workload = make_stencil_workload(kind="7pt", n_hthreads=2)
            workload.setup(machine)
            machine.run_until_user_done(max_cycles=60000)
            assert workload.verify(machine)
            return machine

        _run_both(scenario)


# ------------------------------------------------------------- workload: message passing


class TestMessagePassingEquivalence:
    """User-level SEND/receive traffic, including NACK/retransmission."""

    def test_ping_pong(self):
        """Two nodes bouncing remote stores at each other."""

        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(0, REGION, num_pages=1)
            machine.map_on_node(1, REGION + 0x1000, num_pages=1)
            dip = machine.runtime.dip("remote_store")
            machine.load_hthread(0, 0, 0, remote_store_sender_program(
                REGION + 0x1000, dip, 8))
            machine.load_hthread(1, 0, 0, remote_store_sender_program(
                REGION, dip, 8, value_base=2000))
            machine.run_until_user_done(max_cycles=60000)
            for offset in range(8):
                assert machine.read_word(REGION + offset) == 2000 + offset
                assert machine.read_word(REGION + 0x1000 + offset) == 1000 + offset
            return machine

        _run_both(scenario)

    def test_many_to_one_flood_with_contention(self):
        def scenario(kernel):
            machine = MMachine(_config(shape=(2, 2, 1), kernel=kernel))
            machine.map_on_node(0, REGION, num_pages=1)
            dip = machine.runtime.dip("remote_store")
            for sender, program in many_to_one_store_programs(3, 12, REGION, dip).items():
                machine.load_hthread(sender + 1, 0, 0, program)
            machine.run_until_user_done(max_cycles=60000)
            for offset, value in expected_many_to_one_values(3, 12):
                assert machine.read_word(REGION + offset) == value
            return machine

        _run_both(scenario)

    def test_small_queue_nack_and_retransmit(self):
        """Return-to-sender throttling: retransmission back-offs are one of
        the scheduled-wakeup sources the event kernel must honour exactly.
        Three producers bursting at one consumer with a tiny queue force
        NACKs and retransmissions."""

        def scenario(kernel):
            machine = MMachine(_config(shape=(2, 2, 1), kernel=kernel,
                                       message_queue_words=6, retransmit_interval=16))
            machine.map_on_node(0, REGION, num_pages=1)
            dip = machine.runtime.dip("remote_store")
            for sender, program in many_to_one_store_programs(3, 8, REGION, dip).items():
                machine.load_hthread(sender + 1, 0, 0, program)
            machine.run_until_user_done(max_cycles=120000)
            for offset, value in expected_many_to_one_values(3, 8):
                assert machine.read_word(REGION + offset) == value
            assert sum(node.net.retransmissions for node in machine.nodes) > 0
            return machine

        _run_both(scenario)


# -------------------------------------------------------------- workload: remote memory


class TestRemoteMemoryEquivalence:
    """Section 4.2 transparent remote access -- the idle-heavy class the
    event kernel exists for: the faulting node sleeps through the whole
    network round-trip."""

    def test_remote_load(self):
        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION + 7, 31415)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nadd i6, i5, #1\nhalt",
                                 registers={"i1": REGION + 7})
            machine.run_until(lambda m: m.thread_halted(0, 0, 0), max_cycles=5000)
            machine.run_until_quiescent(max_cycles=5000)
            assert machine.register_value(0, 0, 0, "i6") == 31416
            return machine

        _run_both(scenario)

    def test_remote_store_with_ltlb_miss(self):
        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1, preload_ltlb=False)
            machine.load_hthread(0, 0, 0, "st i6, i1\nhalt",
                                 registers={"i1": REGION + 9, "i6": 2718})
            machine.run_until_quiescent(max_cycles=10000)
            assert machine.read_word(REGION + 9) == 2718
            return machine

        _run_both(scenario)

    def test_fixed_cycle_run_snapshots_identical(self):
        """run(N) must land on the same intermediate state, not just the
        same final state."""

        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 5)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nadd i6, i5, #100\nhalt",
                                 registers={"i1": REGION})
            machine.run(40)
            machine.run(1000)
            assert machine.cycle == 1040
            return machine

        _run_both(scenario)


# ----------------------------------------------------------- workload: coherent caching


class TestCoherentEquivalence:
    """Section 4.3 software DRAM caching: native handlers with busy charges,
    directory recalls and invalidation round-trips."""

    def test_read_share_write_upgrade_and_recall(self):
        def scenario(kernel):
            machine = MMachine(_config(shape=(4, 1, 1), mode="coherent", kernel=kernel))
            machine.map_on_node(0, REGION, num_pages=1)
            machine.write_word(REGION, 5)
            # Node 1 reads, node 2 writes (invalidating node 1), node 0
            # recalls the dirty block by reading it back.
            machine.load_hthread(1, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            machine.run_until(lambda m: m.register_full(1, 0, 0, "i5"), max_cycles=30000)
            machine.load_hthread(2, 0, 0, "st i6, i1\nhalt",
                                 registers={"i1": REGION, "i6": 42})
            machine.run_until_quiescent(max_cycles=60000)
            machine.load_hthread(0, 0, 0, "ld i7, i1\nhalt", registers={"i1": REGION})
            machine.run_until(lambda m: m.register_full(0, 0, 0, "i7"), max_cycles=60000)
            assert machine.register_value(0, 0, 0, "i7") == 42
            machine.run_until_quiescent(max_cycles=60000)
            return machine

        machines = _run_both(scenario)
        for machine in machines.values():
            assert machine.runtime.coherence.invalidations >= 1


# ------------------------------------------------------------------- kernel mechanics


class TestKernelMechanics:
    """Direct checks of the scheduler itself."""

    def test_event_kernel_is_default(self):
        machine = MMachine(MachineConfig.small(1, 1, 1))
        assert machine.kernel is not None
        assert machine.config.sim.kernel == "event"

    def test_naive_kernel_has_no_scheduler(self):
        config = MachineConfig.small(1, 1, 1)
        config.sim.kernel = "naive"
        assert MMachine(config).kernel is None

    def test_invalid_kernel_rejected(self):
        config = MachineConfig.small(1, 1, 1)
        config.sim.kernel = "threaded"
        with pytest.raises(ValueError):
            MMachine(config)

    def test_event_kernel_skips_node_ticks(self):
        """The point of the refactor: an idle-heavy remote access must cost
        far fewer node ticks than cycles x nodes."""
        machine = MMachine(_config(shape=(2, 2, 1)))
        machine.map_on_node(3, REGION, num_pages=1)
        machine.write_word(REGION, 1)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until_quiescent(max_cycles=10000)
        naive_ticks = machine.cycle * machine.num_nodes
        assert machine.kernel.node_ticks < naive_ticks / 2
        assert machine.kernel.cycles_skipped > 0

    def test_timeout_behaviour_matches(self):
        """A machine that never quiesces times out identically, and the
        event kernel reports the same final cycle."""
        results = {}
        for kernel in KERNELS:
            config = _config(shape=(1, 1, 1), mode="none", kernel=kernel)
            machine = MMachine(config)
            machine.map_on_node(0, REGION, num_pages=1, preload_ltlb=False)
            # The LTLB miss raises an event that no handler ever consumes, so
            # has_pending_work stays true forever.
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            with pytest.raises(TimeoutError):
                machine.run_until_quiescent(max_cycles=500)
            results[kernel] = (machine.cycle, machine.stats().node_stats)
        assert results["event"] == results["naive"]

    def test_predicate_reading_sleeping_node_statistics(self):
        """run_until predicates may read per-cycle statistics, not just
        architectural state; the kernel must settle its lazy idle accounting
        before every predicate evaluation so a counter on a *sleeping* node
        (here: idle_cycles of a node that never runs anything) advances
        exactly as under the naive loop."""

        def scenario(kernel):
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 2)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            stop = machine.run_until(
                lambda m: m.nodes[1].clusters[0].idle_cycles >= 20, max_cycles=5000
            )
            assert stop == machine.cycle
            return machine

        machines = _run_both(scenario)
        assert machines["event"].cycle == machines["naive"].cycle

    def test_step_loop_matches_naive(self):
        """Manual step() loops (the public single-cycle API) stay exact even
        with external mutation between steps."""
        machines = {}
        for kernel in KERNELS:
            machine = MMachine(_config(kernel=kernel))
            machine.map_on_node(1, REGION, num_pages=1)
            machine.write_word(REGION, 9)
            machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
            for cycle in range(300):
                machine.step()
                if cycle == 150:
                    # Mutate mid-run: load a second thread while nodes idle.
                    machine.load_hthread(1, 0, 0, "mov i2, #7\nhalt")
            machines[kernel] = machine
        _compare_machines(machines["naive"], machines["event"])
        assert machines["event"].register_value(1, 0, 0, "i2") == 7


# ------------------------------------------------------------ cluster parking


def _spin(iterations: int, then: str = "") -> str:
    """A counting loop that keeps its node awake for *iterations* turns,
    then runs *then* and halts."""
    return f"""
        mov i3, #0
spin:   add i3, i3, #1
        lt i4, i3, #{iterations}
        br i4, spin
        {then}
        halt
    """


def _message_push(kernel, policy="event-priority", compile_dispatch=True):
    """Node 0 sends remote stores to node 1, whose message handler (cluster
    2) sits parked on an empty ``net`` queue while a spinner keeps node 1
    awake: each arriving message must unpark it through the queue hook."""
    config = _config(kernel=kernel)
    config.cluster.issue_policy = policy
    config.sim.compile_dispatch = compile_dispatch
    machine = MMachine(config)
    machine.map_on_node(1, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(1, 0, 0, _spin(300))
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, 4))
    machine.run_until_user_done(max_cycles=20000)
    for offset in range(4):
        assert machine.read_word(REGION + offset) == 1000 + offset
    return machine


def _send_credits(kernel):
    """A sender out of send credits waits for ACKs, which are not a wake
    source, so that stall must never park while a spinner keeps its node
    awake."""
    machine = MMachine(_config(shape=(4, 1, 1), kernel=kernel, send_credits=1))
    machine.map_on_node(3, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(0, 0, 1, _spin(300))
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, 8))
    machine.run_until_user_done(max_cycles=20000)
    for offset in range(8):
        assert machine.read_word(REGION + offset) == 1000 + offset
    stalls = machine.nodes[0].clusters[0].contexts[0].stall_reasons
    assert any("credits" in reason for reason in stalls)
    return machine


def _event_queue_push(kernel):
    """An LTLB miss on a local page: the miss record pushed onto the LTLB
    event queue must unpark the handler on cluster 1 of the awake node."""
    machine = MMachine(_config(shape=(1, 1, 1), kernel=kernel))
    machine.map_on_node(0, REGION, num_pages=1, preload_ltlb=False)
    machine.write_word(REGION + 3, 77)
    machine.load_hthread(0, 0, 2, _spin(300))
    machine.load_hthread(0, 0, 0, _spin(20, "ld i5, i1\nadd i6, i5, #1"),
                         registers={"i1": REGION + 3})
    machine.run_until_user_done(max_cycles=20000)
    assert machine.register_value(0, 0, 0, "i6") == 78
    return machine


def _exception_queue_push(kernel):
    """A privileged operation from a user slot posts a protection record to
    the cluster's exception queue, read by a handler in the exception slot."""
    machine = MMachine(_config(shape=(1, 1, 1), mode="none", kernel=kernel))
    machine.load_hthread(0, 0, 1, _spin(300))
    machine.load_hthread(0, 5, 0, "mov i1, evq\nmov i2, evq\nmov i3, evq\nmov i4, evq\nhalt")
    machine.load_hthread(0, 0, 0, _spin(20, "xregwr i1, i2"))
    machine.run_until_quiescent(max_cycles=20000)
    assert machine.nodes[0].clusters[0].exceptions_raised == 1
    assert machine.thread_halted(0, 5, 0)
    return machine


def _cswitch_write(kernel):
    """Cluster 1 blocks on an emptied register that cluster 0 fills over the
    C-Switch after spinning."""
    machine = MMachine(_config(shape=(1, 1, 1), mode="none", kernel=kernel))
    machine.load_hthread(0, 0, 1, "empty i5\nadd i6, i5, #1\nhalt")
    machine.load_hthread(0, 0, 0, _spin(60, "mov c1.i5, #41"))
    machine.run_until_user_done(max_cycles=20000)
    assert machine.register_value(0, 0, 1, "i6") == 42
    return machine


def _local_writeback(kernel):
    """A long-latency fdiv: its consumer parks until the writeback lands."""
    machine = MMachine(_config(shape=(1, 1, 1), mode="none", kernel=kernel))
    machine.load_hthread(0, 0, 0, _spin(60))
    machine.load_hthread(0, 0, 1, "fdiv f1, f2, f3\nfadd f4, f1, f1\nhalt",
                         registers={"f2": 7.0, "f3": 2.0})
    machine.run_until_user_done(max_cycles=20000)
    assert machine.register_value(0, 0, 1, "f4") == 7.0
    return machine


def _snapshot_restore(kernel):
    """Snapshot while clusters are parked, run on, then restore the snapshot
    into the same machine and finish: the restored counters replace the
    parked ones, so the park must be dropped uncharged."""
    config = _config(kernel=kernel)
    machine = MMachine(config)
    machine.map_on_node(1, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(1, 0, 0, _spin(300))
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, 4))
    machine.run(60)
    if machine.kernel is not None:
        assert machine.kernel.parked_clusters
    document = machine.snapshot_document()
    machine.run(200)
    machine.restore_snapshot(document)
    _assert_thread_bookkeeping(machine)
    machine.run_until_user_done(max_cycles=20000)
    return machine


def _predicate_reads_parked_stats(kernel):
    """run(until=...) must settle parked clusters before every predicate:
    this one reads the stall counter of a handler parked in the one node,
    which a spinner keeps awake."""
    machine = MMachine(_config(shape=(1, 1, 1), kernel=kernel))
    machine.load_hthread(0, 0, 0, _spin(300))
    handler = machine.nodes[0].clusters[2]
    machine.run(5000, until=lambda m: handler.no_ready_cycles >= 123)
    assert handler.no_ready_cycles == 123
    machine.run_until(lambda m: handler.no_ready_cycles >= 200, max_cycles=5000)
    assert handler.no_ready_cycles == 200
    return machine


def _load_program_mid_run(kernel):
    """A program loaded while the run is in progress (here by the run's own
    predicate) must unpark the idle cluster it lands on."""
    machine = MMachine(_config(shape=(1, 1, 1), mode="none", kernel=kernel))
    machine.load_hthread(0, 0, 0, _spin(200))

    def load_at_cycle_40(m):
        if m.cycle == 40:
            m.load_hthread(0, 0, 1, "mov i2, #7\nhalt")
        return False

    machine.run(300, until=load_at_cycle_40)
    assert machine.register_value(0, 0, 1, "i2") == 7
    return machine


PARKING_SCENARIOS = {
    "message-queue-push": _message_push,
    "event-queue-push": _event_queue_push,
    "exception-queue-push": _exception_queue_push,
    "cswitch-write": _cswitch_write,
    "local-writeback": _local_writeback,
    "snapshot-restore": _snapshot_restore,
    "predicate-reads-parked-stats": _predicate_reads_parked_stats,
    "send-credits": _send_credits,
    "load-program-mid-run": _load_program_mid_run,
}


class TestClusterParking:
    """The event kernel parks a cluster whose scan issued nothing inside an
    awake node and skips its scans until a wake source stirs it.  Each
    scenario keeps the node awake (a spinner on another cluster) so the
    cluster-level path, not node sleep, carries the wake."""

    @pytest.mark.parametrize("name", sorted(PARKING_SCENARIOS))
    def test_wake_source_matches_naive(self, name):
        machines = _run_both(PARKING_SCENARIOS[name])
        assert machines["event"].kernel.cluster_cycles_parked > 0

    @pytest.mark.parametrize("policy, compile_dispatch", [("hep", True),
                                                         ("event-priority", False)])
    def test_unparkable_configurations_match_naive(self, policy, compile_dispatch):
        """The HEP barrel and the interpreted path never park; the node-level
        dry run still carries them."""
        machines = _run_both(
            lambda kernel: _message_push(kernel, policy, compile_dispatch))
        kernel = machines["event"].kernel
        assert kernel.cluster_cycles_parked == 0
        assert not kernel.parked_clusters
        assert kernel.cycles_skipped > 0

    def test_quiescence_waits_for_local_writebacks(self):
        """Regression: a node with a writeback still in flight is not quiet,
        so the result is visible when run_until_quiescent returns."""
        for kernel in KERNELS:
            machine = MMachine(_config(shape=(1, 1, 1), kernel=kernel))
            machine.load_hthread(0, 0, 0, "fdiv f1, f2, f3\nhalt",
                                 registers={"f2": 7.0, "f3": 2.0})
            assert machine.run_until_quiescent() == 14
            assert machine.register_value(0, 0, 0, "f1") == 3.5
            assert machine.register_full(0, 0, 0, "f1")


# Each wake hook, disabled in turn, with the scenario that depends on it
# (plus parking on a send-credit stall, which no wake source covers): the
# equivalence check must then fail, which shows the scenarios above keep
# their power to catch a missing wake.
def _mute_stir(method):
    """Wrap Cluster.*method* so it leaves the stirred flag as it found it."""
    original = getattr(Cluster, method)

    def muted(self, *args, **kwargs):
        stirred = self._stirred
        result = original(self, *args, **kwargs)
        self._stirred = stirred
        return result

    return muted


def _keep_park_on_restore():
    original = Cluster.load_state_dict

    def keep(self, state):
        parked, since = self._parked, self._parked_from
        original(self, state)
        self._parked, self._parked_from = parked, since

    return keep


def _disguise_credit_stall():
    """Give the out-of-credits stall a reason the scan does not recognise,
    so a cluster blocked on credits parks."""
    original = Cluster._send_ready

    def disguised(self, context, op):
        ready, reason = original(self, context, op)
        return ready, reason + " (disguised)" if "credits" in reason else reason

    return disguised


WAKE_HOOK_MUTATIONS = {
    "queue-push-hook": ("stir", lambda: (lambda self: None),
                        ("message-queue-push", "event-queue-push")),
    "cswitch-receive": ("receive", lambda: _mute_stir("receive"), ("cswitch-write",)),
    "writeback-landing": ("apply_writebacks", lambda: _mute_stir("apply_writebacks"),
                          ("local-writeback",)),
    "load-program": ("load_program", lambda: _mute_stir("load_program"),
                     ("load-program-mid-run",)),
    "load-state-dict": ("load_state_dict", _keep_park_on_restore, ("snapshot-restore",)),
    "park-on-send-credits": ("_send_ready", _disguise_credit_stall, ("send-credits",)),
}


def _diverges(scenario) -> bool:
    naive = scenario("naive")
    try:
        event = scenario("event")
        _compare_machines(naive, event)
    except (AssertionError, TimeoutError):
        return True
    return False


@pytest.mark.parametrize("hook", sorted(WAKE_HOOK_MUTATIONS))
def test_disabling_a_wake_hook_breaks_equivalence(hook, monkeypatch):
    method, make_mutant, scenarios = WAKE_HOOK_MUTATIONS[hook]
    monkeypatch.setattr(Cluster, method, make_mutant())
    for name in scenarios:
        assert _diverges(PARKING_SCENARIOS[name]), f"{name} missed the disabled {hook}"


# The thread bookkeeping is maintained, not rescanned: with any link of the
# state-change notification chain cut (context -> cluster -> node -> event
# kernel), the event kernel must diverge from the naive loop or the
# bookkeeping check must fail.
def _set_state_silently(self, state):
    self.state = state


def _refresh_runnable_only(self, context, previous):
    self._runnable = tuple(ctx.slot for ctx in self.contexts
                           if ctx.state is ThreadState.RUNNABLE)


def _node_count_only(self, delta):
    self.users_unfinished += delta


NOTIFICATION_MUTATIONS = {
    "context-to-cluster": (HThreadContext, "_set_state", _set_state_silently),
    "cluster-user-count": (Cluster, "thread_state_changed", _refresh_runnable_only),
    "node-to-kernel": (Node, "users_changed", _node_count_only),
}


def _blocked_user_thread(kernel):
    """A user thread blocks on a register nothing will fill, and nothing
    else in the machine has work: run_until_user_done must run out its
    budget instead of reporting the users done."""
    machine = MMachine(_config(shape=(1, 1, 1), mode="none", kernel=kernel))
    machine.load_hthread(0, 0, 0, "empty i5\nadd i6, i5, #1\nhalt")
    try:
        machine.run_until_user_done(max_cycles=500)
    except TimeoutError:
        return machine
    raise AssertionError(f"users reported done at cycle {machine.cycle}")


def _breaks(scenario) -> bool:
    try:
        _run_both(scenario)
    except (AssertionError, TimeoutError):
        return True
    return False


@pytest.mark.parametrize("link", sorted(NOTIFICATION_MUTATIONS))
def test_cutting_a_state_notification_is_caught(link, monkeypatch):
    owner, method, mutant = NOTIFICATION_MUTATIONS[link]
    monkeypatch.setattr(owner, method, mutant)
    for scenario in (_blocked_user_thread, _snapshot_restore):
        assert _breaks(scenario), f"{scenario.__name__} missed the cut {link}"


def test_blocked_user_thread_matches_naive():
    machines = _run_both(_blocked_user_thread)
    assert machines["event"].cycle == 500
