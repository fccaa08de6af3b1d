"""Tests of the simulator benchmark itself (small sizes, a few seconds).

They show that each input generator is a pure function of its seed, that
each workload's check fails on a corrupted output, and that the traced run
leaves every wrapped class and module as it found it.
"""

from __future__ import annotations

import random
import signal
import statistics
import sys
import time

import pytest

import bench_driver
import bench_layers
import bench_workloads
from repro.isa.registers import parse_register

SMALL = {
    "busy-mesh": {"mesh": (2, 1, 1), "iterations": 4},
    "remote-reads": {"mesh": (2, 2, 1), "readers": 2, "hops": 5},
    "store-flood": {"mesh": (2, 2, 1), "senders": 2, "stores": 5, "hot": 1},
}


def run_small(name: str, seed: int = 3):
    workload = bench_workloads.WORKLOADS[name]
    inputs = workload.generate(seed, **SMALL[name])
    scenario = workload.setup(inputs, "")
    scenario.run()
    return workload, inputs, scenario


def corrupt_register(machine, node: int, cluster: int, register: str, value) -> None:
    registers = machine.nodes[node].context(0, cluster).registers
    registers.write(parse_register(register), value)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_a_pure_function_of_the_seed(name):
    workload = bench_workloads.WORKLOADS[name]
    first = workload.generate(5, **SMALL[name])
    random.seed(123)  # the global stream must not matter
    random.random()
    assert workload.generate(5, **SMALL[name]) == first
    assert workload.generate(6, **SMALL[name]) != first


def test_default_sizes_differ_per_seed_and_repeat():
    for name in SMALL:
        workload = bench_workloads.WORKLOADS[name]
        assert workload.generate(0) == workload.generate(0)
        assert workload.generate(0) != workload.generate(1)


def test_busy_mesh_check_fails_on_a_corrupted_checksum():
    workload, inputs, scenario = run_small("busy-mesh")
    assert scenario.check().failures == []
    corrupt_register(scenario.machine, 1, 2, "i7", 12345)
    failures = scenario.check().failures
    assert len(failures) == 1 and "node 1 cluster 2" in failures[0]


def test_remote_reads_check_fails_on_a_wrong_final_pointer():
    workload, inputs, scenario = run_small("remote-reads")
    result = scenario.check()
    assert result.failures == [] and result.attempted == 2 * len(inputs.chains)
    reader = inputs.chains[0].reader
    corrupt_register(scenario.machine, reader, 0, "i1", inputs.chains[0].terminal + 1)
    failures = scenario.check().failures
    assert len(failures) == 1 and "final pointer" in failures[0]


def test_store_flood_check_fails_on_an_overwritten_word():
    workload, inputs, scenario = run_small("store-flood")
    assert scenario.check().failures == []
    address = inputs.flows[-1].address + 2
    scenario.machine.write_word(address, 7)
    failures = scenario.check().failures
    assert len(failures) == 1 and f"{address:#x}" in failures[0]


def test_store_flood_check_counts_accepted_stores():
    workload, inputs, scenario = run_small("store-flood")
    outputs = workload.outputs(scenario.machine, inputs)
    outputs["accepted"] += 1  # a duplicated delivery
    assert len(workload.check(inputs, outputs).failures) == 1


def test_paper_figures_check_fails_on_an_unverified_run_or_a_failed_expectation(tmp_path):
    workload = bench_workloads.WORKLOADS["paper-figures"]
    scenario = workload.setup(workload.generate(0), str(tmp_path))
    scenario.run()
    result = scenario.check()
    assert result.failures == []
    assert result.attempted == len(scenario.expected_runs) + len(scenario.rows)
    accuracy = scenario.accuracy()
    assert accuracy["report.paper_values"] > 0 and accuracy["report.paper_max_rel_err"] > 0
    assert accuracy["report.expectations_ok"] == len(scenario.rows)

    records = [dict(record) for record in scenario.records]
    records[0] = dict(records[0], status="failed")
    rows = list(scenario.rows)
    rows[-1] = bench_workloads.compare.CheckRow(
        key=rows[-1].key, section="", paper=None, lo=0, hi=1, measured=[2.0],
        status=bench_workloads.compare.FAIL)
    failures = bench_workloads.check_paper(scenario.expected_runs, records, rows).failures
    assert len(failures) == 2


def _wrapped_state():
    """Identity of every attribute the profiler may replace."""
    state = {}
    for owner, name in bench_layers.wrapped_targets():
        state[(id(owner), name)] = owner.__dict__.get(name)
    for module in list(sys.modules.values()):
        for _, name, _ in bench_layers.FUNCTIONS:
            if name in getattr(module, "__dict__", {}):
                state[(id(module), name)] = module.__dict__[name]
    return state


def test_traced_run_restores_every_wrapped_class_and_module(tmp_path):
    bench_layers.import_all_repro_modules()
    before = _wrapped_state()
    workload = bench_workloads.WORKLOADS["remote-reads"]
    inputs = workload.generate(2, **SMALL["remote-reads"])
    untraced = bench_driver.one_rep(workload, inputs, str(tmp_path))
    with bench_layers.LayerProfiler() as profiler:
        assert bench_layers.Node.tick is not before[(id(bench_layers.Node), "tick")]
        traced = bench_driver.one_rep(workload, inputs, str(tmp_path), profiler)
    after = _wrapped_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    assert traced.digest == untraced.digest
    layers = traced.layers
    assert layers["node.tick_calls"] == layers["scheduler.node_ticks"] > 0
    assert layers["network.messages"] == 2 * sum(len(c.cells) for c in inputs.chains)
    assert layers["cluster.issue_calls"] > 0 and layers["trace.events"] > 0
    names = [span["name"] for span in profiler.spans]
    assert names[:4] == ["rep:remote-reads", "setup", "run", "check"]
    assert all(span["end"] is not None for span in profiler.spans)


def test_profiler_self_times_add_up_without_double_counting():
    profiler = bench_layers.LayerProfiler(clock=iter(range(100)).__next__)
    outer_stat, inner_stat = profiler.stat("outer"), profiler.stat("inner")
    inner = profiler._plain(lambda: None, inner_stat)
    outer = profiler._plain(lambda: inner(), outer_stat)
    outer()
    # Fake clock: outer starts at 0, inner runs 1..2, outer ends at 3.
    assert outer_stat[:3] == [1, 3, 2] and inner_stat[:3] == [1, 1, 1]


def test_host_reference_samples_on_a_timer_and_restores_the_alarm_handler(tmp_path):
    reference = bench_driver.HostReference(cells=1000)
    cell, seen = reference.graph[0], set()
    for _ in range(1000):
        seen.add(id(cell))
        cell = cell.peer
    assert cell is reference.graph[0] and len(seen) == 1000

    previous = signal.getsignal(signal.SIGALRM)
    workload = bench_workloads.WORKLOADS["busy-mesh"]
    inputs = workload.generate(3, **SMALL["busy-mesh"])
    plain = bench_driver.one_rep(workload, inputs, str(tmp_path))
    with reference:
        deadline = time.perf_counter() + 40 * bench_driver.REF_INTERVAL_S
        while len(reference.samples) < 3 and time.perf_counter() < deadline:
            pass
        sampled = bench_driver.one_rep(workload, inputs, str(tmp_path), reference=reference)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(reference.samples) >= 3
    assert reference.tally == (len(reference.samples), pytest.approx(sum(reference.samples)))
    assert reference.speed() == pytest.approx(
        statistics.fmean(bench_driver.REF_NOMINAL_S / elapsed for elapsed in reference.samples))
    assert sampled.digest == plain.digest and not sampled.check.failures
    assert all(speed > 0 for speed in sampled.speed) and plain.speed == (1.0, 1.0, 1.0)
