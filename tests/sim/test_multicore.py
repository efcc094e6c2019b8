"""Tests for the multi-core simulator."""

import pytest

from repro.sim.multicore import MultiCoreSimulator
from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("canneal", max_accesses=24_000, scale=0.12)


def test_validation(workload):
    with pytest.raises(ValueError):
        MultiCoreSimulator(workload, num_cores=0)
    with pytest.raises(ValueError):
        MultiCoreSimulator(workload, controller="warp-drive")


def test_four_cores_complete_the_whole_trace(workload):
    result = MultiCoreSimulator(workload, num_cores=4,
                                controller="uncompressed").run()
    assert result.accesses == int(workload.access_count * 0.8)
    assert result.elapsed_ns > 0


def test_aggregate_throughput_scales_with_cores(workload):
    """Four concurrent streams finish faster than one serial stream."""
    one = MultiCoreSimulator(workload, num_cores=1,
                             controller="uncompressed").run()
    four = MultiCoreSimulator(workload, num_cores=4,
                              controller="uncompressed").run()
    assert four.performance > 1.5 * one.performance


def test_shared_resources_create_contention(workload):
    """Per-core efficiency drops going 1 -> 4 cores (DRAM/L3 sharing)."""
    one = MultiCoreSimulator(workload, num_cores=1,
                             controller="uncompressed").run()
    four = MultiCoreSimulator(workload, num_cores=4,
                              controller="uncompressed").run()
    assert four.performance < 4.2 * one.performance


def test_tmcc_still_beats_compresso_at_four_cores(workload):
    compresso = MultiCoreSimulator(workload, num_cores=4,
                                   controller="compresso").run()
    tmcc = MultiCoreSimulator(
        workload, num_cores=4, controller="tmcc",
        dram_budget_bytes=compresso.dram_used_bytes,
    ).run()
    assert tmcc.performance > compresso.performance
    assert tmcc.avg_l3_miss_latency_ns < compresso.avg_l3_miss_latency_ns


def test_multicore_determinism(workload):
    a = MultiCoreSimulator(workload, num_cores=2, controller="tmcc",
                           seed=9).run()
    b = MultiCoreSimulator(workload, num_cores=2, controller="tmcc",
                           seed=9).run()
    assert a.elapsed_ns == b.elapsed_ns
    assert a.l3_misses == b.l3_misses


def test_multicore_vs_singlecore_same_memory_system(workload):
    """The single-core Simulator and a 1-core MultiCoreSimulator agree on
    the broad translation statistics."""
    single = Simulator(workload, controller="compresso").run()
    multi = MultiCoreSimulator(workload, num_cores=1,
                               controller="compresso").run()
    assert multi.cte_hit_rate == pytest.approx(single.cte_hit_rate, abs=0.15)


def test_warmup_is_excluded_from_statistics():
    """Every reported statistic covers the measured accesses only: each
    access makes one TLB lookup, so the per-core TLB totals sum to the
    measured access count."""
    workload = workload_by_name("mcf", max_accesses=1000, scale=0.12)
    sim = MultiCoreSimulator(workload, num_cores=2, controller="tmcc")
    result = sim.run()
    assert result.accesses == 800
    assert sum(core.tlb.stats.total for core in sim.cores) == result.accesses
