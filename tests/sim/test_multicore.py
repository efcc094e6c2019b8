"""Tests for multi-core runs: ``Simulator(workload, cores=N)``.

Multi-core runs place pages without warm-up drift (``placement_drift=0``).
"""

import pytest

from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("canneal", max_accesses=24_000, scale=0.12)


def machine(workload, cores, **kwargs):
    """The ``cores``-core machine as the multi-core tests build it."""
    return Simulator(workload, cores=cores, placement_drift=0.0, **kwargs)


def test_validation(workload):
    with pytest.raises(ValueError):
        machine(workload, 0)
    with pytest.raises(ValueError):
        machine(workload, 4, controller="warp-drive")


def test_multicore_rejects_huge_pages(workload):
    with pytest.raises(ValueError, match="one core"):
        Simulator(workload, cores=2, huge_pages=True)


def test_multicore_rejects_virtualized(workload):
    with pytest.raises(ValueError, match="one core"):
        Simulator(workload, cores=2, virtualized=True)


def test_four_cores_complete_the_whole_trace(workload):
    result = machine(workload, 4, controller="uncompressed").run()
    assert result.accesses == int(workload.access_count * 0.8)
    assert result.elapsed_ns > 0


def test_aggregate_throughput_scales_with_cores(workload):
    """Four concurrent streams finish faster than one serial stream."""
    one = machine(workload, 1, controller="uncompressed").run()
    four = machine(workload, 4, controller="uncompressed").run()
    assert four.performance > 1.5 * one.performance


def test_shared_resources_create_contention(workload):
    """Per-core efficiency drops going 1 -> 4 cores (DRAM/L3 sharing)."""
    one = machine(workload, 1, controller="uncompressed").run()
    four = machine(workload, 4, controller="uncompressed").run()
    assert four.performance < 4.2 * one.performance


def test_tmcc_still_beats_compresso_at_four_cores(workload):
    compresso = machine(workload, 4, controller="compresso").run()
    tmcc = machine(
        workload, 4, controller="tmcc",
        dram_budget_bytes=compresso.dram_used_bytes,
    ).run()
    assert tmcc.performance > compresso.performance
    assert tmcc.avg_l3_miss_latency_ns < compresso.avg_l3_miss_latency_ns


def test_multicore_determinism(workload):
    a = machine(workload, 2, controller="tmcc", seed=9).run()
    b = machine(workload, 2, controller="tmcc", seed=9).run()
    assert a.elapsed_ns == b.elapsed_ns
    assert a.l3_misses == b.l3_misses


def test_multicore_vs_singlecore_same_memory_system(workload):
    """The default single-core Simulator and the one-core machine without
    placement drift agree on the broad translation statistics."""
    single = Simulator(workload, controller="compresso").run()
    multi = machine(workload, 1, controller="compresso").run()
    assert multi.cte_hit_rate == pytest.approx(single.cte_hit_rate, abs=0.15)


def test_warmup_is_excluded_from_statistics():
    """Every reported statistic covers the measured accesses only: each
    access makes one TLB lookup, so the per-core TLB totals sum to the
    measured access count."""
    workload = workload_by_name("mcf", max_accesses=1000, scale=0.12)
    sim = machine(workload, 2, controller="tmcc")
    result = sim.run()
    assert result.accesses == 800
    assert sum(core.tlb.stats.total for core in sim.cores) == result.accesses


def test_cores_share_the_l3_and_keep_private_l1s(workload):
    sim = machine(workload, 4)
    assert len({id(core.hierarchy.l3) for core in sim.cores}) == 1
    assert len({id(core.hierarchy.l1) for core in sim.cores}) == 4
    assert len({id(core.tlb) for core in sim.cores}) == 4


def test_multicore_counts_figure5_and_data_misses():
    """The shared loop gives multi-core runs the single-core counters."""
    workload = workload_by_name("omnetpp", max_accesses=3000, scale=0.05)
    result = machine(workload, 4, controller="compresso", seed=3).run()
    assert 0 < result.l3_data_misses <= result.l3_misses
    assert result.tlb_misses == result.metrics["sim.tlb_misses"]
    assert result.cte_misses > 0
    assert 0.0 < result.cte_misses_after_tlb_miss <= 1.0
