"""Table III fidelity: the paper's 4-core configuration.

The main evaluation machine has 4 cores sharing the L3, the memory
controller, and one DDR4 channel.  This bench re-checks the headline
comparison (TMCC vs Compresso at iso-capacity) with four concurrent
request streams: sharing *increases* pressure on the CTE cache and DRAM
queues, which is the regime TMCC was designed for.
"""

from conftest import print_table

from repro.common.stats import geomean
from repro.sim.simulator import Simulator


def test_four_core_iso_capacity(benchmark, cache, workload_names):
    names = [n for n in workload_names
             if n in ("shortestPath", "mcf", "canneal")] or \
        list(workload_names)[:2]

    def compute():
        rows = []
        speedups = []
        for name in names:
            workload = cache.workload(name)
            compresso = Simulator(
                workload, controller="compresso", cores=4,
                placement_drift=0.0,
                system=cache.system, model=cache.model(name),
            ).run()
            tmcc = Simulator(
                workload, controller="tmcc", cores=4, placement_drift=0.0,
                system=cache.system, model=cache.model(name),
                dram_budget_bytes=compresso.dram_used_bytes,
            ).run()
            speedup = tmcc.performance / compresso.performance
            speedups.append(speedup)
            rows.append((
                name, f"{speedup:.3f}",
                f"{compresso.avg_l3_miss_latency_ns:.0f} ns",
                f"{tmcc.avg_l3_miss_latency_ns:.0f} ns",
                f"{compresso.bandwidth_utilization:.1%}",
            ))
        return rows, speedups

    rows, speedups = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows.append(("geomean", f"{geomean(speedups):.3f}", "", "", ""))
    print_table(
        "4-core iso-capacity: TMCC vs Compresso (Table III machine)",
        ("workload", "speedup", "Compresso lat", "TMCC lat", "bandwidth"),
        rows,
    )
    assert geomean(speedups) > 1.03
