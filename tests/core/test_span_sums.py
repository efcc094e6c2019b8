"""Span-record invariants of the real controllers' miss paths.

Every served LLC miss describes itself as span records; a traced run
promotes them into ``llc_miss`` spans with one ``stage`` child per
record.  Over traced runs of every registered controller, a budgeted
TMCC run (ML2 traffic, stale embedded CTEs) and a resilience-enabled
free-space-exhaustion run (emergency evictions), two laws must hold:

- the critical stage children of each miss sum to its duration;
- only TMCC's speculative data fetch is ever marked wasted.
"""

import pytest

from repro.core import available_controllers
from repro.sim.faults import FaultPlan
from repro.sim.simulator import Simulator
from repro.sim.tracing import CATEGORY_MISS, CATEGORY_STAGE, SpanTracer
from repro.workloads.suite import workload_by_name

#: (label, controller, budget fraction of the footprint, fault plan)
RUNS = [(name, name, None, None) for name in available_controllers()] + [
    ("tmcc_budgeted", "tmcc", 0.6, None),
    ("tmcc_ml2_exhaustion", "tmcc", 0.6, "ml2_exhaustion:0.1"),
]


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("mcf", max_accesses=3000, scale=0.12)


def traced_misses(workload, controller, budget_fraction, faults):
    budget = None
    if budget_fraction is not None:
        budget = int(workload.footprint_pages * 4096 * budget_fraction)
    sim = Simulator(workload, controller=controller, seed=3,
                    dram_budget_bytes=budget,
                    fault_plan=FaultPlan.parse(faults) if faults else None)
    tracer = sim.attach_tracer(SpanTracer(sample_every=1,
                                          buffer_spans=1 << 20))
    sim.run()
    spans = tracer.spans()
    children = {}
    for span in spans:
        if span.category == CATEGORY_STAGE:
            children.setdefault(span.parent_id, []).append(span)
    misses = [span for span in spans
              if span.category == CATEGORY_MISS and span.name == "llc_miss"]
    return [(miss, children.get(miss.span_id, [])) for miss in misses], sim


@pytest.mark.parametrize("label,controller,budget_fraction,faults", RUNS,
                         ids=[run[0] for run in RUNS])
def test_critical_stages_sum_to_miss_latency(workload, label, controller,
                                             budget_fraction, faults):
    misses, sim = traced_misses(workload, controller, budget_fraction,
                                faults)
    assert misses, "the traced run served no LLC misses"
    for miss, stages in misses:
        assert stages, f"{miss.args['path']} miss recorded no stages"
        critical = sum(stage.duration_ns for stage in stages
                       if stage.args["critical"])
        assert abs(critical - miss.duration_ns) < 1e-9, (
            miss.args, [(s.name, s.duration_ns, s.args) for s in stages])
        for stage in stages:
            if stage.args["wasted"]:
                assert stage.name == "spec_data_fetch", stage
    if faults:
        stage_names = {stage.name for _, stages in misses for stage in stages}
        assert "emergency_evict" in stage_names
        # Migrations leave embedded CTEs stale: the mismatch path runs.
        assert "spec_data_fetch" in stage_names
        assert sim.controller.resilience.stats.count_of(
            "emergency_evictions") > 0
