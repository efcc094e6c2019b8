"""Allocation discipline of the per-access hot path.

Two properties keep the replay loop cheap:

1. the per-access record types carry ``__slots__`` (no ``__dict__``),
   so the instances that still exist stay small -- pinned here with a
   tracemalloc footprint measurement;
2. the replay loop builds no ``AccessResult``, and builds a miss's
   timeline only for a span tracer -- pinned by counting constructions
   of the record objects.
"""

import tracemalloc

import pytest

from repro.cache.hierarchy import AccessResult
from repro.cache.sa_cache import CacheLine
from repro.core.base import MissResult
from repro.core.pipeline import ServiceTimeline, StageSpan
from repro.dram.system import ReadResult
from repro.sim.simulator import Simulator
from repro.sim.timeseries import TimeSeriesRecorder
from repro.sim.tracing import SpanTracer
from repro.workloads.suite import workload_by_name

HOT_INSTANCES = [
    CacheLine(block=1),
    AccessResult(hit_level="l1", latency_cycles=3, l3_miss=False),
    MissResult(latency_ns=1.0, path="cte_hit"),
    ReadResult(latency_ns=1.0, queue_ns=0.0, bank_ns=1.0, row_hit=True,
               mc=0, channel=0),
]


@pytest.mark.parametrize("instance", HOT_INSTANCES,
                         ids=lambda i: type(i).__name__)
def test_hot_per_access_classes_have_no_dict(instance):
    assert not hasattr(instance, "__dict__")
    assert hasattr(type(instance), "__slots__")


def test_cacheline_allocation_footprint():
    """tracemalloc: a slotted CacheLine stays well under the ~160+
    bytes a ``__dict__``-bearing instance would cost."""
    count = 10_000
    tracemalloc.start()
    lines = [CacheLine(block) for block in range(count)]
    size, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_instance = size / len(lines)
    assert per_instance < 120, f"{per_instance:.0f} bytes per CacheLine"


def count_records(monkeypatch):
    """Count constructions of the per-access record types."""
    counts = {cls.__name__: 0
              for cls in (AccessResult, ServiceTimeline, StageSpan)}
    for cls in (AccessResult, ServiceTimeline, StageSpan):
        original = cls.__init__

        def counting_init(self, *args, _original=original,
                          _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_fast_loop_constructs_no_per_access_records(monkeypatch):
    """An unobserved run never builds the per-access record objects:
    ``AccessResult`` (``CacheHierarchy.access``) or a miss's
    ``ServiceTimeline``/``StageSpan`` decomposition."""
    counts = count_records(monkeypatch)
    workload = workload_by_name("omnetpp", max_accesses=2_000, scale=0.05)
    result = Simulator(workload, controller="tmcc", seed=3).run()
    assert result.l3_misses > 0
    assert counts == {"AccessResult": 0, "ServiceTimeline": 0,
                      "StageSpan": 0}


def test_untraced_instrumented_run_builds_no_timeline(monkeypatch):
    """Timelines are built from span records only for an active span
    tracer: a run stepped one access at a time by another observer
    builds none, a traced run builds them."""
    counts = count_records(monkeypatch)
    workload = workload_by_name("omnetpp", max_accesses=2_000, scale=0.05)
    recorded = Simulator(workload, controller="tmcc", seed=3)
    recorded.attach_timeseries(
        TimeSeriesRecorder(recorded.context.metrics, 5_000.0))
    recorded.run()
    assert recorded.timeseries.rows
    assert counts == {"AccessResult": 0, "ServiceTimeline": 0,
                      "StageSpan": 0}

    traced = Simulator(workload, controller="tmcc", seed=3)
    traced.attach_tracer(SpanTracer(sample_every=1))
    traced.run()
    assert counts["AccessResult"] == 0
    assert counts["ServiceTimeline"] > 0
    assert counts["StageSpan"] > 0
