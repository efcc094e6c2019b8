"""The replay loop's contract: pinned goldens and the observer law.

The simulator has one replay loop (``repro.sim.replay``).  Unobserved,
it replays TLB-hit runs and L1-hit windows in bulk (the fast path);
with a per-access observer attached it steps one access at a time (the
slow path).  Both must render the same bytes.

The goldens are SHA-256 digests of the full ``repro run --emit-json``
document (result dict, namespaced metric tree and run config, rendered
exactly as the CLI prints it) for omnetpp at 3000 accesses, scale 0.05,
seed 3.  They were recorded while the simulator still carried a second,
instrumented replay loop, and both loops rendered these same bytes.

The law: an observer watches a run, it never steers one.  A span
tracer, a time-series recorder, a run supervisor with a heartbeat, a
dormant fault plan or an event-bus subscriber leaves the document
byte-identical to the unobserved run's.
"""

import hashlib
import json

import pytest

from repro.core import available_controllers
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.instrument import nest_metrics
from repro.sim.simulator import Simulator
from repro.sim.supervisor import RunSupervisor
from repro.sim.timeseries import TimeSeriesRecorder
from repro.sim.tracing import SpanTracer
from repro.workloads.suite import workload_by_name

ACCESSES = 3_000
SCALE = 0.05
SEED = 3

#: One unbudgeted run per registered controller.
CONTROLLER_DIGESTS = {
    "compresso":
        "00608630a3768390dfd5e118c9677cabda51e3ced9a26e1ad3728a7d9b11d97b",
    "compresso_llc_victim":
        "e4f64c825b673a222cff4aef11efcf182b08e5814f4746dd6629d82593d7f617",
    "osinspired":
        "cb5e5b8764e5b82ed002fe08cc108819dfba9cc4e97443079dd0491e8a9cc3b7",
    "osinspired_fastml2":
        "373c34e499ff2b92d2b6c2eb6c4833ca36baec2bde02b8c9661e3ed348132e63",
    "tmcc":
        "3989b3952fedc342289af35e2a0e5de17eef6bdf419265f3c975ff7b1e8ac529",
    "uncompressed":
        "293d6d123b135cbf47816fe9b84486577c980e3335eed212a94c510e01736167",
}

#: tmcc cells: at Compresso's DRAM usage (so pages live in ML2), the
#: same with resilience armed, with huge pages, and inside a VM.
CELL_DIGESTS = {
    "budgeted":
        "1c8f31ffc691c9c32d876c8f1afab979d9077c297ed21edfbccf7149e611de22",
    "budgeted-resilient":
        "8f3f6869f3ee13f21e93d814ea6cc6aa595a669604b802584f70dcc07f152d1c",
    "huge-pages":
        "6e8439f0b64b43e1b454a24528ecd0c8e8c3169a9b55223e285de84c979a69f9",
    "virtualized":
        "7ed3dcacb4f86bd7221ffaf1cb0f151d24ad2ddbebee9c744683083df17dec8d",
}

#: A fault plan whose only window opens after the trace ends.
DORMANT_PLAN = FaultPlan((FaultSpec("stale_cte", rate=1.0,
                                    start=ACCESSES),))


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("omnetpp", max_accesses=ACCESSES, scale=SCALE)


def render(sim, result) -> bytes:
    """The exact bytes ``repro run --emit-json`` would print."""
    record = result.as_dict()
    record["metrics_tree"] = nest_metrics(result.metrics)
    record["run_config"] = sim.describe_run()
    return json.dumps(record, indent=2, sort_keys=True).encode()


_DOCUMENTS = {}


def unobserved(workload, controller: str, **kwargs) -> bytes:
    """The unobserved run's document, computed once per configuration."""
    key = (controller, tuple(sorted(kwargs.items())))
    if key not in _DOCUMENTS:
        sim = Simulator(workload, controller=controller, seed=SEED, **kwargs)
        _DOCUMENTS[key] = render(sim, sim.run())
    return _DOCUMENTS[key]


def stepped(workload, controller: str, **kwargs) -> bytes:
    """The same run stepped one access at a time (a tracer attached)."""
    sim = Simulator(workload, controller=controller, seed=SEED, **kwargs)
    sim.attach_tracer(SpanTracer(sample_every=64))
    return render(sim, sim.run())


def assert_pinned(workload, controller: str, expected: str,
                  **kwargs) -> bytes:
    document = unobserved(workload, controller, **kwargs)
    assert hashlib.sha256(document).hexdigest() == expected
    assert stepped(workload, controller, **kwargs) == document
    return document


def cell_kwargs(workload, cell: str) -> dict:
    budget = json.loads(unobserved(workload, "compresso"))["dram_used_bytes"]
    return {
        "budgeted": {"dram_budget_bytes": budget},
        "budgeted-resilient": {"dram_budget_bytes": budget,
                               "resilience": True},
        "huge-pages": {"huge_pages": True},
        "virtualized": {"virtualized": True},
    }[cell]


def test_every_controller_is_pinned():
    assert sorted(CONTROLLER_DIGESTS) == sorted(available_controllers())


@pytest.mark.parametrize("controller", available_controllers())
def test_emit_json_byte_identical_fast_vs_slow(workload, controller):
    assert_pinned(workload, controller, CONTROLLER_DIGESTS[controller])


def test_budgeted_tmcc_exercises_ml2_and_stays_identical(workload):
    """A DRAM budget forces pages into ML2; the replay must run the
    decompress path, migrations, and ML2 stats bit for bit."""
    document = assert_pinned(workload, "tmcc", CELL_DIGESTS["budgeted"],
                             **cell_kwargs(workload, "budgeted"))
    assert json.loads(document)["metrics"]["controller.ml2_accesses"] > 0


@pytest.mark.parametrize("cell", ["budgeted-resilient", "huge-pages",
                                  "virtualized"])
def test_tmcc_cell_is_pinned(workload, cell):
    assert_pinned(workload, "tmcc", CELL_DIGESTS[cell],
                  **cell_kwargs(workload, cell))


def test_fast_path_auto_falls_back_with_observers(workload):
    """A span tracer sees every access: the loop steps one at a time."""
    sim = Simulator(workload, controller="tmcc", seed=SEED)
    tracer = sim.attach_tracer(SpanTracer(sample_every=64))
    sim.run()
    assert tracer.summary()["accesses_seen"] == len(workload.trace)
    assert tracer.traces_recorded == -(-len(workload.trace) // 64)
    names = {span.name for span in tracer.spans()}
    assert {"access", "page_walk", "llc_miss"} <= names


# ----------------------------------------------------------------------
# Observer neutrality (the span tracer is covered by the goldens above)
# ----------------------------------------------------------------------

def recorded(sim, tmp_path):
    sim.attach_timeseries(TimeSeriesRecorder(sim.context.metrics, 5_000.0))
    return sim.run()


def supervised(sim, tmp_path):
    beats = []
    supervisor = RunSupervisor(checkpoint_path=str(tmp_path / "ck.pkl"),
                               checkpoint_every=500,
                               heartbeat=lambda: beats.append(1))
    result = supervisor.run(sim)
    assert supervisor.checkpoints_written > 0 and beats
    return result


def subscribed(sim, tmp_path):
    events = []
    sim.context.bus.subscribe_all(events.append)
    result = sim.run()
    assert events
    return result


OBSERVERS = {
    "timeseries": recorded,
    "supervisor": supervised,
    "bus-subscriber": subscribed,
}


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("controller", available_controllers())
def test_observer_leaves_the_document_unchanged(workload, tmp_path,
                                                controller, observer):
    sim = Simulator(workload, controller=controller, seed=SEED)
    result = OBSERVERS[observer](sim, tmp_path)
    assert render(sim, result) == unobserved(workload, controller)


@pytest.mark.parametrize("controller", available_controllers())
def test_dormant_fault_plan_leaves_the_document_unchanged(workload,
                                                          controller):
    sim = Simulator(workload, controller=controller, seed=SEED,
                    fault_plan=DORMANT_PLAN)
    assert render(sim, sim.run()) == unobserved(workload, controller)
