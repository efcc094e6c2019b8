"""Pinned ``--cores 4`` documents: the 4-core machine on the one loop.

The digests are SHA-256 of the ``repro run omnetpp --cores 4 --accesses
3000 --scale 0.05 --seed 3 --emit-json`` document of every controller,
and of budgeted tmcc (``dram_budget_bytes`` = compresso's usage) through
the Python API.  They were recorded from the separate multi-core engine
that ``Simulator(cores=N)`` replaced, over that engine's key set:

* the keys it never emitted are dropped before hashing, and the test
  asserts they are present, controller by controller (:data:`ADDED`);
* the :class:`~repro.sim.results.SimResult` fields it left at their
  defaults are dropped too (:data:`FILLED`): the shared loop counts
  data misses, CTE misses and Figure 5 for every core count.

``metrics_tree`` is rebuilt from the remaining flat metrics, the way the
CLI builds it.  Every value the old engine reported must match exactly.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.core import available_controllers
from repro.sim.instrument import nest_metrics
from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name

ARGV = ["run", "omnetpp", "--cores", "4", "--accesses", "3000",
        "--scale", "0.05", "--seed", "3", "--emit-json"]

DIGESTS = {
    "compresso":
        "e2a350e6fdb6dbbb3027c0b14faeb9a5144fb2f20e92164bde80cf24750c5a4a",
    "compresso_llc_victim":
        "8b8b1d48b695aea3ffb6fb0eb4cec41593a81a560c07710618bda40e0b1d604c",
    "osinspired":
        "4985cf22098a0b01f120341a981f220a2367500e6d88d9a0eb66f6d9f29ddc93",
    "osinspired_fastml2":
        "47be7fa48f5ff4b1b7a05774c651022498c1ade66ef0b6c8ce58f03e11884183",
    "tmcc":
        "c325c34d111d7a02a262f65f3a8a2838ecbe3de3d473037124d8d1dfd8c3c141",
    "uncompressed":
        "9c768e54b10bd5c59a26d74590776517cf19f077974b11f616a2e335c2f69039",
    "tmcc-budgeted":
        "367a30c3e6b425dc71e57aeeeec6dfc150b775a4e40f0482555b2ddbef818e7a",
}

#: Result fields the old engine left at their defaults.
FILLED = ("cte_misses", "cte_misses_after_tlb_miss",
          "cte_misses_per_l3_miss", "extra", "l3_data_misses",
          "tlb_misses_per_l3_miss")

_EVERY_CONTROLLER = (
    [f"core{i}.walker.ptb_fetches.value" for i in range(4)]
    + ["sim.fig5_after_tlb", "sim.fig5_cte_misses", "sim.l3_data_misses",
       "sim.now_ns", "sim.tlb_misses"])
_TWO_LEVEL = _EVERY_CONTROLLER + [
    "controller.migration.stall_ns.count",
    "controller.migration.stall_ns.mean",
    "controller.migration.stalls.value",
    "controller.ml2.access_rate",
    "controller.ml2.ml1_pages",
    "controller.ml2.ml2_pages",
]

#: Metric keys the old engine never emitted.
ADDED = {
    "compresso": _EVERY_CONTROLLER,
    "compresso_llc_victim": _EVERY_CONTROLLER,
    "osinspired": _TWO_LEVEL,
    "osinspired_fastml2": _TWO_LEVEL,
    "tmcc": _TWO_LEVEL,
    "uncompressed": _EVERY_CONTROLLER,
    "tmcc-budgeted": _TWO_LEVEL,
}


def digest_over_pinned_keys(document: dict, cell: str) -> str:
    assert document["run_config"]["cores"] == 4
    document = {key: value for key, value in document.items()
                if key not in FILLED and key != "run_config"}
    metrics = document["metrics"]
    missing = [key for key in ADDED[cell] if key not in metrics]
    assert not missing, missing
    document["metrics"] = {key: value for key, value in metrics.items()
                           if key not in ADDED[cell]}
    document["metrics_tree"] = nest_metrics(document["metrics"])
    return hashlib.sha256(
        json.dumps(document, indent=2, sort_keys=True).encode()).hexdigest()


def cli_document(capsys, controller: str) -> dict:
    assert main(ARGV + ["--controller", controller]) == 0
    return json.loads(capsys.readouterr().out)


def test_every_controller_is_pinned():
    assert sorted(DIGESTS) == sorted(available_controllers()
                                     + ["tmcc-budgeted"])


@pytest.mark.parametrize("controller", available_controllers())
def test_cli_four_core_document_is_pinned(capsys, controller):
    document = cli_document(capsys, controller)
    assert digest_over_pinned_keys(document, controller) == \
        DIGESTS[controller]


def test_budgeted_tmcc_four_core_document_is_pinned(capsys):
    budget = cli_document(capsys, "compresso")["dram_used_bytes"]
    workload = workload_by_name("omnetpp", max_accesses=3000, scale=0.05)
    sim = Simulator(workload, controller="tmcc", seed=3, cores=4,
                    placement_drift=0.0, dram_budget_bytes=budget)
    result = sim.run()
    document = result.as_dict()
    document["metrics_tree"] = nest_metrics(result.metrics)
    document["run_config"] = sim.describe_run()
    assert document["extra"]["ml2_pages"] > 0
    assert digest_over_pinned_keys(document, "tmcc-budgeted") == \
        DIGESTS["tmcc-budgeted"]
