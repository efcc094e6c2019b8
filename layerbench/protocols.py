"""The benchmark's workloads, each run as passes over the public API.

A pass is one closed-loop caller that waits for each cell in turn: a
cell is one (workload, controller, DRAM budget) simulation.  Budgets
are fractions of the usage Compresso measured on the same workload, so
the Compresso cell of a workload runs before the cells it anchors.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.simulator import Simulator
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.telemetry import build_snapshot, read_journal
from repro.sweep.worker import clear_model_cache
from repro.workloads.suite import clear_workload_cache, workload_by_name

from tracing import ReplaySampler, Spans, duration

ACCESSES = 60_000
#: The controller whose unbudgeted cell anchors fractional budgets.
REFERENCE = "compresso"
#: Pool size of ``sweep-pool``: fixed, so runs on hosts with more cores
#: measure the same schedule.
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Protocol:
    workloads: Tuple[str, ...]
    scale: float
    #: (controller, budget as a fraction of the reference usage or None).
    cells: Tuple[Tuple[str, Optional[float]], ...]


#: Figure 18: TMCC at Compresso's measured budget.  canneal is
#: miss-chain heavy (37% L1 hits), omnetpp front-end heavy (71%).
FIG18_ISO = Protocol(
    ("canneal", "pageRank", "omnetpp"), 1.0,
    (("uncompressed", None), (REFERENCE, None), ("tmcc", 1.0)))
#: Table IV-style squeeze: at 0.6x, ML2 serves 51% (pageRank) and 16%
#: (mcf) of L3 misses.  canneal is left out: at 0.6x its budget is
#: below even full compression and the build fails.
CAPACITY_SQUEEZE = Protocol(
    ("pageRank", "mcf"), 1.0,
    ((REFERENCE, None), ("tmcc", 0.6), ("osinspired", 0.6)))
#: The 12-cell matrix ``sweep-pool`` hands to ``run_sweep``.
SWEEP_POOL = Protocol(
    ("mcf", "omnetpp", "canneal"), 0.5,
    (("uncompressed", None), (REFERENCE, None), ("tmcc", 1.0),
     ("tmcc", 0.8)))


def budget_suffix(fraction: Optional[float]) -> str:
    """The sweep engine's budget spelling: '', '@iso' or '@0.8x'."""
    if fraction is None:
        return ""
    return "@iso" if fraction == 1.0 else f"@{fraction:g}x"


#: SimResult fields the output check covers: the simulated headline
#: quantities and counts, not the open-ended metric tree, so adding a
#: metric key to the program is not a mismatch.
DIGEST_FIELDS = (
    "workload", "controller", "accesses", "elapsed_ns", "tlb_miss_rate",
    "tlb_misses", "cte_hit_rate", "cte_misses", "l3_misses",
    "l3_data_misses", "avg_l3_miss_latency_ns", "dram_reads",
    "dram_writes", "row_hit_rate", "dram_used_bytes", "footprint_bytes",
    "ml2_access_rate", "path_fractions", "truncated",
)


def digest(result: SimResult) -> str:
    payload = {name: getattr(result, name) for name in DIGEST_FIELDS}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Cell:
    label: str
    controller: str
    #: Trace records replayed (warm-up included); 0 when not replayed
    #: in this process.
    trace_len: int = 0
    result: Optional[SimResult] = None
    error: str = ""
    #: Reference seconds (see ``hostclock``) of the build and replay.
    build_s: float = 0.0
    replay_s: float = 0.0

    @property
    def digest(self) -> str:
        return digest(self.result) if self.result is not None else ""

    def check(self, expected: Dict[str, str]) -> None:
        """Record why the cell's output is wrong, if it is."""
        if self.error:
            return
        result = self.result
        if result.truncated or result.accesses <= 0 or result.l3_misses <= 0:
            self.error = "implausible result (truncated or empty)"
        elif self.label in expected and expected[self.label] != self.digest:
            self.error = (f"digest {self.digest} != expected "
                          f"{expected[self.label]}")

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class SweepStats:
    """One ``run_sweep`` call, read back from its store and journal."""

    setup_s: float
    job_s: List[float]
    dispatch_wait_s: List[float]
    busy_frac: float
    retries: int
    store_retries: int


def run_inline(protocol: Protocol, seed: int, spans: Spans,
               sampler: Optional[ReplaySampler] = None) -> List[Cell]:
    """Every cell of ``protocol`` in this process, on the fast loop."""
    system = SystemConfig()
    cells: List[Cell] = []
    for name in protocol.workloads:
        with spans.span("gen", workload=name):
            workload = workload_by_name(name, max_accesses=ACCESSES,
                                        seed=seed, scale=protocol.scale)
        with spans.span("model", workload=name):
            model = PageCompressionModel(
                workload.content,
                sample_pages=system.compression_samples,
                deflate_config=system.deflate,
                timing=system.deflate_timing,
                ibm=system.ibm_timing,
                seed=seed,
            )
        reference: Optional[int] = None
        for controller, fraction in protocol.cells:
            cell = Cell(f"{name}/{controller}{budget_suffix(fraction)}",
                        controller, len(workload.trace))
            cells.append(cell)
            try:
                budget = None
                if fraction is not None:
                    if reference is None:
                        raise RuntimeError("reference cell failed")
                    budget = int(reference * fraction)
                with spans.span("build", cell=cell.label) as build:
                    sim = Simulator(workload, controller=controller,
                                    system=system, dram_budget_bytes=budget,
                                    seed=seed, model=model)
                with spans.span("replay", cell=cell.label) as replay:
                    with sampler if sampler is not None else nullcontext():
                        cell.result = sim.run()
            except Exception as error:  # a failed cell is counted, not fatal
                cell.error = f"{type(error).__name__}: {error}"
                continue
            cell.build_s = duration(build)
            cell.replay_s = duration(replay)
            if controller == REFERENCE and fraction is None:
                reference = cell.result.dram_used_bytes
    return cells


def run_pool(seed: int, spans: Spans,
             workdir: str) -> Tuple[List[Cell], SweepStats]:
    """The ``SWEEP_POOL`` matrix through ``run_sweep`` with a worker
    pool, an on-disk store and a journal, all under ``workdir``."""
    # Each pass starts cold, as a fresh ``repro sweep run`` would.
    clear_workload_cache()
    clear_model_cache()
    spec = SweepSpec.build(
        name="layerbench-sweep-pool",
        workloads=SWEEP_POOL.workloads,
        controllers=[controller + budget_suffix(fraction)
                     for controller, fraction in SWEEP_POOL.cells],
        seeds=(seed,),
        accesses=ACCESSES,
        scale=SWEEP_POOL.scale,
        workload_seed=seed,
    )
    os.makedirs(workdir)
    try:
        # The journal stamps events with time.monotonic().
        called_mono, called = time.monotonic(), time.perf_counter()
        with spans.span("sweep", workers=SWEEP_WORKERS):
            run = run_sweep(spec, store=os.path.join(workdir, "sweep.db"),
                            workers=SWEEP_WORKERS, journal=True)
        rows = run.store.jobs(run.sweep_id)
        events = read_journal(run.store.journal_path(run.sweep_id))
        cells = []
        for row in rows:
            suffix = "" if row["budget"] == "none" else f"@{row['budget']}"
            cell = Cell(f"{row['workload']}/{row['controller']}{suffix}",
                        row["controller"])
            if row["status"] == "done":
                cell.result = run.store.result_for(row["job_id"])
            else:
                cell.error = f"{row['status']}: {row['error']}"
            cells.append(cell)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    starts: Dict[str, float] = {}  # each job's first attempt
    for event in events:
        if event["event"] == "job_start":
            starts.setdefault(event["job_id"], event["mono"])
    finishes = {event["job_id"]: event["mono"] for event in events
                if event["event"] == "job_finish"}
    first_start = min(starts.values())
    waits = []
    for row in rows:
        if row["job_id"] not in starts:
            continue
        ready = first_start
        if row["provider_id"]:
            ready = max(ready, finishes.get(row["provider_id"], ready))
        waits.append(max(0.0, starts[row["job_id"]] - ready))
    snapshot = build_snapshot(events)
    busy = sum(state.busy_s for state in snapshot.workers_state.values())
    stats = SweepStats(
        setup_s=spans.clock.ref_s(called,
                                  called + first_start - called_mono),
        job_s=[row["elapsed_s"] for row in rows
               if row["elapsed_s"] is not None],
        dispatch_wait_s=waits,
        busy_frac=busy / (SWEEP_WORKERS * snapshot.elapsed_s),
        retries=sum(snapshot.retries_by_kind.values()),
        store_retries=snapshot.store_retries,
    )
    return cells, stats
