"""The trace-driven simulator.

Replays one workload's access trace through the full stack (the loop
itself is :func:`repro.sim.replay.replay`):

    virtual address -> TLB -> (page walk: PTB fetches through the caches,
    with TMCC harvesting embedded CTEs) -> cache hierarchy -> compression
    controller (CTE cache / CTE fetch / ML2 decompress / migrations) ->
    DRAM banks and queues

The core count is a dimension of the one simulator, not a second
engine: ``Simulator(workload, cores=4)`` is Table III's machine.  Each
core owns a TLB, a page walker with its page-walk cache, and an L1/L2
with prefetchers (a :class:`Core`); the L3, the compression controller
and DRAM are shared, and so are the page table and the page placement.
The trace is split round-robin into one stream per core.  The core
count only chooses how the replay loop runs (one core: batched; more:
one access at a time, least-advanced core first), never which loop.

Latency accounting follows Section VI's spirit: on-chip cycles and DRAM
nanoseconds accumulate per access; the wall clock advances by compute
time plus the fraction of the memory stall the 4-wide OoO core cannot
hide (``mlp_stall_factor``).  Absolute IPC is not claimed -- only the
relative comparisons the paper makes.

Construction runs through a :class:`~repro.sim.context.SimContext`: it
owns the RNG streams, the clock, the component tree, and the
instrumentation surface (event bus + metrics registry).  Controllers are
instantiated by name from the controller registry
(:data:`repro.core.base.CONTROLLER_REGISTRY`), so new designs plug in by
decorating a class -- no simulator edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.common.units import PAGE_SIZE
from repro.core import (  # noqa: F401  (importing registers the built-ins)
    CONTROLLER_REGISTRY,
    TMCCController,
    TwoLevelController,
    create_controller,
)
from repro.core.base import MissResult
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.sim.context import SimContext
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.replay import replay
from repro.sim.results import SimResult
from repro.vm.pagetable import FrameAllocator, PageTable, PageTablePopulator
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker
from repro.workloads.trace import Workload


@dataclass
class RunProgress:
    """Where a (possibly supervised) trace replay currently stands.

    Lives on the simulator so a checkpoint of the simulator object
    captures the loop position alongside every component's state.
    ``index`` counts the accesses executed so far; the measured ones
    are those from ``warmup_end`` up to ``index``.  With more than one
    core, ``positions`` holds each core's next trace index and
    ``clocks`` each core's local time.
    """

    index: int
    warmup_end: int
    measure_start_ns: float = 0.0
    positions: Optional[List[int]] = None
    clocks: Optional[List[float]] = None


class Core(NamedTuple):
    """One core's private structures."""

    tlb: TLB
    walker: PageWalker
    hierarchy: CacheHierarchy


class SimCounters:
    """The replay loop's own counters: the ``sim`` metrics source.

    They live apart from the simulator so that the metrics registry
    holds no reference back to it: a simulator that registered its own
    bound methods would be a reference cycle, freed only by the cyclic
    garbage collector.  The registry zeroes them at the warm-up
    boundary through :meth:`reset`.
    """

    __slots__ = ("clock", "tlb_misses", "l3_data_misses",
                 "fig5_cte_misses", "fig5_after_tlb")

    def __init__(self, clock) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.tlb_misses = 0
        self.l3_data_misses = 0
        self.fig5_cte_misses = 0
        self.fig5_after_tlb = 0

    def __call__(self) -> Dict[str, float]:
        return {
            "tlb_misses": self.tlb_misses,
            "l3_data_misses": self.l3_data_misses,
            "fig5_cte_misses": self.fig5_cte_misses,
            "fig5_after_tlb": self.fig5_after_tlb,
            "now_ns": self.clock.now_ns,
        }


class Simulator:
    """One workload x one memory-system configuration x ``cores`` cores."""

    def __init__(
        self,
        workload: Workload,
        controller: str = "tmcc",
        system: Optional[SystemConfig] = None,
        dram_budget_bytes: Optional[int] = None,
        huge_pages: bool = False,
        seed: int = 1,
        model: Optional[PageCompressionModel] = None,
        placement_drift: float = 0.03,
        virtualized: bool = False,
        context: Optional[SimContext] = None,
        fault_plan: Optional[FaultPlan] = None,
        resilience: bool = False,
        cores: int = 1,
    ) -> None:
        if controller not in CONTROLLER_REGISTRY:
            raise ValueError(f"unknown controller {controller!r}; "
                             f"choose from {CONTROLLER_REGISTRY.names()}")
        if virtualized and huge_pages:
            raise ValueError("virtualized mode models 4 KB guest pages only")
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        if cores > 1 and (huge_pages or virtualized):
            raise ValueError("huge_pages and virtualized runs model one "
                             "core only")
        self.context = context or SimContext(system, seed)
        self.workload = workload
        self.controller_name = controller
        self.system = self.context.system
        self.clock = self.context.clock
        self.huge_pages = huge_pages
        #: Run the workload inside a VM: TLB misses take 2D nested walks
        #: through a host page table (Figure 12b); TMCC harvests embedded
        #: CTEs from every *host* PTB fetch of each nested walk.
        self.virtualized = virtualized
        #: Warm-up imperfection: the paper warms ML1/ML2 with ~1 s of
        #: atomic simulation, so placement reflects the working set *minus
        #: a little drift* between warm-up and the measured window.  A
        #: ``placement_drift`` fraction of warm pages start cold in ML2,
        #: producing the residual ML2 traffic Figure 21 reports.
        self.placement_drift = placement_drift
        self._placement_rng = self.context.rng("placement")

        # -- virtual memory setup ---------------------------------------
        total_frames = workload.footprint_pages * 4 + 4096
        self.allocator = FrameAllocator(total_frames, self.context.rng("frames"))
        self.table = PageTable(self.allocator)
        populator = PageTablePopulator(self.table, self.allocator,
                                       self.context.rng("populate"))
        if huge_pages:
            huge_count = -(-workload.footprint_pages // 512)
            base = workload.base_vpn & ~0x1FF
            populator.populate_huge_region(base, huge_count)
            self._vpn_to_ppn = {}
        else:
            populator.populate_region(workload.base_vpn, workload.footprint_pages)
            populator.finalize_noise()
            self._vpn_to_ppn = dict(populator.mapped_pages)

        # -- per-core structures in front of one shared L3 ---------------
        #: Private TLB, walker (+PWC) and L1/L2 per core; a single core's
        #: components sit at the top of the tree (``tlb``, ``cache.l1``),
        #: core ``i`` of several under ``core<i>.``.
        self.cores: List[Core] = []
        shared_l3 = None
        for index in range(cores):
            prefix = f"core{index}." if cores > 1 else ""
            tlb = self.context.register(
                prefix + "tlb", TLB(entries=self.system.tlb_entries))
            walker = self.context.register(prefix + "walker",
                                           PageWalker(self.table))
            self.context.register(prefix + "walker.pwc", walker.pwc)
            self.context.metrics.attach(prefix + "walker.walks", walker.walks)
            self.context.metrics.attach(prefix + "walker.ptb_fetches",
                                        walker.ptb_fetches)
            hierarchy = self.context.register(
                prefix + "cache",
                CacheHierarchy(self.system.cache, shared_l3=shared_l3))
            shared_l3 = hierarchy.l3
            self.context.metrics.attach(prefix + "cache.l1",
                                        hierarchy.l1.stats)
            self.context.metrics.attach(prefix + "cache.l2",
                                        hierarchy.l2.stats)
            self.cores.append(Core(tlb, walker, hierarchy))
        self.context.metrics.attach("cache.l3", shared_l3.stats)
        self.tlb, self.walker, self.hierarchy = self.cores[0]
        self.dram = self.context.register("dram", DRAMSystem(self.system.dram))

        # -- virtualization: a host page table behind the guest's --------
        self.host_table: Optional[PageTable] = None
        self.nested_walker = None
        self._gfn_to_host: Dict[int, int] = {}
        if virtualized:
            from repro.vm.nested import NestedPageWalker

            guest_frames = sorted(
                set(self._vpn_to_ppn.values())
                | {page.ppn for page in self.table.table_pages()}
            )
            host_allocator = FrameAllocator(
                (max(guest_frames) + 1) * 2 + 4096,
                self.context.rng("host_frames"),
            )
            self.host_table = PageTable(host_allocator)
            host_populator = PageTablePopulator(
                self.host_table, host_allocator,
                self.context.rng("host_populate"),
            )
            host_populator.populate_region(0, max(guest_frames) + 1)
            host_populator.finalize_noise()
            self._gfn_to_host = dict(host_populator.mapped_pages)
            self.nested_walker = self.context.register(
                "nested_walker", NestedPageWalker(self.table, self.host_table))

        # -- compression model and controller ---------------------------
        self.model = model or PageCompressionModel(
            workload.content,
            sample_pages=self.system.compression_samples,
            deflate_config=self.system.deflate,
            timing=self.system.deflate_timing,
            ibm=self.system.ibm_timing,
            seed=seed,
        )
        self.controller = self.context.register(
            "controller",
            create_controller(controller, self.system, self.dram, seed=seed),
        )
        self.controller.attach_instrumentation(
            self.context.probe("controller", stats=self.controller.stats))
        self.context.metrics.attach("controller.paths",
                                    self.controller.path_fractions)
        # Per-stage access-pipeline latencies (Figures 8/18): histograms
        # under controller.stage.*, per-path aggregation under
        # controller.breakdown.* (both reset at the warm-up boundary).
        self.context.metrics.attach("controller.stage",
                                    self.controller.stage_stats)
        self.context.metrics.attach("controller.breakdown",
                                    self.controller.stage_accounting)
        if hasattr(self.controller, "cte_cache"):
            self.context.register("controller.cte_cache",
                                  self.controller.cte_cache)
        if hasattr(self.controller, "migration"):
            migration = self.context.register("controller.migration",
                                              self.controller.migration)
            self.context.metrics.attach("controller.migration.stalls",
                                        migration.stalls)
            self.context.metrics.attach("controller.migration.stall_ns",
                                        migration.stall_ns)

        data_ppns, hotness = self._data_pages_and_hotness()
        if self.virtualized:
            # Pinned pages: the host's own table pages plus the host
            # frames backing the guest's table pages (both are walked).
            table_ppns = [page.ppn for page in self.host_table.table_pages()]
            table_ppns += [
                self._gfn_to_host[page.ppn]
                for page in self.table.table_pages()
                if page.ppn in self._gfn_to_host
            ]
        else:
            table_ppns = [page.ppn for page in self.table.table_pages()]
        if isinstance(self.controller, TwoLevelController):
            self.controller.initialize(data_ppns, hotness, table_ppns,
                                       self.model, dram_budget_bytes)
            self.context.metrics.attach("controller.ml2",
                                        self.controller.ml2_metrics)
        else:
            self.controller.initialize(data_ppns, hotness, table_ppns, self.model)

        # -- resilience: fault injection + graceful degradation ---------
        #: With a fault plan (or ``resilience=True``) the controller's
        #: emergency paths arm; without either, nothing differs from a
        #: fault-free build (bit-identical runs).
        self._fault_injector: Optional[FaultInjector] = None
        if fault_plan:
            self._fault_injector = FaultInjector(
                fault_plan, self.context.rng("faults"), self.controller,
                bus=self.context.bus)
        elif resilience:
            self.controller.resilience.enabled = True
        self.context.metrics.attach("resilience",
                                    self.controller.resilience.stats)

        # -- observability (all opt-in; None keeps hooks free) ----------
        #: Span tracer (``--trace-sample``); with one attached the replay
        #: loop steps one access at a time and calls its hooks.
        self.tracer = None
        #: Windowed metrics recorder (``--interval-ns``).
        self.timeseries = None

        # -- per-run counters -------------------------------------------
        self.counters = SimCounters(self.clock)
        self.context.metrics.attach("sim", self.counters)
        #: In-flight replay position; ``None`` between runs.  A run
        #: supervisor checkpoints the simulator mid-loop, so progress is
        #: part of the object's picklable state.
        self._run_state: Optional[RunProgress] = None

    # ------------------------------------------------------------------
    # Observability attachment
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer) -> "object":
        """Adopt a :class:`~repro.sim.tracing.SpanTracer`.

        The tracer also listens on the context bus so migrations and
        injected faults land as instant markers inside sampled traces.
        """
        self.tracer = tracer
        tracer.attach_bus(self.context.bus)
        return tracer

    def attach_timeseries(self, recorder) -> "object":
        """Adopt a :class:`~repro.sim.timeseries.TimeSeriesRecorder`."""
        self.timeseries = recorder
        return recorder

    def describe_run(self) -> Dict[str, object]:
        """The run's configuration, for ``run_config`` in ``--emit-json``
        documents and the header of ``repro report``.  ``cores`` appears
        only for a multi-core run, so single-core documents keep their
        bytes."""
        config = {
            "workload": self.workload.name,
            "controller": self.controller.describe(),
            "seed": self.context.seed,
            "huge_pages": self.huge_pages,
            "virtualized": self.virtualized,
            "placement_drift": self.placement_drift,
            "trace_length": len(self.workload.trace),
            "footprint_pages": self.workload.footprint_pages,
            "tlb_entries": self.system.tlb_entries,
            "mlp_stall_factor": self.system.mlp_stall_factor,
        }
        if len(self.cores) > 1:
            config["cores"] = len(self.cores)
        return config

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _data_pages_and_hotness(self):
        counts: Dict[int, int] = {}
        for vaddr, _ in self.workload.trace:
            vpn = vaddr >> 12
            counts[vpn] = counts.get(vpn, 0) + 1
        ranked_vpns = sorted(counts, key=counts.get, reverse=True)
        # Warm-up drift: a few warm pages turned cold before the measured
        # window (or were sampled unluckily by the 1% recency updates);
        # they start behind even the never-touched pages and hence in ML2.
        drifted = [vpn for vpn in ranked_vpns
                   if self._placement_rng.chance(self.placement_drift)]
        drifted_set = set(drifted)

        hotness: Dict[int, int] = {}
        data_ppns = []
        rank = 0

        def place(vpn: int) -> None:
            nonlocal rank
            ppn = self._translate_vpn(vpn)
            if ppn is None:  # trace address outside the mapped footprint
                return
            hotness[ppn] = rank
            data_ppns.append(ppn)
            rank += 1

        for vpn in ranked_vpns:
            if vpn not in drifted_set:
                place(vpn)
        for offset in range(self.workload.footprint_pages):
            vpn = self.workload.base_vpn + offset
            if vpn not in counts:
                place(vpn)
        for vpn in drifted:
            place(vpn)
        return data_ppns, hotness

    def _translate_vpn(self, vpn: int) -> Optional[int]:
        """vpn -> the *machine-physical* frame data lives in."""
        if self.huge_pages:
            return self.table.translate(vpn)
        guest_ppn = self._vpn_to_ppn.get(vpn)
        if guest_ppn is None:
            return None
        if self.virtualized:
            return self._gfn_to_host.get(guest_ppn)
        return guest_ppn

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, warmup_fraction: float = 0.2,
            supervisor=None) -> SimResult:
        """Replay the trace; statistics cover the post-warmup region.

        With a :class:`~repro.sim.supervisor.RunSupervisor`, the loop
        additionally checkpoints on the supervisor's cadence and stops
        early (returning a partial result flagged ``truncated``) when
        its wall-clock watchdog fires.  A simulator restored from a
        checkpoint resumes exactly where it stopped: the loop position
        rides on the object as :class:`RunProgress`.
        """
        state = self._run_state
        if state is None:
            state = self._run_state = RunProgress(
                index=0,
                warmup_end=int(len(self.workload.trace) * warmup_fraction))
            cores = len(self.cores)
            if cores > 1:
                # Round-robin streams: core i replays trace indices
                # i, i + cores, i + 2 * cores, ...
                state.positions = list(range(cores))
                state.clocks = [self.clock.now_ns] * cores
        try:
            stop_reason = replay(self, state, supervisor)
            if self.timeseries is not None:
                self.timeseries.finish(self.clock.now_ns)
        finally:
            # Flush/close owned writers even when the loop dies early, so
            # --trace-events files are never left truncated and unflushed.
            self.context.close_owned()

        result = self._build_result(max(0, state.index - state.warmup_end),
                                    self.clock.now_ns - state.measure_start_ns)
        if stop_reason is not None:
            result.truncated = True
            result.error = stop_reason
        else:
            self._run_state = None  # finished: a fresh run() starts over
        return result

    def _serve_miss(self, ppn: int, block_index: int, now_ns: float,
                    is_write: bool, kind: str, level: int) -> MissResult:
        """Serve an LLC miss arriving at ``now_ns``.

        Every miss of the replay loop comes through here: it is timed
        under ``profile.controller.serve_miss`` when profiling and
        promoted into the open trace when a tracer samples the access.
        ``kind`` ("data", "ptb", "ptb_host", "ptb_guest") and the walk
        ``level`` (-1 for data) only label that trace.
        """
        controller = self.controller
        profiler = self.context.profiler
        if profiler is None:
            miss = controller.serve_l3_miss(ppn, block_index, now_ns, is_write)
        else:
            profiler.begin("controller.serve_miss")
            try:
                miss = controller.serve_l3_miss(ppn, block_index, now_ns,
                                                is_write)
            finally:
                profiler.end()
        tracer = self.tracer
        if tracer is not None and tracer.active:
            args = {"path": miss.path, "kind": kind, "ppn": ppn,
                    "in_ml2": miss.in_ml2}
            if level >= 0:
                args["level"] = level
            tracer.add_timeline("llc_miss", miss.timeline, **args)
        return miss

    # ------------------------------------------------------------------
    # Statistics plumbing
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, float]:
        """Every component's statistics under namespaced keys."""
        return self.context.metrics.snapshot()

    def _reset_stats(self) -> None:
        self.context.reset_metrics()
        if self.timeseries is not None:
            # Re-baseline deltas on the zeroed registry so the first
            # measured window is not one huge negative delta.
            self.timeseries.on_reset()

    def _build_result(self, accesses: int, elapsed_ns: float) -> SimResult:
        controller = self.controller
        stats = controller.stats
        counters = self.counters
        cte_hit_rate = getattr(controller, "cte_hit_rate", 1.0)
        cte_misses = 0
        if hasattr(controller, "cte_cache"):
            cte_misses = controller.cte_cache.stats.misses
        if len(self.cores) == 1:
            tlb_miss_rate = self.tlb.stats.miss_rate
        else:
            # Aggregate over the cores' TLBs.  Multi-core documents list
            # these three counters even at zero.
            lookups = sum(core.tlb.stats.total for core in self.cores)
            tlb_miss_rate = (counters.tlb_misses / lookups
                             if lookups else 0.0)
            stats.counter("l3_misses")
            self.dram.stats.counter("reads")
            self.dram.stats.counter("writes")
        result = SimResult(
            workload=self.workload.name,
            controller=self.controller_name,
            accesses=accesses,
            elapsed_ns=elapsed_ns,
            tlb_miss_rate=tlb_miss_rate,
            tlb_misses=counters.tlb_misses,
            cte_hit_rate=cte_hit_rate,
            cte_misses=cte_misses,
            cte_misses_after_tlb_miss=(
                counters.fig5_after_tlb / counters.fig5_cte_misses
                if counters.fig5_cte_misses else 0.0
            ),
            l3_misses=stats.count_of("l3_misses"),
            l3_data_misses=counters.l3_data_misses,
            avg_l3_miss_latency_ns=controller.average_miss_latency_ns,
            dram_reads=self.dram.stats.count_of("reads"),
            dram_writes=self.dram.stats.count_of("writes"),
            row_hit_rate=self.dram.row_hit_rate,
            bandwidth_utilization=self.dram.bandwidth_utilization(
                max(1.0, elapsed_ns)
            ),
            dram_used_bytes=controller.dram_used_bytes(),
            footprint_bytes=self.workload.footprint_pages * PAGE_SIZE,
            path_fractions=controller.path_fractions(),
            metrics=self.metrics_snapshot(),
        )
        if isinstance(controller, TwoLevelController):
            result.ml2_access_rate = controller.ml2_access_rate()
            result.extra["ml1_pages"] = controller.ml1_page_count
            result.extra["ml2_pages"] = controller.ml2_page_count
        if isinstance(controller, TMCCController):
            result.extra["embedded_coverage"] = controller.embedded_coverage
        return result
