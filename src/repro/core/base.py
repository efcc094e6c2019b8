"""Controller interface and shared DRAM-layout bookkeeping.

A memory-compression controller owns everything below the LLC: the CTE
table in DRAM, the CTE cache, data placement, and migrations.  The
simulator calls it for every LLC miss and dirty writeback, and (for TMCC)
notifies it of page-walker PTB fetches so it can harvest embedded CTEs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.common.registry import Registry
from repro.common.stats import StatGroup
from repro.common.units import BLOCK_SIZE, PAGE_SIZE
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.core.pipeline import (
    STAGE_DATA_FETCH,
    ServiceTimeline,
    SpanRecord,
    StageAccounting,
)
from repro.core.resilience import ResilienceState
from repro.dram.system import DRAMSystem

#: Access-path labels (Figure 8 timelines / Figure 19 breakdown).
PATH_CTE_HIT = "cte_hit"
PATH_PARALLEL_OK = "parallel_ok"
PATH_PARALLEL_MISMATCH = "parallel_mismatch"
PATH_SERIAL_NO_CTE = "serial_no_cte"
PATH_ML2 = "ml2"

#: All access-path labels, in Figure 19's reporting order.
ACCESS_PATHS = (PATH_CTE_HIT, PATH_PARALLEL_OK, PATH_PARALLEL_MISMATCH,
                PATH_SERIAL_NO_CTE, PATH_ML2)

#: Pre-interned stat keys: the miss path must not rebuild ``path_<p>`` /
#: ``<stage>.ns`` strings per miss.
_PATH_COUNTER_KEY = {path: f"path_{path}" for path in ACCESS_PATHS}
_STAGE_KEYS: Dict[str, tuple] = {}

#: Builds a :class:`MissResult` from a ready tuple without the Python-level
#: ``__new__`` a NamedTuple call goes through (once per LLC miss).
_new_tuple = tuple.__new__

#: The memory-controller registry.  Controller classes self-register with
#: ``@CONTROLLER_REGISTRY.register`` (the key is the class's ``name``);
#: simulators, benchmarks, and the CLI instantiate by name.
CONTROLLER_REGISTRY: Registry = Registry("controller")

register_controller = CONTROLLER_REGISTRY.register


def available_controllers() -> list:
    """Registered controller names, importing the built-ins first."""
    from repro import core  # noqa: F401  (imports register the built-ins)

    return CONTROLLER_REGISTRY.names()


def create_controller(name: str, config: SystemConfig, dram: DRAMSystem,
                      seed: int = 0) -> "MemoryController":
    """Instantiate a registered controller by name."""
    from repro import core  # noqa: F401  (imports register the built-ins)

    return CONTROLLER_REGISTRY.create(name, config, dram, seed=seed)


class MissResult(NamedTuple):
    """Outcome of one LLC-miss service."""

    latency_ns: float
    path: str
    #: Span records ``(name, start_ns, latency_ns, critical, wasted,
    #: slack_ns)`` in service order; the first starts at the miss's
    #: arrival and the critical latencies sum to ``latency_ns``.
    spans: Sequence[SpanRecord] = ()

    @property
    def in_ml2(self) -> bool:
        return self.path == PATH_ML2

    @property
    def timeline(self) -> ServiceTimeline:
        """The stage decomposition, built on demand from ``spans``."""
        start_ns = self.spans[0][1] if self.spans else 0.0
        return ServiceTimeline.from_spans(start_ns, self.latency_ns,
                                          self.spans)


class MemoryController:
    """Base class: identity placement, no compression, no translation."""

    name = "base"

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0) -> None:
        self.config = config
        self.dram = dram
        self.seed = seed
        self.stats = StatGroup(self.name)
        #: Per-stage latency statistics (``controller.stage.<name>.ns``
        #: histograms), fed by every served miss's span records.
        self.stage_stats = StatGroup(f"{self.name}.stage")
        #: Per-path aggregation of stage timings for ``--breakdown`` and
        #: the ``controller.breakdown.*`` metric namespace.
        self.stage_accounting = StageAccounting()
        #: Instrumentation handle; harmless no-op bus until a context
        #: attaches its own via :meth:`attach_instrumentation`.
        self._probe = None
        #: Pressure-resilience switches and ``resilience.*`` counters.
        #: Disabled by default: no-fault runs stay bit-identical to a
        #: build without the resilience layer.
        self.resilience = ResilienceState()
        #: ppn -> nominal DRAM page for address formation.
        self._dram_page: Dict[int, int] = {}
        self._cte_table_base = 0  # set at initialize()
        #: Per-miss stat sinks, bound lazily on first use so stat keys
        #: are created in first-use order (creation order is observable
        #: in ``as_dict``).  Counters/histograms reset in place (identity
        #: survives ``_reset_stats``), so the bound objects and sample
        #: lists stay valid across the warm-up boundary.
        self._path_counters: Dict[str, object] = {}
        self._hist_samples: Dict[str, list] = {}
        self._l3_counter = None
        self._miss_samples: Optional[list] = None

    def attach_instrumentation(self, probe) -> None:
        """Adopt a context-provided :class:`~repro.sim.instrument.Probe`.

        The probe shares this controller's :class:`StatGroup`, so counters
        recorded either way agree; the bus gains the controller's trace
        events (access paths, migrations).
        """
        self._probe = probe

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def initialize(
        self,
        data_ppns: Sequence[int],
        hotness_rank: Dict[int, int],
        table_ppns: Sequence[int],
        model: PageCompressionModel,
        dram_budget_bytes: Optional[int] = None,
    ) -> None:
        """Place all pages.  ``hotness_rank[ppn]`` is 0 for the hottest.

        The base class maps every page 1:1 into DRAM (no compression).
        """
        for index, ppn in enumerate(list(table_ppns) + list(data_ppns)):
            self._dram_page[ppn] = index
        self._cte_table_base = len(self._dram_page) * PAGE_SIZE

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _data_address(self, ppn: int, block_index: int) -> int:
        dram_page = self._dram_page.get(ppn, ppn)
        return dram_page * PAGE_SIZE + block_index * BLOCK_SIZE

    def _cte_address(self, ppn: int, cte_size: int) -> int:
        return self._cte_table_base + ppn * cte_size

    def _dram_read_ns(self, address: int, now_ns: float,
                      include_noc: bool = True) -> float:
        """One 64 B DRAM read; CTE reads skip the LLC<->MC NoC leg.

        With resilience enabled and a transient DRAM error pending
        (:mod:`repro.sim.faults`), the read is re-issued with bounded
        retries -- each retry is a real DRAM access whose latency the
        miss pays -- instead of silently returning corrupt data.
        """
        latency = self.dram.read_ns(address, now_ns)
        resilience = self.resilience
        if resilience.enabled and resilience.pending_dram_errors:
            retries = 0
            while (resilience.pending_dram_errors
                   and retries < resilience.max_dram_retries):
                resilience.pending_dram_errors -= 1
                retries += 1
                latency += self.dram.read_ns(address, now_ns + latency)
            resilience.count("dram_read_errors", retries)
            resilience.count("dram_retries", retries)
            if resilience.pending_dram_errors:
                # Retry budget exhausted: model the ECC-correction
                # fallback instead of looping forever.
                resilience.pending_dram_errors = 0
                resilience.count("dram_retry_exhausted")
        if include_noc:
            return latency
        return latency - self.dram.config.timing.noc_ns

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------

    def serve_l3_miss(self, ppn: int, block_index: int, now_ns: float,
                      is_write: bool = False) -> MissResult:
        """Serve an LLC miss for block ``block_index`` of page ``ppn``.

        The replay loop calls this; the returned span records feed the
        stage metrics here and, when a tracer samples the access, the
        simulator's span tree.
        """
        self._count_l3_miss()
        return self._serve_direct(ppn, block_index, now_ns)

    def _count_l3_miss(self) -> None:
        counter = self._l3_counter
        if counter is None:
            counter = self._l3_counter = self.stats.counter("l3_misses")
        counter.value += 1

    def _serve_direct(self, ppn: int, block_index: int,
                      now_ns: float) -> MissResult:
        """One plain DRAM read of the block, accounted under the CTE-hit
        path but not counted as one (no translation took place)."""
        latency = self._dram_read_ns(self._data_address(ppn, block_index),
                                     now_ns)
        spans = ((STAGE_DATA_FETCH, now_ns, latency, True, False, 0.0),)
        return self._finish(PATH_CTE_HIT, spans, latency, now_ns, ppn,
                            counted=False)

    def serve_writeback(self, ppn: int, block_index: int, now_ns: float) -> None:
        """Absorb a dirty LLC writeback (posted; no read-path latency)."""
        self.dram.write(self._data_address(ppn, block_index), now_ns)
        self.stats.counter("writebacks").increment()

    def note_ptb_fetch(self, level: int, ptb_address: int,
                       ptes: Optional[List[int]], huge_leaf: bool) -> None:
        """Page-walker fetched a PTB; TMCC overrides this to harvest CTEs."""

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The controller's configuration, for run reports.

        Flat, JSON-friendly, and deterministic: ``repro report`` renders
        it as the configuration section, and ``--emit-json`` documents
        carry it under ``run_config.controller``.  Subclasses extend the
        base dict with their own structures (CTE caches, ML1/ML2 split,
        CTE buffer).
        """
        return {
            "name": self.name,
            "pages": len(self._dram_page),
        }

    def dram_used_bytes(self) -> int:
        """DRAM consumed by data + translation metadata."""
        return len(self._dram_page) * PAGE_SIZE

    @property
    def average_miss_latency_ns(self) -> float:
        return self.stats.histogram("miss_latency_ns").mean

    def path_fractions(self) -> Dict[str, float]:
        """Figure 19: how ML1 reads were served, as fractions."""
        counts = {p: self.stats.count_of(f"path_{p}") for p in ACCESS_PATHS}
        total = sum(counts.values())
        if not total:
            return {p: 0.0 for p in ACCESS_PATHS}
        return {p: c / total for p, c in counts.items()}

    def _record_path(self, path: str) -> None:
        """Count one miss served via ``path`` (Figure 19)."""
        counters = self._path_counters
        counter = counters.get(path)
        if counter is None:
            counter = counters[path] = self.stats.counter(
                _PATH_COUNTER_KEY[path])
        counter.value += 1

    def _finish(self, path: str, spans: Sequence[SpanRecord],
                total_ns: float, now_ns: float, ppn: int,
                counted: bool = True) -> MissResult:
        """Shared epilogue: path counter, stage metrics, latency histogram.

        Every span lands in ``controller.stage.<name>.ns``; wasted
        speculative work and race slack get their own histograms so the
        Figure 8 timelines can separate paid, discarded, and hidden time.
        A miss served without translation is accounted under its path
        but not ``counted`` as one.  With a bus subscriber attached, the
        path becomes a ``controller.access_path`` event and each span a
        ``controller.stage`` event.  Stat sinks are cached: this runs
        once per LLC miss and the get-or-create layers dominated it.
        """
        if counted:
            self._record_path(path)
        self.stage_accounting.record(path, spans, total_ns)
        hist_samples = self._hist_samples
        histogram = self.stage_stats.histogram
        for name, _start, latency_ns, _critical, wasted, slack_ns in spans:
            keys = _STAGE_KEYS.get(name)
            if keys is None:
                keys = _STAGE_KEYS[name] = (
                    f"{name}.ns", f"{name}.wasted_ns", f"{name}.slack_ns")
            key = keys[0]
            samples = hist_samples.get(key)
            if samples is None:
                samples = hist_samples[key] = histogram(key).samples
            samples.append(latency_ns)
            if wasted:
                key = keys[1]
            elif slack_ns:
                key = keys[2]
                latency_ns = slack_ns
            else:
                continue
            samples = hist_samples.get(key)
            if samples is None:
                samples = hist_samples[key] = histogram(key).samples
            samples.append(latency_ns)
        samples = self._miss_samples
        if samples is None:
            samples = self._miss_samples = self.stats.histogram(
                "miss_latency_ns").samples
        samples.append(total_ns)
        probe = self._probe
        if probe is not None and probe.bus.active:
            if counted:
                probe.emit("access_path", now_ns, path=path,
                           latency_ns=total_ns, ppn=ppn)
            for name, start, latency_ns, critical, wasted, _slack in spans:
                probe.emit("stage", start, stage=name, path=path,
                           latency_ns=latency_ns, end_ns=start + latency_ns,
                           critical=critical, wasted=wasted, ppn=ppn)
        return _new_tuple(MissResult, (total_ns, path, spans))
