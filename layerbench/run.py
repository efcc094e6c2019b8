#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the TMCC simulator.

Runs one named workload in this process and prints, as the last line of
standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of a checkout; the simulator is imported from
``src/``, never from an installed copy::

    python3 layerbench/run.py --workload fig18-iso --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` is a separate run that reports the per-layer metrics,
samples replay with ``ITIMER_PROF`` and writes its spans to
``layerbench/out/``.  Every layer is timed from outside, around calls
into public functions; ``--profile``/``HostProfiler`` are never used
because they force the instrumented replay loop.

Each run repeats whole passes of its workload (trace generation,
compression model, simulator builds, replays) until ``--seconds`` would
be exceeded, and reports medians over passes.  ``layerbench/README.md``
describes the workloads and which layer metric moves which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from hostclock import HostClock
from tracing import ReplaySampler, Spans, duration, layer_shares

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PINS_PATH = BENCH_DIR / "pins.json"

WORKLOADS = ("fig18-iso", "capacity-squeeze", "sweep-pool")
#: Output digests are pinned for this seed (see pins.json).
PIN_SEED = 1
#: Passes per run however short ``--seconds`` is, so ``setup_s`` and
#: ``result_s`` are medians and every pass is checked against another.
MIN_PASSES = 2
#: Share of a sweep-pool run spent in the pool; the rest replays the
#: same cells inline, which checks them and gives the replay rate.
POOL_SHARE = 0.4

#: Paper values from EXPERIMENTS.md, for the informational model table.
PAPER_SPEEDUP = 1.14                    # Fig 17: +14% vs Compresso
PAPER_L3_LATENCY_NS = {"uncompressed": 53.0, "tmcc": 56.4,
                       "compresso": 73.9}  # Fig 18
PAPER_CAPACITY_GAIN = {"pageRank": 2.3, "mcf": 2.32}  # Table IV
PAPER_ML2_RATE_BOUND = 0.10             # Fig 21: the axis tops out at 10%


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help=f"rewrite pins.json for this workload from "
                             f"this run (seed {PIN_SEED} only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.pin and args.seed != PIN_SEED:
        parser.error(f"--pin records seed {PIN_SEED} only")
    return args


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"layerbench: cannot import the simulator from {src}: "
                 f"{error}")
    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"layerbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def rate(cells) -> float:
    """Trace records replayed per reference second inside
    ``Simulator.run()``.

    A cell replayed in several passes counts once, at its median replay
    time, so a host stall during one pass does not move the figure.
    """
    times: Dict[str, List[float]] = {}
    lengths: Dict[str, int] = {}
    for cell in cells:
        if cell.result is not None and cell.replay_s > 0:
            times.setdefault(cell.label, []).append(cell.replay_s)
            lengths[cell.label] = cell.trace_len
    return ratio(sum(lengths.values()),
                 sum(median(values) for values in times.values()))


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when no cell produced a ``whole``."""
    return part / whole if whole else 0.0


@dataclass
class Pass:
    """One timed pass: its cells, wall time and set-up time."""

    cells: list
    #: Host seconds, which the time box is kept in.
    wall_s: float
    #: Reference seconds of the whole pass and of its set-up.
    result_s: float
    setup_s: float
    root: dict
    #: Peak RSS (MiB) when the pass ended; for the first pass, the peak
    #: of one cold pass as a single ``repro`` invocation sees it.
    peak_mb: float = 0.0
    sampler: Optional[ReplaySampler] = None
    sweep: Optional["protocols.SweepStats"] = None


def repeat(run_one, deadline: float) -> List[Pass]:
    """``run_one(index)`` until another pass would likely end after
    ``deadline`` (a ``time.perf_counter()`` reading); at least
    ``MIN_PASSES`` times."""
    done: List[Pass] = []
    while True:
        done.append(run_one(len(done)))
        if (len(done) >= MIN_PASSES and time.perf_counter() + median(
                [one.wall_s for one in done]) > deadline):
            return done


def run_pass(workload: str, seed: int, index: int, spans: Spans,
             expected: Dict[str, str],
             sampler: Optional[ReplaySampler] = None) -> Pass:
    import protocols

    with spans.span("pass", index=index, traced=sampler is not None) as root:
        sweep = None
        if workload == "sweep-pool":
            cells, sweep = protocols.run_pool(
                seed, spans, str(OUT_DIR / f"sweep-{os.getpid()}-{index}"))
        else:
            protocol = (protocols.FIG18_ISO if workload == "fig18-iso"
                        else protocols.CAPACITY_SQUEEZE)
            cells = protocols.run_inline(protocol, seed, spans, sampler)
        with spans.span("verify"):
            for cell in cells:
                cell.check(expected)
    if sweep is not None:
        setup_s = sweep.setup_s
    else:
        setup_s = sum(spans.total_s(root, name)
                      for name in ("gen", "model", "build"))
    return Pass(cells, root["end_s"] - root["start_s"], duration(root),
                setup_s, root, peak_rss_mb(with_children=sweep is not None),
                sampler, sweep)


def simulated_counts(cells) -> Dict[str, float]:
    """Per-layer work counts summed over one pass's cells.  They repeat
    exactly for a seed and must not move under a host-only speed-up."""
    from repro.core.base import ACCESS_PATHS

    results = [cell.result for cell in cells if cell.result is not None]

    def total(key: str) -> float:
        return sum(result.metrics.get(key, 0) for result in results)

    two_level = [result for result in results
                 if "controller.ml2.access_rate" in result.metrics]
    measured = sum(result.accesses for result in results)
    counts = {
        "vm.tlb_miss_rate": ratio(
            sum(result.tlb_miss_rate * result.accesses
                for result in results), measured),
        "vm.walks": total("walker.walks.value"),
        "vm.ptb_fetches": total("walker.ptb_fetches.value"),
        "cache.l1_hit_rate": ratio(total("cache.l1.hits"),
                                   total("cache.l1.total")),
        "cache.l3_misses": sum(result.l3_misses for result in results),
        "mc.cte_hit_rate": ratio(total("controller.cte_cache.hits"),
                                 total("controller.cte_cache.total")),
        "mc.ml2_access_rate": ratio(
            sum(result.ml2_access_rate * result.l3_misses
                for result in two_level),
            sum(result.l3_misses for result in two_level)),
        "mc.migrations": (total("controller.ml2_to_ml1_migrations")
                          + total("controller.ml1_to_ml2_evictions")),
        "dram.reads": sum(result.dram_reads for result in results),
        "dram.row_hit_rate": ratio(total("dram.row_buffer.hits"),
                                   total("dram.row_buffer.total")),
    }
    for path in ACCESS_PATHS:
        counts[f"core.path.{path}"] = sum(
            round(result.path_fractions.get(path, 0.0) * result.l3_misses)
            for result in results)
    return counts


def replay_layer_metrics(cells_by_pass, samplers, untraced_rate: float,
                         spans, roots) -> Dict[str, float]:
    """Host time of the single-process layers, from traced passes."""
    cells = [cell for cells in cells_by_pass for cell in cells]
    traced_rate = rate(cells)
    replayed = [cell for cell in cells if cell.result is not None]
    replay_s = sum(cell.replay_s for cell in replayed)
    metrics = {
        "workloads.gen_s": median([spans.total_s(root, "gen")
                                   for root in roots]),
        "compression.model_s": median([spans.total_s(root, "model")
                                       for root in roots]),
        "sim.build_s": median([spans.total_s(root, "build")
                               for root in roots]),
        "sim.replay_s": median([spans.total_s(root, "replay")
                                for root in roots]),
        "sim.replay_ns_per_access": 1e9 * ratio(
            replay_s, sum(cell.trace_len for cell in replayed)),
        "sim.replay_us_per_l3_miss": 1e6 * ratio(
            replay_s, sum(cell.result.l3_misses for cell in replayed)),
        "trace.overhead_acc_per_s": traced_rate - untraced_rate,
    }
    for controller in ("compresso", "tmcc"):
        metrics[f"sim.replay_acc_per_s.{controller}"] = rate(
            [cell for cell in cells if cell.controller == controller])
    metrics.update(layer_shares(samplers))
    return metrics


def inline_job_metrics(passes) -> Dict[str, float]:
    """``sweep.*`` for a single caller: a job is one cell's build and
    replay, nothing queues, and nothing is retried."""
    job_s = [cell.build_s + cell.replay_s
             for one in passes for cell in one.cells
             if cell.result is not None] or [0.0]
    busy = [sum(cell.build_s + cell.replay_s for cell in one.cells)
            / one.result_s for one in passes]
    return {
        "sweep.job_s_p50": median(job_s),
        "sweep.job_s_max": max(job_s),
        "sweep.dispatch_wait_s": 0.0,
        "sweep.worker_busy_frac": median(busy),
        "sweep.retries": 0,
        "sweep.store_retries": 0,
    }


def pool_job_metrics(passes) -> Dict[str, float]:
    stats = [one.sweep for one in passes]
    job_s = [value for one in stats for value in one.job_s] or [0.0]
    waits = [value for one in stats for value in one.dispatch_wait_s]
    return {
        "sweep.job_s_p50": median(job_s),
        "sweep.job_s_max": max(job_s),
        "sweep.dispatch_wait_s": ratio(sum(waits), len(waits)),
        "sweep.worker_busy_frac": median([one.busy_frac for one in stats]),
        "sweep.retries": sum(one.retries for one in stats),
        "sweep.store_retries": sum(one.store_retries for one in stats),
    }


def model_table(workload: str, cells) -> List[str]:
    """Model outputs beside the paper's values; informational only."""
    results = {cell.label: cell.result for cell in cells if cell.ok}
    lines = []

    def row(name: str, measured: float, paper: float, note: str = ""):
        error = (measured - paper) / paper
        lines.append(f"model  {name:<48} measured {measured:9.4f}  "
                     f"paper {paper:9.4f}  error {error:+7.1%}{note}")

    if workload == "fig18-iso":
        from protocols import FIG18_ISO

        speedups = [results[f"{name}/tmcc@iso"].performance
                    / results[f"{name}/compresso"].performance
                    for name in FIG18_ISO.workloads
                    if f"{name}/tmcc@iso" in results
                    and f"{name}/compresso" in results]
        if speedups:
            row("tmcc/compresso speedup (geomean)",
                math.exp(sum(map(math.log, speedups)) / len(speedups)),
                PAPER_SPEEDUP)
        for controller, paper in PAPER_L3_LATENCY_NS.items():
            suffix = "@iso" if controller == "tmcc" else ""
            latencies = [results[f"{name}/{controller}{suffix}"]
                         .avg_l3_miss_latency_ns
                         for name in FIG18_ISO.workloads
                         if f"{name}/{controller}{suffix}" in results]
            if latencies:
                row(f"L3 miss latency ns, {controller} (mean)",
                    sum(latencies) / len(latencies), paper)
    elif workload == "capacity-squeeze":
        for name, paper in PAPER_CAPACITY_GAIN.items():
            squeezed = results.get(f"{name}/tmcc@0.6x")
            reference = results.get(f"{name}/compresso")
            if squeezed is None or reference is None:
                continue
            row(f"{name} ML2 access rate, tmcc@0.6x",
                squeezed.ml2_access_rate, PAPER_ML2_RATE_BOUND,
                "  (paper: axis bound)")
            row(f"{name} compression ratio gain over compresso",
                squeezed.compression_ratio / reference.compression_ratio,
                paper, "  (paper: Table IV, iso-performance)")
    return lines


def load_pins(workload: str, seed: int) -> Dict[str, str]:
    if seed != PIN_SEED or not PINS_PATH.exists():
        return {}
    with open(PINS_PATH) as handle:
        return json.load(handle)["digests"].get(workload, {})


def write_pins(workload: str, cells) -> None:
    if not all(cell.ok for cell in cells):
        sys.exit("layerbench: not pinning a run with failed cells")
    pins = {"seed": PIN_SEED, "digests": {}}
    if PINS_PATH.exists():
        with open(PINS_PATH) as handle:
            pins = json.load(handle)
    pins["digests"][workload] = {cell.label: cell.digest for cell in cells}
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_program()
    import protocols

    OUT_DIR.mkdir(exist_ok=True)
    clock = HostClock()
    spans = Spans(clock)
    expected = {} if args.pin else load_pins(args.workload, args.seed)
    pool = args.workload == "sweep-pool"

    # Time-boxed passes, timed in reference seconds by ``clock`` (see
    # hostclock.py) while it ticks.  In a traced run every second
    # replaying pass is sampled, so traced and untraced replay rates come
    # from one run.
    # sweep-pool spends the first 40% of its time in the pool and the
    # rest replaying the same cells inline, after the pool so the forked
    # workers do not inherit this process's heap.
    started = time.perf_counter()

    def timed_pass(index: int) -> Pass:
        sampler = (ReplaySampler() if args.trace and not pool
                   and index % 2 else None)
        one = run_pass(args.workload, args.seed, index, spans, expected,
                       sampler)
        if not expected:
            # Later passes must reproduce the first one exactly.
            expected.update({cell.label: cell.digest
                             for cell in one.cells if cell.ok})
        return one

    with clock:
        passes = repeat(timed_pass, started + (POOL_SHARE * args.seconds
                                               if pool else args.seconds))
        checked = [cell for one in passes for cell in one.cells]
        references: List[Pass] = []
        if pool:
            pinned = {} if args.pin else load_pins(args.workload, args.seed)

            def reference_pass(index: int) -> Pass:
                sampler = ReplaySampler() if args.trace and index % 2 else None
                with spans.span("reference", index=index,
                                traced=sampler is not None) as root:
                    cells = protocols.run_inline(protocols.SWEEP_POOL,
                                                 args.seed, spans, sampler)
                for cell in cells:
                    cell.check(pinned)
                if not pinned:
                    pinned.update({cell.label: cell.digest
                                   for cell in cells if cell.ok})
                return Pass(cells, root["end_s"] - root["start_s"],
                            duration(root), 0.0, root, sampler=sampler)

            references = repeat(reference_pass, started + args.seconds)
            for cell in checked:
                if not cell.error and pinned.get(cell.label) != cell.digest:
                    cell.error = "pool row differs from the inline run"
            checked += [cell for one in references for cell in one.cells]
    for cell in checked:
        if cell.error:
            print(f"FAILED {cell.label}: {cell.error}", file=sys.stderr)
    failed = sum(1 for cell in checked if not cell.ok)

    replayed = references or passes
    if args.trace:
        traced = [one for one in replayed if one.sampler is not None]
        untraced = [one for one in replayed if one.sampler is None]
        metrics = replay_layer_metrics(
            [one.cells for one in traced],
            [one.sampler for one in traced],
            rate([cell for one in untraced for cell in one.cells]),
            spans, [one.root for one in traced])
        metrics.update(pool_job_metrics(passes) if pool
                       else inline_job_metrics(traced))
        metrics.update(simulated_counts(replayed[0].cells))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write(str(spans_path), {"workload": args.workload,
                                      "seed": args.seed,
                                      "metrics": metrics})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": median([one.setup_s for one in passes]),
            "replay_acc_per_s": rate([cell for one in replayed
                                      for cell in one.cells]),
            "result_s": median([one.result_s for one in passes]),
            "peak_rss_mb": passes[0].peak_mb,
            "ok_frac": 1.0 - failed / len(checked),
        }

    if args.pin:
        write_pins(args.workload, replayed[0].cells)
    for line in model_table(args.workload, replayed[0].cells):
        print(line)
    print(f"passes {len(passes)}  inline references {len(references)}  "
          f"cells {len(checked)}  failed {failed}  seed {args.seed}  "
          f"host speed {clock.speed():.3f} of reference")
    for child in multiprocessing.active_children():
        child.join()
    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        sys.exit(f"layerbench: metrics {sorted(set(metrics) ^ set(declared))}"
                 f" differ between this run and BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def declared_metrics(trace: int) -> Dict[str, str]:
    """Metric name -> unit for this mode, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        listed = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


if __name__ == "__main__":
    sys.exit(main())
