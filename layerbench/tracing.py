"""Spans around the benchmark's calls into the simulator, and a sampler
that attributes replay host time to the simulator's packages.

Both observe the program from outside: spans time the public calls the
benchmark makes (trace generation, compression model, simulator build,
replay, sweep) in host and reference seconds (see ``hostclock``), and
the sampler reads the interrupted Python stack on ``SIGPROF``.  Neither
touches the simulator, so the zero-observer fast loop stays the loop
being measured.
"""

from __future__ import annotations

import json
import signal
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from hostclock import HostClock

#: Packages of ``repro`` that run inside ``Simulator.run()``.
REPLAY_LAYERS = ("sim", "cache", "vm", "mc", "core", "dram", "common")


class Spans:
    """In-memory span records with parent links, written out at the end.

    ``start_s``/``end_s`` are ``perf_counter`` readings; ``ref_s`` is the
    span's duration in reference seconds, which ``duration`` reports.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.records: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {"id": len(self.records),
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start_s": time.perf_counter(),
                  "end_s": None}
        record.update(attrs)
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            record["ref_s"] = self.clock.ref_s(record["start_s"],
                                               record["end_s"])
            self._open.pop()

    def under(self, root: dict, name: str) -> List[dict]:
        """Finished spans called ``name`` that descend from ``root``."""
        by_id = {record["id"]: record for record in self.records}
        found = []
        for record in self.records:
            if record["name"] != name or record["end_s"] is None:
                continue
            parent = record["parent"]
            while parent is not None and parent != root["id"]:
                parent = by_id[parent]["parent"]
            if parent == root["id"]:
                found.append(record)
        return found

    def total_s(self, root: dict, name: str) -> float:
        return sum(duration(record) for record in self.under(root, name))

    def write(self, path: str, extra: Dict[str, object]) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.records, **extra}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")


def duration(record: dict) -> float:
    return record["ref_s"]


class ReplaySampler:
    """``ITIMER_PROF`` sampling of replay, by innermost ``repro`` package.

    Used as a context manager around ``Simulator.run()``; the timer is
    armed only inside, so forked sweep workers never inherit it.
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.counts: Dict[str, int] = {}
        self._previous: Optional[object] = None

    def _on_sample(self, signum, frame) -> None:
        layer = "other"
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module == "hostclock":
                layer = "probe"
                break
            if module.startswith("repro."):
                layer = module.split(".")[1]
                break
            frame = frame.f_back
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def __enter__(self) -> "ReplaySampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def layer_shares(samplers: List[ReplaySampler]) -> Dict[str, float]:
    """Share of all replay samples whose innermost frame is in each
    layer (the rest sat in other packages or the benchmark); samples
    taken inside the host clock's probe are left out."""
    counts: Dict[str, int] = {}
    for sampler in samplers:
        for layer, count in sampler.counts.items():
            if layer != "probe":
                counts[layer] = counts.get(layer, 0) + count
    total = sum(counts.values()) or 1
    return {f"replay.share.{layer}": counts.get(layer, 0) / total
            for layer in REPLAY_LAYERS}
