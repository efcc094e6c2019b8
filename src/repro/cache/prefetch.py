"""Prefetchers of the simulated system (Table III).

Two flavors feed the L1/L2 caches: a next-line prefetcher with automatic
turn-off (it disables itself when its recent prefetches go unused) and a
stride prefetcher (degree 2 at L1, 4 at L2 in the paper's setup).

Prefetchers only decide *which* blocks to bring in; the hierarchy performs
the fills.  They see the miss stream, which is how hardware prefetchers are
trained in practice.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.registry import Registry

#: Prefetcher implementations, discoverable by name (``next_line``,
#: ``stride``) for hierarchy configuration and out-of-tree designs.
PREFETCHER_REGISTRY: Registry = Registry("prefetcher")

register_prefetcher = PREFETCHER_REGISTRY.register


@register_prefetcher
class NextLinePrefetcher:
    """Prefetch block+1 on a miss, with automatic turn-off.

    Usefulness is tracked over a sliding window of issued prefetches; when
    fewer than ``min_accuracy`` of the last ``window`` prefetched blocks
    were demanded, the prefetcher turns itself off (and re-evaluates after
    another window of misses).  This class holds the state; the demand
    training and miss handling run inlined in ``CacheHierarchy``'s
    access path.
    """

    name = "next_line"

    def __init__(self, window: int = 64, min_accuracy: float = 0.25) -> None:
        self.window = window
        self.min_accuracy = min_accuracy
        #: Insertion-ordered (plain dict); oldest prefetch retires first.
        self._outstanding: Dict[int, bool] = {}
        self._recent_results: List[bool] = []
        self._enabled = True
        self._cooloff = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    def _retire_oldest_if_full(self) -> None:
        outstanding = self._outstanding
        results = self._recent_results
        window = self.window
        while len(outstanding) > window:
            used = outstanding.pop(next(iter(outstanding)))
            results.append(used)
            if len(results) >= window:
                accuracy = sum(results) / len(results)
                if accuracy < self.min_accuracy:
                    self._enabled = False
                results.clear()


@register_prefetcher
class StridePrefetcher:
    """Region-based stride detection with configurable degree.

    Tracks the last address and stride per 4 KB region; after two
    consecutive accesses with the same stride it prefetches ``degree``
    blocks ahead along that stride.
    """

    name = "stride"

    def __init__(self, degree: int = 2, table_entries: int = 64) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.table_entries = table_entries
        #: region -> (last block, stride, confirmed); insertion order is
        #: recency order (pop + reinsert on every touch), oldest evicts.
        self._table: Dict[int, Tuple[int, int, bool]] = {}

    def on_access(self, block: int) -> List[int]:
        """Observe a demand access; return blocks to prefetch."""
        region = block >> 6  # 64 blocks = 4 KB region
        table = self._table
        entries = self.table_entries
        entry = table.pop(region, None)
        if entry is None:
            table[region] = (block, 0, False)
            if len(table) > entries:
                del table[next(iter(table))]
            return []
        new_stride = block - entry[0]
        if new_stride != 0 and new_stride == entry[1]:
            table[region] = (block, new_stride, True)
            if len(table) > entries:
                del table[next(iter(table))]
            return [p for i in range(self.degree)
                    if (p := block + new_stride * (i + 1)) >= 0]
        table[region] = (block, new_stride, False)
        if len(table) > entries:
            del table[next(iter(table))]
        return []
