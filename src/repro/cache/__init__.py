"""Cache substrate: set-associative caches, the three-level hierarchy of
Table III, and the next-line/stride prefetchers the simulated system uses.
"""

from repro.cache.sa_cache import CacheLine, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.prefetch import NextLinePrefetcher, StridePrefetcher

__all__ = [
    "CacheLine",
    "SetAssociativeCache",
    "CacheHierarchy",
    "HierarchyConfig",
    "NextLinePrefetcher",
    "StridePrefetcher",
]
