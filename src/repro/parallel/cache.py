"""Cross-run cache of shard layouts: partitions plus per-shard trees.

A shard layout is a property of the table, not of a query.  The
coordinator (:func:`repro.parallel.worker.build_shard_layout`) deals the
partitions from ``RngFactory(layout_seed).named("partition")`` and builds
shard ``w``'s tree from ``named(f"index:{w}")`` over that partition's
features, where the layout seed is the table's
(:data:`~repro.index.builder.INDEX_SEED`).  So a layout is a pure function
of ``(layout seed, worker count, index config, candidates, table
version)``, and :class:`ShardIndexCache` memoizes the ``(partitions,
trees)`` pair under exactly that key: every query on the same table
version, worker count and ``WHERE`` subset reuses one layout whatever its
``SEED``, and skips the shuffle and every per-shard k-means fit.

Sharing rules
-------------
* One cache maps to one dataset (the session keeps one per table; live
  tables key layouts by version and stale versions are evicted).
* A cache hit is **bit-identical** to a rebuild: the layout draws from
  its own seed, never from the query's streams, so skipping the build
  perturbs nothing.
* Layouts are built only in the coordinator, so every backend fills and
  hits the cache alike: trees ship to ``process`` children inside their
  specs (or the shared-memory segment), never built there.
* Entries are LRU-bounded (default 8): each distinct worker count,
  ``WHERE`` subset or index config holds its own layout.

The cluster tree is read-only at query time — the bandit mirrors it into
its own :class:`~repro.core.hierarchical.BanditNode` objects and arms copy
their member lists — so one cached index may back many concurrent engines.

The cache itself is **concurrency-safe**: one lock guards the LRU map
and the hit/miss counters, because the multi-tenant service
(:mod:`repro.service`) shares one cache per table across every in-flight
query's coordinator thread.  Without the lock, a ``get`` racing an
evicting ``put`` can ``KeyError`` inside ``move_to_end`` (the entry it
just saw evaporates mid-touch) — ``tests/test_service.py`` hammers
exactly that interleaving.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.index.builder import IndexConfig
from repro.index.tree import ClusterTree

#: (layout seed, n_workers, index-config fingerprint, n_elements,
#:  candidate-subset fingerprint — "" when the whole table runs,
#:  table_version — 0 for immutable datasets)
CacheKey = Tuple[int, int, str, int, str, int]

#: (partitions, per-worker indexes), id-aligned with worker order.
CacheEntry = Tuple[List[List[str]], List[ClusterTree]]


def subset_fingerprint(ids: Optional[Sequence[str]]) -> str:
    """Stable fingerprint of a candidate-id subset (WHERE pushdown).

    ``""`` when there is no filter; otherwise a digest of the ordered id
    list, so two queries whose predicates select the same candidates (in
    the same table order) share cached partitions and indexes.  Each id
    is length-prefixed before hashing — ids are arbitrary user strings,
    so no join character could be collision-free.
    """
    if ids is None:
        return ""
    digest = hashlib.sha256()
    for element_id in ids:
        encoded = element_id.encode("utf-8")
        digest.update(len(encoded).to_bytes(4, "big"))
        digest.update(encoded)
    return digest.hexdigest()[:16]


def shard_cache_key(layout_seed: int, n_workers: int,
                    index_config: Optional[IndexConfig],
                    n_elements: int,
                    subset: str = "",
                    table_version: int = 0) -> CacheKey:
    """The full determinism fingerprint of one shard layout build.

    ``table_version`` keys live-table builds: a committed write changes
    the dataset, so partitions/indexes built at version ``v`` must never
    serve a query pinned at ``v+1`` (and vice versa).  Immutable
    datasets stay at 0.
    """
    return (int(layout_seed), int(n_workers), repr(index_config),
            int(n_elements), str(subset), int(table_version))


class ShardIndexCache:
    """LRU cache of shard layouts ``(partitions, trees)`` by build inputs."""

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize!r}")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # Guards the LRU map and both counters: concurrent sessions (the
        # multi-tenant service) share one cache per table.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Fetch (and LRU-touch) an entry; count the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, partitions: List[List[str]],
            indexes: List[ClusterTree]) -> None:
        """Store one layout, evicting the least recently used past capacity."""
        if len(partitions) != len(indexes):
            raise ValueError(
                f"{len(partitions)} partitions for {len(indexes)} indexes"
            )
        entry = ([list(p) for p in partitions], list(indexes))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def evict_stale(self, table_version: int) -> int:
        """Drop entries built against any *other* table version.

        Called by the session when it reconciles a live table's write
        log: stale-version partitions could only serve queries pinned to
        versions that no longer plan, so holding them just squeezes live
        entries out of the LRU.  Returns the number of entries dropped.
        """
        table_version = int(table_version)
        with self._lock:
            stale = [key for key in self._entries
                     if key[5] != table_version]
            for key in stale:
                del self._entries[key]
            return len(stale)
