"""Sharded execution of opaque top-k queries (paper Section 6).

The subsystem splits a query across ``W`` shards — per-shard index plus
bandit engine, coordinator merge, k-th-score threshold broadcast.
:class:`~repro.parallel.engine.ShardedTopKEngine` runs the shard
coordinator of :mod:`repro.streaming.engine` on a barrier schedule
(synchronized rounds, merged in worker order), on any backend of the one
registry :data:`repro.streaming.backends.STREAM_BACKENDS`:

* ``serial``  — deterministic single-thread simulation (virtual clock);
* ``thread``  — one thread per shard;
* ``process`` — one pinned child process per shard, built once from a
  picklable :class:`~repro.parallel.worker.ShardSpec`.

This package also holds the shard-side pieces both schedules share:
partitioning and the shard worker (:mod:`~repro.parallel.worker`), the
shard-index cache (:mod:`~repro.parallel.cache`), the zero-copy process
bootstrap (:mod:`~repro.parallel.shm`) and the process-pool start and
availability probe (:mod:`~repro.parallel.backends`).  The architecture
and protocol invariants are documented in ``docs/architecture.md``.
"""

from repro.parallel.backends import (
    available_backends,
    backend_availability,
)
from repro.parallel.cache import ShardIndexCache, shard_cache_key
from repro.parallel.shm import (
    SharedFeatureTable,
    SharedSliceRef,
    shm_available,
    shm_probe,
)
from repro.parallel.worker import (
    RoundOutcome,
    ShardDataset,
    ShardSpec,
    ShardWorker,
    build_shard_specs,
    partition_ids,
)

#: Exported from :mod:`repro.parallel.engine` on first access: that module
#: builds on :mod:`repro.streaming`, whose backends import this package.
_ENGINE_EXPORTS = ("DistributedResult", "ShardedTopKEngine", "WorkerReport",
                   "merge_worker_topk")


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.parallel import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DistributedResult",
    "RoundOutcome",
    "ShardDataset",
    "ShardIndexCache",
    "ShardSpec",
    "ShardWorker",
    "ShardedTopKEngine",
    "SharedFeatureTable",
    "SharedSliceRef",
    "WorkerReport",
    "available_backends",
    "backend_availability",
    "build_shard_specs",
    "merge_worker_topk",
    "partition_ids",
    "shard_cache_key",
    "shm_available",
    "shm_probe",
]
