"""Sharded top-k: the shard coordinator on a barrier schedule.

:class:`ShardedTopKEngine` executes one opaque top-k query over ``W``
shards, each holding a partition of the dataset with its own index and
:class:`~repro.core.engine.TopKEngine` — Section 6's MapReduce
combination.  It is the coordinator of :mod:`repro.streaming.engine` run
in synchronized rounds:

1. the coordinator deals the remaining budget into per-shard slice caps
   (at most ``sync_interval`` scoring calls per shard per round, dealt
   fairly when the budget cannot fund a full slice each);
2. every shard runs its bandit for its cap (placement decided by the
   backend: same thread, thread pool, or dedicated child processes), and
   nothing new is submitted until the whole round has arrived;
3. the coordinator folds each shard's running top-k into the global
   :class:`~repro.core.minmax_heap.TopKBuffer` in worker order (the
   *merge*);
4. the global k-th score is broadcast back as each shard's kick-out floor
   (the *threshold broadcast*), so no shard wastes budget on elements that
   can no longer enter the merged answer.

Because a round's arrivals are merged in worker order, the answer does
not depend on timing: ``serial`` (virtual clock: each round costs its
slowest shard), ``thread`` and ``process`` (measured clock) give
bit-identical answers.  Every outcome also ships a sketch tail summary,
folded into a :class:`~repro.core.convergence.ConvergenceBound` once per
round — the final :class:`DistributedResult` reports
``displacement_bound``, an explicit upper estimate of the probability
that the budgeted answer differs from the exact one (``docs/streaming.md``,
"Confidence-bounded convergence").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

from repro.core.engine import EngineConfig
from repro.core.result import ResultBase
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig
from repro.obs.spans import TraceContext
from repro.parallel.cache import ShardIndexCache
from repro.scoring.base import Scorer
from repro.streaming.engine import (
    StreamingTopKEngine,
    WorkerReport,
    merge_worker_topk,
)

__all__ = [
    "DistributedResult",
    "ShardedTopKEngine",
    "WorkerReport",
    "merge_worker_topk",
]


@dataclass
class DistributedResult(ResultBase):
    """Merged answer plus the (simulated or measured) execution trace."""

    kind: ClassVar[str] = "sharded"

    k: int
    items: List[Tuple[str, float]]
    stk: float
    wall_time: float
    total_scored: int
    n_rounds: int
    workers: List[WorkerReport]
    checkpoints: List[Tuple[float, float]] = field(default_factory=list)
    backend: str = "serial"
    #: Upper estimate of the probability that any *unscored* element
    #: would displace this answer — the distance to the exact full-table
    #: result, from the shards' sketch tails (:mod:`repro.core.convergence`).
    displacement_bound: float = 1.0

    @property
    def budget_spent(self) -> int:
        """Total scoring calls across all shards (protocol alias)."""
        return self.total_scored

    def _extra_json(self) -> dict:
        return {
            "wall_time": float(self.wall_time),
            "n_rounds": int(self.n_rounds),
            "backend": str(self.backend),
            "workers": [
                {"worker_id": int(report.worker_id),
                 "n_elements": int(report.n_elements),
                 "n_scored": int(report.n_scored),
                 "virtual_time": float(report.virtual_time),
                 "local_stk": float(report.local_stk)}
                for report in self.workers
            ],
        }

    def summary(self) -> str:
        """One-line report."""
        bound = ("" if self.displacement_bound >= 1.0
                 else f", displacement bound<={self.displacement_bound:.3g}")
        return (
            f"top-{self.k}: STK={self.stk:.4f} from {len(self.workers)} "
            f"workers, {self.total_scored} total scores in "
            f"{self.n_rounds} rounds, wall time {self.wall_time:.3f}s"
            f"{bound}"
        )


class ShardedTopKEngine(StreamingTopKEngine):
    """The shard coordinator on a barrier schedule.

    Parameters are those of
    :class:`~repro.streaming.engine.StreamingTopKEngine`, except:

    sync_interval:
        Scoring calls per shard between coordinator merges (the slice
        budget of one round).
    trace:
        Optional :class:`~repro.obs.spans.TraceContext`.  When given, the
        coordinator opens one ``round[i]`` span per round and stitches
        each shard's fragment under it as ``shard[j]``, with the
        post-merge threshold and displacement bound as attributes.
    gate:
        Optional service budget gate.  Each slice cap is drawn from it at
        submission and the unspent part (memo hits, exhausted shards)
        refunded at the merge; an underfunded slice is refunded whole and
        its shard left out of the round, so the run winds down at round
        barriers.

    There is no early stop (``stable_slices`` / ``confidence``) and no
    arrival recording: a round's merge order never depends on timing.
    """

    barrier = True
    engine_label = "sharded"
    snapshot_format = "repro-sharded-snapshot/1"

    def __init__(self, dataset: Dataset, scorer: Scorer, k: int,
                 n_workers: int = 4,
                 backend: str = "serial",
                 index_config: Optional[IndexConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 sync_interval: int = 100,
                 share_threshold: bool = True,
                 seed=None,
                 index_cache: Optional[ShardIndexCache] = None,
                 ids: Optional[Sequence[str]] = None,
                 shared_memory: Optional[bool] = None,
                 memo=None,
                 priors: Optional[List[Optional[dict]]] = None,
                 trace: Optional[TraceContext] = None,
                 gate=None,
                 table_version: int = 0) -> None:
        if sync_interval <= 0:
            raise ConfigurationError(
                f"sync_interval must be positive, got {sync_interval!r}"
            )
        super().__init__(
            dataset, scorer, k, n_workers=n_workers, backend=backend,
            index_config=index_config, engine_config=engine_config,
            slice_budget=sync_interval, share_threshold=share_threshold,
            seed=seed, index_cache=index_cache, ids=ids,
            shared_memory=shared_memory, memo=memo, priors=priors,
            trace=trace, gate=gate, table_version=table_version,
        )

    @property
    def sync_interval(self) -> int:
        """Scoring calls per shard per round."""
        return self.slice_budget

    @property
    def displacement_bound(self) -> float:
        """Bound on displacement by any unscored element (1.0 = unknown)."""
        return self._bound.exhaustive_bound

    def _schedule_config(self) -> dict:
        return {"sync_interval": self.sync_interval}

    @classmethod
    def _schedule_kwargs(cls, snapshot: dict) -> dict:
        return {"sync_interval": int(snapshot["sync_interval"])}

    def result(self) -> DistributedResult:
        """Assemble the merged answer and trace reached so far."""
        return DistributedResult(
            k=self.k,
            items=self._items(),
            stk=self._buffer.stk,
            wall_time=self.wall_time,
            total_scored=self.total_scored,
            n_rounds=self.n_rounds,
            workers=self._worker_reports(),
            checkpoints=list(self.checkpoints),
            backend=self.backend.name,
            displacement_bound=self._bound.exhaustive_bound,
        )
