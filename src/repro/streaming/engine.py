"""The shard coordinator: merge on arrival, or at a round barrier.

Shard workers run their own bandit in small budget *slices*; the
coordinator merges each :class:`~repro.streaming.backends.SliceEvent`
into the global :class:`~repro.core.minmax_heap.TopKBuffer` and
broadcasts the k-th score back as every shard's kick-out floor — the
paper's Section 6 protocol.  :class:`StreamingTopKEngine` runs it
barrier-free: a shard is refilled the moment its slice is merged, so the
slowest shard never gates the others and a shard picks up the latest
floor at its next slice boundary, never mid-slice.

A *round* is the same coordinator on a barrier schedule
(:class:`repro.parallel.engine.ShardedTopKEngine`): no slice is
submitted while any slice of the current round is in flight, the round's
arrivals are absorbed in worker order, and the bound refresh, threshold
broadcast and checkpoint happen once per barrier.  Arrival order then no
longer depends on timing, so every backend gives the same answer.

Protocol invariants (normative statement in ``docs/architecture.md``):

* **One slice in flight per shard.**  A shard is resubmitted only after
  its previous outcome is merged, so the floor a slice runs under is at
  most one slice stale, and the merge order is a total order of arrivals.
* **Budget reservation.**  A slice reserves its cap from the shared
  budget at submission and returns the unused part on arrival; the
  unreserved budget is offered to *all* idle active shards (dealt fairly
  when it cannot fund a full slice each), so a shard that exhausts
  mid-slice frees budget for the others and the engine never reserves
  past the requested budget even though shards stop at different times.
  Both schedules use this one dealing rule.
* **Monotone floor.**  The broadcast floor only rises (the global buffer
  threshold is monotone), so a stale floor is always a *lower bound* on
  the true one — shards may waste a little effort, never lose answers.
* **Lossless merge.**  :func:`merge_worker_topk` offers every first
  sighting and never re-admits an evicted id.

The anytime surface is :meth:`StreamingTopKEngine.results_iter`, a
generator of :class:`ProgressiveResult` snapshots (top-k, budget spent,
threshold, convergence flag, displacement bounds) emitted as merges
land — the first snapshot arrives after the first slice, i.e.
time-to-first-result is one slice latency instead of one full run.
``converged`` turns true when the answer is provably final for the drive
(budget spent or every shard exhausted) or when an optional early-stop
rule fires: ``stable_slices=s`` stops once every still-active shard has
reported ``s`` consecutive slices without the top-k id set changing (a
heuristic), and ``confidence=p`` stops once the coordinator's
:class:`~repro.core.convergence.ConvergenceBound` — fed by the sketch
tail summaries every slice ships — certifies at level ``p`` that the
rest of the budget would not change the answer (the principled stop;
see ``docs/streaming.md``).

On the ``serial`` backend the whole pipeline is a deterministic
event-driven simulation (virtual clocks, arrival order =
``(completion, worker)``), so streaming runs are snapshot-testable; on
``thread`` / ``process`` the same protocol runs on real concurrency and
the clocks are measured — and with ``record=True`` the real arrival
order is logged to a :class:`~repro.replay.trace.ArrivalTrace` that
:mod:`repro.replay` re-executes bit-identically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (ClassVar, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.core.convergence import ConvergenceBound, check_confidence
from repro.core.engine import EngineConfig, _fully_funded
from repro.core.minmax_heap import TopKBuffer
from repro.core.result import ResultBase
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError, SerializationError
from repro.index.builder import INDEX_SEED, IndexConfig
from repro.obs.metrics import (
    MEMO_HITS_TOTAL,
    ROUNDS_TOTAL,
    SLICES_TOTAL,
    THRESHOLD_STALENESS,
    UDF_CALLS_TOTAL,
)
from repro.obs.spans import TraceContext
from repro.parallel.cache import ShardIndexCache
from repro.parallel.worker import RoundOutcome, ShardSpec, build_shard_specs
from repro.scoring.base import Scorer
from repro.streaming.backends import (
    SliceEvent,
    StreamBackend,
    make_stream_backend,
)
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class WorkerReport:
    """Final statistics of one shard."""

    worker_id: int
    n_elements: int
    n_scored: int
    virtual_time: float
    local_stk: float
    fallback_events: Tuple[Tuple[int, str], ...]


def merge_worker_topk(buffer: TopKBuffer, merged_ids: Set[str],
                      items: List[Tuple[str, float]]) -> None:
    """Fold one shard's running solution into the global top-k.

    ``merged_ids`` remembers every ID ever offered: scores are immutable, so
    an element seen twice (second sight can only come from re-reporting the
    same shard's buffer, or a pathological duplicate ID across shards) is
    offered exactly once, and an evicted element — below the global k-th
    score forever — is never re-admitted.
    """
    for element_id, score in items:
        if element_id not in merged_ids:
            merged_ids.add(element_id)
            buffer.offer(score, element_id)


@dataclass(frozen=True)
class ProgressiveResult:
    """One anytime snapshot of a streaming run, yielded per merge window.

    ``top_k`` is the current merged answer (best first), ``budget_spent``
    the scoring calls consumed so far, ``threshold`` the global k-th score
    being broadcast (``None`` until the buffer fills), and ``converged``
    whether the answer is final for this drive (budget spent, every shard
    exhausted, or the early-stop stability rule fired).
    """

    top_k: List[Tuple[str, float]]
    budget_spent: int
    threshold: Optional[float]
    converged: bool
    stk: float
    wall_time: float
    n_merges: int
    backend: str
    #: Upper estimate of the probability that the *remainder of this
    #: drive's budget* still changes the top-k (what ``CONFIDENCE p``
    #: compares against ``1 - p``); monotone non-increasing per drive.
    displacement_bound: float = 1.0
    #: Same union bound without the budget cap: the estimated probability
    #: that *any* unscored element would displace the current answer —
    #: the distance to the exact full-table result.
    exhaustive_bound: float = 1.0

    @property
    def ids(self) -> List[str]:
        """Element IDs of the current answer, best first."""
        return [element_id for element_id, _score in self.top_k]

    def to_json(self) -> dict:
        """JSON-safe dict of this snapshot (the service's wire format).

        Everything a client needs to render anytime progress; consumed by
        :mod:`repro.service` when streaming snapshots over the line
        protocol.  ``json.dumps(snapshot.to_json())`` round-trips.
        """
        return {
            "top_k": [[str(element_id), float(score)]
                      for element_id, score in self.top_k],
            "budget_spent": int(self.budget_spent),
            "threshold": (None if self.threshold is None
                          else float(self.threshold)),
            "converged": bool(self.converged),
            "stk": float(self.stk),
            "wall_time": float(self.wall_time),
            "n_merges": int(self.n_merges),
            "backend": str(self.backend),
            "displacement_bound": float(self.displacement_bound),
            "exhaustive_bound": float(self.exhaustive_bound),
        }

    def summary(self) -> str:
        """One-line progress report."""
        threshold = ("-" if self.threshold is None
                     else f"{self.threshold:.4f}")
        bound = ("" if self.displacement_bound >= 1.0
                 else f" bound<={self.displacement_bound:.3g}")
        tail = " [converged]" if self.converged else ""
        return (f"t={self.wall_time:.3f}s scored={self.budget_spent} "
                f"stk={self.stk:.4f} threshold={threshold} "
                f"merges={self.n_merges}{bound}{tail}")


@dataclass
class StreamingResult(ResultBase):
    """Final answer of a streaming drive plus its anytime trace."""

    kind: ClassVar[str] = "streaming"

    k: int
    items: List[Tuple[str, float]]
    stk: float
    wall_time: float
    total_scored: int
    n_merges: int
    time_to_first_result: Optional[float]
    converged: bool
    workers: List[WorkerReport]
    #: (wall_time, budget_spent, stk) per merge — the anytime-quality curve.
    progressive: List[Tuple[float, int, float]] = field(default_factory=list)
    backend: str = "serial"
    #: Final drive-scoped / exhaustive displacement bounds (see
    #: :class:`ProgressiveResult` and :mod:`repro.core.convergence`).
    displacement_bound: float = 1.0
    exhaustive_bound: float = 1.0

    @property
    def budget_spent(self) -> int:
        """Total scoring calls across all shards (protocol alias)."""
        return self.total_scored

    def _extra_json(self) -> dict:
        return {
            "wall_time": float(self.wall_time),
            "n_merges": int(self.n_merges),
            "time_to_first_result": (
                None if self.time_to_first_result is None
                else float(self.time_to_first_result)
            ),
            "converged": bool(self.converged),
            "backend": str(self.backend),
            "exhaustive_bound": float(self.exhaustive_bound),
            "progressive": [[float(t), int(n), float(s)]
                            for t, n, s in self.progressive],
        }

    def summary(self) -> str:
        """One-line report (mirrors ``DistributedResult.summary``)."""
        ttfr = ("n/a" if self.time_to_first_result is None
                else f"{self.time_to_first_result:.3f}s")
        return (
            f"top-{self.k}: STK={self.stk:.4f} from {len(self.workers)} "
            f"workers, {self.total_scored} total scores in "
            f"{self.n_merges} merges, wall time {self.wall_time:.3f}s, "
            f"first result after {ttfr}"
        )


class StreamingTopKEngine:
    """Shard coordinator: continuous shards, merge-on-arrival.

    Parameters
    ----------
    dataset / scorer / k:
        The query, exactly as for :class:`~repro.core.engine.TopKEngine`.
    n_workers:
        Number of shards (1 is valid: a single shard still streams
        progressive snapshots every slice).
    backend:
        ``"serial"`` (deterministic event-driven simulation, virtual
        clock), ``"thread"`` or ``"process"`` (real concurrency, measured
        clock) — the names of
        :data:`~repro.streaming.backends.STREAM_BACKENDS` — or a ready
        :class:`~repro.streaming.backends.StreamBackend` instance (how
        :mod:`repro.replay` injects its trace-driven backend).
    slice_budget:
        Scoring calls per shard per slice; smaller slices mean fresher
        thresholds and earlier first results at slightly more merge
        traffic.
    share_threshold:
        Re-broadcast the global k-th score after every merge (shards pick
        it up at their next slice boundary).
    stable_slices:
        Optional early-stop rule: stop once every still-active shard has
        reported this many consecutive slices while the top-k id set and
        the buffer's fill stayed unchanged.  ``None`` disables.
    confidence:
        Optional principled early stop (see :mod:`repro.core.convergence`
        and ``docs/streaming.md``): stop once the displacement bound —
        the estimated probability that the rest of the drive still
        changes the top-k — drops to ``1 - confidence`` or below.
        ``confidence=0.95`` stops when the answer is certified stable at
        the 95% level under the shards' sketch model.  ``None`` disables;
        composable with ``stable_slices`` (whichever fires first).
    record:
        Record every slice submission and merge arrival into a
        JSON-safe :class:`~repro.replay.trace.ArrivalTrace` (read it with
        :meth:`trace`), making real thread/process runs replayable
        bit for bit via :mod:`repro.replay`.
    seed:
        Root seed of the shards' bandit streams; shards get independent
        derived streams regardless of the backend (the root entropy
        travels to child processes, not live generators).  It does not
        reach the shard layout: partitions and per-shard trees draw from
        the table's :data:`~repro.index.builder.INDEX_SEED`.
    index_config / engine_config:
        Per-partition index configuration (cluster count clamped per
        shard) and per-shard engine settings (``k`` is forced to the
        query's k so the merge is lossless).
    index_cache:
        Optional :class:`~repro.parallel.cache.ShardIndexCache` shared
        across runs on the same dataset: a hit reuses the cached layout
        (partitions and per-shard trees) bit-identically; a miss builds
        it in the coordinator and stores it, on every backend.
    ids:
        Optional candidate subset (``WHERE`` pushdown): only those
        elements are partitioned, indexed and drawn.
    shared_memory:
        Zero-copy shard bootstrap for the process backend
        (:mod:`repro.parallel.shm`): ``None`` auto-enables where POSIX
        shm works, ``True`` requires it, ``False`` forces the inline
        copy.  Answers are bit-identical either way.
    memo / priors:
        ``memo`` is a :class:`~repro.memo.store.MemoView` whose frozen
        per-shard slices ride the specs (fresh scores are recorded back
        at merge time, process children stay read-only); ``priors`` is
        one warm-start payload per shard (:mod:`repro.memo.priors`),
        applied to fresh engines only.  Memo hits charge full batch cost,
        so the serial backend's arrival order — keyed on virtual
        completion — is unchanged and warm runs stay bit-identical.
    trace:
        Optional :class:`~repro.obs.spans.TraceContext` (distinct from
        ``record``'s replayable :class:`~repro.replay.trace.ArrivalTrace`).
        When given, each drive opens a ``drive[d]`` span (each barrier
        round a ``round[i]`` span) and every arriving slice's fragment is
        stitched under it at merge time.  ``None`` (the default) keeps
        the event loop untouched.
    gate:
        Optional :class:`~repro.service.budget.QueryGrant`-shaped budget
        gate (``acquire(n) -> int`` / ``refund(n)``).  Each slice cap is
        drawn from it at submission and the slice's free portion (memo
        hits, early exhaustion) refunded at merge.  Fully funded slices
        leave submission order and caps untouched — bit-identity is
        preserved; a partial grant is refunded whole and the shard is
        simply not refilled, so the drive winds down at slice
        boundaries.  Cancellation surfaces at the next refill as
        :class:`~repro.errors.QueryCancelledError`.
    table_version:
        Version of the live-table snapshot this run executes against
        (0 for immutable datasets).  Keys the shard-index cache, stamps
        every spec and snapshot payload, and is asserted against each
        arriving :class:`~repro.parallel.worker.RoundOutcome`.
    """

    #: Barrier schedule: submit nothing while a round is in flight, merge
    #: the round in worker order, settle once per barrier.
    barrier: ClassVar[bool] = False
    #: ``engine`` label of the UDF-call / memo-hit metrics.
    engine_label: ClassVar[str] = "streaming"
    snapshot_format: ClassVar[str] = "repro-streaming-snapshot/1"

    def __init__(self, dataset: Dataset, scorer: Scorer, k: int,
                 n_workers: int = 4,
                 backend: Union[str, StreamBackend] = "serial",
                 index_config: Optional[IndexConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 slice_budget: int = 100,
                 share_threshold: bool = True,
                 stable_slices: Optional[int] = None,
                 confidence: Optional[float] = None,
                 record: bool = False,
                 seed=None,
                 index_cache: Optional[ShardIndexCache] = None,
                 ids: Optional[Sequence[str]] = None,
                 shared_memory: Optional[bool] = None,
                 memo=None,
                 priors: Optional[List[Optional[dict]]] = None,
                 trace: Optional[TraceContext] = None,
                 gate=None,
                 table_version: int = 0) -> None:
        if n_workers <= 0:
            raise ConfigurationError(
                f"n_workers must be positive, got {n_workers!r}"
            )
        if slice_budget <= 0:
            raise ConfigurationError(
                f"slice_budget must be positive, got {slice_budget!r}"
            )
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k!r}")
        if stable_slices is not None and stable_slices <= 0:
            raise ConfigurationError(
                f"stable_slices must be positive, got {stable_slices!r}"
            )
        self._ids: Optional[List[str]] = (
            list(ids) if ids is not None else None
        )
        self._population = (len(self._ids) if self._ids is not None
                            else len(dataset))
        if self._population < n_workers:
            raise ConfigurationError(
                f"{n_workers} workers for only {self._population} elements"
            )
        self.dataset = dataset
        self.scorer = scorer
        self.k = int(k)
        self.n_workers = int(n_workers)
        self.slice_budget = int(slice_budget)
        self.share_threshold = share_threshold
        self.stable_slices = stable_slices
        self.confidence = check_confidence(confidence)
        self._factory = RngFactory(seed)
        self._root_entropy = self._factory._root.entropy
        self._layout_seed = INDEX_SEED
        self._index_config = index_config
        self._engine_config = engine_config or EngineConfig(k=k)
        self._index_cache = index_cache
        self._shared_memory = shared_memory
        self._shm_table = None
        self._memo = memo
        self._priors = priors
        self._trace = trace
        self._gate = gate
        self._table_version = int(table_version)
        self._drive_count = 0
        self._round_open = False
        self._submit_merges: Dict[int, int] = {}
        self.backend: StreamBackend = (
            backend if isinstance(backend, StreamBackend)
            else make_stream_backend(backend)
        )
        self._recorder = None
        if record:
            from repro.replay.trace import TraceRecorder

            self._recorder = TraceRecorder()
        # Coordinator state (persists across drives for resumption).
        self._started = False
        self._partitions: List[List[str]] = []
        self._buffer: TopKBuffer[str] = TopKBuffer(self.k)
        self._merged_ids: Set[str] = set()
        self.wall_time = 0.0
        self.total_scored = 0
        self.n_merges = 0
        self.n_rounds = 0
        self.time_to_first_result: Optional[float] = None
        self.converged = False
        #: (wall_time, budget_spent, stk) per merge — the anytime curve.
        self.progressive: List[Tuple[float, int, float]] = []
        #: (wall_time, stk) per barrier round.
        self.checkpoints: List[Tuple[float, float]] = []
        self._worker_times: List[float] = [0.0] * self.n_workers
        self._active: List[bool] = [True] * self.n_workers
        self._floor: Optional[float] = None
        self._last_outcomes: List[Optional[RoundOutcome]] = (
            [None] * self.n_workers
        )
        self._inflight: Dict[int, int] = {}   # worker -> reserved cap
        self._reserved = 0
        self._stable_count: List[int] = [0] * self.n_workers
        self._bound = ConvergenceBound(self.n_workers)
        self._resume_count = 0
        self._restore_payloads: Optional[List[dict]] = None
        # Real-clock bookkeeping for the current drive.
        self._drive_started: Optional[float] = None
        self._wall_base = 0.0
        self._last_total = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Release backend resources (child processes, thread pools)."""
        self.backend.close()
        self._release_shm()

    def _release_shm(self) -> None:
        """Unlink the coordinator's shared-memory table, if any (idempotent)."""
        if self._shm_table is not None:
            self._shm_table.close()
            self._shm_table = None

    # -- setup ---------------------------------------------------------------

    def start(self) -> None:
        """Bootstrap every shard eagerly (drives otherwise do it lazily).

        Exposed so callers (and ``benchmarks/bench_shm.py``) can time the
        bootstrap — spec assembly plus backend start — separately from
        query execution.
        """
        self._ensure_started()

    def _build_specs(self) -> List[ShardSpec]:
        self._partitions, specs, self._shm_table = build_shard_specs(
            self.dataset, self.scorer,
            n_workers=self.n_workers, k=self.k,
            engine_config=self._engine_config,
            index_config=self._index_config,
            factory=self._factory, root_entropy=self._root_entropy,
            materialize=self.backend.name == "process",
            layout_seed=self._layout_seed,
            restore_payloads=self._restore_payloads,
            resume_count=self._resume_count,
            index_cache=self._index_cache,
            ids=self._ids,
            shared_memory=self._shared_memory,
            memo_snapshot=(self._memo.snapshot()
                           if self._memo is not None else None),
            priors=self._priors,
            trace=self._trace is not None,
            table_version=self._table_version,
        )
        return specs

    def _ensure_started(self) -> None:
        if self._started:
            return
        specs = self._build_specs()
        try:
            self.backend.start(specs, self.dataset, self.scorer,
                               worker_times=list(self._worker_times))
        except BaseException:
            # A failed start must leak neither pools nor the segment.
            self.backend.close()
            self._release_shm()
            raise
        self._started = True

    # -- execution -----------------------------------------------------------

    def _refill(self, total_budget: int) -> None:
        """Submit slices to every idle active shard the budget can cover.

        Called at drive start and after every merge (on the barrier
        schedule: after every round), so budget freed by a shard that
        exhausted mid-slice is re-offered to *all* idle shards, not just
        the one that arrived.  When the unreserved budget cannot fund a
        full slice per idle shard, it is dealt fairly (each shard gets
        its share of what remains) instead of front-loading the lowest
        worker ids.
        """
        idle = [worker for worker in range(self.n_workers)
                if self._active[worker] and worker not in self._inflight]
        for position, worker in enumerate(idle):
            unreserved = total_budget - self.total_scored - self._reserved
            if unreserved <= 0:
                return
            cap = min(self.slice_budget,
                      max(1, unreserved // (len(idle) - position)),
                      unreserved)
            # The service budget gate funds whole slices or none: an
            # underfunded refill just leaves shards idle (the drive winds
            # down), never shrinks a cap — that would perturb the run.
            if self._gate is not None and not _fully_funded(self._gate, cap):
                return
            if self.barrier and not self._inflight:
                self._open_round()
            floor = self._floor if self.share_threshold else None
            if self._recorder is not None:
                self._recorder.submit(worker, cap, floor)
            self.backend.submit(worker, cap, floor)
            self._inflight[worker] = cap
            self._submit_merges[worker] = self.n_merges
            self._reserved += cap

    def _open_round(self) -> None:
        self.n_rounds += 1
        if self._trace is not None:
            self._trace.push(f"round[{self.n_rounds - 1}]")
            self._round_open = True

    def _close_round_span(self) -> None:
        if self._round_open:
            self._trace.pop()        # round[i]
            self._round_open = False

    def _topk_signature(self) -> Tuple[int, frozenset]:
        return len(self._buffer), frozenset(self._buffer.payloads())

    def _absorb(self, outcome: RoundOutcome) -> int:
        """Merge one arrived slice; return its threshold staleness."""
        worker = outcome.worker_id
        if outcome.table_version != self._table_version:
            raise ConfigurationError(
                f"shard {worker} reported table version "
                f"{outcome.table_version}, coordinator pinned "
                f"{self._table_version}"
            )
        cap = self._inflight.pop(worker)
        # Merges that landed while this slice was in flight — exactly how
        # stale the threshold floor it ran under had become by arrival.
        staleness = self.n_merges - self._submit_merges.pop(
            worker, self.n_merges)
        self._reserved -= cap
        self.total_scored += outcome.scored
        self._worker_times[worker] += outcome.cost
        self._active[worker] = not outcome.exhausted
        self._last_outcomes[worker] = outcome
        if self._memo is not None:
            # Coordinator-side write-back: shards read their frozen memo
            # slice, fresh scores land here in merge order (process
            # children stay read-only).
            if outcome.fresh_scores:
                self._memo.record_pairs(outcome.fresh_scores)
            self._memo.count(outcome.memo_hits, len(outcome.fresh_scores))
        merge_worker_topk(self._buffer, self._merged_ids, outcome.topk)
        self.n_merges += 1
        self._bound.update(worker, outcome.tail)
        fresh = outcome.scored - outcome.memo_hits
        if self._gate is not None and cap > fresh:
            # The slice reserved its full cap at submission; give back
            # what never became a real UDF call (memo hits, exhaustion).
            self._gate.refund(cap - fresh)
        backend = self.backend.name
        if fresh:
            UDF_CALLS_TOTAL.inc(fresh, engine=self.engine_label,
                                backend=backend)
        if outcome.memo_hits:
            MEMO_HITS_TOTAL.inc(outcome.memo_hits, engine=self.engine_label,
                                backend=backend)
        return staleness

    def _settle(self, virtual_completion: Optional[float]) -> None:
        """Advance the clock, floor and bound after a merge or a barrier."""
        if self.backend.virtual_clock:
            self.wall_time = max(self.wall_time, virtual_completion or 0.0)
        else:
            assert self._drive_started is not None
            self.wall_time = self._wall_base + (
                time.perf_counter() - self._drive_started
            )
        if self.time_to_first_result is None:
            self.time_to_first_result = self.wall_time
        if self.share_threshold and self._buffer.threshold is not None:
            self._floor = self._buffer.threshold
        self._bound.refresh(
            self._buffer.threshold,
            len(self._buffer) >= self.k,
            max(0, self._last_total - self.total_scored),
        )
        self.progressive.append(
            (self.wall_time, self.total_scored, self._stk)
        )

    def _merge_slice(self, event: SliceEvent) -> None:
        """Barrier-free step: merge the next arrival on its own."""
        outcome = event.outcome
        worker = outcome.worker_id
        before = (self._topk_signature() if self.stable_slices is not None
                  else None)
        staleness = self._absorb(outcome)
        self._settle(event.virtual_completion)
        if before is not None:
            if self._topk_signature() == before:
                self._stable_count[worker] += 1
            else:
                self._stable_count = [0] * self.n_workers
        if self._recorder is not None:
            self._recorder.arrival(worker, outcome.scored, self.wall_time,
                                   cost=outcome.cost)
        SLICES_TOTAL.inc(backend=self.backend.name)
        THRESHOLD_STALENESS.observe(staleness, backend=self.backend.name)
        if self._trace is not None and outcome.span is not None:
            span = self._trace.attach(outcome.span)
            span.attrs.update(
                staleness=staleness,
                threshold=self._buffer.threshold,
                bound=self._bound.exhaustive_bound,
            )

    def _merge_round(self) -> None:
        """Barrier step: wait for the whole round, merge it in worker order."""
        outcomes = sorted(
            (self.backend.next_event().outcome
             for _ in range(len(self._inflight))),
            key=lambda outcome: outcome.worker_id,
        )
        for outcome in outcomes:
            self._absorb(outcome)
        # The virtual clock advances by the round's slowest shard.
        self._settle(self.wall_time + max(o.cost for o in outcomes))
        self.checkpoints.append((self.wall_time, self._stk))
        ROUNDS_TOTAL.inc(backend=self.backend.name)
        if self._trace is not None:
            for outcome in outcomes:
                if outcome.span is not None:
                    self._trace.attach(outcome.span,
                                       rename=f"shard[{outcome.worker_id}]")
            if self._round_open:
                self._trace.annotate(threshold=self._buffer.threshold,
                                     bound=self._bound.exhaustive_bound,
                                     total_scored=self.total_scored)
                self._close_round_span()

    def _merge_next(self) -> None:
        if self.barrier:
            self._merge_round()
        else:
            self._merge_slice(self.backend.next_event())

    def _is_stable(self) -> bool:
        """Early-stop rule: every active shard quiet for ``stable_slices``."""
        if self.stable_slices is None or len(self._buffer) < self.k:
            return False
        active = [w for w in range(self.n_workers) if self._active[w]]
        if not active:
            return True
        return all(self._stable_count[w] >= self.stable_slices
                   for w in active)

    def _is_confident(self) -> bool:
        """Principled early stop: displacement bound reached ``1 - p``."""
        return (self.confidence is not None
                and len(self._buffer) >= self.k
                and self._bound.drive_bound <= 1.0 - self.confidence)

    @property
    def displacement_bound(self) -> float:
        """Current drive-scoped displacement bound (1.0 = no certificate)."""
        return self._bound.drive_bound

    @property
    def exhaustive_bound(self) -> float:
        """Current bound on displacement by *any* unscored element."""
        return self._bound.exhaustive_bound

    def _is_finished(self, total_budget: int) -> bool:
        """Provably final for this drive: budget spent or shards exhausted."""
        return (self.total_scored >= total_budget
                or not any(self._active))

    def _progressive(self, converged: bool) -> ProgressiveResult:
        return ProgressiveResult(
            top_k=self._items(),
            budget_spent=self.total_scored,
            threshold=self._buffer.threshold,
            converged=converged,
            stk=self._stk,
            wall_time=self.wall_time,
            n_merges=self.n_merges,
            backend=self.backend.name,
            displacement_bound=self._bound.drive_bound,
            exhaustive_bound=self._bound.exhaustive_bound,
        )

    def _begin_drive(self) -> None:
        self._drive_started = time.perf_counter()
        self._wall_base = self.wall_time

    def results_iter(self, budget: Optional[int] = None,
                     every: Optional[int] = None,
                     ) -> Iterator[ProgressiveResult]:
        """Drive the pipeline, yielding anytime snapshots as merges land.

        ``budget`` is cumulative total scoring calls across drives: after
        a partial drive (or a snapshot/restore), a larger budget
        continues from the merged state already reached.  ``every``
        throttles snapshots to one per that many newly scored elements
        (default: one per slice, i.e. roughly every merge).  The final
        snapshot is always yielded and carries the drive's ``converged``
        verdict.  Abandoning the generator mid-drive closes its spans and
        leaves slices in flight; they are drained on the next drive or
        :meth:`snapshot` call.
        """
        self._ensure_started()
        total = (self._population if budget is None
                 else min(budget, self._population))
        self._last_total = total
        step = self.slice_budget if every is None else max(1, int(every))
        self._bound.begin_drive()
        if self._recorder is not None:
            self._recorder.begin_drive(total, every)
        drive_span = None
        if self._trace is not None and not self.barrier:
            drive_span = self._trace.push(f"drive[{self._drive_count}]",
                                          budget=total)
            self._drive_count += 1
        self._begin_drive()
        try:
            self._refill(total)
            last_yield = self.total_scored
            stopping = False
            while self._inflight:
                self._merge_next()
                if not stopping and (self._is_stable()
                                     or self._is_confident()):
                    stopping = True  # early stop: drain, no resubmissions
                if not stopping:
                    self._refill(total)
                if (self._inflight
                        and self.total_scored - last_yield >= step):
                    yield self._progressive(converged=False)
                    last_yield = self.total_scored
            self.converged = stopping or self._is_finished(total)
        finally:
            # Also on an abandoned or failed drive: no span stays open.
            if self._trace is not None:
                self._close_round_span()
            if drive_span is not None:
                drive_span.attrs.update(
                    threshold=self._buffer.threshold,
                    bound=self._bound.exhaustive_bound,
                    total_scored=self.total_scored,
                    merges=self.n_merges,
                )
                self._trace.pop()        # drive[d]
        yield self._progressive(converged=self.converged)

    def run(self, budget: Optional[int] = None,
            every: Optional[int] = None):
        """Drive to completion and return the final result."""
        for _snapshot in self.results_iter(budget, every=every):
            pass
        return self.result()

    @property
    def _stk(self) -> float:
        """STK of the merged answer, exact and so merge-order independent.

        The buffer's running sum adds gains in arrival order, which is
        timing-dependent on thread and process backends.
        """
        return math.fsum(self._buffer.scores())

    def _items(self) -> List[Tuple[str, float]]:
        return [(element_id, score)
                for score, element_id in self._buffer.items()]

    def _worker_reports(self) -> List[WorkerReport]:
        reports = []
        for worker in range(self.n_workers):
            outcome = self._last_outcomes[worker]
            reports.append(WorkerReport(
                worker_id=worker,
                n_elements=(len(self._partitions[worker])
                            if self._partitions else 0),
                n_scored=outcome.n_scored_total if outcome else 0,
                virtual_time=self._worker_times[worker],
                local_stk=outcome.local_stk if outcome else 0.0,
                fallback_events=tuple(outcome.fallback_events)
                if outcome else (),
            ))
        return reports

    def result(self) -> StreamingResult:
        """Assemble the merged answer and anytime trace reached so far."""
        return StreamingResult(
            k=self.k,
            items=self._items(),
            stk=self._stk,
            wall_time=self.wall_time,
            total_scored=self.total_scored,
            n_merges=self.n_merges,
            time_to_first_result=self.time_to_first_result,
            converged=self.converged,
            workers=self._worker_reports(),
            progressive=list(self.progressive),
            backend=self.backend.name,
            displacement_bound=self._bound.drive_bound,
            exhaustive_bound=self._bound.exhaustive_bound,
        )

    # -- recorded-arrival tracing -------------------------------------------

    def trace(self):
        """The recorded :class:`~repro.replay.trace.ArrivalTrace` so far.

        Requires the engine to have been constructed with ``record=True``;
        read it after (or during) a drive and replay it with
        :func:`repro.replay.replay_run`.
        """
        if self._recorder is None:
            raise ConfigurationError(
                "arrival tracing is off; construct the engine with "
                "record=True to record a replayable trace"
            )
        from repro.replay.trace import ArrivalTrace

        return ArrivalTrace(
            backend=self.backend.name,
            n_workers=self.n_workers,
            k=self.k,
            slice_budget=self.slice_budget,
            share_threshold=self.share_threshold,
            stable_slices=self.stable_slices,
            confidence=self.confidence,
            root_entropy=self._root_entropy,
            drives=[dict(drive) for drive in self._recorder.drives],
            events=[dict(event) for event in self._recorder.events],
        )

    # -- pause / resume ------------------------------------------------------

    def _drain(self) -> None:
        """Absorb any in-flight slices without resubmitting (quiesce)."""
        if not self._inflight:
            return
        if self._drive_started is None:
            self._begin_drive()
        while self._inflight:
            self._merge_next()

    def _schedule_config(self) -> dict:
        """The schedule settings a snapshot must carry to be restored."""
        return {"slice_budget": self.slice_budget,
                "stable_slices": self.stable_slices,
                "confidence": self.confidence}

    @classmethod
    def _schedule_kwargs(cls, snapshot: dict) -> dict:
        """Constructor arguments for :meth:`_schedule_config` output."""
        stable = snapshot.get("stable_slices")
        confidence = snapshot.get("confidence")
        return {"slice_budget": int(snapshot["slice_budget"]),
                "stable_slices": None if stable is None else int(stable),
                "confidence": (None if confidence is None
                               else float(confidence))}

    def snapshot(self) -> dict:
        """Capture the full run: coordinator state + shard engines.

        In-flight slices are drained first (shards snapshot at slice
        boundaries, where no batch is pending).  The payload nests one
        :func:`repro.core.snapshot.snapshot_engine` dict per shard; RNG
        state is *not* captured, so a resumed run is a valid execution
        but not bit-identical to the uninterrupted one.
        """
        self._ensure_started()
        self._drain()
        return {
            "format": self.snapshot_format,
            "k": self.k,
            "n_workers": self.n_workers,
            **self._schedule_config(),
            "share_threshold": self.share_threshold,
            "backend": self.backend.name,
            "root_entropy": self._root_entropy,
            "layout_seed": self._layout_seed,
            "resume_count": self._resume_count,
            "table_version": self._table_version,
            "coordinator": {
                "exhaustive_bound": self._bound.exhaustive_bound,
                "buffer": [[score, element_id]
                           for score, element_id in self._buffer.items()],
                "merged_ids": sorted(self._merged_ids),
                "wall_time": self.wall_time,
                "total_scored": self.total_scored,
                "n_merges": self.n_merges,
                "n_rounds": self.n_rounds,
                "time_to_first_result": self.time_to_first_result,
                "progressive": [list(point) for point in self.progressive],
                "checkpoints": [list(point) for point in self.checkpoints],
                "worker_times": list(self._worker_times),
                "active": list(self._active),
                "pending_floor": self._floor,
                "worker_stats": [
                    [o.n_scored_total, o.local_stk,
                     [list(e) for e in o.fallback_events]]
                    if o else None
                    for o in self._last_outcomes
                ],
            },
            "workers": self.backend.snapshots(),
            # WHERE candidate subset; None when the whole table ran.
            "ids": self._ids,
            # Cross-query memo slice for this (table, udf) pair, so a
            # resumed run keeps its warm scores; None when caching is off.
            "memo": (self._memo.to_payload()
                     if self._memo is not None else None),
        }

    @classmethod
    def restore(cls, dataset: Dataset, scorer: Scorer, snapshot: dict,
                backend: Optional[str] = None,
                index_config: Optional[IndexConfig] = None,
                engine_config: Optional[EngineConfig] = None,
                index_cache: Optional[ShardIndexCache] = None,
                memo=None,
                table_version: int = 0):
        """Rebuild a run from :meth:`snapshot` output.

        ``dataset`` must be the same dataset, and ``index_config`` /
        ``engine_config`` must repeat whatever the original run used
        (the shard layout is rebuilt, or fetched from ``index_cache``,
        from the stored layout seed, and node IDs are verified during
        engine restore).  A snapshot written before layouts had their own
        seed carries none; its partitions were drawn from the query's
        root entropy, so that entropy is its layout seed.
        ``backend`` may differ — a run paused under ``thread`` can resume
        under ``serial`` or ``process`` and vice versa.  ``memo``
        optionally re-attaches a live :class:`~repro.memo.store.MemoView`;
        the snapshot's stored memo slice is merged into it (or revived
        standalone) so the resumed run stays warm.

        ``table_version`` must repeat the live-table version the run was
        snapshotted against (0 for immutable datasets); a snapshot taken
        before a committed write is rejected rather than silently
        resumed against different rows.
        """
        if snapshot.get("format") != cls.snapshot_format:
            raise SerializationError(
                f"unrecognized snapshot format {snapshot.get('format')!r}, "
                f"expected {cls.snapshot_format!r}"
            )
        stored_version = int(snapshot.get("table_version", 0))
        if stored_version != int(table_version):
            raise ConfigurationError(
                f"snapshot was taken at table version {stored_version}, "
                f"cannot restore against version {int(table_version)}"
            )
        subset = snapshot.get("ids")
        engine = cls(
            dataset, scorer, k=int(snapshot["k"]),
            n_workers=int(snapshot["n_workers"]),
            backend=backend or snapshot["backend"],
            index_config=index_config,
            engine_config=engine_config,
            share_threshold=bool(snapshot["share_threshold"]),
            seed=None,
            index_cache=index_cache,
            ids=None if subset is None else [str(i) for i in subset],
            table_version=stored_version,
            **cls._schedule_kwargs(snapshot),
        )
        # Re-anchor the shard streams to the original run's root entropy
        # and the layout to its seed, so partitions and trees rebuild
        # identically.
        engine._factory = RngFactory(snapshot["root_entropy"])
        engine._root_entropy = snapshot["root_entropy"]
        engine._layout_seed = int(snapshot.get("layout_seed",
                                               snapshot["root_entropy"]))
        engine._resume_count = int(snapshot.get("resume_count", 0)) + 1
        engine._restore_payloads = list(snapshot["workers"])
        memo_payload = snapshot.get("memo")
        if memo is not None:
            if memo_payload is not None:
                memo.record_pairs(list(memo_payload["scores"].items()))
            engine._memo = memo
        elif memo_payload is not None:
            from repro.memo.store import MemoView

            engine._memo = MemoView.from_payload(memo_payload)
        state = snapshot["coordinator"]
        for score, element_id in state["buffer"]:
            engine._buffer.offer(float(score), element_id)
        engine._merged_ids = set(state["merged_ids"])
        engine.wall_time = float(state["wall_time"])
        engine.total_scored = int(state["total_scored"])
        engine.n_merges = int(state.get("n_merges", 0))
        engine.n_rounds = int(state.get("n_rounds", 0))
        ttfr = state.get("time_to_first_result")
        engine.time_to_first_result = None if ttfr is None else float(ttfr)
        engine.progressive = [tuple(point)
                              for point in state.get("progressive", [])]
        engine.checkpoints = [tuple(point)
                              for point in state.get("checkpoints", [])]
        engine._worker_times = [float(t) for t in state["worker_times"]]
        engine._active = [bool(flag) for flag in state["active"]]
        # The exhaustive certificate survives the pause (it only ever
        # tightens); the drive-scoped bound resets with the next drive.
        engine._bound.exhaustive_bound = float(
            state.get("exhaustive_bound", 1.0)
        )
        floor = state.get("pending_floor")
        engine._floor = None if floor is None else float(floor)
        for worker, stats in enumerate(state.get("worker_stats", [])):
            if stats is not None:
                n_scored, local_stk, events = stats
                engine._last_outcomes[worker] = RoundOutcome(
                    worker_id=worker, scored=0, cost=0.0, elapsed=0.0,
                    topk=[], exhausted=not engine._active[worker],
                    n_scored_total=int(n_scored),
                    local_stk=float(local_stk),
                    fallback_events=[(int(t), str(kind))
                                     for t, kind in events],
                )
        return engine
