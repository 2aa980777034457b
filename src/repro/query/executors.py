"""Executor registry: pluggable execution strategies for resolved plans.

Mirrors the backend registry of :mod:`repro.streaming.backends`: each
executor registers itself under a name (``single`` / ``sharded`` /
``streaming``), and
:meth:`repro.session.OpaqueQuerySession.execute` dispatches one resolved
:class:`~repro.query.plan.ExecutionPlan` through :func:`get_executor` —
no if/elif chain, and a new execution strategy is one registered class.

Executors are deliberately *thin*: all policy (clause merging, kwarg
validation, WHERE mask evaluation, budget resolution) happens at plan
time in the session, so an executor only instantiates its engine and
runs it.  They read the owning session's registries and caches through
its internal helpers — the session and this module are two halves of one
subsystem.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Type

from repro.core.engine import EngineConfig, TopKEngine
from repro.errors import ConfigurationError
from repro.query.plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.result import ResultBase
    from repro.session import OpaqueQuerySession
    from repro.streaming.engine import StreamingTopKEngine


class QueryExecutor(ABC):
    """One execution strategy for resolved plans."""

    #: Registry name; also the ``ExecutionPlan.mode`` it serves.
    name: str = ""

    @abstractmethod
    def execute(self, session: "OpaqueQuerySession",
                plan: ExecutionPlan) -> "ResultBase":
        """Run the plan to completion and return its result."""


EXECUTORS: Dict[str, Type[QueryExecutor]] = {}


def _shard_priors(session: "OpaqueQuerySession", plan: ExecutionPlan,
                  root_entropy: int):
    """Stored warm-start payloads, one per shard — or ``None`` (cold)."""
    if not plan.warm_start or plan.fingerprint is None:
        return None
    from repro.memo.priors import shard_scope
    from repro.parallel.cache import subset_fingerprint

    store = session._prior_store_for(plan.table)
    subset = subset_fingerprint(plan.allowed_ids)
    priors = [
        store.get(plan.fingerprint,
                  shard_scope(worker, plan.workers, root_entropy, subset))
        for worker in range(plan.workers)
    ]
    return priors if any(p is not None for p in priors) else None


def _harvest_shard_priors(session: "OpaqueQuerySession",
                          plan: ExecutionPlan, engine) -> None:
    """Bank each in-process shard's learned histograms for warm starts.

    Process children are out of reach (their engines live in the pool),
    so the harvest covers serial/thread backends only — warm-start is
    best-effort by design.
    """
    if not plan.cache_enabled or plan.fingerprint is None:
        return
    workers = engine.backend.inline_workers()
    if not workers:
        return
    from repro.memo.priors import harvest_priors, shard_scope
    from repro.parallel.cache import subset_fingerprint

    store = session._prior_store_for(plan.table)
    subset = subset_fingerprint(plan.allowed_ids)
    for worker_id, worker in enumerate(workers):
        store.put(
            plan.fingerprint,
            shard_scope(worker_id, plan.workers, engine._root_entropy,
                        subset),
            harvest_priors(worker.engine),
        )


def register_executor(cls: Type[QueryExecutor]) -> Type[QueryExecutor]:
    """Class decorator: add an executor to the registry under its name."""
    if not cls.name:
        raise ConfigurationError(
            f"executor {cls.__name__} must define a registry name"
        )
    EXECUTORS[cls.name] = cls
    return cls


def available_executors() -> List[str]:
    """Names of the registered executors, registration order."""
    return list(EXECUTORS)


def get_executor(name: str) -> QueryExecutor:
    """Instantiate an executor by registry name; raise with guidance."""
    try:
        return EXECUTORS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; available: "
            f"{', '.join(available_executors())}"
        ) from None


@register_executor
class SingleExecutor(QueryExecutor):
    """One in-process engine over the table's task-independent index.

    A ``WHERE`` filter restricts the index to the candidate leaves
    (:meth:`~repro.index.tree.ClusterTree.restricted`) before the engine
    is built, so the bandit never draws — and the UDF never scores — a
    filtered-out element.
    """

    name = "single"

    def execute(self, session: "OpaqueQuerySession",
                plan: ExecutionPlan) -> "ResultBase":
        from repro.core.result import QueryResult

        if plan.n_candidates == 0:
            # WHERE filtered everything out: the empty answer is exact.
            return QueryResult(
                k=plan.k, items=[], stk=0.0, n_scored=0, n_batches=0,
                n_explore=0, n_exploit=0, virtual_time=0.0,
                overhead_time=0.0, exhausted=True,
            )
        # Live-table plans pin an immutable snapshot at plan time; the
        # index request carries the pinned version so a write racing the
        # dispatch serves a one-off tree over exactly those rows.
        dataset = (plan.dataset if plan.dataset is not None
                   else session._tables[plan.table])
        scorer = session._udfs[plan.udf]
        index = session._index_for(plan.table, version=plan.table_version,
                                   dataset=plan.dataset)
        if plan.allowed_ids is not None:
            index = index.restricted(plan.allowed_ids)
        engine = TopKEngine(
            index,
            EngineConfig(k=plan.k, batch_size=plan.batch_size,
                         seed=plan.seed),
            scoring_latency_hint=scorer.batch_cost(plan.batch_size)
            / max(1, plan.batch_size),
        )
        memo = session._memo_view_for(plan)
        if plan.warm_start and plan.fingerprint is not None:
            from repro.memo.priors import apply_priors, single_scope
            from repro.parallel.cache import subset_fingerprint

            priors = session._prior_store_for(plan.table).get(
                plan.fingerprint,
                single_scope(subset_fingerprint(plan.allowed_ids)),
            )
            if priors:
                apply_priors(engine, priors)
        tracer = plan.trace
        if tracer is not None:
            tracer.push(f"execute[{self.name}]")
        try:
            result = engine.run(dataset, scorer, budget=plan.budget,
                                memo=memo, trace=tracer, gate=plan.gate)
        finally:
            if tracer is not None:
                tracer.pop()
        if plan.cache_enabled and plan.fingerprint is not None:
            from repro.memo.priors import harvest_priors, single_scope
            from repro.parallel.cache import subset_fingerprint

            session._prior_store_for(plan.table).put(
                plan.fingerprint,
                single_scope(subset_fingerprint(plan.allowed_ids)),
                harvest_priors(engine),
            )
        return result


def _shard_engine(session: "OpaqueQuerySession", plan: ExecutionPlan,
                  engine_cls, **schedule):
    """A shard coordinator for the plan (``schedule``: cadence, stops)."""
    dataset = (plan.dataset if plan.dataset is not None
               else session._tables[plan.table])
    engine = engine_cls(
        dataset, session._udfs[plan.udf],
        k=plan.k,
        n_workers=plan.workers,
        backend=plan.backend,
        index_config=session._index_configs.get(
            plan.table, session._default_index_config
        ),
        engine_config=EngineConfig(k=plan.k, batch_size=plan.batch_size),
        seed=plan.seed,
        index_cache=session._shard_cache_for(plan.table),
        ids=plan.allowed_ids,
        memo=session._memo_view_for(plan),
        trace=plan.trace,
        gate=plan.gate,
        table_version=plan.table_version,
        **schedule,
    )
    # Priors are scoped by root entropy, which the engine only settles at
    # construction; shard specs are built lazily at first run, so
    # attaching them here still reaches every fresh shard engine.
    engine._priors = _shard_priors(session, plan, engine._root_entropy)
    return engine


def _run_shard_engine(name: str, session: "OpaqueQuerySession",
                      plan: ExecutionPlan, engine) -> "ResultBase":
    tracer = plan.trace
    if tracer is not None:
        tracer.push(f"execute[{name}]", workers=plan.workers,
                    backend=plan.backend)
    try:
        return engine.run(plan.budget, every=plan.every)
    finally:
        if tracer is not None:
            tracer.pop()
        _harvest_shard_priors(session, plan, engine)
        engine.close()


@register_executor
class ShardedExecutor(QueryExecutor):
    """The shard coordinator on a round-barrier schedule."""

    name = "sharded"

    def execute(self, session: "OpaqueQuerySession",
                plan: ExecutionPlan) -> "ResultBase":
        from repro.parallel.engine import ShardedTopKEngine

        engine = _shard_engine(session, plan, ShardedTopKEngine,
                               sync_interval=session._sync_interval)
        return _run_shard_engine(self.name, session, plan, engine)


@register_executor
class StreamingExecutor(QueryExecutor):
    """The shard coordinator, barrier-free (:mod:`repro.streaming`).

    Also builds the engine for :meth:`OpaqueQuerySession.stream`, which
    consumes ``results_iter`` live instead of running to completion.
    """

    name = "streaming"

    def engine(self, session: "OpaqueQuerySession",
               plan: ExecutionPlan) -> "StreamingTopKEngine":
        from repro.streaming.engine import StreamingTopKEngine

        return _shard_engine(session, plan, StreamingTopKEngine,
                             slice_budget=session._sync_interval,
                             confidence=plan.confidence)

    def execute(self, session: "OpaqueQuerySession",
                plan: ExecutionPlan) -> "ResultBase":
        return _run_shard_engine(self.name, session, plan,
                                 self.engine(session, plan))
