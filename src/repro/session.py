"""A declarative query interface — the Section 7.4 sketch, grown up.

"A minimal implementation is natural in a system that supports UDFs and an
incrementally updating query interface."  :class:`OpaqueQuerySession` is
that implementation: register tables (datasets) and UDFs (scorers), then
execute queries written in a small SQL-ish dialect.

Queries run through a three-stage pipeline (see :mod:`repro.query`):

1. **Parse** — :func:`repro.query.parse`, a hand-written recursive-descent
   parser (order-insensitive clauses, ``WHERE`` feature predicates,
   ``EXPLAIN``, caret-span errors), produces a logical
   :class:`~repro.query.plan.QueryPlan`.  The parser module docstring is
   the normative grammar; ``docs/dialect.md`` is the user-facing tour.
2. **Resolve** — :meth:`OpaqueQuerySession.plan` checks registrations,
   merges caller-side defaults (validated exactly like the equivalent
   clauses), evaluates the ``WHERE`` mask over the table's features, and
   resolves the budget into an :class:`~repro.query.plan.ExecutionPlan`.
3. **Dispatch** — :meth:`OpaqueQuerySession.execute` hands the plan to
   the matching executor from the registry in
   :mod:`repro.query.executors` (``single`` / ``sharded`` /
   ``streaming``), or returns the plan itself for ``EXPLAIN`` queries.

Every executor returns a :class:`~repro.core.result.ResultBase`: the
single-engine :class:`~repro.core.result.QueryResult`, the sharded
:class:`~repro.parallel.engine.DistributedResult`, or the streaming
:class:`~repro.streaming.engine.StreamingResult` — one shared surface
(``items`` / ``summary()`` / ``budget_spent`` / ``displacement_bound`` /
``to_json()``).

A ``WORKERS`` query runs on the shard coordinator; without a budget it
scores everything, so its answer is exact and certified (bound 0):

    >>> import numpy as np
    >>> from repro import InMemoryDataset, ReluScorer
    >>> values = np.linspace(-1.0, 1.0, 200)
    >>> session = OpaqueQuerySession()
    >>> session.register_table("t", InMemoryDataset(
    ...     [f"e{i}" for i in range(200)], values.tolist(),
    ...     values.reshape(-1, 1)))
    >>> session.register_udf("relu", ReluScorer())
    >>> result = session.execute(
    ...     "SELECT TOP 3 FROM t ORDER BY relu WORKERS 2 SEED 1")
    >>> (result.ids, result.total_scored, result.displacement_bound)
    (['e199', 'e198', 'e197'], 200, 0.0)

The session builds (and caches) one index per table — the index is
task-independent, so every UDF registered against a table reuses it.
Per-shard partition indexes are cached across sharded *and* streaming
runs on the same table (one :class:`~repro.parallel.cache.ShardIndexCache`
per table, keys including the ``WHERE`` candidate-subset fingerprint), so
repeat queries with the same seed, worker count, filter, and index
configuration skip every per-partition k-means fit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.convergence import check_confidence
from repro.core.result import QueryResult, ResultBase
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig, build_index
from repro.index.tree import ClusterNode, ClusterTree
from repro.live.maintenance import IndexMaintainer
from repro.live.table import LiveTable, TableSnapshot
from repro.memo import MemoStore, PriorStore, udf_fingerprint
from repro.obs.analyze import ExplainAnalyzeReport
from repro.obs.metrics import BOUND_WIDTH, MEMO_HIT_RATE, QUERIES_TOTAL
from repro.obs.spans import Span, TraceContext
from repro.parallel.backends import available_backends
from repro.parallel.cache import ShardIndexCache
from repro.query.executors import StreamingExecutor, get_executor
from repro.query.parser import parse
from repro.query.plan import ExecutionPlan, QueryPlan
from repro.scoring.base import Scorer
from repro.streaming.engine import ProgressiveResult, StreamingResult


class OpaqueQuerySession:
    """Registry of tables and UDFs plus the declarative executor.

    ``enable_cache`` (default on) activates the cross-query score memo
    (:mod:`repro.memo`): scores are remembered per ``(udf fingerprint,
    element id)`` across queries on the same table, so no element is ever
    scored twice by the same UDF — and memo hits are *transparent* (full
    budget and clock accounting), so warm answers are bit-identical to
    cold ones.  Per-query overrides: ``execute(..., use_cache=False)``
    disables the memo for one dispatch; ``warm_start=True`` additionally
    preloads bandit histogram priors harvested from earlier runs on the
    same ``(table, udf)`` pair (opt-in — a warm-started run explores
    differently, deterministically, but not bit-identically).

    A session instance serves **one caller at a time** — engines mutate
    per-dispatch state (``last_trace``, prior harvests) through it.  For
    concurrent callers, :meth:`fork` derives a connection-local session
    that *shares* the registrations and every transparent cache (tables,
    indexes, UDFs, shard-index caches, score memos — all safe to share
    because hits are bit-identical to rebuilds/rescoring) while keeping
    the non-transparent state private (warm-start prior stores — priors
    change exploration, so one tenant's learning must never leak into
    another's answers — and ``last_trace``).  The multi-tenant service
    (:mod:`repro.service`) forks one child per query.
    """

    def __init__(self, default_index_config: Optional[IndexConfig] = None,
                 index_seed: int = 0,
                 sync_interval: int = 100,
                 enable_cache: bool = True) -> None:
        self._tables: Dict[str, Dataset] = {}
        self._indexes: Dict[str, ClusterTree] = {}
        self._index_configs: Dict[str, IndexConfig] = {}
        self._udfs: Dict[str, Scorer] = {}
        self._default_index_config = default_index_config
        self._index_seed = index_seed
        self._sync_interval = sync_interval  # WORKERS merge / slice cadence
        # Per-table cache of per-shard partition indexes, shared by the
        # sharded (round) and streaming engines: datasets are immutable
        # once registered, so a repeat query with the same seed / worker
        # count / filter / index config reuses every partition index.
        self._shard_caches: Dict[str, ShardIndexCache] = {}
        # Cross-query learning (repro.memo): one score memo and one
        # warm-start prior store per table, keyed inside by UDF
        # fingerprint, so distinct scorers never share entries.
        self._enable_cache = bool(enable_cache)
        self._memos: Dict[str, "MemoStore"] = {}
        self._prior_stores: Dict[str, "PriorStore"] = {}
        # Live tables: one incremental index maintainer per mutable
        # table (shared across forks — the maintained tree is as
        # transparent as a built one), plus this fork's high-water mark
        # of the maintainer's touched-node log (prior stores are
        # fork-private, so each fork dirties its own priors).
        self._maintainers: Dict[str, IndexMaintainer] = {}
        self._prior_versions: Dict[str, int] = {}
        # Fingerprint taken at registration time (refreshed at plan time,
        # so post-registration parameter mutation invalidates cleanly).
        self._udf_fingerprints: Dict[str, Optional[str]] = {}
        #: Span tree of the most recent traced dispatch (``trace=True``
        #: or ``EXPLAIN ANALYZE``); ``None`` until one runs.
        self.last_trace: Optional[TraceContext] = None
        # Guards the lazy builders above (index/memo/cache creation) when
        # forked sessions race on first touch; shared across forks.
        self._registry_lock = threading.RLock()

    # -- connection isolation ------------------------------------------------

    def fork(self) -> "OpaqueQuerySession":
        """Derive a connection-local session over the same registrations.

        The fork shares every *transparent* structure with its parent —
        tables, built indexes, index configs, UDFs and their
        fingerprints, shard-index caches, and score memos (a hit in any
        of them is bit-identical to the rebuild or rescore it skips, so
        tenants warm each other without contaminating answers).  It gets
        its **own** warm-start prior stores (priors deliberately change
        exploration, so they stay per-connection) and its own
        ``last_trace``.  Registrations made on either side after the
        fork are visible to both — the registries are shared, not
        copied.
        """
        child = OpaqueQuerySession(
            default_index_config=self._default_index_config,
            index_seed=self._index_seed,
            sync_interval=self._sync_interval,
            enable_cache=self._enable_cache,
        )
        child._tables = self._tables
        child._indexes = self._indexes
        child._index_configs = self._index_configs
        child._udfs = self._udfs
        child._udf_fingerprints = self._udf_fingerprints
        child._shard_caches = self._shard_caches
        child._memos = self._memos
        child._maintainers = self._maintainers
        child._registry_lock = self._registry_lock
        return child

    # -- registration --------------------------------------------------------

    @staticmethod
    def _check_name(name: str, what: str) -> None:
        """Reject registry names the dialect could never reference."""
        from repro.query.parser import KEYWORDS

        if name.upper() in KEYWORDS:
            raise ConfigurationError(
                f"{what} name {name!r} is a reserved dialect keyword and "
                f"could never be queried; pick another name "
                f"(reserved: {', '.join(sorted(KEYWORDS))})"
            )

    def register_table(self, name: str, dataset: Dataset,
                       index_config: Optional[IndexConfig] = None,
                       index: Optional[ClusterTree] = None) -> None:
        """Register a dataset; optionally with a prebuilt index."""
        self._check_name(name, "table")
        if name in self._tables:
            raise ConfigurationError(f"table {name!r} already registered")
        self._tables[name] = dataset
        if index is not None:
            if index.n_elements() != len(dataset):
                raise ConfigurationError(
                    "prebuilt index does not cover the dataset"
                )
            self._indexes[name] = index
        if index_config is not None:
            self._index_configs[name] = index_config

    def register_udf(self, name: str, scorer: Scorer) -> None:
        """Register an opaque scoring function under a name.

        The scorer is fingerprinted (:func:`repro.memo.udf_fingerprint`)
        so the cross-query memo can key its scores; an unfingerprintable
        scorer registers fine but runs with caching off.
        """
        self._check_name(name, "udf")
        if name in self._udfs:
            raise ConfigurationError(f"udf {name!r} already registered")
        self._udfs[name] = scorer
        self._udf_fingerprints[name] = udf_fingerprint(scorer)

    # -- executor plumbing (shared with repro.query.executors) ---------------

    def _index_for(self, table: str, version: Optional[int] = None,
                   dataset: Optional[Dataset] = None) -> ClusterTree:
        """Build (once) or fetch the table's task-independent index.

        Serialized under the registry lock so racing forks build the
        index exactly once (the build is deterministic, but one build is
        still cheaper than two).

        For live tables the maintained tree is served after catching the
        maintainer up to the write log.  ``version`` pins the request to
        one snapshot version: when it no longer matches the maintained
        tree (a write committed between plan and dispatch), a one-off
        tree is built from the pinned ``dataset`` instead — the query
        keeps its snapshot-isolated answer, uncached.
        """
        with self._registry_lock:
            live = self._live_table(table)
            if live is not None:
                _snapshot, maintainer = self._reconcile_writes(table, live)
                if version is not None and version != maintainer.version:
                    if dataset is None:
                        raise ConfigurationError(
                            f"table {table!r} is at version "
                            f"{maintainer.version}; cannot serve version "
                            f"{version} without its pinned snapshot"
                        )
                    return self._build_tree(table, dataset)
                return maintainer.tree
            if table not in self._indexes:
                dataset = self._tables[table]
                config = self._index_configs.get(
                    table,
                    self._default_index_config
                    or IndexConfig(
                        n_clusters=max(2, min(64, len(dataset) // 50))),
                )
                self._indexes[table] = build_index(
                    dataset.features(), dataset.ids(), config,
                    rng=self._index_seed,
                )
            return self._indexes[table]

    # -- live tables ---------------------------------------------------------

    def _live_table(self, table: str) -> Optional[LiveTable]:
        """The registered :class:`LiveTable`, or ``None`` (static)."""
        dataset = self._tables.get(table)
        return dataset if isinstance(dataset, LiveTable) else None

    def _build_tree(self, table: str, snapshot: Dataset) -> ClusterTree:
        """Full index build over one snapshot (the rebuild fallback).

        Applies the same sizing policy as the static path, clamped to
        the snapshot's current row count (a live table may have shrunk
        below the configured cluster count).
        """
        if len(snapshot) == 0:
            return ClusterTree(ClusterNode(node_id="root"))
        config = self._index_configs.get(
            table,
            self._default_index_config
            or IndexConfig(
                n_clusters=max(2, min(64, len(snapshot) // 50))),
        )
        if config.n_clusters > len(snapshot):
            config = replace(config, n_clusters=max(1, len(snapshot)))
        return build_index(snapshot.features(), snapshot.ids(), config,
                           rng=self._index_seed)

    def _maintainer_for(self, table: str,
                        live: LiveTable) -> IndexMaintainer:
        """The table's incremental index maintainer (lazily created).

        Caller holds the registry lock.  A registration-time prebuilt
        index is adopted only when it still covers exactly the live ids;
        otherwise the first touch rebuilds.
        """
        maintainer = self._maintainers.get(table)
        if maintainer is None:
            snapshot = live.snapshot()
            tree = self._indexes.get(table)
            if tree is not None:
                covered = {member for leaf in tree.leaves()
                           for member in leaf.member_ids}
                if covered != set(snapshot.ids()):
                    tree = None
            if tree is None:
                tree = self._build_tree(table, snapshot)
                self._indexes[table] = tree
            maintainer = IndexMaintainer(
                tree, snapshot,
                lambda snap, _table=table: self._build_tree(_table, snap),
                table=table,
            )
            self._maintainers[table] = maintainer
        return maintainer

    def _reconcile_writes(
            self, table: str, live: LiveTable,
    ) -> Tuple[TableSnapshot, IndexMaintainer]:
        """Catch every version-keyed structure up to the write log.

        Caller holds the registry lock.  Shared structures — the
        maintained index, the memo's MVCC write stamps, the shard-index
        cache — advance exactly once across forks; the fork-private
        warm-start prior store replays the maintainer's touched-node log
        from wherever *this* fork last synced, dropping exactly the node
        histograms whose subtrees changed.  Returns the snapshot the
        reconciliation ran against (callers pin queries to it).
        """
        maintainer = self._maintainer_for(table, live)
        snapshot = live.snapshot()
        if maintainer.version < snapshot.version:
            deltas = live.deltas_since(maintainer.version,
                                       upto=snapshot.version)
            maintainer.advance(deltas, snapshot)
            self._indexes[table] = maintainer.tree
            self._shard_cache_for(table).evict_stale(maintainer.version)
        memo = self._memo_for(table)
        for delta in live.deltas_since(memo.table_version,
                                       upto=maintainer.version):
            memo.apply_writes(delta.ids, delta.version)
        synced = self._prior_versions.get(table, 0)
        if synced < maintainer.version:
            store = self._prior_store_for(table)
            if synced < maintainer.log_floor:
                store.clear()  # the log no longer reaches back that far
            else:
                doomed = set()
                for version, nodes in maintainer.touched_log:
                    if version > synced:
                        doomed.update(nodes)
                store.drop_nodes(doomed)
            self._prior_versions[table] = maintainer.version
        return snapshot, maintainer

    def table_info(self, table: str) -> dict:
        """Version, row count, and index-freshness card of one table.

        The per-table surface behind ``repro info``: static tables
        report version 0 and a ``static``/``unbuilt`` index; live tables
        report their current ``table_version``, per-kind write counters,
        and how the maintained index last caught up (``built`` /
        ``incremental`` / ``rebuilt``).
        """
        if table not in self._tables:
            raise ConfigurationError(
                f"unknown table {table!r}; registered: "
                f"{sorted(self._tables)}"
            )
        with self._registry_lock:
            dataset = self._tables[table]
            live = self._live_table(table)
            info = {
                "table": table,
                "rows": len(dataset),
                "live": live is not None,
                "version": 0,
                "index_freshness": ("static" if table in self._indexes
                                    else "unbuilt"),
            }
            if live is not None:
                stats = live.stats()
                info["version"] = stats["version"]
                info["writes"] = stats["writes"]
                maintainer = self._maintainers.get(table)
                if maintainer is None:
                    info["index_freshness"] = "unbuilt"
                else:
                    info["index_freshness"] = maintainer.freshness
                    info["index_version"] = maintainer.version
                    info["index_splits"] = maintainer.n_splits
                    info["index_rebuilds"] = maintainer.n_rebuilds
            return info

    def _shard_cache_for(self, table: str) -> ShardIndexCache:
        """The table's cross-run cache of per-shard partition indexes."""
        with self._registry_lock:
            if table not in self._shard_caches:
                self._shard_caches[table] = ShardIndexCache()
            return self._shard_caches[table]

    def _memo_for(self, table: str) -> MemoStore:
        """The table's cross-query score memo (created on first touch)."""
        with self._registry_lock:
            if table not in self._memos:
                self._memos[table] = MemoStore()
            return self._memos[table]

    def _prior_store_for(self, table: str) -> PriorStore:
        """The table's warm-start prior store (created on first touch).

        Prior stores are fork-private (see :meth:`fork`), but a fork's
        executor threads may still race each other, so creation stays
        under the shared lock.
        """
        with self._registry_lock:
            if table not in self._prior_stores:
                self._prior_stores[table] = PriorStore()
            return self._prior_stores[table]

    def _memo_view_for(self, plan: ExecutionPlan):
        """The memo view an executor should thread, or ``None`` (off).

        Live-table plans carry their pinned snapshot's version; the view
        then refuses hits on — and never records scores for — elements
        rewritten after that version (the MVCC rule in
        :mod:`repro.memo.store`), so a reader over an old snapshot can
        neither consume nor poison newer scores.
        """
        if not plan.cache_enabled or plan.fingerprint is None:
            return None
        reader_version = (plan.table_version if plan.dataset is not None
                          else None)
        return self._memo_for(plan.table).view(
            plan.fingerprint, reader_version=reader_version)

    def cache_stats(self, table: str) -> dict:
        """Hit/miss/entry statistics of one table's score memo."""
        if table not in self._tables:
            raise ConfigurationError(
                f"unknown table {table!r}; registered: "
                f"{sorted(self._tables)}"
            )
        return self._memo_for(table).stats()

    # -- planning ------------------------------------------------------------

    def plan(self, query: Union[str, QueryPlan], *,
             workers: Optional[int] = None,
             backend: Optional[str] = None,
             stream: Optional[bool] = None,
             every: Optional[int] = None,
             confidence: Optional[float] = None,
             use_cache: Optional[bool] = None,
             warm_start: bool = False) -> ExecutionPlan:
        """Parse and resolve one query into an :class:`ExecutionPlan`.

        The keyword arguments are caller-side defaults (e.g. CLI flags)
        for the equivalent clauses; explicit clauses in the query text
        win.  Defaults are validated exactly like the clauses they stand
        in for, so ``execute(sql, backend="bogus")`` fails as loudly as
        ``... BACKEND bogus`` — never reaching an engine unvalidated.

        ``use_cache`` overrides the session's ``enable_cache`` for this
        query; ``warm_start`` opts into preloading harvested bandit
        priors (requires the cache).  The UDF fingerprint is recomputed
        here, so mutating a scorer's parameters after registration
        changes the key and never serves stale scores.
        """
        logical = parse(query) if isinstance(query, str) else query
        if logical.table not in self._tables:
            raise ConfigurationError(
                f"unknown table {logical.table!r}; registered: "
                f"{sorted(self._tables)}"
            )
        if logical.udf not in self._udfs:
            raise ConfigurationError(
                f"unknown udf {logical.udf!r}; registered: "
                f"{sorted(self._udfs)}"
            )
        dataset = self._tables[logical.table]
        # Live tables: reconcile the write log (index maintenance, memo
        # stamps, cache eviction, prior dirtying), then pin this query to
        # an immutable snapshot — concurrent writers can no longer change
        # what it reads.
        live = self._live_table(logical.table)
        table_version = 0
        index_freshness = None
        if live is not None:
            with self._registry_lock:
                pinned, maintainer = self._reconcile_writes(
                    logical.table, live)
            dataset = pinned
            table_version = pinned.version
            index_freshness = maintainer.freshness
        # Merge caller-side defaults under clause-wins precedence; every
        # merged value passes the same validation as its clause.
        n_workers = self._check_workers(
            logical.workers if logical.workers is not None else workers
        )
        backend_name = self._check_backend(logical.backend or backend)
        every = self._check_every(
            logical.every if logical.every is not None else every
        )
        confidence = check_confidence(
            logical.confidence if logical.confidence is not None
            else confidence
        )
        # Like the CLI's --every, an every= default implies streaming
        # (the EVERY clause itself already requires STREAM at parse time).
        streaming = bool(logical.stream or stream
                         or confidence is not None or every is not None)
        # WHERE pushdown: evaluate the predicate mask once over the cheap
        # feature matrix; the candidate list flows to every executor.
        allowed_ids = None
        n_candidates = len(dataset)
        if logical.where is not None:
            mask = np.asarray(logical.where.mask(dataset.features()),
                              dtype=bool)
            all_ids = dataset.ids()
            # flatnonzero + fancy indexing keeps the compaction out of
            # the interpreter loop (a 1M-row zip walk costs ~100 ms).
            allowed_ids = [all_ids[i] for i in np.flatnonzero(mask)]
            n_candidates = len(allowed_ids)
            # A filter may leave fewer candidates than requested shards;
            # clamp so the query still runs (one worker minimum) instead
            # of failing with a worker-count error that never mentions
            # the WHERE clause.
            n_workers = min(n_workers, max(1, n_candidates))
        budget = logical.budget
        if logical.budget_fraction is not None:
            budget = max(logical.k,
                         int(logical.budget_fraction * n_candidates))
        # Zero surviving candidates degenerate to the single executor,
        # which short-circuits to an (exact) empty answer — there is
        # nothing to shard or stream.
        mode = ("single" if n_candidates == 0
                else "streaming" if streaming
                else "sharded" if n_workers > 1 else "single")
        # Cross-query memo: refresh the fingerprint (mutation-safe) and
        # decide whether this dispatch caches.  The expected hit rate is
        # an O(candidates) probe, so it is computed for EXPLAIN only.
        fingerprint = udf_fingerprint(self._udfs[logical.udf])
        self._udf_fingerprints[logical.udf] = fingerprint
        cache_on = (self._enable_cache if use_cache is None
                    else bool(use_cache)) and fingerprint is not None
        memo_entries = 0
        expected_hit_rate = None
        if cache_on:
            memo_entries = self._memo_for(logical.table).n_entries(
                fingerprint
            )
            if logical.explain:
                expected_hit_rate = self._memo_for(
                    logical.table
                ).expected_hit_rate(
                    fingerprint, ids=allowed_ids,
                    n_candidates=n_candidates,
                )
        return ExecutionPlan(
            query=logical,
            mode=mode,
            n_elements=len(dataset),
            n_candidates=n_candidates,
            budget=budget,
            batch_size=logical.batch_size,
            seed=logical.seed,
            workers=n_workers,
            backend=backend_name,
            every=every,
            confidence=confidence,
            allowed_ids=allowed_ids,
            fingerprint=fingerprint,
            cache_enabled=cache_on,
            warm_start=bool(warm_start) and cache_on,
            memo_entries=memo_entries,
            expected_hit_rate=expected_hit_rate,
            dataset=dataset if live is not None else None,
            table_version=table_version,
            index_freshness=index_freshness,
        )

    @staticmethod
    def _check_workers(workers: Optional[int]) -> int:
        if workers is None:
            return 1
        if int(workers) != workers or workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {workers!r}"
            )
        return int(workers)

    @staticmethod
    def _check_backend(backend: Optional[str]) -> str:
        if backend is None:
            return "serial"
        if backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {backend!r}; available: "
                f"{', '.join(available_backends())}"
            )
        return backend

    @staticmethod
    def _check_every(every: Optional[int]) -> Optional[int]:
        if every is None:
            return None
        if int(every) != every or every <= 0:
            raise ConfigurationError(
                f"every must be positive, got {every!r}"
            )
        return int(every)

    # -- execution -----------------------------------------------------------

    def execute(self, query: Union[str, QueryPlan], *,
                workers: Optional[int] = None,
                backend: Optional[str] = None,
                stream: Optional[bool] = None,
                every: Optional[int] = None,
                confidence: Optional[float] = None,
                use_cache: Optional[bool] = None,
                warm_start: bool = False,
                trace: bool = False,
                budget_gate=None,
                ) -> Union[ResultBase, ExecutionPlan,
                           ExplainAnalyzeReport]:
        """Parse, resolve, and dispatch one query.

        Single-engine queries return a
        :class:`~repro.core.result.QueryResult`; ``WORKERS > 1`` queries
        a :class:`~repro.parallel.engine.DistributedResult`; ``STREAM``
        queries the final
        :class:`~repro.streaming.engine.StreamingResult` (use
        :meth:`stream` for live snapshots) — all implementing
        :class:`~repro.core.result.ResultBase`.  ``EXPLAIN`` queries
        return the resolved :class:`~repro.query.plan.ExecutionPlan`
        instead of executing; ``EXPLAIN ANALYZE`` queries run under a
        forced tracer and return an
        :class:`~repro.obs.analyze.ExplainAnalyzeReport`.  Keyword
        arguments are caller-side defaults for the equivalent clauses
        (see :meth:`plan`).

        ``trace=True`` records a query-lifecycle span tree
        (:class:`~repro.obs.spans.TraceContext`) without changing the
        answer — tracing observes totals the engines already account, so
        traced runs stay bit-identical.  The tree is attached to the
        result as ``result.trace`` and kept as :attr:`last_trace`.

        ``budget_gate`` threads a service
        :class:`~repro.service.budget.QueryGrant` (or anything with its
        ``acquire``/``refund`` shape) to the engine, metering the
        query's real UDF calls against a shared pool; a fully funded
        gate never changes the answer.
        """
        t_parse = time.perf_counter()
        logical = parse(query) if isinstance(query, str) else query
        parse_wall = time.perf_counter() - t_parse
        # ANALYZE forces a tracer: the report *is* the span tree.  The
        # parse span is attached after the fact (the ANALYZE keyword is
        # only known once parsing is done) — backdating the origin to
        # t_parse keeps the timeline starting at the parse, not after it.
        tracer = (TraceContext(origin=t_parse)
                  if trace or logical.analyze else None)
        if tracer is not None:
            tracer.attach(Span("parse", wall=parse_wall).to_dict())
            with tracer.span("plan"):
                resolved = self.plan(logical, workers=workers,
                                     backend=backend, stream=stream,
                                     every=every, confidence=confidence,
                                     use_cache=use_cache,
                                     warm_start=warm_start)
        else:
            resolved = self.plan(logical, workers=workers, backend=backend,
                                 stream=stream, every=every,
                                 confidence=confidence,
                                 use_cache=use_cache, warm_start=warm_start)
        if resolved.query.explain and not resolved.query.analyze:
            return resolved
        if resolved.query.continuous:
            raise ConfigurationError(
                "CONTINUOUS queries are standing subscriptions, not "
                "one-shot dispatches; drive one with "
                "repro.live.ContinuousQuery or submit it to the "
                "multi-tenant repro.service.QueryService"
            )
        resolved.trace = tracer
        resolved.gate = budget_gate
        if tracer is not None:
            self.last_trace = tracer
        stats_before = (self._memo_for(resolved.table).stats()
                        if resolved.cache_enabled else None)
        result = get_executor(resolved.mode).execute(self, resolved)
        self._observe_query(resolved, result, stats_before)
        if tracer is not None:
            result.trace = tracer
        if resolved.query.analyze:
            return ExplainAnalyzeReport(plan=resolved, result=result,
                                        trace=tracer)
        return result

    def _observe_query(self, plan: ExecutionPlan, result: ResultBase,
                       stats_before: Optional[dict]) -> None:
        """Fold one finished dispatch into the process-wide metrics.

        Always on (unlike span tracing): one counter bump and two gauge
        stores per *query* — never per element — so the cost is
        unmeasurable against even the cheapest dispatch.
        """
        QUERIES_TOTAL.inc(table=plan.table, mode=plan.mode)
        BOUND_WIDTH.set(float(result.displacement_bound), mode=plan.mode)
        if stats_before is not None:
            after = self._memo_for(plan.table).stats()
            hits = after["hits"] - stats_before["hits"]
            looked = hits + (after["misses"] - stats_before["misses"])
            if looked:
                MEMO_HIT_RATE.set(hits / looked, table=plan.table)

    def stream(self, query: Union[str, QueryPlan], *,
               workers: Optional[int] = None,
               backend: Optional[str] = None,
               every: Optional[int] = None,
               confidence: Optional[float] = None,
               use_cache: Optional[bool] = None,
               warm_start: bool = False,
               trace: bool = False,
               budget_gate=None,
               ) -> Iterator[ProgressiveResult]:
        """Run one query barrier-free, yielding progressive snapshots.

        Any query is accepted (a ``STREAM`` clause is implied); snapshots
        arrive from the first slice onward and the last one carries
        ``converged=True``.  Keyword arguments default the missing
        clauses, as in :meth:`execute`; ``trace=True`` records the span
        tree into :attr:`last_trace` (complete once the iterator is
        exhausted).
        """
        t_parse = time.perf_counter()
        logical = parse(query) if isinstance(query, str) else query
        parse_wall = time.perf_counter() - t_parse
        tracer = TraceContext(origin=t_parse) if trace else None
        if tracer is not None:
            tracer.attach(Span("parse", wall=parse_wall).to_dict())
            with tracer.span("plan"):
                resolved = self.plan(logical, workers=workers,
                                     backend=backend, stream=True,
                                     every=every, confidence=confidence,
                                     use_cache=use_cache,
                                     warm_start=warm_start)
        else:
            resolved = self.plan(logical, workers=workers, backend=backend,
                                 stream=True, every=every,
                                 confidence=confidence,
                                 use_cache=use_cache, warm_start=warm_start)
        if resolved.query.explain:
            raise ConfigurationError(
                "EXPLAIN queries return a plan and cannot be streamed; "
                "use execute() to inspect the plan"
            )
        if resolved.query.continuous:
            raise ConfigurationError(
                "CONTINUOUS queries are standing subscriptions; stream() "
                "yields one drive's snapshots and then stops — drive a "
                "standing query with repro.live.ContinuousQuery or the "
                "multi-tenant repro.service.QueryService"
            )
        resolved.trace = tracer
        resolved.gate = budget_gate
        if tracer is not None:
            self.last_trace = tracer
        if resolved.n_candidates == 0:
            # WHERE filtered everything out (plan() degrades the mode to
            # "single"): the empty answer is exact and final — mirror
            # execute() instead of asking a streaming engine to shard
            # zero elements.
            yield ProgressiveResult(
                top_k=[], budget_spent=0, threshold=None, converged=True,
                stk=0.0, wall_time=0.0, n_merges=0,
                backend=resolved.backend,
                displacement_bound=0.0, exhaustive_bound=0.0,
            )
            return
        QUERIES_TOTAL.inc(table=resolved.table, mode=resolved.mode)
        streaming = StreamingExecutor().engine(self, resolved)
        try:
            yield from streaming.results_iter(resolved.budget,
                                              every=resolved.every)
        finally:
            from repro.query.executors import _harvest_shard_priors

            _harvest_shard_priors(self, resolved, streaming)
            streaming.close()
