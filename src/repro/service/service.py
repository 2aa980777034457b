"""Asyncio front-end admitting concurrent tenants over shared tables.

:class:`QueryService` turns the single-caller
:class:`~repro.session.OpaqueQuerySession` into a long-lived multi-tenant
server: it owns one *root* session holding the registered tables, UDFs,
and every transparent cache, and runs each submitted query in its own
:meth:`~repro.session.OpaqueQuerySession.fork` — so concurrent tenants
share warm shard-index caches and score memos (bit-identically) while
warm-start priors and traces stay per-query.

Scheduling is delegated to one :class:`~repro.service.budget.BudgetScheduler`:
:meth:`QueryService.submit` resolves the query's scorer demand from its
plan, admits it (policy-ordered and *thread-free* — the wait is a
future resolved by the scheduler, so a backlog of waiting queries can
never exhaust the worker threads admitted queries need to run and
retire), and threads the resulting
:class:`~repro.service.budget.QueryGrant` into the engine as its budget
gate.  The engines themselves run on the service's own bounded thread
pool; the event loop only coordinates.

Clients hold a :class:`QueryHandle`:

* ``await handle.result()`` — the final result object (exactly what a
  solo ``session.execute`` returns, and — when the grant was fully
  funded — field-for-field identical to it);
* ``async for snapshot in handle.snapshots()`` — live JSON-safe
  :class:`~repro.streaming.engine.ProgressiveResult` snapshots for
  queries submitted with ``snapshots=True`` (streaming mode);
* ``handle.cancel()`` — flags the grant; the engine raises
  :class:`~repro.errors.QueryCancelledError` at its next grant quantum
  and unwinds through the executors' normal cleanup (pools closed, shm
  unlinked) before the budget returns to the pool.

Queries carrying the dialect's ``CONTINUOUS`` clause are *standing*:
the service hosts one :class:`~repro.live.continuous.ContinuousQuery`
per submission, pushing a snapshot through ``handle.snapshots()``
whenever committed writes change the answer.  The tenant's grant meters
each recomputation cycle and is re-armed between cycles (a standing
query holds a per-cycle reservation, it does not drain the pool
forever); ``handle.cancel()`` is the disconnect — the stream ends and
``result()`` returns the last emitted answer.

Every terminal path — completion, cancellation, client disconnect,
worker-pool death — funnels through one ``finally`` that retires the
grant, so no failure mode leaks budget.  ``tests/test_service.py`` holds
the concurrency differential matrix and the fault-injection suite.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
from typing import AsyncIterator, Dict, List, Optional

from repro.errors import ConfigurationError, QueryCancelledError
from repro.live.continuous import DEFAULT_POLL, ContinuousQuery
from repro.query.parser import parse
from repro.service.budget import BudgetScheduler, QueryGrant
from repro.session import OpaqueQuerySession


class QueryHandle:
    """One submitted query: its lifecycle, final answer, and snapshots."""

    def __init__(self, tenant: str, query: str, wants_snapshots: bool,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.tenant = tenant
        self.query = query
        #: ``waiting`` -> ``running`` -> ``done`` | ``error`` | ``cancelled``
        self.state = "waiting"
        self._loop = loop
        self._wants_snapshots = wants_snapshots
        self._queue: "asyncio.Queue[Optional[object]]" = asyncio.Queue()
        self._done = asyncio.Event()
        self._result: Optional[object] = None
        self._error: Optional[BaseException] = None
        self._grant: Optional[QueryGrant] = None
        self._cancelled = False
        self._task: Optional[asyncio.Task] = None

    # -- client surface ------------------------------------------------------

    async def result(self):
        """Wait for the final result; re-raise the query's failure if any."""
        await self._done.wait()
        if self._error is not None:
            raise self._error
        return self._result

    async def snapshots(self) -> AsyncIterator[object]:
        """Yield progressive snapshots as the engine produces them.

        Only queries submitted with ``snapshots=True`` produce any; the
        iterator ends when the query finishes (however it finishes — a
        failure after some snapshots simply ends the stream, and
        :meth:`result` carries the error).
        """
        while True:
            snapshot = await self._queue.get()
            if snapshot is None:
                return
            yield snapshot

    def cancel(self) -> None:
        """Request cancellation (effective at the engine's next quantum).

        Safe from any thread and at any stage: a query still waiting for
        admission is failed on admit; a running one unwinds when its
        engine next touches the budget gate.  For a standing
        ``CONTINUOUS`` query this is the *disconnect*: the snapshot
        stream ends cleanly and :meth:`result` returns the last emitted
        answer instead of raising.
        """
        self._cancelled = True
        if self._grant is not None:
            self._grant.cancel()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    # -- service-side plumbing ----------------------------------------------

    def _push_snapshot(self, snapshot) -> None:
        """Called from the engine thread; hops onto the event loop."""
        self._loop.call_soon_threadsafe(self._queue.put_nowait, snapshot)

    def _finish(self, *, result=None, error: Optional[BaseException] = None,
                ) -> None:
        if error is None:
            self.state = "done"
            self._result = result
        elif isinstance(error, QueryCancelledError):
            self.state = "cancelled"
            self._error = error
        else:
            self.state = "error"
            self._error = error
        self._queue.put_nowait(None)   # end the snapshot stream
        self._done.set()


class QueryService:
    """Long-lived asyncio service: registered tables, concurrent tenants.

    Parameters
    ----------
    budget:
        Global scorer budget shared by every query the service ever
        admits (``None`` = unmetered; see
        :class:`~repro.service.budget.BudgetScheduler`).
    policy:
        Admission policy: ``"fair-share"`` or ``"deadline"``.
    session:
        Optional pre-populated root session to serve (tables/UDFs
        registered outside); by default the service creates its own and
        callers use :meth:`register_table` / :meth:`register_udf`.
    max_threads:
        Bound on concurrently *running* engines (each takes one worker
        thread of the service's own pool).  Admission waits hold no
        thread at all (see
        :meth:`~repro.service.budget.BudgetScheduler.admit_future`), so
        queries beyond the bound queue for a thread rather than
        deadlocking it.
    """

    def __init__(self, budget: Optional[int] = None,
                 policy: str = "fair-share",
                 session: Optional[OpaqueQuerySession] = None,
                 max_threads: int = 32) -> None:
        self.scheduler = BudgetScheduler(budget=budget, policy=policy)
        self.session = session if session is not None else OpaqueQuerySession()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=int(max_threads),
            thread_name_prefix="repro-service",
        )
        self._handles: List[QueryHandle] = []
        self._closed = False

    # -- registration (delegates to the root session) ------------------------

    def register_table(self, name, dataset, **kwargs) -> None:
        """Register a dataset on the root session (shared by all forks)."""
        self.session.register_table(name, dataset, **kwargs)

    def register_udf(self, name, scorer) -> None:
        """Register a scoring UDF on the root session."""
        self.session.register_udf(name, scorer)

    # -- submission ----------------------------------------------------------

    async def submit(self, query: str, *, tenant: str = "default",
                     deadline: Optional[float] = None,
                     snapshots: bool = False,
                     **execute_kwargs) -> QueryHandle:
        """Admit one query for ``tenant`` and start it; returns immediately.

        ``execute_kwargs`` are the caller-side defaults of
        :meth:`~repro.session.OpaqueQuerySession.execute` (``workers``,
        ``backend``, ``stream``, ``use_cache``, ``trace``, ...).
        ``snapshots=True`` forces streaming mode and makes
        :meth:`QueryHandle.snapshots` yield every
        :class:`~repro.streaming.engine.ProgressiveResult`; the final
        (converged) snapshot doubles as :meth:`QueryHandle.result`.
        ``deadline`` orders contended admissions under the ``deadline``
        policy (smaller = sooner).

        A query with the ``CONTINUOUS`` clause becomes a *standing*
        subscription: :meth:`QueryHandle.snapshots` yields the initial
        answer and then one snapshot per answer-changing write batch
        (regardless of ``snapshots=``), until :meth:`QueryHandle.cancel`
        disconnects it; a ``poll=`` kwarg tunes its wait granularity.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        loop = asyncio.get_running_loop()
        handle = QueryHandle(tenant, query, snapshots, loop)
        self._handles.append(handle)
        handle._task = loop.create_task(
            self._run(handle, deadline, execute_kwargs)
        )
        return handle

    async def _run(self, handle: QueryHandle, deadline: Optional[float],
                   execute_kwargs: Dict) -> None:
        grant: Optional[QueryGrant] = None
        try:
            # Fork once per query: shared transparent caches, private
            # warm-start priors and trace (see OpaqueQuerySession.fork).
            session = self.session.fork()
            loop = asyncio.get_running_loop()
            demand = await loop.run_in_executor(
                self._executor,
                functools.partial(self._resolve_demand, session,
                                  handle.query, execute_kwargs),
            )
            # The admission wait holds no thread (the scheduler resolves
            # the future); a cancel() during it is honoured right after
            # (nothing has run yet).
            grant = await asyncio.wrap_future(
                self.scheduler.admit_future(handle.tenant, demand, deadline)
            )
            handle._grant = grant
            if handle._cancelled:
                raise QueryCancelledError(
                    f"query of tenant {handle.tenant!r} cancelled before start"
                )
            handle.state = "running"
            if parse(handle.query).continuous:
                result = await loop.run_in_executor(
                    self._executor,
                    functools.partial(self._drive_continuous, session,
                                      handle, grant, execute_kwargs),
                )
            elif handle._wants_snapshots:
                result = await loop.run_in_executor(
                    self._executor,
                    functools.partial(self._drive_stream, session, handle,
                                      grant, execute_kwargs),
                )
            else:
                result = await loop.run_in_executor(
                    self._executor,
                    functools.partial(session.execute, handle.query,
                                      budget_gate=grant, **execute_kwargs),
                )
            handle._finish(result=result)
        except BaseException as exc:  # noqa: BLE001 — every failure is the
            handle._finish(error=exc)  # client's to observe via result()
        finally:
            if grant is not None:
                grant.retire()

    @staticmethod
    def _resolve_demand(session: OpaqueQuerySession, query: str,
                        execute_kwargs: Dict) -> int:
        """The scorer demand a query commits at admission.

        Its resolved budget when it has one, else every candidate the
        plan leaves in play — plus the single engine's boundary headroom,
        so a fully funded run is bit-identical to a solo one even at the
        budget edge: its final batch crosses the budget line (up to
        ``batch_size - 1`` extra scored calls).  The shard coordinator
        (sharded and streaming) never reserves past its budget.  Unused
        headroom returns to the pool when the grant retires.
        """
        plan_kwargs = {key: value for key, value in execute_kwargs.items()
                       if key in ("workers", "backend", "stream", "every",
                                  "confidence", "use_cache", "warm_start")}
        plan = session.plan(query, **plan_kwargs)
        demand = (plan.n_candidates if plan.budget is None
                  else min(plan.budget, plan.n_candidates))
        if plan.mode == "single":
            return demand + max(0, plan.batch_size - 1)
        return demand

    @staticmethod
    def _drive_stream(session: OpaqueQuerySession, handle: QueryHandle,
                      grant: QueryGrant, execute_kwargs: Dict):
        """Run a streaming query on this worker thread, pushing snapshots.

        Returns the last (converged) snapshot as the final result.  Runs
        entirely off-loop; each snapshot hops to the event loop through
        ``call_soon_threadsafe``.
        """
        kwargs = dict(execute_kwargs)
        kwargs.pop("stream", None)
        last = None
        for snapshot in session.stream(handle.query, budget_gate=grant,
                                       **kwargs):
            last = snapshot
            handle._push_snapshot(snapshot)
        return last

    @staticmethod
    def _drive_continuous(session: OpaqueQuerySession, handle: QueryHandle,
                          grant: QueryGrant, execute_kwargs: Dict):
        """Host one standing ``CONTINUOUS`` query on this worker thread.

        Each answer-changing write batch pushes a snapshot to the
        handle; the grant meters every recomputation cycle and is
        re-armed by the standing query between cycles.  The loop runs
        until the client disconnects (``handle.cancel()``), which ends
        the stream and returns the last emitted answer — cancellation
        of a standing query is its normal completion, not an error.
        """
        kwargs = dict(execute_kwargs)
        poll = kwargs.pop("poll", DEFAULT_POLL)
        standing = ContinuousQuery(session, handle.query, gate=grant,
                                   poll=poll, **kwargs)
        last = None
        try:
            while not (handle._cancelled or grant.cancelled):
                snapshot = standing.refresh(timeout=poll)
                if snapshot is not None:
                    last = snapshot
                    handle._push_snapshot(snapshot)
        except QueryCancelledError:
            pass  # grant cancelled mid-cycle: the disconnect path
        finally:
            standing.cancel()
        return last

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe service snapshot: scheduler pool + handle states."""
        states: Dict[str, int] = {}
        for handle in self._handles:
            states[handle.state] = states.get(handle.state, 0) + 1
        return {"scheduler": self.scheduler.stats(), "queries": states}

    async def drain(self) -> None:
        """Wait for every submitted query to reach a terminal state."""
        tasks = [handle._task for handle in self._handles
                 if handle._task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def close(self) -> None:
        """Cancel everything in flight and wait for it to unwind."""
        self._closed = True
        for handle in self._handles:
            if not handle.done:
                handle.cancel()
        await self.drain()
        self._executor.shutdown(wait=True)
