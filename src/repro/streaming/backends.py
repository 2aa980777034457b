"""Execution backends of the shard coordinator: serial, thread, process.

This is the one backend registry (:data:`STREAM_BACKENDS`): the streaming
schedule and the barrier schedule of
:class:`~repro.parallel.engine.ShardedTopKEngine` both run on it, and the
CLI and the session dialect introspect it.  The coordinator asks a
backend "run *this* shard for one small budget slice"
(:meth:`StreamBackend.submit`) and, independently, "hand me whichever
in-flight slice finishes next" (:meth:`StreamBackend.next_event`).  The
backend imposes no barrier; the barrier schedule is the coordinator's
choice to submit nothing while a round is in flight.

The coordinator keeps **at most one slice in flight per shard** (it only
resubmits a shard after consuming that shard's previous outcome), which is
what makes the broadcast threshold's staleness bounded: a slice runs with
the floor captured at its submission, i.e. at most one slice older than
the global truth.  See ``docs/architecture.md`` ("Streaming execution").

* :class:`SerialStreamBackend` is the deterministic simulation: a slice is
  executed eagerly at submission (with exactly the floor it was submitted
  under) and its outcome is released in virtual-completion order — each
  worker carries its own virtual clock advanced by the slice's
  latency-model cost, and ties break by worker id.  This reproduces the
  arrival interleaving of a perfectly parallel execution, bit for bit,
  making streaming runs snapshot-testable.
* :class:`ThreadStreamBackend` runs slices on a thread pool (one thread
  per shard) and releases genuinely real arrivals.
* :class:`ProcessStreamBackend` pins each shard to its own child process
  (:func:`repro.parallel.backends.start_process_pools`, bootstrapped from
  a picklable :class:`~repro.parallel.worker.ShardSpec`), so shard state
  stays resident in its child for the whole run and only
  ``(cap, floor)`` / outcome payloads cross the pipe per slice.
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.parallel.backends import (
    available_backends,
    backend_availability,
    start_process_pools,
)
from repro.parallel.worker import (
    RoundOutcome,
    ShardSpec,
    ShardWorker,
    process_run_round,
    process_snapshot,
)


@dataclass(frozen=True)
class SliceEvent:
    """One completed slice, as released to the coordinator.

    ``virtual_completion`` is set only by the serial simulation backend
    (the worker's virtual clock at slice completion); real backends leave
    it ``None`` and the coordinator measures wall-clock itself.
    """

    outcome: RoundOutcome
    virtual_completion: Optional[float] = None


class StreamBackend:
    """Common interface; subclasses define placement and arrival order."""

    name: str = "abstract"
    #: True when slice costs drive a virtual clock (simulation); False when
    #: the coordinator should measure real wall-clock instead.
    virtual_clock: bool = True

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        """Materialize the shards; ``worker_times`` seeds virtual clocks."""
        raise NotImplementedError

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        """Schedule one budget slice on one shard (non-blocking intent)."""
        raise NotImplementedError

    def next_event(self) -> SliceEvent:
        """Block until the next in-flight slice completes; arrival order."""
        raise NotImplementedError

    def snapshots(self) -> List[dict]:
        """Collect every shard's engine snapshot (no slice may be in flight)."""
        raise NotImplementedError

    def inline_workers(self) -> Optional[List[ShardWorker]]:
        """In-process :class:`ShardWorker` list, for index harvesting."""
        return None

    def close(self) -> None:
        """Release any pools; idempotent."""


class SerialStreamBackend(StreamBackend):
    """Deterministic merge-on-arrival simulation — the streaming oracle.

    ``submit`` runs the slice immediately (shard state lives in-process
    and the floor is, by protocol, the one known at submission time) and
    parks the outcome on a heap keyed by ``(virtual completion, worker)``;
    ``next_event`` releases the earliest completion.  Because the
    coordinator holds one in-flight slice per shard, the heap never holds
    two entries for the same worker and the interleaving is a pure
    function of the seed and the latency model.
    """

    name = "serial"
    virtual_clock = True

    def __init__(self) -> None:
        self.workers: List[ShardWorker] = []
        self._clock: List[float] = []
        self._ready: List[Tuple[float, int, RoundOutcome]] = []

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        self.workers = [ShardWorker(spec, dataset=dataset, scorer=scorer)
                        for spec in specs]
        self._clock = list(worker_times or [0.0] * len(self.workers))

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        outcome = self.workers[worker_id].run_round(cap, threshold_floor)
        self._clock[worker_id] += outcome.cost
        heapq.heappush(self._ready,
                       (self._clock[worker_id], worker_id, outcome))

    def next_event(self) -> SliceEvent:
        if not self._ready:
            raise ConfigurationError("next_event() with no slice in flight")
        completion, _worker, outcome = heapq.heappop(self._ready)
        return SliceEvent(outcome, virtual_completion=completion)

    def snapshots(self) -> List[dict]:
        return [worker.snapshot() for worker in self.workers]

    def inline_workers(self) -> Optional[List[ShardWorker]]:
        return self.workers


class _FutureArrivals:
    """Shared future bookkeeping for the real (thread/process) backends."""

    def __init__(self) -> None:
        self._pending: Dict[Future, int] = {}

    def track(self, future: Future, worker_id: int) -> None:
        self._pending[future] = worker_id

    def next_outcome(self) -> RoundOutcome:
        if not self._pending:
            raise ConfigurationError("next_event() with no slice in flight")
        done, _running = wait(list(self._pending),
                              return_when=FIRST_COMPLETED)
        # Several slices may have completed while the coordinator was
        # merging; release the lowest worker id first so the consumption
        # order at least breaks ties stably.
        future = min(done, key=lambda f: self._pending[f])
        self._pending.pop(future)
        return future.result()

    def drained(self) -> bool:
        return not self._pending


class ThreadStreamBackend(StreamBackend):
    """One continuously refilled thread per shard via ThreadPoolExecutor."""

    name = "thread"
    virtual_clock = False

    def __init__(self) -> None:
        self.workers: List[ShardWorker] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._arrivals = _FutureArrivals()

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        self.workers = [ShardWorker(spec, dataset=dataset, scorer=scorer)
                        for spec in specs]
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.workers)),
            thread_name_prefix="repro-stream",
        )

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        assert self._pool is not None, "start() must run first"
        future = self._pool.submit(self.workers[worker_id].run_round,
                                   cap, threshold_floor)
        self._arrivals.track(future, worker_id)

    def next_event(self) -> SliceEvent:
        return SliceEvent(self._arrivals.next_outcome())

    def snapshots(self) -> List[dict]:
        assert self._arrivals.drained(), "snapshot with slices in flight"
        return [worker.snapshot() for worker in self.workers]

    def inline_workers(self) -> Optional[List[ShardWorker]]:
        return self.workers

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessStreamBackend(StreamBackend):
    """One pinned child process per shard, slices streamed down the pipe."""

    name = "process"
    virtual_clock = False

    def __init__(self) -> None:
        self._pools: List[ProcessPoolExecutor] = []
        self._arrivals = _FutureArrivals()

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        # Warmed-up children, shm-or-inline spec validation, no leaked
        # pools on a failed start.
        self._pools = start_process_pools(specs)

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        future = self._pools[worker_id].submit(process_run_round,
                                               cap, threshold_floor)
        self._arrivals.track(future, worker_id)

    def next_event(self) -> SliceEvent:
        return SliceEvent(self._arrivals.next_outcome())

    def snapshots(self) -> List[dict]:
        assert self._arrivals.drained(), "snapshot with slices in flight"
        return [pool.submit(process_snapshot).result()
                for pool in self._pools]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []


#: The one backend registry, introspected (never hard-coded) by the CLI
#: and the session dialect; availability is probed by
#: :func:`repro.parallel.backends.backend_availability`.
STREAM_BACKENDS: Dict[str, Type[StreamBackend]] = {
    SerialStreamBackend.name: SerialStreamBackend,
    ThreadStreamBackend.name: ThreadStreamBackend,
    ProcessStreamBackend.name: ProcessStreamBackend,
}


def make_stream_backend(name: str) -> StreamBackend:
    """Instantiate a backend by name; raise with guidance."""
    try:
        backend_cls = STREAM_BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())} "
            f"(this machine reports {os.cpu_count() or 1} CPU core(s))"
        ) from None
    reason = backend_availability().get(name)
    if reason is not None:
        raise ConfigurationError(
            f"backend {name!r} is unavailable here: {reason}"
        )
    return backend_cls()
