"""The shard coordinator of the paper's Section 6 protocol, and its backends.

:class:`~repro.streaming.engine.StreamingTopKEngine` runs the
coordinator as a *pipeline*: shard workers execute continuously in small
budget slices, each slice outcome is merged the moment it arrives, the
k-th-score threshold is re-broadcast asynchronously (picked up at the
next slice boundary), and callers consume an **anytime results API** —
:meth:`~repro.streaming.engine.StreamingTopKEngine.results_iter` yields
:class:`~repro.streaming.engine.ProgressiveResult` snapshots from the
first slice onward, each carrying an explicit displacement bound.  Two
early stops: the ``stable_slices`` heuristic, and the principled
``confidence=p`` certificate built on :mod:`repro.core.convergence`.
:class:`~repro.parallel.engine.ShardedTopKEngine` is the same
coordinator on a barrier schedule (synchronized rounds).

:data:`~repro.streaming.backends.STREAM_BACKENDS` is the one backend
registry (``serial`` is a deterministic event-driven simulation;
``thread`` / ``process`` run real concurrency on the picklable
:class:`~repro.parallel.worker.ShardSpec` bootstrap); the trace-driven
``replay`` backend of :mod:`repro.replay` re-executes recorded real runs
bit for bit.  The merge-on-arrival protocol and its threshold-staleness
invariants are documented in ``docs/architecture.md`` ("Streaming
execution"); the user guide is ``docs/streaming.md``.
"""

from repro.streaming.backends import (
    STREAM_BACKENDS,
    ProcessStreamBackend,
    SerialStreamBackend,
    SliceEvent,
    StreamBackend,
    ThreadStreamBackend,
    available_backends,
    make_stream_backend,
)
from repro.streaming.engine import (
    ProgressiveResult,
    StreamingResult,
    StreamingTopKEngine,
)

__all__ = [
    "STREAM_BACKENDS",
    "ProcessStreamBackend",
    "ProgressiveResult",
    "SerialStreamBackend",
    "SliceEvent",
    "StreamBackend",
    "StreamingResult",
    "StreamingTopKEngine",
    "ThreadStreamBackend",
    "available_backends",
    "make_stream_backend",
]
