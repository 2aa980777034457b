"""Per-layer probes: time calls into each layer from outside the program.

Each *seam* is a public function or method of the program, wrapped at
the module where its caller looks it up (``repro.session.parse``, not
``repro.query.parser.parse``).  A wrapper records one span per call:
layer name, start, end and the thread it ran on.  The program source is
never changed; uninstalling restores the original attributes.

A seam that no longer exists (a later refactor removed or renamed it) is
reported *absent*: its metrics are left out of the result instead of
crashing the run.

Attribution.  Layers nest (``plan`` calls ``IndexMaintainer.advance``;
``build_index`` calls ``KMeans.fit``), so each span is first cut down to
its *self* intervals on its own thread.  A sweep over all threads then
shares every instant of measured query wall time among the layer
intervals active at that instant; an instant inside a query with no
active layer is *unattributed*.  The per-layer times plus the
unattributed residual therefore add up to the measured query wall time
exactly, also when shard threads or tenants overlap.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Seam:
    """One wrapped program entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``;
    ``layer`` names the time bucket its self time goes to; ``count``, if
    given, adds the call's work to a counter dict as
    ``count(args, result, counts)``.
    """

    name: str
    target: str
    layer: str
    count: Optional[Callable[[tuple, object, Dict[str, float]], None]] = None
    query_path: bool = True   # False: a write, timed but not in query wall


def _one(key: str) -> Callable:
    def count(_args, _result, counts) -> None:
        counts[key] += 1.0
    return count


def _udf_calls(args, _result, counts) -> None:
    counts["udf_calls"] += len(args[1])


def _batch(_args, result, counts) -> None:
    counts["batches"] += 1.0
    counts["elems"] += len(result)


def _cache_get(_args, result, counts) -> None:
    counts["shard_cache_misses" if result is None
           else "shard_cache_hits"] += 1.0


def _shm_pack(_args, result, counts) -> None:
    counts["shm_packs"] += 1.0
    counts["shm_bytes"] += float(result.nbytes)


SEAMS: Tuple[Seam, ...] = (
    Seam("parse", "repro.session:parse", "query.parse"),
    Seam("parse_service", "repro.service.service:parse", "query.parse"),
    Seam("plan", "repro.session:OpaqueQuerySession.plan", "query.plan"),
    Seam("build_index", "repro.session:build_index", "index.build",
         _one("builds")),
    Seam("build_shard_index", "repro.parallel.worker:build_index",
         "index.build", _one("builds")),
    Seam("kmeans_fit", "repro.index.kmeans:KMeans.fit", "index.kmeans",
         _one("kmeans_fits")),
    Seam("score_relu", "repro.scoring.relu:ReluScorer.score_batch",
         "scoring.udf", _udf_calls),
    Seam("score_blocking",
         "repro.scoring.blocking:BlockingReluScorer.score_batch",
         "scoring.udf", _udf_calls),
    Seam("next_batch", "repro.core.engine:TopKEngine.next_batch",
         "core.bookkeeping", _batch),
    Seam("observe", "repro.core.engine:TopKEngine.observe",
         "core.bookkeeping"),
    Seam("memo_lookup", "repro.memo.store:MemoView.lookup", "memo.access"),
    Seam("memo_record", "repro.memo.store:MemoView.record", "memo.access"),
    Seam("merge_stream", "repro.streaming.engine:merge_worker_topk",
         "streaming.merge"),
    Seam("merge_round", "repro.parallel.engine:merge_worker_topk",
         "streaming.merge"),
    Seam("shard_cache_get", "repro.parallel.cache:ShardIndexCache.get",
         "parallel.shard_cache", _cache_get),
    Seam("shm_pack", "repro.parallel.shm:SharedFeatureTable.create",
         "parallel.shm_pack", _shm_pack),
    Seam("pool_start_stream", "repro.streaming.backends:start_process_pools",
         "parallel.pool_start"),
    Seam("pool_start_round", "repro.parallel.backends:start_process_pools",
         "parallel.pool_start"),
    Seam("maintain", "repro.live.maintenance:IndexMaintainer.advance",
         "live.maintain"),
    Seam("append", "repro.live.table:LiveTable.append", "live.append",
         query_path=False),
    Seam("update", "repro.live.table:LiveTable.update", "live.update",
         query_path=False),
)

#: Admission waits are not calls on a thread: the scheduler hands back a
#: future, and the wait lasts until it resolves.
ADMIT_SEAM = Seam("admit", "repro.service.budget:BudgetScheduler.admit_future",
                  "service.admission_wait")


def _resolve(target: str):
    """``(owner, attr, original)`` for a seam target, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in vars(owner):
            # Only patch what the class itself defines: a patched
            # inherited attribute would leak into sibling classes.
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class _Patches:
    """Installs wrappers and restores every original on uninstall."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> bool:
        found = _resolve(target)
        if found is None:
            return False
        owner, attr, original = found
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def spin(seconds: float) -> None:
    """Busy-wait: a delay that holds the CPU, like real extra work."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


#: Seams a sensitivity check may slow down, by the name it is asked for.
INJECTABLE = {
    "observe": ("repro.core.engine:TopKEngine.observe",),
    "build_index": ("repro.session:build_index",
                    "repro.parallel.worker:build_index"),
}


class Injector:
    """Adds a fixed busy-wait around one layer's public call."""

    def __init__(self, layer: str, seconds: float) -> None:
        if layer not in INJECTABLE:
            raise ValueError(f"cannot inject into {layer!r}; "
                             f"choose from {sorted(INJECTABLE)}")
        self.layer = layer
        self.seconds = float(seconds)
        self._patches = _Patches()

    def install(self) -> None:
        delay = self.seconds

        def make(fn):
            def slowed(*args, **kwargs):
                spin(delay)
                return fn(*args, **kwargs)
            return slowed

        for target in INJECTABLE[self.layer]:
            self._patches.patch(target, make)

    def uninstall(self) -> None:
        self._patches.restore()


class Tracer:
    """Records spans and counters at every seam while installed."""

    def __init__(self, seams: Sequence[Seam] = SEAMS,
                 admit_seam: Optional[Seam] = ADMIT_SEAM) -> None:
        self.seams = tuple(seams)
        self.admit_seam = admit_seam
        self.present: Dict[str, bool] = {}
        self.spans: List[Tuple[str, float, float, object, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: List[Dict[str, float]] = []
        self._patches = _Patches()

    @property
    def counts(self) -> Dict[str, float]:
        """Counters summed over every thread that hit a seam."""
        total: Dict[str, float] = defaultdict(float)
        with self._lock:
            for counts in self._thread_counts:
                for key, value in counts.items():
                    total[key] += value
        return total

    def _state(self) -> list:
        """This thread's ``[depth, counts]``; counters stay per thread so
        concurrent shard threads never lose an update."""
        counts: Dict[str, float] = defaultdict(float)
        with self._lock:
            self._thread_counts.append(counts)
        state = [0, counts]
        self._local.state = state
        return state

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        for seam in self.seams:
            self.present[seam.name] = self._patches.patch(
                seam.target, lambda fn, seam=seam: self._wrap(seam, fn))
        if self.admit_seam is not None:
            self.present[self.admit_seam.name] = self._patches.patch(
                self.admit_seam.target, self._wrap_admit)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, seam: Seam, fn: Callable) -> Callable:
        local = self._local
        new_state = self._state
        spans = self.spans
        layer = seam.layer
        count = seam.count
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            depth = state[0]
            state[0] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state[0] = depth
                spans.append((layer, start, end, ident(), depth))
            if count is not None:
                count(args, result, state[1])
            return result

        return traced

    def _wrap_admit(self, fn: Callable) -> Callable:
        spans = self.spans
        layer = self.admit_seam.layer

        def traced(*args, **kwargs):
            start = time.perf_counter()
            future = fn(*args, **kwargs)
            key = object()  # an admission wait is its own timeline

            def done(_future) -> None:
                spans.append((layer, start, time.perf_counter(), key, 0))

            future.add_done_callback(done)
            return future

        return traced

    # -- analysis --------------------------------------------------------

    def layer_present(self, layer: str) -> bool:
        """A layer is measured if any of its seams could be wrapped."""
        seams = list(self.seams)
        if self.admit_seam is not None:
            seams.append(self.admit_seam)
        return any(self.present.get(seam.name, False)
                   for seam in seams if seam.layer == layer)

    def busy_time(self, layer: str) -> float:
        """Inclusive time in one layer's calls, summed over all calls."""
        return sum(end - start for name, start, end, _k, _d in self.spans
                   if name == layer)

    def durations(self, layer: str) -> List[float]:
        return [end - start for name, start, end, _k, _d in self.spans
                if name == layer]

    def attribute(self, queries: Iterable[Tuple[float, float]],
                  ) -> Tuple[Dict[str, float], float, float]:
        """Share measured query wall time among layers.

        Returns ``(seconds per layer, unattributed seconds, total query
        wall seconds)``; the first two add up to the third.
        """
        off_path = {seam.layer for seam in self.seams if not seam.query_path}
        segments = _self_segments(
            [span for span in self.spans if span[0] not in off_path])
        events: List[Tuple[float, int, int, object]] = []
        for start, end in queries:
            events.append((start, 0, +1, None))
            events.append((end, 0, -1, None))
        for layer, start, end in segments:
            events.append((start, 1, +1, layer))
            events.append((end, 1, -1, layer))
        events.sort(key=lambda event: (event[0], event[2]))
        shares: Dict[str, float] = defaultdict(float)
        active: Dict[str, int] = defaultdict(int)
        n_layers = 0
        n_queries = 0
        unattributed = 0.0
        wall = 0.0
        last = None
        for at, kind, step, layer in events:
            if last is not None and at > last and n_queries > 0:
                dt = (at - last) * n_queries
                wall += dt
                if n_layers:
                    for name, n_active in active.items():
                        if n_active:
                            shares[name] += dt * n_active / n_layers
                else:
                    unattributed += dt
            last = at
            if kind == 0:
                n_queries += step
            else:
                active[layer] += step
                n_layers += step
        return dict(shares), unattributed, wall


def _self_segments(spans) -> List[Tuple[str, float, float]]:
    """Cut nested spans into self intervals, one thread at a time."""
    by_thread: Dict[object, list] = defaultdict(list)
    for layer, start, end, key, depth in spans:
        by_thread[key].append((layer, start, end, depth))
    segments: List[Tuple[str, float, float]] = []
    for thread_spans in by_thread.values():
        events = []
        for layer, start, end, depth in thread_spans:
            events.append((start, 1, depth, layer))
            events.append((end, 0, -depth, layer))
        # At equal times close before open, and inner before outer.
        events.sort(key=lambda event: (event[0], event[1], event[2]))
        stack: List[str] = []
        last = None
        for at, is_open, _depth, layer in events:
            if stack and last is not None and at > last:
                segments.append((stack[-1], last, at))
            last = at
            if is_open:
                stack.append(layer)
            elif stack:
                stack.pop()
    return segments
