"""Statistics, memory sampling and child-process hygiene for one run."""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

#: Reported for a time-to-quality percentile that falls on a query that
#: never reached the target (a miss counts as +inf, which JSON cannot carry).
MISS = 1e9


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); inf-safe."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = math.ceil(pos)
    if low == high or ordered[high] == ordered[low]:
        return float(ordered[low])
    if math.isinf(ordered[high]):
        return math.inf
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def finite(value: float) -> float:
    return MISS if math.isinf(value) else float(value)


def _pace_work(table: List[float], small) -> float:
    """A fixed slice of work like the engine's per-batch bookkeeping:
    interpreted loops over floats, a heap, and small numpy calls."""
    import heapq
    heap: List[float] = []
    total = 0.0
    for step in range(3000):
        value = table[step % len(table)] * 1.0001 + step
        if len(heap) < 64:
            heapq.heappush(heap, value)
        elif value > heap[0]:
            heapq.heapreplace(heap, value)
        total += value if step % 3 else -value
    for _ in range(20):
        total += float(small.sum()) + float(small.max())
    return total


class Pace:
    """How fast this host runs the benchmark's own fixed work right now.

    Shared hosts switch between speed modes (up to 1.8x apart, lasting
    seconds to minutes) that neither CPU time nor steal time shows.  A
    pace sample is the thread CPU time of a fixed slice of
    interpreter-bound work; ``factor`` is the reference time of that
    slice over its mean measured time, so a duration times the factor
    reads as it would at the reference pace.  The probe is benchmark code
    and never changes with the program, so a slower program still shows
    as slower.

    Samples are taken either in the calling thread between queries
    (``tick``), which runs on the core the queries run on, or by a
    background thread during queries (``start``/``stop``) that spread
    over both cores.  Either way a sample is due every ``EVERY`` seconds.
    """

    #: Seconds one slice takes at the reference pace (a 2-core Xeon VM).
    REFERENCE_S = 0.001
    EVERY = 0.1

    def __init__(self) -> None:
        import numpy as np
        self._table = [float(x) for x in range(257)]
        self._small = np.linspace(0.0, 1.0, 64)
        self.samples: List[float] = []
        self.spent = 0.0          # wall time spent probing in-thread
        self._last = -math.inf
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _slice(self) -> None:
        begin = time.thread_time()
        _pace_work(self._table, self._small)
        self.samples.append(time.thread_time() - begin)

    def sample(self, slices: int = 3) -> None:
        """Time ``slices`` slices now, in this thread."""
        started = time.perf_counter()
        for _ in range(slices):
            self._slice()
        self._last = time.perf_counter()
        self.spent += self._last - started

    def tick(self) -> None:
        """Sample if ``EVERY`` seconds passed since the last sample."""
        if time.perf_counter() - self._last >= self.EVERY:
            self.sample()

    def start(self) -> None:
        """Sample from a background thread until ``stop``."""
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="pace-sampler")
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.EVERY):
            self._slice()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def factor(self, since: int = 0) -> float:
        """Reference over mean measured slice time, for samples from
        index ``since`` on."""
        samples = self.samples[since:]
        return self.REFERENCE_S / (sum(samples) / len(samples))


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` from every one of its threads."""
    found: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        found.extend(int(child) for child in text.split())
    return found


def descendants(pid: Optional[int] = None) -> List[int]:
    pid = os.getpid() if pid is None else pid
    out: List[int] = []
    stack = [pid]
    while stack:
        for child in _children(stack.pop()):
            out.append(child)
            stack.append(child)
    return out


def _rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _private_kb(pid: int) -> int:
    """A child's private resident set, the outside view of
    ``repro.parallel.shm.process_private_rss_kb`` (shared shm pages and
    copy-on-write pages still shared with the parent are not counted)."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    private = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            private += int(line.split()[1])
    return private


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class RssSampler:
    """Peak memory the program adds: this process's RSS above a baseline,
    plus its children's private RSS.

    ``start`` takes the process's resident set as the baseline, so the
    benchmark's own imports and generated inputs are not counted; start
    it after generating the inputs and before the program's set-up.  A
    thread samples the process and its children; when the process's
    kernel-kept peak (``ru_maxrss``) rose after the baseline, that exact
    peak stands in for the sampled one.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._baseline_kb = 0
        self._max_rss_at_start = 0
        self._result: Optional[float] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="rss-sampler")

    def _sample(self) -> None:
        total = _rss_kb(os.getpid()) + sum(
            _private_kb(child) for child in descendants())
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> "RssSampler":
        self._baseline_kb = _rss_kb(os.getpid())
        self._max_rss_at_start = _max_rss_kb()
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling (once); the peak above the baseline in MB."""
        if self._result is None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._sample()
            peak = self.peak_kb
            if _max_rss_kb() > self._max_rss_at_start:
                peak = max(peak, _max_rss_kb())
            self._result = (peak - self._baseline_kb) / 1024.0
        return self._result


def reap_children(timeout: float = 30.0) -> List[int]:
    """Stop the helper processes the run left behind and wait for them.

    Shard pools are shut down by the program itself; what may remain is
    multiprocessing's resource tracker, started on first shared-memory
    use.  Returns the pids still alive after ``timeout`` (none, normally).
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + timeout
    alive = descendants()
    while alive and time.monotonic() < deadline:
        for pid in alive:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)
        alive = descendants()
    return alive
