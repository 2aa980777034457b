"""Process placement for shard workers, and backend availability.

The backends themselves — ``serial``, ``thread``, ``process`` — live in
the one registry of :mod:`repro.streaming.backends`, which both
coordinator schedules (barrier rounds and barrier-free streaming) use.
This module holds what the process backend needs before any slice runs:

* :func:`start_process_pools` pins each shard to its own single-process
  :class:`concurrent.futures.ProcessPoolExecutor`, bootstrapped from a
  picklable :class:`~repro.parallel.worker.ShardSpec`, so a slice only
  ships ``(cap, floor)`` down and a light outcome back;
* :func:`backend_availability` probes, once per process, whether child
  processes work here at all.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.parallel.worker import ShardSpec, process_init


def _pool_ready() -> bool:
    """No-op child task: resolving it proves the pool's worker bootstrapped."""
    return True


def _mp_context():
    """Start-method context for shard children.

    The platform default (fork on Linux) unless
    ``REPRO_PROCESS_START_METHOD`` names another method —
    ``benchmarks/bench_shm.py`` uses it to measure bootstrap under
    ``spawn``, where the initializer args really cross a pipe.
    """
    method = os.environ.get("REPRO_PROCESS_START_METHOD", "").strip()
    return multiprocessing.get_context(method or None)


def validate_process_specs(specs: List[ShardSpec]) -> None:
    """Reject specs a child process could not bootstrap from."""
    for spec in specs:
        if spec.features_ref is None and (
                spec.objects is None or spec.features is None):
            raise ConfigurationError(
                "process backend needs materialized shard specs "
                "(inline objects/features or a shared-memory features_ref)"
            )
        if spec.scorer is None:
            raise ConfigurationError(
                "process backend needs a picklable scorer on the spec"
            )


def start_process_pools(specs: List[ShardSpec]) -> List[ProcessPoolExecutor]:
    """One pinned single-process pool per shard, bootstrapped concurrently.

    ``ProcessPoolExecutor`` spawns its worker lazily on first submit, so a
    no-op warmup task is submitted to every pool before waiting on any of
    them: the children spawn and run their initializers (spec transfer or
    shm attach, index build) in parallel instead of serializing at
    first-round time.  On any failure every pool created so far is shut
    down before the error propagates, so a failed start never leaks child
    processes.
    """
    validate_process_specs(specs)
    context = _mp_context()
    pools: List[ProcessPoolExecutor] = []
    try:
        for spec in specs:
            pools.append(ProcessPoolExecutor(
                max_workers=1, mp_context=context,
                initializer=process_init, initargs=(spec,),
            ))
        for future in [pool.submit(_pool_ready) for pool in pools]:
            future.result()
    except BaseException:
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    return pools


_AVAILABILITY: Optional[Dict[str, Optional[str]]] = None


def _probe_process() -> Optional[str]:
    """``None`` when child processes work here, else the reason they don't.

    A real probe — spawn one child through the configured start method and
    round-trip a task — because sandboxes that forbid fork/spawn (or ship
    a broken ``multiprocessing``) are exactly where "process" must not be
    advertised.
    """
    try:
        from multiprocessing import shared_memory  # noqa: F401 (importable?)
    except ImportError as exc:
        return f"multiprocessing.shared_memory does not import: {exc}"
    try:
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=_mp_context()) as pool:
            if pool.submit(_pool_ready).result(timeout=60) is not True:
                return "child probe returned an unexpected result"
    except Exception as exc:
        return f"child process spawn failed: {type(exc).__name__}: {exc}"
    return None


def backend_availability(refresh: bool = False) -> Dict[str, Optional[str]]:
    """Per-backend usability: name -> ``None`` (usable) or a reason string.

    ``serial`` and ``thread`` run in the coordinator process and are
    always usable; ``process`` is probed once per process (see
    :func:`_probe_process`) and cached.  The names come from the one
    registry, :data:`repro.streaming.backends.STREAM_BACKENDS`.  The
    CLI's ``info`` command prints the reasons;
    :func:`~repro.streaming.backends.make_stream_backend` refuses
    unavailable names.
    """
    global _AVAILABILITY
    if _AVAILABILITY is None or refresh:
        from repro.streaming.backends import STREAM_BACKENDS

        availability = {name: None for name in STREAM_BACKENDS}
        availability["process"] = _probe_process()
        _AVAILABILITY = availability
    return dict(_AVAILABILITY)


def available_backends() -> List[str]:
    """Names of the usable backends on this machine, serial first."""
    return [name for name, reason in backend_availability().items()
            if reason is None]
