"""Zero-copy shard bootstrap: shared-memory feature tables for processes.

The paper's Section-6 MapReduce sketch assumes workers *map* the table.
The copy path of :func:`repro.parallel.worker.build_shard_specs` does the
opposite: it stacks each partition's objects and feature matrix into the
:class:`~repro.parallel.worker.ShardSpec`, so a process child's bootstrap
cost (spec pickling, transfer, re-materialization) and resident set grow
linearly with the table.  This module restores the map semantics on one
machine: the coordinator packs everything a shard needs into a single
:mod:`multiprocessing.shared_memory` segment and ships each child a
constant-size :class:`SharedSliceRef` instead of the data.

Segment layout (one segment per engine run, 64-byte aligned spans):

* per shard — the partition's **member ids** (a fixed-width numpy unicode
  array), its **feature block** (``(n_w, d)`` float64, C-contiguous, so
  the child maps it as a true zero-copy view), and its **objects blob**
  (the partition's elements, pickled once by the coordinator; children
  unpickle straight out of the mapping instead of receiving a per-child
  pipe transfer);
* per shard, when given — its :class:`~repro.index.tree.ClusterTree`,
  built once by the coordinator: the node skeleton as a pickled blob,
  the leaf centroids as one float block and the leaf membership as local
  row indices, so the ref stays constant-size whatever the tree.

Lifecycle (the invariant: **no orphan segments survive, ever**):

* the coordinator owns the segment via :class:`SharedFeatureTable`;
  :meth:`SharedFeatureTable.close` is idempotent and unlinks;
* a :func:`weakref.finalize` on every table re-runs that cleanup when the
  table is garbage collected or the interpreter exits (``finalize``
  callbacks run at shutdown), and a module-level ``atexit`` sweep of all
  owned segment names is kept as a second net — so an engine that
  crashes before ``close()`` still unlinks;
* children attach by name through a per-process refcounted cache
  (:func:`attach_segment` / :func:`detach_segment`), and an ``atexit``
  hook closes whatever is still mapped.  Python < 3.13 registers
  *attachments* with :mod:`multiprocessing.resource_tracker` exactly like
  creations, but the tracker's per-name cache is a set shared by the
  whole process tree, so the child registrations are no-ops and the
  owner's ``unlink`` performs the single balanced unregister — children
  must *not* unregister themselves (that would poison the owner's entry
  and make its ``unlink`` warn);
* a child killed with SIGKILL leaks nothing: only the owner's name is
  linked in the filesystem namespace, and the owner (or, after a hard
  owner crash, the resource tracker) unlinks it.

``shm_probe()`` reports whether POSIX shared memory actually works here
(some sandboxes mount no ``/dev/shm``); the engines auto-enable the shm
path for process backends only when it does, and fall back to the copy
path — never fail — when packing is impossible.  Set
``REPRO_DISABLE_SHM=1`` to force the copy path globally.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
import weakref
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree

#: Filesystem prefix of every segment this library creates — the leak
#: gate (``tools/check_shm_leaks.py``) and the tests key on it.
SEGMENT_PREFIX = "repro-shm-"

_ALIGNMENT = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# ---------------------------------------------------------------------------
# Spans: constant-size descriptors of arrays/blobs inside the segment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArraySpan:
    """One numpy array inside the segment: offset + dtype + shape."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class BytesSpan:
    """One raw byte range inside the segment (a pickle blob)."""

    offset: int
    size: int


@dataclass(frozen=True)
class SharedTreeRef:
    """A shard's cluster tree, packed entirely into the segment.

    ``structure`` spans the pickled node skeleton —
    ``("node", node_id, (children...))`` internals and
    ``("leaf", node_id, member_start, member_count, centroid_row)``
    leaves; ``members`` holds every leaf's element positions (indices
    into the shard's member-id array) concatenated in pre-order, and
    ``centroids`` the stacked leaf centroids.
    """

    structure: BytesSpan
    members: ArraySpan
    centroids: Optional[ArraySpan]


@dataclass(frozen=True)
class SharedSliceRef:
    """Picklable, O(1)-wire-size handle to one shard's slice of the table.

    This is what a :class:`~repro.parallel.worker.ShardSpec` carries in
    ``features_ref`` instead of inline member ids / objects / features:
    a segment name plus constant-size spans.  Its pickled size does not
    depend on the partition size (pinned by ``tests/test_shm.py``).
    """

    segment: str
    ids: ArraySpan
    features: ArraySpan
    objects: BytesSpan
    tree: Optional[SharedTreeRef] = None

    def resolve(self) -> "ResolvedShard":
        """Attach the segment and materialize this shard's bootstrap data.

        The feature block comes back as a **read-only zero-copy view**
        into the mapping; member ids and objects are decoded into regular
        Python objects (the engine mutates neither).  The attachment is
        refcounted per process and released at interpreter exit.
        """
        segment = attach_segment(self.segment)
        buf = segment.buf
        ids_view = _as_array(buf, self.ids)
        member_ids = ids_view.tolist()
        features = _as_array(buf, self.features)
        features.flags.writeable = False
        start, stop = self.objects.offset, self.objects.offset + self.objects.size
        objects = pickle.loads(bytes(buf[start:stop]))
        index = (None if self.tree is None
                 else _decode_tree(self.tree, member_ids, buf))
        return ResolvedShard(segment=self.segment, member_ids=member_ids,
                             objects=objects, features=features, index=index)


@dataclass
class ResolvedShard:
    """Child-side view of one shard's slice (see :meth:`SharedSliceRef.resolve`)."""

    segment: str
    member_ids: List[str]
    objects: list
    features: np.ndarray
    index: Optional[ClusterTree] = None

    def close(self) -> None:
        """Release this resolution's hold on the segment attachment."""
        detach_segment(self.segment)


def _as_array(buf, span: ArraySpan) -> np.ndarray:
    return np.ndarray(span.shape, dtype=np.dtype(span.dtype), buffer=buf,
                      offset=span.offset)


# ---------------------------------------------------------------------------
# Child-side attachment cache (refcounted; atexit-drained).
# ---------------------------------------------------------------------------

_ATTACHED: Dict[str, List[Any]] = {}  # name -> [SharedMemory, refcount]


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach (or re-use this process's attachment of) a named segment."""
    entry = _ATTACHED.get(name)
    if entry is None:
        try:
            segment = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            raise ConfigurationError(
                f"shared-memory segment {name!r} does not exist (was the "
                f"coordinator's SharedFeatureTable closed early?)"
            ) from None
        entry = _ATTACHED[name] = [segment, 0]
    entry[1] += 1
    return entry[0]


def detach_segment(name: str) -> None:
    """Drop one reference; the mapping closes when the count reaches zero."""
    entry = _ATTACHED.get(name)
    if entry is None:
        return
    entry[1] -= 1
    if entry[1] <= 0:
        _ATTACHED.pop(name, None)
        try:
            entry[0].close()
        except BufferError:
            # Live numpy views still reference the mapping; the OS unmaps
            # at process exit regardless, and the segment's lifetime is
            # the owner's concern — nothing leaks.
            pass


def _drain_attachments() -> None:  # pragma: no cover - exit path
    for name in list(_ATTACHED):
        entry = _ATTACHED.pop(name, None)
        if entry is None:
            continue
        try:
            entry[0].close()
        except Exception:
            pass


atexit.register(_drain_attachments)


# ---------------------------------------------------------------------------
# Owner-side packing.
# ---------------------------------------------------------------------------


class _SegmentLayout:
    """Two-pass packer: reserve aligned spans, then copy into the mapping."""

    def __init__(self) -> None:
        self._arrays: List[Tuple[int, np.ndarray]] = []
        self._blobs: List[Tuple[int, bytes]] = []
        self.size = 0

    def add_array(self, array: np.ndarray) -> ArraySpan:
        array = np.ascontiguousarray(array)
        offset = _aligned(self.size)
        self._arrays.append((offset, array))
        self.size = offset + array.nbytes
        return ArraySpan(offset=offset, dtype=str(array.dtype),
                         shape=tuple(array.shape))

    def add_bytes(self, blob: bytes) -> BytesSpan:
        offset = _aligned(self.size)
        self._blobs.append((offset, blob))
        self.size = offset + len(blob)
        return BytesSpan(offset=offset, size=len(blob))

    def write(self, buf) -> None:
        for offset, array in self._arrays:
            if array.nbytes == 0:
                continue
            target = np.ndarray(array.shape, dtype=array.dtype, buffer=buf,
                                offset=offset)
            target[...] = array
        for offset, blob in self._blobs:
            buf[offset:offset + len(blob)] = blob


def _pack_tree(tree: ClusterTree, member_ids: Sequence[str],
               layout: _SegmentLayout) -> SharedTreeRef:
    """Pack a shard's tree: skeleton blob, members and centroid arrays."""
    position = {element_id: row for row, element_id in enumerate(member_ids)}
    members: List[int] = []
    centroids: List[np.ndarray] = []

    def encode(node: ClusterNode) -> tuple:
        if node.is_leaf:
            start = len(members)
            members.extend(position[element_id]
                           for element_id in node.member_ids)
            centroid_row = -1
            if node.centroid is not None:
                centroid_row = len(centroids)
                centroids.append(np.asarray(node.centroid, dtype=float))
            return ("leaf", node.node_id, start, len(node.member_ids),
                    centroid_row)
        return ("node", node.node_id,
                tuple(encode(child) for child in node.children))

    structure = layout.add_bytes(
        pickle.dumps(encode(tree.root), protocol=pickle.HIGHEST_PROTOCOL))
    members_span = layout.add_array(np.asarray(members, dtype=np.int64))
    centroids_span = (layout.add_array(np.stack(centroids))
                      if centroids else None)
    return SharedTreeRef(structure=structure, members=members_span,
                         centroids=centroids_span)


def _decode_tree(ref: SharedTreeRef, member_ids: Sequence[str],
                 buf) -> ClusterTree:
    members = _as_array(buf, ref.members)
    centroids = (None if ref.centroids is None
                 else _as_array(buf, ref.centroids))

    def decode(struct: tuple) -> ClusterNode:
        if struct[0] == "leaf":
            _kind, node_id, start, count, centroid_row = struct
            rows = members[start:start + count]
            centroid = (np.array(centroids[centroid_row], dtype=float)
                        if centroid_row >= 0 and centroids is not None
                        else None)
            return ClusterNode(
                node_id=str(node_id),
                member_ids=tuple(member_ids[int(row)] for row in rows),
                centroid=centroid,
            )
        _kind, node_id, children = struct
        return ClusterNode(node_id=str(node_id),
                           children=[decode(child) for child in children])

    span = ref.structure
    return ClusterTree(decode(
        pickle.loads(bytes(buf[span.offset:span.offset + span.size]))))


_OWNED_SEGMENTS: set = set()


def _cleanup_segment(segment: shared_memory.SharedMemory) -> None:
    """Owner-side teardown: close the mapping and unlink the name."""
    _OWNED_SEGMENTS.discard(segment.name)
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except Exception:
        pass


def _sweep_owned() -> None:  # pragma: no cover - exit path
    for name in list(_OWNED_SEGMENTS):
        _OWNED_SEGMENTS.discard(name)
        try:
            stale = shared_memory.SharedMemory(name=name, create=False)
        except Exception:
            continue
        try:
            stale.close()
        except Exception:
            pass
        try:
            stale.unlink()
        except Exception:
            pass


atexit.register(_sweep_owned)


class SharedFeatureTable:
    """Coordinator-owned shared-memory segment holding every shard's slice.

    Build one with :meth:`create` (one segment per engine run), hand each
    shard its :meth:`ref`, and :meth:`close` when the run ends.  Closing
    is idempotent; a ``weakref.finalize`` re-runs it on garbage
    collection and at interpreter exit, so no code path — including an
    engine error mid-start — leaves the segment linked.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 refs: List[SharedSliceRef]) -> None:
        self._segment = segment
        self.name = segment.name
        self._refs = refs
        _OWNED_SEGMENTS.add(segment.name)
        self._finalizer = weakref.finalize(self, _cleanup_segment, segment)

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, shards: Sequence[dict]) -> "SharedFeatureTable":
        """Pack per-shard payloads into one fresh segment.

        Each entry of ``shards`` is a dict with ``member_ids`` (list of
        str), ``objects`` (the partition's elements, any picklable
        type), ``features`` (``(n_w, d)`` array) and optional ``tree``
        (that shard's :class:`ClusterTree`).
        """
        layout = _SegmentLayout()
        partial_refs: List[SharedSliceRef] = []
        for shard in shards:
            # Width inference (``<U{max}``) happens in C inside asarray;
            # widths only need to be consistent within one shard's array.
            ids_array = np.asarray(list(shard["member_ids"]))
            if ids_array.dtype.kind != "U":
                ids_array = ids_array.astype(str)
            ids_span = layout.add_array(ids_array)
            features = np.asarray(shard["features"], dtype=float)
            if features.ndim == 1:
                features = features.reshape(-1, 1)
            features_span = layout.add_array(features)
            objects_span = layout.add_bytes(
                pickle.dumps(list(shard["objects"]),
                             protocol=pickle.HIGHEST_PROTOCOL)
            )
            tree = shard.get("tree")
            tree_ref = (None if tree is None
                        else _pack_tree(tree, shard["member_ids"], layout))
            partial_refs.append(SharedSliceRef(
                segment="", ids=ids_span, features=features_span,
                objects=objects_span, tree=tree_ref,
            ))
        segment = _create_segment(max(1, layout.size))
        try:
            layout.write(segment.buf)
        except BaseException:
            _cleanup_segment(segment)
            raise
        refs = [replace(ref, segment=segment.name) for ref in partial_refs]
        return cls(segment, refs)

    # -- access --------------------------------------------------------------

    def ref(self, worker_id: int) -> SharedSliceRef:
        """The picklable slice handle for one shard, in worker order."""
        return self._refs[worker_id]

    @property
    def nbytes(self) -> int:
        """Segment size in bytes."""
        return self._segment.size

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the segment has been unlinked."""
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink the segment (idempotent; children's mappings survive)."""
        self._finalizer()

    def __enter__(self) -> "SharedFeatureTable":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.nbytes} bytes"
        return (f"SharedFeatureTable(name={self.name!r}, "
                f"shards={len(self._refs)}, {state})")


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a fresh uniquely-named segment (retrying name collisions)."""
    last_error: Optional[Exception] = None
    for _attempt in range(8):
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        try:
            return shared_memory.SharedMemory(name=name, create=True,
                                              size=size)
        except FileExistsError as exc:  # pragma: no cover - 2^64 space
            last_error = exc
    raise ConfigurationError(
        f"could not allocate a unique shared-memory segment: {last_error}"
    )


# ---------------------------------------------------------------------------
# Capability probe + policy.
# ---------------------------------------------------------------------------

_PROBE: Optional[Tuple[Optional[str]]] = None


def shm_probe(refresh: bool = False) -> Optional[str]:
    """``None`` when POSIX shared memory works here, else the reason.

    Probed once per process (create + map + unlink of a tiny segment)
    and cached; ``refresh=True`` re-probes.
    """
    global _PROBE
    if _PROBE is None or refresh:
        reason: Optional[str] = None
        try:
            segment = shared_memory.SharedMemory(create=True, size=16)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        _PROBE = (reason,)
    return _PROBE[0]


def shm_available() -> bool:
    """True when the zero-copy bootstrap path can run on this machine."""
    return shm_probe() is None


def shm_default_enabled() -> bool:
    """Auto-enable policy: shm works and ``REPRO_DISABLE_SHM`` is unset."""
    if os.environ.get("REPRO_DISABLE_SHM", "").strip().lower() in (
            "1", "true", "yes", "on"):
        return False
    return shm_available()


def process_private_rss_kb() -> int:
    """This process's private (unshared) resident set, in kilobytes.

    Reads ``/proc/self/smaps_rollup`` (``Private_Clean + Private_Dirty``)
    so pages of a mapped shared segment — resident but shared across
    shard children — are *not* charged; falls back to ``VmRSS`` and
    finally to 0 where ``/proc`` is unavailable.  Used by
    ``benchmarks/bench_shm.py`` to measure per-child bootstrap RSS.
    """
    try:
        text = open("/proc/self/smaps_rollup", encoding="ascii").read()
        private = 0
        for line in text.splitlines():
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private += int(line.split()[1])
        return private
    except OSError:
        pass
    try:
        for line in open("/proc/self/status", encoding="ascii"):
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    return 0
