"""Tests for the zero-copy shard bootstrap (repro.parallel.shm).

Covers the acceptance guarantees of the shared-memory table layer: O(1)
pickled spec size in the partition size, bit-identity of shm-path and
copy-path answers, the segment lifecycle (normal close, engine error,
killed child — no orphan segments anywhere), idle process shards never
crossing the pipe, and the probed backend availability registry.
"""

from __future__ import annotations

import glob
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.parallel import (
    ShardedTopKEngine,
    backend_availability,
    build_shard_specs,
)
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SharedFeatureTable,
    process_private_rss_kb,
    shm_available,
    shm_default_enabled,
)
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.utils.rng import RngFactory

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable here"
)


def live_segments():
    """Names of this library's shm segments currently linked in /dev/shm."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def make_dataset(per_cluster=100, rng=0):
    return SyntheticClustersDataset.generate(n_clusters=6,
                                             per_cluster=per_cluster, rng=rng)


def make_specs(dataset, *, shared_memory, scorer=None, index_cache=None,
               n_workers=3, seed=0):
    factory = RngFactory(seed)
    return build_shard_specs(
        dataset, scorer or ReluScorer(), n_workers=n_workers, k=10,
        engine_config=EngineConfig(k=10), index_config=None,
        factory=factory, root_entropy=factory._root.entropy,
        materialize=True, index_cache=index_cache,
        shared_memory=shared_memory,
    )


class ExplodingScorer(ReluScorer):
    """Breaks the child-side shard bootstrap (used by the leak tests)."""

    def batch_cost(self, n: int) -> float:
        raise RuntimeError("boom: scorer refuses to estimate cost")


@needs_shm
class TestSharedFeatureTable:
    def test_roundtrip_ids_objects_features(self):
        features = np.arange(12, dtype=float).reshape(4, 3)
        table = SharedFeatureTable.create([{
            "member_ids": ["e1", "e2", "e30", "e400"],
            "objects": [{"v": 1}, [2.5], "three", (4,)],
            "features": features,
        }])
        try:
            resolved = table.ref(0).resolve()
            assert resolved.member_ids == ["e1", "e2", "e30", "e400"]
            assert resolved.objects == [{"v": 1}, [2.5], "three", (4,)]
            assert np.array_equal(resolved.features, features)
            assert not resolved.features.flags.writeable
            assert resolved.index is None
        finally:
            table.close()

    def test_segment_visible_then_unlinked(self):
        table = SharedFeatureTable.create([{
            "member_ids": ["a"], "objects": [1.0],
            "features": np.ones((1, 2)),
        }])
        path = f"/dev/shm/{table.name}"
        assert os.path.exists(path)
        assert table.name.startswith(SEGMENT_PREFIX)
        table.close()
        assert not os.path.exists(path)
        assert table.closed
        table.close()  # idempotent

    def test_finalizer_unlinks_on_garbage_collection(self):
        table = SharedFeatureTable.create([{
            "member_ids": ["a"], "objects": [0], "features": np.ones((1, 1)),
        }])
        path = f"/dev/shm/{table.name}"
        assert os.path.exists(path)
        del table
        assert not os.path.exists(path)

    def test_resolve_after_close_raises(self):
        table = SharedFeatureTable.create([{
            "member_ids": ["a"], "objects": [0], "features": np.ones((1, 1)),
        }])
        ref = table.ref(0)
        table.close()
        with pytest.raises(ConfigurationError, match="does not exist"):
            ref.resolve()

    def test_cluster_tree_roundtrip(self):
        leaf1 = ClusterNode("c0", member_ids=("a", "b"),
                            centroid=np.array([1.0, 2.0]))
        leaf2 = ClusterNode("c1", member_ids=("c",),
                            centroid=np.array([3.0, 4.0]))
        tree = ClusterTree(ClusterNode("root", children=[leaf1, leaf2]))
        table = SharedFeatureTable.create([{
            "member_ids": ["a", "b", "c"], "objects": [1, 2, 3],
            "features": np.zeros((3, 2)), "tree": tree,
        }])
        try:
            decoded = table.ref(0).resolve().index
            assert decoded is not None
            assert [n.node_id for n in decoded.nodes()] == [
                n.node_id for n in tree.nodes()
            ]
            for got, want in zip(decoded.leaves(), tree.leaves()):
                assert got.member_ids == want.member_ids
                assert np.array_equal(got.centroid, want.centroid)
        finally:
            table.close()


@needs_shm
class TestSpecWireSize:
    CEILING = 4096  # bytes; a copied 600-row float block alone is ~5x this

    def test_pickled_spec_o1_in_partition_size(self):
        """The shm spec's pickled size must not grow with the table."""
        sizes = {}
        for per_cluster in (100, 800):  # 600 vs 4800 elements
            dataset = make_dataset(per_cluster=per_cluster)
            _parts, specs, _hit, table = make_specs(dataset,
                                                    shared_memory=True)
            try:
                sizes[per_cluster] = [len(pickle.dumps(s)) for s in specs]
            finally:
                table.close()
        for per_cluster, spec_sizes in sizes.items():
            assert all(size < self.CEILING for size in spec_sizes), (
                f"{per_cluster=}: pickled shm specs {spec_sizes} exceed "
                f"the {self.CEILING}-byte ceiling"
            )
        # 8x the table, (essentially) the same wire size.
        assert abs(max(sizes[800]) - max(sizes[100])) < 128

    def test_copy_path_grows_where_shm_does_not(self):
        dataset = make_dataset(per_cluster=200)
        _parts, inline_specs, _hit, table = make_specs(dataset,
                                                       shared_memory=False)
        assert table is None
        inline = max(len(pickle.dumps(s)) for s in inline_specs)
        assert inline > self.CEILING  # the copy the tentpole removes


@needs_shm
class TestBitIdentity:
    def test_process_answers_identical_shm_vs_copy(self):
        dataset = make_dataset()
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        results = {}
        for label, shared in (("shm", True), ("copy", False)):
            engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                       seed=0, backend="process",
                                       shared_memory=shared)
            try:
                results[label] = engine.run(400)
            finally:
                engine.close()
        assert results["shm"].items == results["copy"].items
        assert results["shm"].stk == results["copy"].stk
        assert results["shm"].total_scored == results["copy"].total_scored

    def test_cached_index_ships_through_segment_bit_identically(self):
        from repro.parallel import ShardIndexCache

        dataset = make_dataset()
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        cache = ShardIndexCache()
        # Warm the cache in-process (process children keep their indexes).
        warm = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3, seed=0,
                                 backend="serial", index_cache=cache)
        baseline = warm.run(400)
        warm.close()
        assert len(cache) == 1
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   seed=0, backend="process",
                                   index_cache=cache, shared_memory=True)
        try:
            specs_probe = cache.hits
            result = engine.run(400)
        finally:
            engine.close()
        assert cache.hits == specs_probe + 1
        assert result.items == baseline.items
        assert result.stk == baseline.stk


@needs_shm
class TestSegmentLeaks:
    def test_normal_close_leaves_no_segment(self):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=2,
                                   seed=0, backend="process",
                                   shared_memory=True)
        engine.run(200)
        engine.close()
        assert live_segments() == []

    def test_engine_error_during_start_leaves_no_segment(self):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ExplodingScorer(), k=10,
                                   n_workers=2, seed=0, backend="process",
                                   shared_memory=True)
        with pytest.raises(Exception):
            engine.start()
        assert engine._shm_table is None
        assert live_segments() == []
        engine.close()  # safe on the partially-started state

    def test_killed_child_leaves_no_segment(self):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=2,
                                   seed=0, backend="process",
                                   shared_memory=True)
        try:
            engine.start()
            processes = engine.backend._pools[0]._processes
            os.kill(next(iter(processes)), signal.SIGKILL)
        finally:
            engine.close()
        assert live_segments() == []


class TestFallbackAndOptOut:
    def test_disable_env_forces_copy_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert not shm_default_enabled()
        dataset = make_dataset()
        _parts, specs, _hit, table = make_specs(dataset, shared_memory=None)
        assert table is None
        assert all(s.features_ref is None and s.features is not None
                   for s in specs)

    def test_packing_failure_falls_back_to_copy(self, monkeypatch):
        import repro.parallel.worker as worker_module

        def explode(cls, shards):
            raise OSError("no shm here")

        monkeypatch.setattr(worker_module.SharedFeatureTable, "create",
                            classmethod(explode))
        dataset = make_dataset()
        _parts, specs, _hit, table = make_specs(dataset, shared_memory=None)
        assert table is None
        assert all(s.features is not None and s.objects is not None
                   for s in specs)
        with pytest.raises(ConfigurationError, match="zero-copy"):
            make_specs(dataset, shared_memory=True)

    def test_serial_and_thread_never_allocate_a_table(self):
        dataset = make_dataset()
        factory = RngFactory(0)
        _parts, specs, _hit, table = build_shard_specs(
            dataset, ReluScorer(), n_workers=3, k=10,
            engine_config=EngineConfig(k=10), index_config=None,
            factory=factory, root_entropy=factory._root.entropy,
            materialize=False,
        )
        assert table is None
        assert all(s.features_ref is None for s in specs)


class TestIdleShards:
    @needs_shm
    def test_zero_cap_and_inactive_shards_skip_ipc(self):
        """Only shards the round deals a cap to get a slice down the pipe;
        a starved or exhausted shard is never submitted to."""
        dataset = make_dataset()
        engine = ShardedTopKEngine(
            dataset, ReluScorer(FixedPerCallLatency(1e-4)), k=5,
            n_workers=3, seed=0, backend="process", shared_memory=True,
            sync_interval=50)
        submitted = []
        submit = engine.backend.submit

        def recording_submit(worker_id, cap, floor):
            submitted.append((worker_id, cap))
            submit(worker_id, cap, floor)

        engine.backend.submit = recording_submit
        try:
            # A budget of one call covers only worker 0.
            first = engine.run(1)
            assert submitted == [(0, 1)]
            assert first.n_rounds == 1
            assert [w.n_scored for w in first.workers] == [1, 0, 0]
            engine._active[0] = False     # as if worker 0 had exhausted
            submitted.clear()
            second = engine.run(101)
            assert sorted(w for w, _cap in submitted) == [1, 2]
            assert second.workers[0].n_scored == 1
            assert second.workers[1].n_scored > 0
            assert second.workers[2].n_scored > 0
        finally:
            engine.close()

    def test_tiny_budget_run_completes_with_idle_shards(self):
        """End-to-end: a budget smaller than one round per shard still
        terminates and reports zero scoring for the starved shards."""
        if not shm_available():
            pytest.skip("POSIX shared memory unavailable here")
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=5, n_workers=3,
                                   seed=0, backend="process",
                                   sync_interval=10)
        try:
            result = engine.run(10)
        finally:
            engine.close()
        assert result.total_scored >= 10
        assert len(result.workers) == 3


class TestAvailability:
    def test_registry_reports_all_backends(self):
        availability = backend_availability()
        assert set(availability) == {"serial", "thread", "process"}
        assert availability["serial"] is None
        assert availability["thread"] is None

    def test_streaming_availability_mirrors_rounds(self):
        from repro.parallel import available_backends
        from repro.streaming import available_backends as stream_available

        assert stream_available() == available_backends()

    def test_cli_info_mentions_zero_copy_status(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "zero-copy shard bootstrap:" in out


class TestRssHelper:
    def test_private_rss_positive_on_linux(self):
        assert process_private_rss_kb() > 0
