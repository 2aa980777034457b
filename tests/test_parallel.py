"""Tests for the sharded execution subsystem (repro.parallel).

The serial simulation itself is pinned by ``tests/test_distributed.py``;
this module covers backend agreement, the coordinator merge's edge cases,
small partitions, and snapshot/resume of a sharded run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig
from repro.core.minmax_heap import TopKBuffer
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError, SerializationError
from repro.experiments.ground_truth import compute_ground_truth
from repro.index.builder import IndexConfig
from repro.parallel import (
    ShardedTopKEngine,
    available_backends,
    merge_worker_topk,
    partition_ids,
)
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.streaming import StreamingTopKEngine, make_stream_backend


@pytest.fixture(scope="module")
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                per_cluster=150, rng=0)
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    return dataset, scorer, truth


def run_sharded(dataset, scorer, backend, budget, **kw):
    defaults = dict(k=10, n_workers=3, seed=0)
    defaults.update(kw)
    engine = ShardedTopKEngine(dataset, scorer, backend=backend, **defaults)
    try:
        return engine.run(budget)
    finally:
        engine.close()


class TestBackendRegistry:
    def test_serial_first(self):
        assert available_backends()[0] == "serial"
        assert set(available_backends()) == {"serial", "thread", "process"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_stream_backend("gpu")

    def test_unknown_backend_at_engine_construction(self, world):
        dataset, scorer, _ = world
        with pytest.raises(ConfigurationError):
            ShardedTopKEngine(dataset, scorer, k=5, backend="nope")


class TestBackendAgreement:
    """A round's arrivals are merged in worker order and every backend
    deals caps by the same rule, so all three backends produce identical
    answers at any budget — including the end-game rounds where a shard
    exhausts or the budget cannot fund a full slice per shard."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("budget", [500, 777, None])
    def test_backends_agree_at_every_budget(self, world, budget, seed):
        dataset, scorer, _ = world
        runs = {
            backend: run_sharded(dataset, scorer, backend, budget=budget,
                                 n_workers=2, seed=seed,
                                 engine_config=EngineConfig(k=10,
                                                            batch_size=8))
            for backend in ("serial", "thread", "process")
        }
        serial = runs["serial"]
        for backend, result in runs.items():
            assert result.backend == backend
            assert result.items == serial.items, backend
            assert result.stk == serial.stk, backend
            assert result.total_scored == serial.total_scored, backend
            assert result.n_rounds == serial.n_rounds, backend

    def test_thread_matches_serial(self, world):
        dataset, scorer, _ = world
        serial = run_sharded(dataset, scorer, "serial", budget=600)
        thread = run_sharded(dataset, scorer, "thread", budget=600)
        assert thread.stk == serial.stk
        assert thread.items == serial.items
        assert thread.total_scored == serial.total_scored
        assert thread.n_rounds == serial.n_rounds
        assert thread.backend == "thread"

    def test_process_matches_serial(self, world):
        dataset, scorer, _ = world
        serial = run_sharded(dataset, scorer, "process", budget=400,
                             n_workers=2)
        process = run_sharded(dataset, scorer, "serial", budget=400,
                              n_workers=2)
        assert process.stk == serial.stk
        assert process.items == serial.items

    def test_thread_is_deterministic(self, world):
        dataset, scorer, _ = world
        one = run_sharded(dataset, scorer, "thread", budget=500)
        two = run_sharded(dataset, scorer, "thread", budget=500)
        assert one.stk == two.stk and one.items == two.items

    def test_real_backends_measure_real_clock(self, world):
        dataset, scorer, _ = world
        thread = run_sharded(dataset, scorer, "thread", budget=300)
        # 1 ms virtual scoring is never charged for real: measured
        # wall-clock is far below the 0.3 s the virtual clock would claim.
        assert thread.wall_time < 0.3


class TestFreshSerialEngines:
    def test_fresh_serial_engines_are_bit_identical(self, world):
        dataset, scorer, _ = world
        one = run_sharded(dataset, scorer, "serial", budget=500, seed=5)
        two = run_sharded(dataset, scorer, "serial", budget=500, seed=5)
        assert one.items == two.items
        assert one.wall_time == two.wall_time
        assert one.checkpoints == two.checkpoints

    def test_fresh_engine_ignores_earlier_runs(self, world):
        """A fresh engine per run is an independent execution; reusing an
        engine continues cumulatively instead of starting over."""
        dataset, scorer, _ = world
        run_sharded(dataset, scorer, "serial", budget=150, seed=7)
        second = run_sharded(dataset, scorer, "serial", budget=600, seed=7)
        fresh = run_sharded(dataset, scorer, "serial", budget=600, seed=7)
        assert second.total_scored == fresh.total_scored
        assert second.n_rounds == fresh.n_rounds
        assert second.items == fresh.items
        assert second.wall_time == fresh.wall_time
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                               seed=7) as engine:
            engine.run(150)
            continued = engine.run(600)
        assert continued.total_scored == fresh.total_scored
        assert continued.total_scored <= len(dataset)


class TestCoordinatorMerge:
    def test_duplicate_ids_across_shards_offered_once(self):
        buffer = TopKBuffer(3)
        merged = set()
        merge_worker_topk(buffer, merged, [("a", 5.0), ("b", 4.0)])
        # A pathological duplicate of "a" from another shard (scores are
        # immutable, so the first sighting is authoritative).
        merge_worker_topk(buffer, merged, [("a", 9.0), ("c", 3.0)])
        items = {payload: score for score, payload in buffer.items()}
        assert len(buffer) == 3
        assert items["a"] == 5.0  # not overwritten by the duplicate
        assert set(items) == {"a", "b", "c"}

    def test_tie_scores_at_kth_boundary(self):
        buffer = TopKBuffer(2)
        merged = set()
        merge_worker_topk(buffer, merged, [("a", 4.0), ("b", 4.0)])
        merge_worker_topk(buffer, merged, [("c", 4.0)])
        # A tie with the k-th score must not evict (offer requires strictly
        # greater), so the earliest sightings win and STK is stable.
        assert sorted(buffer.payloads()) == ["a", "b"]
        assert buffer.stk == pytest.approx(8.0)
        merge_worker_topk(buffer, merged, [("d", 4.5)])
        assert "d" in buffer.payloads() and buffer.stk == pytest.approx(8.5)

    def test_evicted_id_never_readmitted(self):
        buffer = TopKBuffer(1)
        merged = set()
        merge_worker_topk(buffer, merged, [("low", 1.0)])
        merge_worker_topk(buffer, merged, [("high", 9.0)])  # evicts "low"
        merge_worker_topk(buffer, merged, [("low", 1.0)])   # re-reported
        assert buffer.payloads() == ["high"]
        assert len(buffer) == 1


class TestSmallPartitions:
    def test_partition_smaller_than_k_stays_exact(self, world):
        """6 workers over 1200 elements with k=10: every partition holds
        200 > k, so shrink the dataset instead — 8 workers x 5 elements,
        k=10 > any partition; the exhaustive merge must still be exact."""
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=10, rng=3)
        scorer = ReluScorer()
        truth = compute_ground_truth(dataset, scorer)
        result = run_sharded(dataset, scorer, "serial", budget=None,
                             n_workers=8, k=10, seed=3)
        assert result.total_scored == len(dataset)
        assert result.stk == pytest.approx(truth.optimal_stk(10), rel=1e-9)
        assert len(result.items) == 10

    def test_partitions_balanced(self, world):
        dataset, _, _ = world
        from repro.utils.rng import RngFactory

        parts = partition_ids(dataset.ids(), 7,
                              RngFactory(1).named("partition"))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(i for p in parts for i in p) == sorted(dataset.ids())


class TestSnapshotResume:
    def test_snapshot_is_json_safe(self, world):
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                                   seed=0)
        engine.run(budget=200)
        payload = json.dumps(engine.snapshot())
        assert "repro-sharded-snapshot/1" in payload

    def test_resume_continues_to_budget(self, world):
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   seed=0)
        partial = engine.run(budget=300)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot)
        final = resumed.run(budget=600)
        assert final.total_scored >= 600 - 3  # batch-overshoot slack
        assert final.stk >= partial.stk - 1e-9
        assert len(final.items) == 10
        assert set(final.ids) <= set(dataset.ids())
        # No element is ever scored twice across the pause.
        assert final.total_scored <= len(dataset)

    def test_resumed_run_monotone_checkpoints(self, world):
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=5, n_workers=2,
                                   seed=4)
        engine.run(budget=200)
        resumed = ShardedTopKEngine.restore(dataset, scorer,
                                            engine.snapshot())
        final = resumed.run(budget=500)
        stks = [stk for _t, stk in final.checkpoints]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))
        assert final.n_rounds > 0

    def test_resume_across_backends(self, world):
        """A run snapshotted under serial resumes under process (and the
        shard state really crossed a pickle boundary to get there)."""
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                                   seed=0)
        partial = engine.run(budget=200)
        resumed = ShardedTopKEngine.restore(dataset, scorer,
                                            engine.snapshot(),
                                            backend="process")
        try:
            final = resumed.run(budget=400)
        finally:
            resumed.close()
        assert final.backend == "process"
        assert final.total_scored >= 400 - 2
        assert final.stk >= partial.stk - 1e-9

    def test_thread_midrun_snapshot_resumes_on_thread(self, world):
        """Snapshot taken mid-run under the thread backend (shards live on
        pool threads) resumes cleanly on the same backend."""
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   seed=0, backend="thread")
        partial = engine.run(budget=300)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        engine.close()
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot)
        try:
            final = resumed.run(budget=600)
        finally:
            resumed.close()
        assert final.backend == "thread"
        assert final.total_scored >= 600 - 3
        assert final.stk >= partial.stk - 1e-9

    def test_thread_midrun_snapshot_resumes_on_serial(self, world):
        """A run paused under thread continues under serial: the resumed
        virtual clock keeps the checkpoints monotone."""
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                                   seed=3, backend="thread")
        partial = engine.run(budget=250)
        snapshot = engine.snapshot()
        engine.close()
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot,
                                            backend="serial")
        final = resumed.run(budget=500)
        assert final.backend == "serial"
        assert final.total_scored >= 500 - 2
        assert final.stk >= partial.stk - 1e-9
        stks = [stk for _t, stk in final.checkpoints]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))

    def test_round_loop_snapshot_restores_exactly(self):
        """``data/sharded_snapshot_v1.json`` was written by the round-loop
        coordinator that preceded the barrier schedule: a serial run over
        this dataset (k=3, 2 workers, sync interval 2) paused after 4 of
        8 calls.  It restores, and finishes with the exact answer."""
        snapshot = json.loads(
            (Path(__file__).parent / "data" / "sharded_snapshot_v1.json")
            .read_text())
        assert snapshot["format"] == "repro-sharded-snapshot/1"
        dataset = SyntheticClustersDataset.generate(n_clusters=2,
                                                    per_cluster=4, rng=0)
        scorer = ReluScorer()
        truth = compute_ground_truth(dataset, scorer)
        with ShardedTopKEngine.restore(
                dataset, scorer, snapshot,
                index_config=IndexConfig(n_clusters=1),
                engine_config=EngineConfig(k=3, n_bins=2)) as resumed:
            assert resumed.total_scored == 4
            assert resumed.n_rounds == 1
            final = resumed.run()
        assert final.total_scored == len(dataset)
        assert set(final.ids) == truth.topk_ids(3)
        assert final.stk == pytest.approx(truth.optimal_stk(3), rel=1e-12)
        assert final.displacement_bound == 0.0
        assert final.n_rounds > 1
        assert final.checkpoints[0] == tuple(
            snapshot["coordinator"]["checkpoints"][0])

    def test_bad_format_rejected(self, world):
        dataset, scorer, _ = world
        with pytest.raises(Exception, match="format"):
            ShardedTopKEngine.restore(dataset, scorer, {"format": "nope"})
        # The barrier-free schedule's snapshots are another format.
        with StreamingTopKEngine(dataset, scorer, k=10, n_workers=2,
                                 seed=0) as streaming:
            streaming.run(100)
            payload = streaming.snapshot()
        with pytest.raises(SerializationError,
                           match="repro-sharded-snapshot/1"):
            ShardedTopKEngine.restore(dataset, scorer, payload)


class TestRoundIndexCache:
    def test_warm_cache_bit_identical(self, world):
        from repro.parallel import ShardIndexCache

        dataset, scorer, _ = world
        cache = ShardIndexCache()
        cold = run_sharded(dataset, scorer, "serial", budget=400,
                           index_cache=cache)
        assert len(cache) == 1 and cache.hits == 0
        warm = run_sharded(dataset, scorer, "serial", budget=400,
                           index_cache=cache)
        assert cache.hits == 1
        assert warm.items == cold.items
        assert warm.checkpoints == cold.checkpoints

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_every_backend_fills_the_cache(self, world, backend):
        """Layouts are built in the coordinator, so process runs (whose
        shard engines live in children) fill and hit the cache too."""
        from repro.parallel import ShardIndexCache

        dataset, scorer, _ = world
        cache = ShardIndexCache()
        run_sharded(dataset, scorer, backend, budget=300,
                    index_cache=cache)
        assert len(cache) == 1 and cache.hits == 0
        run_sharded(dataset, scorer, backend, budget=300, seed=1,
                    index_cache=cache)
        assert len(cache) == 1 and cache.hits == 1


class TestTableLayout:
    """One shard layout per (table version, workers, WHERE subset)."""

    QUERIES = (
        "SELECT TOP 5 FROM t ORDER BY relu WHERE feature[0] > -100 "
        "BUDGET 150 SEED 1 WORKERS 2 BACKEND {backend}",
        "SELECT TOP 5 FROM t ORDER BY relu WHERE feature[0] > -100 "
        "BUDGET 150 SEED 2 WORKERS 2 BACKEND {backend}",
        # Exhaustive, so the barrier-free merge order cannot move it.
        "SELECT TOP 5 FROM t ORDER BY relu WHERE feature[0] > -100 "
        "SEED 3 WORKERS 2 BACKEND {backend} STREAM",
    )

    @staticmethod
    def _run(world, backend, monkeypatch):
        import os

        from repro.index.kmeans import KMeans
        from repro.session import OpaqueQuerySession

        dataset, scorer, _ = world
        session = OpaqueQuerySession()
        session.register_table("t", dataset,
                               index_config=IndexConfig(n_clusters=4))
        session.register_udf("relu", scorer)
        fits = []
        coordinator = os.getpid()
        real_fit = KMeans.fit

        def counting_fit(self, *args, **kwargs):
            # Forked shard children inherit this patch: a fit there
            # would be a worker-side build, which must never happen.
            assert os.getpid() == coordinator, "k-means fit in a shard"
            fits.append(1)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(KMeans, "fit", counting_fit)
        results, fit_counts = [], []
        for query in TestTableLayout.QUERIES:
            before = len(fits)
            results.append(session.execute(query.format(backend=backend)))
            fit_counts.append(len(fits) - before)
        return session, results, fit_counts

    def test_new_seeds_reuse_one_layout_on_every_backend(self, world,
                                                         monkeypatch):
        answers = {}
        for backend in ("serial", "thread", "process"):
            session, results, fit_counts = self._run(world, backend,
                                                     monkeypatch)
            assert fit_counts[0] == 2          # one tree per shard
            assert fit_counts[1:] == [0, 0]    # new SEEDs fit nothing
            cache = session._shard_caches["t"]
            assert len(cache) == 1 and cache.hits == 2
            answers[backend] = [(r.items, r.stk) for r in results]
        assert answers["serial"] == answers["thread"] == answers["process"]


class TestExhaustiveParallel:
    def test_process_exhaustive_exact(self, world):
        dataset, scorer, truth = world
        result = run_sharded(dataset, scorer, "process", budget=None,
                             n_workers=2, k=15,
                             index_config=IndexConfig(n_clusters=4))
        assert result.total_scored == len(dataset)
        assert result.stk == pytest.approx(truth.optimal_stk(15), rel=1e-9)
