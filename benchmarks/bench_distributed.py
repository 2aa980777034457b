"""Distributed execution scalability — the Section 6 MapReduce combination.

The paper notes the method "can be combined with MapReduce by running the
indexing and bandit algorithm on each worker, and periodically communicating
the running solution back to a coordinator" but does not evaluate it.  This
benchmark runs the serial sharded simulation at 1/2/4/8 workers (a fresh
:class:`~repro.parallel.engine.ShardedTopKEngine` per run) and reports the
wall-clock scaling of the exhaustive query and the quality retained at a
fixed total scoring budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticClustersDataset
from repro.experiments.ground_truth import compute_ground_truth
from repro.experiments.report import format_rows
from repro.index.builder import IndexConfig
from repro.parallel import ShardedTopKEngine
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer

K = 50
WORKER_COUNTS = (1, 2, 4, 8)


def build_world():
    dataset = SyntheticClustersDataset.generate(n_clusters=16,
                                                per_cluster=400, rng=0)
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    return dataset, scorer, truth


def test_distributed_scaling(benchmark, capsys):
    dataset, scorer, truth = build_world()
    optimal = truth.optimal_stk(K)

    def run():
        rows = []
        for n_workers in WORKER_COUNTS:
            with ShardedTopKEngine(
                dataset, scorer, k=K, n_workers=n_workers,
                backend="serial", index_config=IndexConfig(n_clusters=8),
                sync_interval=100, seed=0,
            ) as engine:
                result = engine.run()
            rows.append((n_workers, result))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    base_wall = rows[0][1].wall_time
    for n_workers, result in rows:
        table.append([
            n_workers,
            result.wall_time,
            base_wall / result.wall_time,
            result.stk / optimal,
            result.n_rounds,
        ])
    with capsys.disabled():
        print()
        print(format_rows(
            ["workers", "wall time (s)", "speedup", "STK/opt", "rounds"],
            table,
            title="Serial sharded simulation: exhaustive-query scaling "
                  f"(n={len(dataset)}, k={K}, 1ms scoring)",
        ))

    # Near-linear scaling and exact answers at every width.
    for n_workers, result in rows:
        assert result.stk == pytest.approx(optimal, rel=1e-9)
        expected = base_wall / n_workers
        assert result.wall_time == pytest.approx(expected, rel=0.15)


def test_distributed_fixed_budget_quality(benchmark, capsys):
    dataset, scorer, truth = build_world()
    optimal = truth.optimal_stk(K)
    budget = len(dataset) // 4

    def run():
        rows = []
        for n_workers in WORKER_COUNTS:
            with ShardedTopKEngine(
                dataset, scorer, k=K, n_workers=n_workers,
                backend="serial", index_config=IndexConfig(n_clusters=8),
                sync_interval=50, seed=1,
            ) as engine:
                result = engine.run(budget=budget)
            rows.append([n_workers, result.wall_time,
                         result.stk / optimal])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_rows(
            ["workers", "wall time (s)", "STK/opt"], rows,
            title=f"Serial sharded simulation at fixed budget "
                  f"({budget} scores)",
        ))

    # Partitioned bandits lose little quality at the same total budget.
    qualities = [row[2] for row in rows]
    assert min(qualities) >= 0.8 * max(qualities)
