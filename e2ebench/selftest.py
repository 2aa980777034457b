"""The benchmark's own tests; run them by path:

    python3 -m pytest e2ebench/selftest.py -q

Smoke-sized runs of every workload (tables shrunk by ``--scale``) check
that each emits every metric it promises with its unit and passes its
answer checks; unit tests cover layer attribution, absent probe seams,
and the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from probes import Seam, Tracer  # noqa: E402
from run import per_layer  # noqa: E402
from workloads import WORKLOADS, Phase  # noqa: E402

SPEC = layers.SPEC


def run_bench(workload: str, trace: int, seed: int = 7,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_prediction_map_covers_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert set(layers.MOVES) == {m["name"] for m in SPEC["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for moves in layers.MOVES.values():
        for e2e, workload in moves:
            assert e2e in bounds and workload in WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_and_passes_checks(workload, trace):
    # tenants_live can fail here on a program defect: the service sizes a
    # query's grant from a plan made at submit time, so a write that adds
    # candidates before the query plans again leaves an exhaustive STREAM
    # underfunded, and at this scale it stops with an empty answer.
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        for name in ("setup_s", "query_p50_s", "queries_per_s",
                     "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", ["cold_start", "warm_mixed"])
def test_serial_answers_repeat_from_run_to_run(workload):
    digests = []
    for _ in range(2):
        done = run_bench(workload, 0, seed=11)
        assert done.returncode == 0, done.stderr
        digests.append([line for line in done.stdout.splitlines()
                        if line.startswith("answer_digest")])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("warm_mixed", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_missing_seam_is_reported_absent_not_a_crash():
    tracer = Tracer(seams=(
        Seam("gone", "repro.parallel.cache:NoSuchCache.get",
             "parallel.shard_cache"),
        Seam("gone_module", "repro.no_such_module:thing", "query.plan"),
    ), admit_seam=None)
    tracer.install()
    tracer.uninstall()
    values, absent = per_layer(tracer, Phase(), Phase(), {}, {})
    assert {"parallel.shard_cache_hits", "parallel.shard_cache_misses",
            "query.plan_s", "memo.hits"} <= set(absent)
    assert not set(values) & set(absent)


def test_layer_times_and_residual_add_up_to_query_wall():
    tracer = Tracer(seams=(), admit_seam=None)
    # One query 0..10 on thread 1: plan 1..3 with a nested build 1.5..2.5;
    # two parallel builds 4..8 on threads 2 and 3; nothing else.
    tracer.spans.extend([
        ("query.plan", 1.0, 3.0, 1, 0), ("index.build", 1.5, 2.5, 1, 1),
        ("index.build", 4.0, 8.0, 2, 0), ("index.kmeans", 4.0, 8.0, 3, 0),
    ])
    shares, unattributed, wall = tracer.attribute([(0.0, 10.0)])
    assert wall == pytest.approx(10.0)
    assert shares["query.plan"] == pytest.approx(1.0)
    assert shares["index.build"] == pytest.approx(1.0 + 2.0)
    assert shares["index.kmeans"] == pytest.approx(2.0)
    assert unattributed == pytest.approx(4.0)
    assert sum(shares.values()) + unattributed == pytest.approx(wall)


def test_pace_factor_is_reference_over_mean_slice_time():
    from measure import Pace
    pace = Pace()
    pace.samples.extend([0.001, 0.003, 0.002, 0.002])
    assert pace.factor() == pytest.approx(Pace.REFERENCE_S / 0.002)
    assert pace.factor(since=2) == pytest.approx(Pace.REFERENCE_S / 0.002)
    pace.sample(2)
    assert len(pace.samples) == 6 and pace.spent > 0
