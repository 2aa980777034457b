"""End-to-end benchmark of the opaque top-k query engine, one command.

    python3 e2ebench/run.py --workload warm_mixed --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.  Its
durations are paced: the run times a fixed slice of the benchmark's own
work during its loop and around each set-up, and scales every duration
by the reference over the measured slice time (``measure.Pace``), so a
host that switched to a slower speed mode does not read as a slower
program.  The unpaced ``query_p50_s`` and the factor are printed beside
the metrics.
``--trace 1`` reports the per-layer metrics: the timed loop runs for
half the time untraced, then from a fresh set-up for the other half with
probes installed (see ``probes.py``); the gap between the two is
``obs.trace_overhead_frac``.  Lines before the JSON print every metric
with its unit and sample count, the answer digest, and any failed check.

``--inject LAYER=SECONDS`` slows one layer's public call by a busy-wait
(``observe`` or ``build_index``); ``sensitivity.py`` uses it.
``--scale`` shrinks every table, for smoke tests (``selftest.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from layers import SPEC
from measure import RssSampler, finite, median, percentile, reap_children
from probes import Injector, Tracer

ROOT = Path(__file__).resolve().parent.parent
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None,
                        help="LAYER=SECONDS busy-wait per call")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table-size factor (smoke tests use 0.1)")
    return parser.parse_args(argv)


def end_to_end(setup_times, phase, verdict, peak_mb,
               ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metric values and their sample counts.  Durations are
    scaled to the reference host pace."""
    pace = phase.pace
    walls = [query.wall * pace if query.error is None else math.inf
             for query in phase.queries]
    n = len(walls)
    values = {
        "setup_s": median(setup_times),
        "query_p50_s": finite(percentile(walls, 50)),
        "query_p90_s": finite(percentile(walls, 90)),
        "queries_per_s": n / (phase.elapsed * pace),
        "t95_p50_s": finite(percentile([t * pace for t in verdict.t95], 50)),
        "stk_ratio_p50": percentile(verdict.ratios, 50),
        "stk_ratio_p10": percentile(verdict.ratios, 10),
        "udf_calls_per_query": phase.udf_calls / n,
        "peak_rss_mb": peak_mb,
    }
    samples = {"setup_s": len(setup_times), "query_p50_s": n,
               "query_p90_s": n, "queries_per_s": n,
               "t95_p50_s": len(verdict.t95),
               "stk_ratio_p50": len(verdict.ratios),
               "stk_ratio_p10": len(verdict.ratios), "udf_calls_per_query": n,
               "peak_rss_mb": 1}
    return values, samples


def per_layer(tracer, untraced, traced, before, after,
              ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metric values from the traced phase, plus absent names."""
    n = max(1, len(traced.queries))
    shares, unattributed, wall = tracer.attribute(
        [(query.start, query.end) for query in traced.queries])
    counts = tracer.counts
    values: Dict[str, float] = {}
    absent: List[str] = []

    def put(name: str, value, layer: str = None) -> None:
        if layer is not None and not tracer.layer_present(layer):
            absent.append(name)
        else:
            values[name] = float(value)

    def share(layer: str) -> float:
        return shares.get(layer, 0.0) / n

    def mean(samples) -> float:
        return sum(samples) / len(samples) if samples else 0.0

    put("query.parse_s", share("query.parse"), "query.parse")
    put("query.plan_s", share("query.plan"), "query.plan")
    put("index.build_s", share("index.build"), "index.build")
    put("index.builds", counts["builds"] / n, "index.build")
    put("index.kmeans_fit_s", share("index.kmeans"), "index.kmeans")
    put("index.kmeans_fits", counts["kmeans_fits"] / n, "index.kmeans")
    put("parallel.shard_cache_hits", counts["shard_cache_hits"] / n,
        "parallel.shard_cache")
    put("parallel.shard_cache_misses", counts["shard_cache_misses"] / n,
        "parallel.shard_cache")
    put("parallel.pool_start_s", share("parallel.pool_start"),
        "parallel.pool_start")
    put("parallel.shm_pack_s", share("parallel.shm_pack"),
        "parallel.shm_pack")
    put("parallel.shm_bytes", counts["shm_bytes"] / n, "parallel.shm_pack")
    put("core.bookkeeping_s", share("core.bookkeeping"), "core.bookkeeping")
    elems = counts["elems"]
    put("core.bookkeeping_us_per_elem",
        tracer.busy_time("core.bookkeeping") / elems * 1e6 if elems else 0.0,
        "core.bookkeeping")
    put("core.batches", counts["batches"] / n, "core.bookkeeping")
    put("core.engine_overhead_s", mean(
        [query.engine_overhead for query in traced.queries
         if query.engine_overhead is not None]))
    streams = [query for query in traced.queries
               if query.template.stream and query.snapshots]
    put("streaming.merge_s", share("streaming.merge"), "streaming.merge")
    put("streaming.merges", mean([query.merges for query in streams]))
    put("streaming.first_snapshot_s",
        median([query.snapshots[0][0] for query in streams]))
    put("scoring.udf_s", share("scoring.udf"), "scoring.udf")
    put("scoring.udf_calls", counts["udf_calls"] / n, "scoring.udf")
    for name, key in (("memo.hits", "memo_hits"),
                      ("memo.misses", "memo_misses")):
        if key in after:
            values[name] = (after[key] - before[key]) / n
        else:
            absent.append(name)
    if "memo.hits" in values and "memo.misses" in values:
        looked = values["memo.hits"] + values["memo.misses"]
        values["memo.hit_rate"] = values["memo.hits"] / looked if looked else 0.0
    else:
        absent.append("memo.hit_rate")
    put("memo.access_s", share("memo.access"), "memo.access")
    put("service.admission_wait_s", share("service.admission_wait"),
        "service.admission_wait")
    values["service.peak_committed"] = after.get("peak_committed", 0.0)
    put("live.write_p50_s",
        percentile(untraced.writes, 50) if untraced.writes else 0.0)
    put("live.append_s", mean(tracer.durations("live.append")),
        "live.append")
    put("live.update_s", mean(tracer.durations("live.update")),
        "live.update")
    put("live.maintain_s", share("live.maintain"), "live.maintain")
    for name, key in (("live.splits", "splits"),
                      ("live.rebuilds", "rebuilds")):
        values[name] = (after.get(key, 0.0) - before.get(key, 0.0)) / n
    put("obs.query_wall_s", wall / n)
    put("obs.unattributed_s", unattributed / n)
    put("obs.trace_overhead_frac", trace_overhead(untraced, traced))
    return values, absent


def trace_overhead(untraced, traced) -> float:
    """Traced over untraced wall time of the same query templates, - 1."""
    walls: Dict[str, List[float]] = defaultdict(list)
    for query in untraced.queries:
        walls[query.template.key].append(query.wall)
    expected = actual = 0.0
    for query in traced.queries:
        reference = walls.get(query.template.key)
        if reference:
            expected += sum(reference) / len(reference)
            actual += query.wall
    return actual / expected - 1.0 if expected else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, timed_setup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    injector = None
    if args.inject:
        layer, _, delay = args.inject.partition("=")
        injector = Injector(layer, float(delay))
        injector.install()

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    # The baseline holds the generated inputs; what the program adds to
    # it, and its children, is peak_rss_mb.
    gc.collect()
    sampler = RssSampler().start()
    # A traced run splits its time between the untraced and traced loop.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        setup_times = timed_setup(
            workload, 1 if args.trace else workload.setup_repeats)
        phase = workload.run_phase(seconds)
        phases = [phase]
        if args.trace:
            # Set up afresh so the traced loop starts from the same state
            # as the untraced one (live tables and memos drift).
            timed_setup(workload, 1)
            tracer = Tracer()
            middle = workload.counters()
            tracer.install()
            try:
                traced = workload.run_phase(seconds, replay=True)
            finally:
                tracer.uninstall()
            phases.append(traced)
            after = workload.counters()
        # The peak is taken before the checks build their ground truth.
        peak_mb = sampler.stop()
        verdicts = [workload.checks(each) for each in phases]
    finally:
        sampler.stop()
        workload.close()
        if injector is not None:
            injector.uninstall()
    leftover = reap_children()

    attempted = sum(len(each.queries) + len(each.writes)
                    + len(each.write_errors) for each in phases)
    failures = [failure for verdict in verdicts
                for failure in verdict.failures]
    if leftover:
        failures.append(f"child processes still running: {leftover}")
    if args.trace:
        metrics, absent = per_layer(tracer, phase, traced, middle, after)
        samples = {}
    else:
        metrics, samples = end_to_end(setup_times, phase, verdicts[0],
                                      peak_mb)
        absent = []

    print(f"workload={args.workload} seed={args.seed} "
          f"trace={args.trace} queries={len(phase.queries)} "
          f"elapsed={phase.elapsed:.2f}s pace={phase.pace:.4f}")
    if not args.trace:
        raw = [query.wall for query in phase.queries]
        print(f"  (paced: durations below are wall times x {phase.pace:.4f};"
              f" unpaced query_p50_s {percentile(raw, 50):.6g} s)")
    for name, value in metrics.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:32s} {value:14.6g} {UNITS[name]}{count}")
    for name in absent:
        print(f"  {name:32s} absent (its probe seam no longer exists)")
    for index, verdict in enumerate(verdicts):
        print(f"answer_digest[{index}]={verdict.digest}")
    for failure in failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
