"""Check the per-layer -> workload map by slowing one layer at a time.

    python3 e2ebench/sensitivity.py --seeds 1,2,3

For each injectable layer this script adds a busy-wait around the
layer's public call (``--inject`` of ``run.py``) and checks one
end-to-end metric the map in ``layers.py`` ties to that layer:

* ``TopKEngine.observe`` -> ``queries_per_s``, used by warm_mixed,
  bypassed by cold_start;
* ``build_index`` -> ``query_p50_s``, used by cold_start, bypassed by
  warm_mixed (whose index builds happen in set-up, not in queries).

The delay is the size of the benchmark's own bound on that metric: the
time it adds per query is the bound times the metric's baseline query
time on the workload that uses the layer, spread over the layer's calls
per query (read from a traced run).  Each seed runs a baseline and an
injected run back to back, alternating which goes first, so host drift
cancels within a pair.  A workload is *flagged* when the median of its
paired changes worsens the metric by more than half the bound: a
bound-sized slowdown must show clearly where the layer does the work,
and stay inside the noise where it does not.  Exits 0 when every
workload is flagged exactly as predicted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import MOVES, SPEC  # noqa: E402

#: injectable layer -> (its per-layer time metric in the map, the
#: per-layer count of its calls per query, the end-to-end metric checked,
#: workloads: the predicted user first)
CASES = {
    "observe": ("core.bookkeeping_s", "core.batches", "queries_per_s",
                ("warm_mixed", "cold_start")),
    "build_index": ("index.build_s", "index.builds", "query_p50_s",
                    ("cold_start", "warm_mixed")),
}


def run(workload: str, seed: int, seconds: float, trace: int = 0,
        inject: str = None) -> Dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n"
                           f"{done.stdout}")
    return {name: metric["value"] for name, metric in
            result["metrics"].items()}


def worsening(metric: str, before: float, after: float) -> float:
    """Relative change of ``metric`` in its bad direction."""
    better = next(spec["better"] for spec in SPEC["end_to_end"]
                  if spec["name"] == metric)
    return after / before - 1.0 if better == "lower" else before / after - 1.0


def query_seconds(metric: str, value: float) -> float:
    """The per-query time a metric stands for (throughput is inverted)."""
    return 1.0 / value if metric == "queries_per_s" else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    bounds = {metric["name"]: metric["bound"]
              for metric in SPEC["end_to_end"]}

    ok = True
    for layer, (layer_metric, calls_metric, metric, workloads) in \
            CASES.items():
        bound = bounds[metric]
        moves = MOVES[layer_metric]
        user = workloads[0]
        calls = run(user, seeds[0], args.seconds, trace=1)[calls_metric]
        reference = run(user, seeds[0], args.seconds)[metric]
        delay = bound * query_seconds(metric, reference) / calls
        print(f"{layer}: {calls:.3g} calls/query on {user}; injecting "
              f"{delay * 1e6:.1f} us per call, checking {metric} "
              f"(bound {bound})")
        for workload in workloads:
            changes = []
            for position, seed in enumerate(seeds):
                pair = {}
                order = (None, delay) if position % 2 == 0 else (delay, None)
                for injected in order:
                    pair[injected] = run(
                        workload, seed, args.seconds,
                        inject=f"{layer}={injected}" if injected else None)
                changes.append(worsening(metric, pair[None][metric],
                                         pair[delay][metric]))
            change = statistics.median(changes)
            flagged = change > bound / 2
            expect = (metric, workload) in moves
            ok &= flagged == expect
            print(f"  {workload:12s} {metric} worse by "
                  f"{', '.join(f'{c:+.1%}' for c in changes)} "
                  f"(median {change:+.1%})  flagged={flagged} "
                  f"predicted={expect}"
                  f"{'' if flagged == expect else '  MISMATCH'}")
    print("sensitivity check:", "as predicted" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
