"""The per-layer -> end-to-end prediction map.

``BENCHMARK.json`` names every metric with its unit and direction.  This
module records, for each per-layer metric, the end-to-end metrics it
should move and on which workload; on every workload not named, the
layer is predicted to stay flat.  ``sensitivity.py`` tests the map by
slowing a layer and checking that only the predicted workload moves.

Per-layer times are *self* times (a nested layer's time is not counted
again in its caller) shared out over measured query wall time, in
seconds per query, so they add up with ``obs.unattributed_s`` to
``obs.query_wall_s``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

#: The benchmark's definition: workloads, metric names, units, bounds.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

Moves = Tuple[Tuple[str, str], ...]   # (end-to-end metric, workload)

_WARM_SPEED: Moves = (("query_p50_s", "warm_mixed"),
                      ("queries_per_s", "warm_mixed"),
                      ("t95_p50_s", "warm_mixed"))
_INDEX: Moves = (("query_p50_s", "cold_start"), ("setup_s", "warm_mixed"),
                 ("setup_s", "tenants_live"))
_COLD_P50: Moves = (("query_p50_s", "cold_start"),)
_TENANT_UDF: Moves = (("query_p50_s", "tenants_live"),
                      ("udf_calls_per_query", "tenants_live"))
_TENANT_P90: Moves = (("query_p90_s", "tenants_live"),)

MOVES: Dict[str, Moves] = {
    "query.parse_s": (("queries_per_s", "warm_mixed"),),
    "query.plan_s": (("queries_per_s", "warm_mixed"),),
    "index.build_s": _INDEX,
    "index.builds": _INDEX,
    "index.kmeans_fit_s": _INDEX,
    "index.kmeans_fits": _INDEX,
    "parallel.shard_cache_hits": _COLD_P50,
    "parallel.shard_cache_misses": _COLD_P50,
    "parallel.pool_start_s": _COLD_P50,
    "parallel.shm_pack_s": _COLD_P50,
    "parallel.shm_bytes": _COLD_P50,
    "core.bookkeeping_s": _WARM_SPEED,
    "core.bookkeeping_us_per_elem": _WARM_SPEED,
    "core.batches": _WARM_SPEED,
    # The engine's own stopwatch (result.overhead_time), mean over
    # single-engine queries.
    "core.engine_overhead_s": _WARM_SPEED,
    # Coordinator top-k merges; merges per STREAM query; median time to
    # the first snapshot of a STREAM query.
    "streaming.merge_s": (("t95_p50_s", "warm_mixed"),),
    "streaming.merges": (("t95_p50_s", "warm_mixed"),),
    "streaming.first_snapshot_s": (("t95_p50_s", "warm_mixed"),),
    # In-process scorer calls (process shards are not seen).
    "scoring.udf_s": _TENANT_UDF,
    "scoring.udf_calls": _TENANT_UDF,
    # The hit rate is 0 by construction on warm_mixed (memo off).
    "memo.hits": _TENANT_UDF,
    "memo.misses": _TENANT_UDF,
    "memo.hit_rate": _TENANT_UDF,
    "memo.access_s": (("query_p50_s", "tenants_live"),),
    "service.admission_wait_s": _TENANT_P90,
    "service.peak_committed": _TENANT_P90,
    # Append or update call latency, from the untraced phase; the mean
    # LiveTable.append and LiveTable.update call.  Writes are not
    # queries, so no end-to-end metric carries them.
    "live.write_p50_s": (),
    "live.append_s": (),
    "live.update_s": (),
    "live.maintain_s": _TENANT_P90,
    "live.splits": _TENANT_P90,
    "live.rebuilds": _TENANT_P90,
    # The measured query wall time the layer times account for; the
    # part inside no probed layer; traced over untraced wall of the same
    # queries, minus 1.  These check how honest the traced run is.
    "obs.query_wall_s": (),
    "obs.unattributed_s": (),
    "obs.trace_overhead_frac": (),
}
