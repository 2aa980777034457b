"""Command-line interface: ``python -m repro <command>``.

Three commands, mirroring how the library is used (full walkthrough in
``docs/quickstart.md``; dialect reference in ``docs/dialect.md``):

* ``demo``    — run the quickstart scenario end to end and print the
  quality report.  Configurable dataset size / k / budget / seed, plus
  ``--workers N`` / ``--backend <name>`` to run the same scenario sharded
  across parallel workers (see :mod:`repro.parallel`); ``--stream`` /
  ``--every N`` / ``--confidence P`` to run it barrier-free with live
  progressive output and the confidence-bounded early stop (see
  :mod:`repro.streaming`); and ``--record-trace`` / ``--replay-trace`` to
  record a real run's arrival order and re-execute it deterministically
  (see :mod:`repro.replay`).
* ``query``   — execute one SQL-ish opaque top-k query (see
  :mod:`repro.session` and :mod:`repro.query`) against a generated demo
  table.  ``--live`` registers the table as a mutable
  :class:`repro.live.LiveTable`; ``--append N`` (implies ``--live``)
  appends N fresh rows after the first run and re-runs the same query,
  showing the incrementally maintained index and the memo serving every
  unchanged element.  Every run ends with the table's card — rows,
  ``table_version``, and index freshness (``static`` / ``built`` /
  ``incremental`` / ``rebuilt``) — from
  :meth:`repro.session.OpaqueQuerySession.table_info`.  Standing
  ``CONTINUOUS`` queries are subscriptions and are redirected to
  :class:`repro.live.ContinuousQuery` / the service with a clean error.  The dialect's ``WORKERS <w>`` / ``BACKEND <b>`` and
  ``STREAM`` / ``EVERY <n>`` / ``CONFIDENCE <p>`` clauses — or the
  equivalent ``--workers`` / ``--backend`` / ``--stream`` / ``--every``
  / ``--confidence`` flags — select the execution mode; an explicit
  clause in the SQL wins over the flags.  ``WHERE feature[i] ...``
  pushes a feature filter down into the index; ``EXPLAIN <query>`` (or
  ``--explain``) prints the resolved execution plan instead of running
  it, and ``EXPLAIN ANALYZE <query>`` runs it and prints the measured
  span tree next to the plan (see :mod:`repro.obs`); ``--trace-out
  FILE`` saves any run's span tree as Chrome trace-event JSON.
  Malformed queries fail with the offending column and a caret span
  under the query text.
* ``serve``   — start the multi-tenant query service
  (:mod:`repro.service`) on the same generated demo table, speaking the
  newline-delimited-JSON line protocol over TCP.  ``--budget N`` meters
  a global scorer budget across concurrent clients under ``--policy``
  (fair-share or deadline); talk to it with
  :class:`repro.service.ServiceClient` or plain ``netcat``.
* ``info``    — print version, module inventory, the experiment index,
  the available execution backends, and the registered metrics.

Backend names are introspected from the :mod:`repro.parallel` /
:mod:`repro.streaming` registries (one shared vocabulary), never
hard-coded here; the ``replay`` backend is trace-driven and therefore
reached through ``--replay-trace`` rather than ``--backend``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _backend_choices() -> List[str]:
    """The backend vocabulary, introspected from the backend registry."""
    from repro.parallel import available_backends

    return available_backends()


def _policy_choices() -> List[str]:
    """Admission-policy vocabulary, introspected from the service."""
    from repro.service.budget import POLICIES

    return list(POLICIES)


def _add_stream_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--stream", action="store_true",
                         help="execute barrier-free with live progressive "
                              "output (merge on arrival)")
    command.add_argument("--every", type=int, default=None,
                         help="progressive snapshot granularity in scored "
                              "elements (implies --stream)")
    command.add_argument("--confidence", type=float, default=None,
                         metavar="P",
                         help="stop early once the displacement bound "
                              "certifies the top-k at this confidence "
                              "level, e.g. 0.95 (implies --stream)")


def _build_parser() -> argparse.ArgumentParser:
    backends = _backend_choices()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate opaque top-k queries "
                    "(SIGMOD 2025 reproduction); guides in docs/, "
                    "dialect reference in docs/dialect.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo",
        help="run the quickstart scenario (sharded: --workers; streaming: "
             "--stream/--every/--confidence; audit: --record-trace / "
             "--replay-trace)",
    )
    demo.add_argument("--clusters", type=int, default=20)
    demo.add_argument("--per-cluster", type=int, default=500)
    demo.add_argument("--k", type=int, default=100)
    demo.add_argument("--budget-fraction", type=float, default=0.25)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--workers", type=int, default=1,
                      help="shard the query across this many workers "
                           "(default 1: single engine)")
    demo.add_argument("--backend", default="serial", choices=backends,
                      help="execution backend for --workers > 1 or "
                           "--stream; registry-driven choices "
                           "(default serial)")
    _add_stream_flags(demo)
    trace_flags = demo.add_mutually_exclusive_group()
    trace_flags.add_argument("--record-trace", metavar="PATH", default=None,
                             help="record the streaming run's arrival "
                                  "order to this JSON file (implies "
                                  "--stream); replay it later with "
                                  "--replay-trace and the same flags")
    trace_flags.add_argument("--replay-trace", metavar="PATH", default=None,
                             help="re-execute a recorded arrival trace "
                                  "deterministically on the replay backend "
                                  "(requires the same dataset flags as the "
                                  "recorded run)")

    query = sub.add_parser(
        "query",
        help="run one SQL-ish query on a demo table (supports the "
             "WHERE/EXPLAIN, WORKERS/BACKEND, and STREAM/EVERY/"
             "CONFIDENCE clauses and the equivalent flags)",
    )
    query.add_argument("sql", help='e.g. "SELECT TOP 50 FROM demo ORDER BY '
                                   'relu WHERE feature[0] > 0.5 '
                                   'BUDGET 20%% WORKERS 4 STREAM '
                                   'CONFIDENCE 0.95"')
    query.add_argument("--explain", action="store_true",
                       help="print the resolved execution plan instead of "
                            "running the query (same as prefixing the SQL "
                            "with EXPLAIN; prefix EXPLAIN ANALYZE to also "
                            "run it and print the measured span tree)")
    query.add_argument("--trace-out", metavar="FILE", default=None,
                       help="run with tracing on and write the span tree "
                            "as Chrome trace-event JSON (loadable in "
                            "chrome://tracing or Perfetto)")
    query.add_argument("--rows", type=int, default=5_000)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--workers", type=int, default=None,
                       help="default worker count when the query has no "
                            "WORKERS clause")
    query.add_argument("--backend", default=None, choices=backends,
                       help="default backend when the query has no "
                            "BACKEND clause; registry-driven choices")
    query.add_argument("--live", action="store_true",
                       help="register the demo table as a mutable "
                            "LiveTable (versioned writes, incrementally "
                            "maintained index; see docs/live.md)")
    query.add_argument("--append", type=int, default=0, metavar="N",
                       help="append N fresh demo rows after the first run "
                            "and re-run the same query (implies --live); "
                            "the re-run scores only the appended rows — "
                            "every unchanged element comes from the memo")
    query.add_argument("--no-cache", action="store_true",
                       help="disable the cross-query score memo for this "
                            "query (warm answers are bit-identical to "
                            "cold ones; this flag only forces re-paying "
                            "the UDF calls)")
    _add_stream_flags(query)

    serve = sub.add_parser(
        "serve",
        help="serve the demo table to concurrent clients over the "
             "line protocol (repro.service; one JSON request line per "
             "connection, snapshots + result lines back)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7654,
                       help="TCP port (0 picks a free one; default 7654)")
    serve.add_argument("--rows", type=int, default=5_000)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--budget", type=int, default=None,
                       help="global scorer budget shared by every query "
                            "the service admits (default: unmetered)")
    serve.add_argument("--policy", default="fair-share",
                       choices=_policy_choices(),
                       help="admission policy under budget contention")

    sub.add_parser("info",
                   help="print version, inventory, and execution backends")
    return parser


def _print_progressive(snapshot) -> None:
    """One live line per progressive snapshot (ProgressiveResult.summary)."""
    print(f"  {snapshot.summary()}")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import EngineConfig, FixedPerCallLatency, ReluScorer, TopKEngine
    from repro.data.synthetic import SyntheticClustersDataset
    from repro.experiments.ground_truth import compute_ground_truth
    from repro.experiments.metrics import precision_at_k

    dataset = SyntheticClustersDataset.generate(
        n_clusters=args.clusters, per_cluster=args.per_cluster, rng=args.seed
    )
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    budget = max(args.k, int(args.budget_fraction * len(dataset)))
    truth = compute_ground_truth(dataset, scorer)
    optimal = truth.optimal_stk(args.k)
    streaming_mode = (args.stream or args.every is not None
                      or args.confidence is not None
                      or args.record_trace is not None
                      or args.replay_trace is not None)
    if args.replay_trace is not None:
        from repro.replay import ArrivalTrace, replay_engine

        trace = ArrivalTrace.load(args.replay_trace)
        if trace.k != args.k:
            # The engine takes k from the trace; report with the same k so
            # "STK fraction of optimal" / precision stay meaningful.
            print(f"note: trace was recorded with k={trace.k}; "
                  f"reporting at that k (not --k {args.k})")
            args.k = trace.k
        optimal = truth.optimal_stk(args.k)
        print(f"replaying {trace.summary()}")
        with replay_engine(dataset, scorer, trace) as streaming:
            for drive in trace.drives:
                for snapshot in streaming.results_iter(
                        int(drive["budget"]), every=drive.get("every")):
                    _print_progressive(snapshot)
            result = streaming.result()
        print(result.summary())
        print(f"backend: {result.backend} (recorded on {trace.backend}), "
              f"{len(result.workers)} workers, {result.n_merges} merges")
    elif streaming_mode:
        from repro.streaming import StreamingTopKEngine

        with StreamingTopKEngine(dataset, scorer, k=args.k,
                                 n_workers=max(1, args.workers),
                                 backend=args.backend,
                                 confidence=args.confidence,
                                 record=args.record_trace is not None,
                                 seed=args.seed) as streaming:
            for snapshot in streaming.results_iter(budget, every=args.every):
                _print_progressive(snapshot)
            result = streaming.result()
            if args.record_trace is not None:
                path = streaming.trace().save(args.record_trace)
                print(f"recorded arrival trace -> {path}")
        print(result.summary())
        print(f"backend: {result.backend}, "
              f"{len(result.workers)} workers, "
              f"{result.n_merges} merges")
    elif args.workers > 1:
        from repro.parallel import ShardedTopKEngine

        with ShardedTopKEngine(dataset, scorer, k=args.k,
                               n_workers=args.workers,
                               backend=args.backend,
                               seed=args.seed) as sharded:
            result = sharded.run(budget)
        print(result.summary())
        print(f"backend: {result.backend}, "
              f"{len(result.workers)} workers, "
              f"{result.n_rounds} sync rounds")
    else:
        index = dataset.true_index()
        engine = TopKEngine(index, EngineConfig(k=args.k, seed=args.seed))
        result = engine.run(dataset, scorer, budget=budget)
        print(result.summary())
    print(f"STK fraction of optimal: {result.stk / optimal:.1%}")
    print(f"Precision@{args.k}: "
          f"{precision_at_k(result.ids, truth, args.k):.1%}")
    n_scored = (result.total_scored
                if streaming_mode or args.workers > 1
                else result.n_scored)
    print(f"UDF calls: {n_scored:,} of {len(dataset):,} "
          f"({n_scored / len(dataset):.0%})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query import parse

    live_mode = args.live or args.append > 0
    session = _demo_session(args.rows, args.seed, live=live_mode)
    sql = args.sql
    explain_mode = args.explain
    streaming_mode = (args.stream or args.every is not None
                      or args.confidence is not None)
    try:
        parsed = parse(sql)
    except Exception:
        parsed = None  # let execute() raise the clean parse error below
    if parsed is not None:
        explain_mode = explain_mode or parsed.explain
        streaming_mode = streaming_mode or parsed.stream
    use_cache = False if args.no_cache else None
    if parsed is not None and parsed.analyze:
        # EXPLAIN ANALYZE: run under a forced tracer and print the
        # plan's estimates above the measured span tree.
        report = session.execute(sql, workers=args.workers,
                                 backend=args.backend,
                                 stream=args.stream or None,
                                 every=args.every,
                                 confidence=args.confidence,
                                 use_cache=use_cache)
        print(report.render())
        _write_trace_out(args.trace_out, session)
        return 0
    if explain_mode:
        if parsed is not None and not parsed.explain:
            sql = f"EXPLAIN {sql}"
        plan = session.execute(sql, workers=args.workers,
                               backend=args.backend,
                               stream=args.stream or None,
                               every=args.every,
                               confidence=args.confidence,
                               use_cache=use_cache)
        print(plan.explain())
        return 0
    trace = args.trace_out is not None

    def run_query() -> None:
        if streaming_mode:
            snapshot = None
            for snapshot in session.stream(args.sql, workers=args.workers,
                                           backend=args.backend,
                                           every=args.every,
                                           confidence=args.confidence,
                                           use_cache=use_cache,
                                           trace=trace):
                _print_progressive(snapshot)
            items = snapshot.top_k if snapshot is not None else []
        else:
            result = session.execute(args.sql, workers=args.workers,
                                     backend=args.backend,
                                     use_cache=use_cache,
                                     trace=trace)
            print(result.summary())
            items = result.items
        for element_id, score in items[:10]:
            print(f"  {element_id}\t{score:.4f}")
        if len(items) > 10:
            print(f"  ... {len(items) - 10} more rows")
        if not args.no_cache:
            stats = session.cache_stats("demo")
            print(f"cache: {stats['hits']} hits / {stats['misses']} misses, "
                  f"{stats['entries']} scores memoized")

    run_query()
    if args.append > 0:
        _append_demo_rows(session, args.append, args.seed)
        print(f"\nappended {args.append} rows; re-running (the memo keeps "
              "every pre-existing score warm)")
        run_query()
    _print_table_card(session,
                      parsed.table if parsed is not None else "demo")
    _write_trace_out(args.trace_out, session)
    return 0


def _append_demo_rows(session, n: int, seed: int) -> None:
    """Commit ``n`` fresh rows to the live demo table (one write batch)."""
    live = session._live_table("demo")
    rng = np.random.default_rng(seed + 1)
    values = rng.uniform(0.0, 25.0, size=n)
    live.append([f"new-{i:05d}" for i in range(n)],
                [float(value) for value in values],
                values.reshape(-1, 1))


def _print_table_card(session, table: str) -> None:
    """One-line per-table card: rows, version, index freshness, writes."""
    info = session.table_info(table)
    line = (f"table: {info['table']} — {info['rows']:,} rows, "
            f"version {info['version']}, index {info['index_freshness']}")
    if info.get("writes"):
        writes = info["writes"]
        line += (f" (writes: {writes['append']} append / "
                 f"{writes['update']} update / {writes['delete']} delete")
        if "index_splits" in info:
            line += (f"; {info['index_splits']} splits, "
                     f"{info['index_rebuilds']} rebuilds")
        line += ")"
    print(line)


def _write_trace_out(path: Optional[str], session) -> None:
    """Save the session's last span tree as Chrome trace-event JSON."""
    if path is None or session.last_trace is None:
        return
    import json

    trace = session.last_trace
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.to_chrome_trace(), handle)
    print(f"trace: {trace.span_count()} spans -> {path} "
          "(load in chrome://tracing or Perfetto)")


def _demo_session(rows: int, seed: int, live: bool = False):
    """The demo table + UDFs behind both ``query`` and ``serve``.

    With ``live=True`` the generated rows seed a mutable
    :class:`repro.live.LiveTable` instead of a static dataset, so the
    session plans against pinned snapshots and maintains the index
    incrementally as writes commit.
    """
    from repro import OpaqueQuerySession, ReluScorer
    from repro.data.synthetic import SyntheticClustersDataset
    from repro.index.builder import IndexConfig
    from repro.scoring.base import FunctionScorer

    dataset = SyntheticClustersDataset.generate(
        n_clusters=max(2, rows // 250),
        per_cluster=250,
        rng=seed,
    )
    n_clusters = dataset.n_clusters
    if live:
        from repro.live import LiveTable

        ids = dataset.ids()
        dataset = LiveTable(ids, [dataset.fetch(i) for i in ids],
                            dataset.features(), name="demo")
    session = OpaqueQuerySession()
    session.register_table(
        "demo", dataset,
        index_config=IndexConfig(n_clusters=n_clusters),
    )
    session.register_udf("relu", ReluScorer())
    session.register_udf("squared",
                         FunctionScorer(lambda v: float(v) ** 2))
    return session


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import QueryService, serve

    session = _demo_session(args.rows, args.seed)
    service = QueryService(budget=args.budget, policy=args.policy,
                           session=session)

    async def run() -> None:
        server = await serve(service, host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        budget = ("unmetered" if args.budget is None
                  else f"budget {args.budget} ({args.policy})")
        print(f"serving table 'demo' ({args.rows} rows, UDFs relu/squared) "
              f"on {host}:{port} — {budget}")
        print('try: echo \'{"query": "SELECT TOP 10 FROM demo ORDER BY '
              f"relu BUDGET 500\"}}' | nc {host} {port}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import os

    import repro
    from repro.parallel import available_backends

    print(f"repro {repro.__version__} — Approximating Opaque Top-k Queries "
          "(SIGMOD 2025 reproduction)")
    print("\nsubsystems:")
    inventory = [
        ("repro.core", "STK objective, histograms, epsilon-greedy bandit, "
                       "fallbacks, engine"),
        ("repro.index", "vectorizers, k-means, HAC, cluster tree, B+ tree"),
        ("repro.baselines", "UCB, ExplorationOnly, UniformSample, scans, "
                            "oracles"),
        ("repro.scoring", "GBDT, MLP softmax, linear models, latency models"),
        ("repro.data", "synthetic / UsedCars-style / image generators"),
        ("repro.experiments", "ground truth, metrics, runner, reports"),
        ("repro.applications", "data acquisition over source unions"),
        ("repro.session", "SQL-ish declarative interface (WHERE / "
                          "EXPLAIN / WORKERS / STREAM / CONFIDENCE)"),
        ("repro.query", "dialect parser, logical plans, and the "
                        "single/sharded/streaming executor registry"),
        ("repro.parallel", "sharded execution: per-worker index + engine, "
                           "round-barrier schedule of the coordinator"),
        ("repro.streaming", "shard coordinator + backends: merge on "
                            "arrival, threshold broadcast, anytime "
                            "progressive results, confidence-bounded "
                            "early stop"),
        ("repro.replay", "recorded-arrival traces + deterministic "
                         "replay of real streaming runs"),
        ("repro.memo", "cross-query score memo (bit-identical warm "
                       "answers) + warm-start bandit priors"),
        ("repro.live", "mutable versioned tables (snapshot-isolated "
                       "writes), incremental index maintenance, "
                       "standing CONTINUOUS queries"),
        ("repro.obs", "query-lifecycle span tracing, EXPLAIN ANALYZE "
                      "reports, process-wide metrics registry"),
        ("repro.service", "multi-tenant asyncio query service: global "
                          "scorer-budget scheduler (fair-share / "
                          "deadline), per-connection sessions, line "
                          "protocol (repro serve)"),
    ]
    for module, description in inventory:
        print(f"  {module:20s} {description}")
    from repro.parallel import backend_availability, shm_probe

    backends = ", ".join(available_backends())
    print(f"\nparallel backends: {backends} "
          f"({os.cpu_count() or 1} CPU core(s) available); "
          "'process' uses real cores, 'thread' suits GIL-releasing UDFs, "
          "'serial' is the deterministic simulation")
    for name, reason in backend_availability().items():
        if reason is not None:
            print(f"  {name}: unavailable — {reason}")
    print(f"streaming backends: {backends} (the same registry: STREAM "
          "merges each slice on arrival, WORKERS alone merges at round "
          "barriers), plus the trace-driven 'replay' backend "
          "(repro demo --replay-trace)")
    print("score cache: on by default (per-table cross-query memo, keyed "
          "by UDF fingerprint; warm answers bit-identical to cold; "
          "opt out per query with --no-cache)")
    print("live tables: repro query --live / --append N (per-table "
          "version, row count, and index freshness printed after every "
          "query; standing queries via the CONTINUOUS clause — "
          "repro.live.ContinuousQuery or the query service)")
    from repro.obs.metrics import REGISTRY

    print("\nmetrics (repro.obs.metrics.REGISTRY.snapshot()):")
    for metric in REGISTRY.describe():
        print(f"  {metric['name']:22s} {metric['type']:10s} "
              f"{metric['help']}")
    shm_reason = shm_probe()
    if shm_reason is None:
        print("zero-copy shard bootstrap: on for 'process' (POSIX shared "
              "memory; opt out with REPRO_DISABLE_SHM=1)")
    else:
        print(f"zero-copy shard bootstrap: unavailable — {shm_reason}; "
              "'process' falls back to inline spec copies")
    print("\nexperiments: benchmarks/bench_fig{2,4,5,6,7,8,9}_*.py "
          "+ bench_theory_regret.py + bench_ablation_design.py")
    print("run: pytest benchmarks/ --benchmark-only")
    print("docs: docs/quickstart.md, docs/dialect.md, docs/streaming.md, "
          "docs/observability.md, docs/api.md, docs/architecture.md")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {"demo": _cmd_demo, "query": _cmd_query,
                "serve": _cmd_serve, "info": _cmd_info}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
