"""The three workloads: cold_start, warm_mixed and tenants_live.

Each workload draws its queries (and writes) from the run's seed over
fixed generated tables, sets the program up (timed as ``setup_s``), then
drives a closed loop of queries for the run's duration and records every
query's wall time, answer, and STREAM snapshots.  Answers are checked
against numpy ground truth only after the loop, so checking never
competes with the program for the host.

Load stays within two cores: at most two shard workers, two service
threads and two tenant clients.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import InMemoryDataset
from repro.live.table import LiveTable
from repro.obs.metrics import REGISTRY
from repro.scoring.blocking import BlockingReluScorer
from repro.scoring.relu import ReluScorer
from repro.service.service import QueryService
from repro.session import OpaqueQuerySession

from data import (Digest, Exact, Mixture, Predicate, Table, VersionLog,
                  answer_matches, exact_topk, quantile_predicate)
from measure import Pace


@dataclass(frozen=True)
class Template:
    """One query text with what the checks need to know about it."""

    key: str
    table: str
    sql: str
    k: int
    where: Optional[Predicate] = None
    stream: bool = False
    exhaustive: bool = False      # BUDGET 100%: must equal the exact top-k
    deterministic: bool = False   # serial and below the fallback warm-up
    options: Tuple[Tuple[str, object], ...] = ()

    @property
    def shape(self) -> Tuple[int, Optional[Predicate]]:
        return self.k, self.where


def sql(table: str, udf: str, k: int, *clauses: str) -> str:
    return " ".join([f"SELECT TOP {k} FROM {table} ORDER BY {udf}",
                     *[clause for clause in clauses if clause]])


@dataclass
class QueryRecord:
    template: Template
    start: float
    end: float
    items: Optional[List[Tuple[str, float]]]
    stk: float
    snapshots: List[Tuple[float, float]]   # (seconds since start, stk)
    merges: int
    versions: Tuple[int, int] = (0, 0)     # table versions it may have read
    error: Optional[str] = None
    cycle: int = 0                         # which pass over the query mix
    #: The single engine's own bookkeeping stopwatch (``overhead_time``).
    engine_overhead: Optional[float] = None

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """Everything one timed loop observed."""

    queries: List[QueryRecord] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)       # op latencies
    write_errors: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    udf_calls: float = 0.0
    logs: Dict[str, VersionLog] = field(default_factory=dict)  # live tables
    #: Host pace factor for the loop's durations.
    pace: float = 1.0


def udf_calls_total() -> float:
    """Real UDF invocations so far, from the program's metrics registry."""
    cells = REGISTRY.snapshot()["udf_calls_total"]["values"]
    return float(sum(cell["value"] for cell in cells))


def run_sync(session: OpaqueQuerySession, template: Template,
             phase: Phase, cycle: int) -> QueryRecord:
    """Execute one query in this thread and record it."""
    options = dict(template.options)
    snapshots: List[Tuple[float, float]] = []
    overhead = None
    start = time.perf_counter()
    try:
        if template.stream:
            last = None
            for snap in session.stream(template.sql, **options):
                snapshots.append((time.perf_counter() - start, snap.stk))
                last = snap
            items, stk, merges = list(last.top_k), last.stk, last.n_merges
        else:
            result = session.execute(template.sql, **options)
            items, stk = list(result.items), result.stk
            merges = getattr(result, "n_merges", 0)
            overhead = getattr(result, "overhead_time", None)
        error = None
    except Exception as exc:  # a failed query is counted, never fatal
        items, stk, merges, error = None, 0.0, 0, repr(exc)
    record = QueryRecord(template, start, time.perf_counter(), items, stk,
                         snapshots, merges, error=error,
                         engine_overhead=overhead, cycle=cycle)
    phase.queries.append(record)
    return record


# ---------------------------------------------------------------------------
# Checks shared by all workloads.
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Per-query quality and the run's answer checks."""

    ratios: List[float] = field(default_factory=list)
    t95: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    digest: str = ""


def verify(phase: Phase, exact_for: Callable[[QueryRecord], List[Exact]],
           valid_row: Callable[[str, str, float], bool]) -> Verdict:
    """Check every answer; compute STK ratios and time-to-0.95.

    ``exact_for`` gives the exact answers of every table state the query
    may have read (one for a static table).  A query that errored, that
    returned an invalid row, whose exhaustive answer differs from every
    exact answer, or whose deterministic answer changed between repeats,
    is a failure.  STK ratios cover budgeted queries only: an exhaustive
    one scores 1.0 when correct, and the exactness check covers it.
    """
    verdict = Verdict()
    digest = Digest()
    for record in phase.queries:
        template = record.template
        name = f"{template.key}@{template.table}"
        if record.error is not None:
            verdict.failures.append(f"{name}: error {record.error}")
            if not template.exhaustive:
                verdict.ratios.append(0.0)
            if template.stream:
                verdict.t95.append(float("inf"))
            continue
        exacts = exact_for(record)
        if not exacts:
            verdict.failures.append(f"{name}: read a table version with "
                                    f"no recorded write")
            if not template.exhaustive:
                verdict.ratios.append(0.0)
            if template.stream:
                verdict.t95.append(float("inf"))
            continue
        best = max(exact.total for exact in exacts)
        if not template.exhaustive:
            verdict.ratios.append(record.stk / best if best > 0 else 1.0)
        if template.stream:
            reached = [at for at, stk in record.snapshots
                       if stk >= 0.95 * best]
            verdict.t95.append(reached[0] if reached else float("inf"))
        ids = [element_id for element_id, _score in record.items]
        bad = [element_id for element_id, score in record.items
               if not valid_row(template.table, element_id, float(score))]
        if bad or len(set(ids)) != len(ids) or len(ids) != len(
                exacts[0].ids):
            verdict.failures.append(f"{name}: invalid answer rows")
        elif template.exhaustive and not any(
                answer_matches(record.items, exact) for exact in exacts):
            verdict.failures.append(f"{name}: exhaustive answer != exact")
        elif template.deterministic and not digest.add(
                template.sql, record.items, record.cycle == 0):
            verdict.failures.append(f"{name}: answer changed on repeat")
    verdict.digest = digest.hexdigest()
    return verdict


def static_checks(tables: Dict[str, Table], phase: Phase) -> Verdict:
    """``verify`` over immutable tables: one exact answer per shape."""
    cache: Dict[Tuple, Exact] = {}
    rows = {name: {element_id: row for row, element_id in enumerate(t.ids)}
            for name, t in tables.items()}

    def exact_for(record: QueryRecord) -> List[Exact]:
        key = (record.template.table, record.template.shape)
        if key not in cache:
            table = tables[record.template.table]
            cache[key] = exact_topk(table.ids, table.values, table.features,
                                    *record.template.shape)
        return [cache[key]]

    def valid_row(table: str, element_id: str, score: float) -> bool:
        row = rows[table].get(element_id)
        return (row is not None
                and score == max(0.0, float(tables[table].values[row])))

    return verify(phase, exact_for, valid_row)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

#: The tables each workload queries are fixed; the run's seed draws the
#: queries, their SEEDs and the write stream.  Answer quality and
#: time-to-quality depend mostly on how one table's clusters fall into
#: index leaves, so a seed-drawn table would move those figures by the
#: table drawn rather than by the code under test.
TABLE_SEED = 20250611


def fixed_tables(workload: str, n_tables: int, n_rows: int, prefix: str = "t",
                 ) -> Dict[str, Tuple[Mixture, Table]]:
    """Each table with the mixture it was drawn from, by table name."""
    rng = np.random.default_rng([TABLE_SEED, *workload.encode()])
    out = {}
    for i in range(n_tables):
        mixture = Mixture(rng)
        out[f"{prefix}{i}"] = (mixture, Table.generate(mixture, n_rows, rng))
    return out


class Workload:
    """Inputs, program set-up, one timed loop, and its checks.

    Durations follow the host's speed mode, so every workload samples
    ``Pace`` around each set-up and during its loop, and its times are
    reported at the reference pace (see ``measure.Pace``).  The loop
    samples between queries in the query thread when one core does the
    work, or from a background thread during queries
    (``pace_in_background``) when the work spreads over both cores.
    """

    name = ""
    setup_repeats = 3
    n_rows = 0
    pace_in_background = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.pace = Pace()
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.rows = int(self.n_rows * scale)
        #: Write histories of live tables, by name (none for static ones).
        self.logs: Dict[str, VersionLog] = {}

    def setup(self) -> None:
        """All program work before the timed loop (timed as setup_s)."""
        raise NotImplementedError

    def run_phase(self, seconds: float, replay: bool = False) -> Phase:
        """One timed closed loop; ``replay`` repeats only the first cycle
        of a cycle-based workload (the traced run compares the two)."""
        phase = Phase(logs=self.logs)
        calls = udf_calls_total()
        first = len(self.pace.samples)
        self.pace.sample()
        spent = self.pace.spent
        if self.pace_in_background:
            self.pace.start()
        started = time.perf_counter()
        try:
            self.loop_queries(phase, started + seconds, replay)
        finally:
            self.pace.stop()
        phase.elapsed = time.perf_counter() - started
        phase.udf_calls = udf_calls_total() - calls
        # Probing in the query thread is not query time.
        phase.elapsed -= self.pace.spent - spent
        phase.pace = self.pace.factor(first)
        return phase

    def between_queries(self) -> None:
        """Called by the loop after each query."""
        if not self.pace_in_background:
            self.pace.tick()

    def loop_queries(self, phase: Phase, deadline: float,
                     replay: bool) -> None:
        """Run queries until ``deadline``, recording them in ``phase``."""
        raise NotImplementedError

    def checks(self, phase: Phase) -> Verdict:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Public program counters, read between phases."""
        return {}

    def close(self) -> None:
        pass


class ColdStart(Workload):
    """Fresh sessions on a 100k x 8 table; index and shard set-up dominate.

    Each cycle: a first single query (pays the lazy index build), six
    new-SEED ``WORKERS 2 BACKEND thread`` queries (shard layout and
    per-shard k-means), three new-SEED ``WORKERS 2 BACKEND process
    STREAM`` queries (pool spawn, shm pack), a repeat of a thread query
    (must hit the shard cache and answer identically), and one exhaustive
    filtered query checked against the exact top-k.  Its percentiles stand
    on several queries of each kind: p50 on the thread queries, p90 and
    t95_p50_s on the process STREAMs.
    """

    name = "cold_start"
    setup_repeats = 25        # its set-up is short, so take more samples
    n_rows = 100_000
    n_thread = 6
    n_process = 3
    # Its queries take seconds on both cores: sample during them.
    pace_in_background = True

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        _mixture, self.table = fixed_tables(self.name, 1, self.rows)["t0"]
        self.rare = quantile_predicate(self.table.features, 2, 0.01)
        self.dataset = None
        self.session = None       # the first cycle's session
        self._memo = [0.0, 0.0]   # memo hits, misses over finished cycles

    def setup(self) -> None:
        self.dataset = InMemoryDataset(self.table.ids,
                                       self.table.values.tolist(),
                                       self.table.features)
        self.session = self._session()

    def _session(self) -> OpaqueQuerySession:
        session = OpaqueQuerySession()
        session.register_table("t", self.dataset)
        session.register_udf("relu", ReluScorer())
        return session

    def cycle(self, index: int) -> List[Template]:
        n, m = self.n_thread, self.n_process
        seeds = np.random.default_rng([self.seed, index]).integers(
            1, 2**31, size=n + m + 2)
        # 25% stays below the fallback warm-up (30% of the candidates),
        # whose checks read measured latencies, so answers stay
        # deterministic.
        base = ("BUDGET 25%", "BATCH 32")
        thread = [Template(f"thread{i}", "t",
                           sql("t", "relu", 10, *base, f"SEED {seeds[1 + i]}",
                               "WORKERS 2 BACKEND thread"),
                           10, deterministic=True)
                  for i in range(n)]
        return [
            Template("first", "t",
                     sql("t", "relu", 10, *base, f"SEED {seeds[0]}"),
                     10, deterministic=True),
            *thread,
            # A larger budget, so the stream reliably reaches 0.95 of the
            # exact answer (its time to get there is t95_p50_s).
            *[Template(f"process_stream{i}", "t",
                       sql("t", "relu", 10, "BUDGET 40%", "BATCH 32",
                           f"SEED {seeds[1 + n + i]}",
                           "WORKERS 2 BACKEND process STREAM"),
                       10, stream=True)
              for i in range(m)],
            thread[0],
            Template("exhaustive", "t",
                     sql("t", "relu", 10, self.rare.sql, "BUDGET 100%",
                         "BATCH 32", f"SEED {seeds[1 + n + m]}"),
                     10, where=self.rare, exhaustive=True, deterministic=True),
        ]

    def loop_queries(self, phase: Phase, deadline: float,
                     replay: bool) -> None:
        """Whole cycles, at least one.  Another starts only if a cycle as
        long as the last one still ends by the deadline, so a cycle about
        as long as the run does not give some runs one cycle, others two."""
        index = 0
        last = 0.0
        while index == 0 or (not replay
                             and time.perf_counter() + last <= deadline):
            started = time.perf_counter()
            session = self.session if index == 0 else self._session()
            for template in self.cycle(index):
                run_sync(session, template, phase, index)
                self.between_queries()
            stats = session.cache_stats("t")
            self._memo[0] += float(stats["hits"])
            self._memo[1] += float(stats["misses"])
            last = time.perf_counter() - started
            index += 1

    def checks(self, phase: Phase) -> Verdict:
        return static_checks({"t": self.table}, phase)

    def counters(self) -> Dict[str, float]:
        return {"memo_hits": self._memo[0], "memo_misses": self._memo[1]}


class WarmMixed(Workload):
    """One warm session over two 10k x 8 tables; engine work dominates.

    Set-up builds each table's index and the shard layouts the sharded
    queries use, and the memo is off, so the loop measures bookkeeping,
    merge, parse and plan: single, ``WORKERS 2 BACKEND serial`` and
    exhaustive ``STREAM`` serial@2 queries with varying k and BUDGET,
    some filtered to about 25% of the rows.  Single-engine queries draw
    a fresh SEED every cycle; sharded ones keep the prepared SEEDs, so
    they repeat every cycle and their answers must repeat too.
    """

    name = "warm_mixed"
    n_tables = 2
    n_rows = 10_000

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.tables = {name: table for name, (_mixture, table) in
                       fixed_tables(self.name, self.n_tables,
                                    self.rows).items()}
        self.where = {name: (quantile_predicate(table.features, 0, 0.25),
                             quantile_predicate(table.features, 1, 0.25))
                      for name, table in self.tables.items()}
        # Prepared in set-up like the tables, so fixed like them.
        self.layout_seeds = (TABLE_SEED, TABLE_SEED + 1)
        self.session = None

    def sharded(self, name: str) -> List[Template]:
        """The sharded queries of one table (their layouts are prepared)."""
        where_a, where_b = self.where[name]
        seed_a, seed_b = self.layout_seeds
        serial = ("WORKERS 2 BACKEND serial",)

        def q(key, k, *clauses, **kwargs) -> Template:
            return Template(key, name, sql(name, "relu", k, *clauses), k,
                            options=(("use_cache", False),), **kwargs)

        return [
            q("serial2_k10", 10, "BUDGET 5%", "BATCH 8", f"SEED {seed_a}",
              *serial, deterministic=True),
            q("serial2_k50", 50, "BUDGET 5%", "BATCH 8", f"SEED {seed_b}",
              *serial, deterministic=True),
            q("stream_k10", 10, where_a.sql, "BUDGET 100%", "BATCH 8",
              f"SEED {seed_a}", *serial, "STREAM", where=where_a,
              stream=True, exhaustive=True),
            q("stream_k50", 50, where_b.sql, "BUDGET 100%", "BATCH 8",
              f"SEED {seed_b}", *serial, "STREAM", where=where_b,
              stream=True, exhaustive=True),
        ]

    def cycle(self, index: int) -> List[Template]:
        """One pass of the mix over every table, in an order and with
        single-engine SEEDs drawn from the run's seed and ``index``."""
        rng = np.random.default_rng([self.seed, index])
        s = [int(x) for x in rng.integers(1, 2**31, size=5)]
        templates = []
        for name in self.tables:
            where_a, where_b = self.where[name]

            def q(key, k, *clauses, **kwargs) -> Template:
                return Template(key, name, sql(name, "relu", k, *clauses), k,
                                options=(("use_cache", False),),
                                deterministic=True, **kwargs)

            templates += self.sharded(name) + [
                q("single_k10", 10, "BUDGET 5%", "BATCH 8", f"SEED {s[0]}"),
                q("single_k50", 50, "BUDGET 5%", "BATCH 8", f"SEED {s[1]}"),
                q("single_where", 10, where_a.sql, "BUDGET 10%", "BATCH 8",
                  f"SEED {s[2]}", where=where_a),
                q("single_batch1", 20, "BUDGET 2%", f"SEED {s[3]}"),
                q("exhaustive_where", 10, where_b.sql, "BUDGET 100%",
                  "BATCH 32", f"SEED {s[4]}", where=where_b,
                  exhaustive=True),
            ]
        return [templates[i] for i in rng.permutation(len(templates))]

    def setup(self) -> None:
        session = OpaqueQuerySession()
        session.register_udf("relu", ReluScorer())
        for name, table in self.tables.items():
            session.register_table(name, InMemoryDataset(
                table.ids, table.values.tolist(), table.features))
            # A tiny-budget query builds the table index; one per sharded
            # query builds the shard layout it will reuse.
            session.execute(sql(name, "relu", 1, "BUDGET 1"),
                            use_cache=False)
            for template in self.sharded(name):
                session.execute(template.sql.replace(
                    " BUDGET 100%", "").replace(" BUDGET 5%", "")
                    + " BUDGET 2", use_cache=False)
        self.session = session

    def loop_queries(self, phase: Phase, deadline: float,
                     replay: bool) -> None:
        """Until the deadline, but always the whole first cycle."""
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            for template in self.cycle(index):
                if index > 0 and time.perf_counter() >= deadline:
                    break
                run_sync(self.session, template, phase, index)
                self.between_queries()
            index += 1

    def checks(self, phase: Phase) -> Verdict:
        return static_checks(self.tables, phase)

    def counters(self) -> Dict[str, float]:
        hits = misses = 0.0
        for name in self.tables:
            stats = self.session.cache_stats(name)
            hits += float(stats["hits"])
            misses += float(stats["misses"])
        return {"memo_hits": hits, "memo_misses": misses}


class TenantsLive(Workload):
    """Two tenants over two 25k x 8 live tables behind a QueryService.

    The UDF really sleeps per element and the memo is on (filled by one
    pass of the mix in set-up); query seeds come from a small set, so
    repeats hit the memo until writes invalidate it.  The scorer pool
    admits two 1-2% queries at once but not the two largest demands, so
    admission really waits.  The writer tenant appends and updates a
    batch every few queries, alternating tables; some queries are STREAM
    with snapshots, over a WHERE that keeps 2% of the rows.
    """

    name = "tenants_live"
    # Its set-up is long and mostly the UDF's sleep, so one sample is
    # steady.
    setup_repeats = 1
    n_tables = 2
    # Service threads and tenants share both cores.  Half its query time
    # is the UDF's sleep, which pacing scales too; measured over ten
    # seeds, paced figures still spread less than wall times.
    pace_in_background = True
    n_rows = 25_000
    udf_seconds = 1e-3      # real sleep per scored element
    pool = 800              # scorer units the service may commit at once
    write_rows = 50
    write_every = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        tables = fixed_tables(self.name, self.n_tables, self.rows, "live")
        self.mixtures = {name: pair[0] for name, pair in tables.items()}
        self.bases = {name: pair[1] for name, pair in tables.items()}
        # A small fixed set of query SEEDs, so repeats hit the memo; the
        # run's seed draws the order of each cycle and the write stream.
        s = [TABLE_SEED + i for i in range(6)]
        self.tenants = {"reader": self._mix("r", s[:3]),
                        "writer": self._mix("w", s[3:])}
        self.order_seed = int(self.rng.integers(2**31))
        self.write_seed = int(self.rng.integers(2**31))
        self.service = None
        self.live: Dict[str, LiveTable] = {}
        self._writes = 0
        self._write_rng = None
        # One event loop for the workload's life: the service's handles
        # belong to the loop that submitted them.
        self.loop = asyncio.new_event_loop()

    def _mix(self, tag: str, seeds: Sequence[int]) -> List[Template]:
        """A tenant's query cycle: per table, four budgeted queries, two
        exhaustive STREAMs and one exhaustive single query."""
        a, b, c = seeds
        mix = []
        for name, base in self.bases.items():
            stream_where = quantile_predicate(base.features, 0, 0.02)
            exact_where = quantile_predicate(base.features, 1, 0.01)

            def q(key, k, *clauses, **kwargs) -> Template:
                return Template(f"{tag}_{key}", name,
                                sql(name, "udf", k, *clauses), k, **kwargs)

            mix += [
                q("k10", 10, "BUDGET 1%", "BATCH 16", f"SEED {a}"),
                q("k20", 20, "BUDGET 1%", "BATCH 16", f"SEED {b}"),
                q("k10b", 10, "BUDGET 2%", "BATCH 16", f"SEED {c}"),
                q("k50", 50, "BUDGET 2%", "BATCH 16", f"SEED {a}"),
                q("stream", 10, stream_where.sql, "BUDGET 100%", "BATCH 16",
                  f"SEED {b}", "STREAM", where=stream_where, stream=True,
                  exhaustive=True),
                q("stream_b", 10, stream_where.sql, "BUDGET 100%",
                  "BATCH 16", f"SEED {c}", "STREAM", where=stream_where,
                  stream=True, exhaustive=True),
                q("exhaustive", 10, exact_where.sql, "BUDGET 100%",
                  "BATCH 32", f"SEED {c}", where=exact_where,
                  exhaustive=True),
            ]
        return mix

    def setup(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
        service = QueryService(budget=self.pool, max_threads=2)
        service.register_udf("udf", BlockingReluScorer(self.udf_seconds))
        live = {}
        for name, base in self.bases.items():
            live[name] = LiveTable(base.ids, base.values.tolist(),
                                   base.features, name=name)
            service.register_table(name, live[name])
            # Planning a live table builds its maintained index.
            service.session.plan(sql(name, "udf", 1, "BUDGET 1"))
        # One pass of every query fills the memo, so the timed loop starts
        # in its steady state; otherwise a slow run spends a larger share
        # of its queries on cold misses, which slows it further.
        for template in {template.sql: template
                         for templates in self.tenants.values()
                         for template in templates}.values():
            if template.stream:
                for _snapshot in service.session.stream(template.sql):
                    pass
            else:
                service.session.execute(template.sql)
        self.service, self.live = service, live
        self.logs = {name: VersionLog(self.bases[name],
                                      version0=live[name].version)
                     for name in live}
        self._writes = 0
        self._write_rng = np.random.default_rng(self.write_seed)

    def _write(self, phase: Phase) -> None:
        """Append a batch of new elements to one table and rewrite a batch
        of its old ones; tables take turns."""
        names = list(self.live)
        name = names[self._writes % len(names)]
        base, table = self.bases[name], self.live[name]
        rng = self._write_rng
        n = self.write_rows
        values, features = self.mixtures[name].sample(2 * n, rng)
        new_ids = [f"a{self._writes:05d}-{i:03d}" for i in range(n)]
        self._writes += 1
        old_ids = [base.ids[row] for row in
                   rng.choice(len(base.ids), size=n, replace=False)]
        for kind, ids, vals, feats in (
                ("append", new_ids, values[:n], features[:n]),
                ("update", old_ids, values[n:], features[n:])):
            start = time.perf_counter()
            try:
                if kind == "append":
                    version = table.append(ids, vals.tolist(), feats)
                else:
                    version = table.update(ids, feats, vals.tolist())
            except Exception as exc:  # counted, never fatal
                phase.write_errors.append(f"{kind}@{name}: {exc!r}")
                continue
            phase.writes.append(time.perf_counter() - start)
            self.logs[name].record(version, kind, ids, vals, feats)

    async def _tenant(self, tenant: str, deadline: float, phase: Phase,
                      writes: bool) -> None:
        templates = self.tenants[tenant]
        rng = np.random.default_rng(
            [self.order_seed, list(self.tenants).index(tenant)])
        order: List[int] = []
        index = 0
        while time.perf_counter() < deadline:
            if not order:
                order = list(rng.permutation(len(templates)))
            template = templates[order.pop()]
            index += 1
            table = self.live[template.table]
            v_lo = table.version
            snapshots: List[Tuple[float, float]] = []
            start = time.perf_counter()
            try:
                handle = await self.service.submit(
                    template.sql, tenant=tenant, snapshots=template.stream)
                if template.stream:
                    async for snap in handle.snapshots():
                        snapshots.append((time.perf_counter() - start,
                                          snap.stk))
                result = await handle.result()
                items = list(result.top_k if template.stream
                             else result.items)
                stk, error = result.stk, None
                merges = getattr(result, "n_merges", 0)
            except Exception as exc:  # errors and cancels count as failed
                items, stk, merges, error = None, 0.0, 0, repr(exc)
            phase.queries.append(QueryRecord(
                template, start, time.perf_counter(), items, stk, snapshots,
                merges, (v_lo, table.version), error))
            if writes and index % self.write_every == 0:
                self._write(phase)

    def loop_queries(self, phase: Phase, deadline: float,
                     replay: bool) -> None:
        async def clients() -> None:
            await asyncio.gather(
                self._tenant("reader", deadline, phase, writes=False),
                self._tenant("writer", deadline, phase, writes=True))

        self.loop.run_until_complete(clients())

    def checks(self, phase: Phase) -> Verdict:
        exact: Dict[str, Dict] = {}
        history: Dict[str, Dict[str, List[float]]] = {}
        for name, log in phase.logs.items():
            shapes = {template.shape for templates in self.tenants.values()
                      for template in templates if template.table == name}
            exact[name] = log.exact_by_version(sorted(
                shapes, key=lambda shape: (shape[0], repr(shape[1]))))
            history[name] = log.score_history()

        def exact_for(record: QueryRecord) -> List[Exact]:
            lo, hi = record.versions
            by_version = exact[record.template.table]
            return [by_version[version][record.template.shape]
                    for version in sorted(by_version) if lo <= version <= hi]

        def valid_row(table: str, element_id: str, score: float) -> bool:
            return score in history[table].get(element_id, ())

        verdict = verify(phase, exact_for, valid_row)
        verdict.failures.extend(phase.write_errors)
        return verdict

    def counters(self) -> Dict[str, float]:
        session = self.service.session
        totals = {"memo_hits": 0.0, "memo_misses": 0.0, "splits": 0.0,
                  "rebuilds": 0.0}
        for name in self.live:
            stats = session.cache_stats(name)
            info = session.table_info(name)
            totals["memo_hits"] += float(stats["hits"])
            totals["memo_misses"] += float(stats["misses"])
            totals["splits"] += float(info.get("index_splits", 0))
            totals["rebuilds"] += float(info.get("index_rebuilds", 0))
        totals["peak_committed"] = float(
            self.service.stats()["scheduler"]["peak_committed"])
        return totals

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None
        self.loop.close()


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (ColdStart, WarmMixed, TenantsLive)
}


def timed_setup(workload: Workload, repeats: int) -> List[float]:
    """Run the workload's set-up ``repeats`` times; the last one stays.
    Each set-up time is scaled by the pace sampled just before, during
    (from the background) and just after it."""
    times = []
    pace = workload.pace
    for _ in range(repeats):
        gc.collect()
        first = len(pace.samples)
        pace.sample(10)
        pace.start()
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            took = time.perf_counter() - start
            pace.stop()
        pace.sample(10)
        times.append(took * pace.factor(first))
    return times

