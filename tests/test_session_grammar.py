"""Session dialect: doctests as tier-1, plus the WORKERS/BACKEND clause."""

from __future__ import annotations

import doctest

import pytest

import repro.session
from repro.core.result import QueryResult
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig
from repro.parallel.engine import DistributedResult
from repro.query import parse
from repro.scoring.relu import ReluScorer
from repro.session import OpaqueQuerySession


def test_session_doctests():
    """Every example in the session module docstring runs as written."""
    results = doctest.testmod(repro.session, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


class TestWorkersClause:
    def test_workers_parsed(self):
        parsed = parse("SELECT TOP 5 FROM t ORDER BY f WORKERS 4")
        assert parsed.workers == 4 and parsed.backend is None

    def test_backend_parsed_lowercased(self):
        parsed = parse(
            "select top 5 from t order by f workers 2 backend THREAD"
        )
        assert parsed.workers == 2 and parsed.backend == "thread"

    def test_workers_defaults_absent(self):
        parsed = parse("SELECT TOP 5 FROM t ORDER BY f")
        assert parsed.workers is None and parsed.backend is None
        assert parsed.descending is True

    def test_full_clause_order(self):
        parsed = parse(
            "SELECT TOP 9 FROM t ORDER BY f DESC BUDGET 10% BATCH 4 "
            "SEED 3 WORKERS 2 BACKEND serial;"
        )
        assert (parsed.k, parsed.batch_size, parsed.seed,
                parsed.workers, parsed.backend) == (9, 4, 3, 2, "serial")

    def test_backend_requires_workers(self):
        with pytest.raises(ConfigurationError):
            parse("SELECT TOP 5 FROM t ORDER BY f BACKEND thread")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown BACKEND"):
            parse("SELECT TOP 5 FROM t ORDER BY f WORKERS 2 "
                        "BACKEND gpu")

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="WORKERS"):
            parse("SELECT TOP 5 FROM t ORDER BY f WORKERS 0")


@pytest.fixture()
def session():
    from repro.scoring.base import FixedPerCallLatency

    dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                per_cluster=100, rng=0)
    sess = OpaqueQuerySession()
    sess.register_table("t", dataset,
                        index_config=IndexConfig(n_clusters=4))
    # A non-zero latency model keeps the serial streaming simulation's
    # arrival interleave honest (zero-cost slices all complete at virtual
    # time 0, so one worker would monopolize the merge order).
    sess.register_udf("relu", ReluScorer(FixedPerCallLatency(1e-3)))
    return sess


class TestWorkersExecution:
    def test_workers_query_returns_distributed_result(self, session):
        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0 WORKERS 2"
        )
        assert isinstance(result, DistributedResult)
        assert len(result.workers) == 2
        assert len(result.items) == 5
        assert "workers" in result.summary()

    def test_single_worker_stays_query_result(self, session):
        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0 WORKERS 1"
        )
        assert isinstance(result, QueryResult)

    def test_flag_default_applies_when_clause_absent(self, session):
        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0",
            workers=3,
        )
        assert isinstance(result, DistributedResult)
        assert len(result.workers) == 3

    def test_invalid_flag_default_rejected(self, session):
        with pytest.raises(ConfigurationError, match="workers must be"):
            session.execute("SELECT TOP 5 FROM t ORDER BY relu BUDGET 50",
                            workers=0)

    def test_explicit_clause_beats_flag_default(self, session):
        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0 WORKERS 2",
            workers=4, backend="thread",
        )
        assert len(result.workers) == 2
        assert result.backend == "thread"  # flag fills the missing clause


class TestStreamClause:
    def test_stream_parsed(self):
        parsed = parse("SELECT TOP 5 FROM t ORDER BY f STREAM")
        assert parsed.stream is True and parsed.every is None

    def test_stream_every_parsed(self):
        parsed = parse(
            "select top 5 from t order by f workers 4 stream every 250"
        )
        assert parsed.stream is True and parsed.every == 250
        assert parsed.workers == 4

    def test_stream_defaults_absent(self):
        parsed = parse("SELECT TOP 5 FROM t ORDER BY f")
        assert parsed.stream is False and parsed.every is None

    def test_every_requires_stream(self):
        with pytest.raises(ConfigurationError):
            parse("SELECT TOP 5 FROM t ORDER BY f EVERY 100")

    def test_every_zero_rejected(self):
        with pytest.raises(ConfigurationError, match="EVERY"):
            parse("SELECT TOP 5 FROM t ORDER BY f STREAM EVERY 0")

    def test_full_clause_order_with_stream(self):
        parsed = parse(
            "SELECT TOP 9 FROM t ORDER BY f DESC BUDGET 10% BATCH 4 "
            "SEED 3 WORKERS 2 BACKEND serial STREAM EVERY 50;"
        )
        assert (parsed.k, parsed.workers, parsed.backend,
                parsed.stream, parsed.every) == (9, 2, "serial", True, 50)


class TestConfidenceClause:
    def test_confidence_parsed(self):
        parsed = parse(
            "SELECT TOP 5 FROM t ORDER BY f STREAM CONFIDENCE 0.95"
        )
        assert parsed.stream is True and parsed.confidence == 0.95

    def test_confidence_percentage(self):
        parsed = parse(
            "select top 5 from t order by f stream confidence 99%"
        )
        assert parsed.confidence == pytest.approx(0.99)

    def test_confidence_after_every(self):
        parsed = parse(
            "SELECT TOP 9 FROM t ORDER BY f DESC BUDGET 10% BATCH 4 "
            "SEED 3 WORKERS 2 BACKEND serial STREAM EVERY 50 "
            "CONFIDENCE 0.9;"
        )
        assert (parsed.every, parsed.confidence) == (50, 0.9)

    def test_confidence_defaults_absent(self):
        assert parse(
            "SELECT TOP 5 FROM t ORDER BY f STREAM"
        ).confidence is None

    def test_confidence_requires_stream(self):
        with pytest.raises(ConfigurationError):
            parse("SELECT TOP 5 FROM t ORDER BY f CONFIDENCE 0.9")

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="CONFIDENCE"):
            parse(
                "SELECT TOP 5 FROM t ORDER BY f STREAM CONFIDENCE 1.5"
            )
        with pytest.raises(ConfigurationError, match="CONFIDENCE"):
            parse(
                "SELECT TOP 5 FROM t ORDER BY f STREAM CONFIDENCE 100%"
            )


class TestStreamExecution:
    def test_stream_query_returns_streaming_result(self, session):
        from repro.streaming import StreamingResult

        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 200 SEED 0 "
            "WORKERS 2 STREAM"
        )
        assert isinstance(result, StreamingResult)
        assert len(result.items) == 5
        assert result.total_scored == 200
        assert result.converged

    def test_stream_flag_default_applies(self, session):
        from repro.streaming import StreamingResult

        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 200 SEED 0",
            workers=2, stream=True,
        )
        assert isinstance(result, StreamingResult)

    def test_stream_generator_yields_progressive(self, session):
        from repro.streaming import ProgressiveResult

        snapshots = list(session.stream(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 300 SEED 0 "
            "WORKERS 2 STREAM EVERY 100"
        ))
        assert all(isinstance(s, ProgressiveResult) for s in snapshots)
        assert snapshots[-1].converged
        assert snapshots[-1].budget_spent == 300
        assert len(snapshots[-1].top_k) == 5

    def test_stream_without_clause_is_implied(self, session):
        snapshots = list(session.stream(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0"
        ))
        assert snapshots and snapshots[-1].converged

    def test_repeat_stream_query_hits_shard_index_cache(self, session):
        query = ("SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0 "
                 "WORKERS 2 STREAM")
        session.execute(query)
        cache = session._shard_caches["t"]
        assert len(cache) == 1 and cache.hits == 0
        session.execute(query)
        assert cache.hits == 1

    def test_sharded_and_stream_queries_share_cache(self, session):
        sharded = ("SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 SEED 0 "
                   "WORKERS 2")
        session.execute(sharded)
        cache = session._shard_caches["t"]
        warm_hits = cache.hits
        session.execute(sharded + " STREAM")
        assert cache.hits == warm_hits + 1

    def test_confidence_clause_stops_early(self, session):
        from repro.streaming import StreamingResult

        full = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu SEED 0 WORKERS 2 STREAM"
        )
        early = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu SEED 0 WORKERS 2 STREAM "
            "CONFIDENCE 0.95"
        )
        assert isinstance(early, StreamingResult)
        assert early.converged
        assert early.total_scored < full.total_scored
        assert early.ids == full.ids
        assert early.displacement_bound <= 0.05

    def test_confidence_flag_default_applies(self, session):
        snapshots = list(session.stream(
            "SELECT TOP 5 FROM t ORDER BY relu SEED 0 WORKERS 2",
            confidence=0.95,
        ))
        assert snapshots[-1].converged
        assert snapshots[-1].displacement_bound <= 0.05
