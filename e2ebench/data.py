"""Seeded inputs and numpy ground truth for the end-to-end benchmark.

Every workload queries a *clustered table*: about 200 Gaussian centres in
an 8-d feature space, each with a gamma-distributed score mean, so a few
clusters hold the fat tail the bandit is built to find.  An element's
object is its scalar value and the UDF is ReLU, so the exact answer of
any query is a numpy partial sort that this module computes from the
generated arrays alone, never by asking the program under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

N_CENTRES = 200
DIM = 8


@dataclass(frozen=True)
class Predicate:
    """One ``WHERE feature[col] > threshold`` filter, in SQL and in numpy."""

    col: int
    threshold: float

    @property
    def sql(self) -> str:
        return f"WHERE feature[{self.col}] > {self.threshold:.4f}"

    def mask(self, features: np.ndarray) -> np.ndarray:
        return features[:, self.col] > self.threshold


def quantile_predicate(features: np.ndarray, col: int,
                       keep: float) -> Predicate:
    """A filter keeping about ``keep`` of the rows (rounded so the SQL
    text and the numpy mask use the very same float)."""
    cut = float(np.quantile(features[:, col], 1.0 - keep))
    return Predicate(col, float(f"{cut:.4f}"))


class Mixture:
    """The clustered generator; draws as many rows as asked, any time."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.centres = rng.normal(0.0, 4.0, size=(N_CENTRES, DIM))
        self.means = rng.gamma(2.0, 2.0, size=N_CENTRES)
        self.sigmas = rng.uniform(0.5, 2.0, size=N_CENTRES)

    def sample(self, n: int, rng: np.random.Generator,
               ) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, features)`` for ``n`` fresh elements."""
        label = rng.integers(N_CENTRES, size=n)
        features = self.centres[label] + rng.normal(0.0, 1.0, size=(n, DIM))
        values = self.means[label] + self.sigmas[label] * rng.normal(size=n)
        return values, features


@dataclass
class Table:
    """Generated rows: ids, scalar objects (values) and features."""

    ids: List[str]
    values: np.ndarray
    features: np.ndarray

    @classmethod
    def generate(cls, mixture: Mixture, n: int,
                 rng: np.random.Generator) -> "Table":
        values, features = mixture.sample(n, rng)
        return cls([f"e{i:06d}" for i in range(n)], values, features)


@dataclass(frozen=True)
class Exact:
    """The exact top-k of one query shape at one table state."""

    ids: Tuple[str, ...]
    scores: Tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.scores))


def exact_topk(ids: Sequence[str], values: np.ndarray, features: np.ndarray,
               k: int, where: Optional[Predicate] = None) -> Exact:
    """Numpy ground truth: the k best ReLU scores among the candidates."""
    scores = np.maximum(np.asarray(values, dtype=float), 0.0)
    rows = np.arange(len(scores))
    if where is not None:
        rows = rows[where.mask(features)]
    if len(rows) > k:
        top = rows[np.argpartition(-scores[rows], k - 1)[:k]]
    else:
        top = rows
    top = top[np.argsort(-scores[top], kind="stable")]
    return Exact(tuple(ids[row] for row in top),
                 tuple(float(scores[row]) for row in top))


def answer_matches(items: Sequence[Tuple[str, float]], exact: Exact) -> bool:
    """True iff an answer's ids and scores equal the exact top-k."""
    return (sorted(float(score) for _id, score in items)
            == sorted(exact.scores)
            and {str(element_id) for element_id, _s in items}
            == set(exact.ids))


class Digest:
    """Digest of the deterministic answers of one run's first cycle.

    Every run finishes its first cycle of queries whatever its length,
    and runs that cycle's queries in the same order, so two runs of one
    seed must print the same digest.  Also enforces determinism inside
    the run: a query text that repeats must give the same answer.
    """

    def __init__(self) -> None:
        self._answers: Dict[str, str] = {}
        self._first_cycle = hashlib.sha256()

    def add(self, query: str, items: Sequence[Tuple[str, float]],
            first_cycle: bool) -> bool:
        """Record one answer; False if it differs from an earlier repeat."""
        answer = ";".join(f"{element_id}={float(score)!r}"
                          for element_id, score in items)
        if first_cycle:
            self._first_cycle.update(f"{query}\n{answer}\n".encode())
        return self._answers.setdefault(query, answer) == answer

    def hexdigest(self) -> str:
        return self._first_cycle.hexdigest()[:16]


@dataclass
class VersionLog:
    """Replayable write history of a live table, for post-run ground truth.

    Writes are recorded as they commit and replayed on numpy arrays after
    the timed loop, so checking answers never competes with the program
    for the host.
    """

    base: Table
    version0: int = 0
    writes: List[Tuple[int, str, List[str], np.ndarray, np.ndarray]] = field(
        default_factory=list)

    def record(self, version: int, kind: str, ids: List[str],
               values: np.ndarray, features: np.ndarray) -> None:
        self.writes.append((version, kind, list(ids), np.array(values),
                            np.array(features)))

    def exact_by_version(self, shapes: Sequence[Tuple[int, Optional[Predicate]]],
                         ) -> Dict[int, Dict[Tuple[int, Optional[Predicate]], Exact]]:
        """Exact answers of every query shape at every committed version."""
        ids = list(self.base.ids)
        row_of = {element_id: row for row, element_id in enumerate(ids)}
        values = self.base.values.copy()
        features = self.base.features.copy()

        def exact() -> Dict:
            return {shape: exact_topk(ids, values, features, *shape)
                    for shape in shapes}

        out = {self.version0: exact()}
        for version, kind, wids, wvalues, wfeatures in self.writes:
            if kind == "append":
                for element_id in wids:
                    row_of[element_id] = len(ids)
                    ids.append(element_id)
                values = np.concatenate([values, wvalues])
                features = np.concatenate([features, wfeatures])
            else:  # update: same ids, new objects and features
                rows = [row_of[element_id] for element_id in wids]
                values[rows] = wvalues
                features[rows] = wfeatures
            out[version] = exact()
        return out

    def score_history(self) -> Dict[str, List[float]]:
        """Every ReLU score each id ever had, base state first."""
        history: Dict[str, List[float]] = {
            element_id: [max(0.0, float(value))]
            for element_id, value in zip(self.base.ids, self.base.values)}
        for _version, _kind, wids, wvalues, _f in self.writes:
            for element_id, value in zip(wids, wvalues):
                history.setdefault(element_id, []).append(
                    max(0.0, float(value)))
        return history
