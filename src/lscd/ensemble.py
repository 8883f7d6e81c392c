"""Rank construction and the classification-informed rank ensemble.

Scores become tie-aware ranks (average rank on ties, highest score gets the
highest rank number). The ensemble prediction is the linear combination

    combined(w) = theta * rank_cd(w) + (1 - theta) * rank_cf(w)

re-ranked afterwards so downstream consumers always see a valid ranking.
The weight theta is predicted from the time classifier's held-out accuracy
as theta = 2 * (accuracy - 0.5), clamped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Mapping

import numpy as np

from .errors import TargetMismatchError
from .scoring import ChangeScores

CHANGED = "changed"
UNCHANGED = "unchanged"

ENSEMBLE = "ensemble"


@dataclass
class Ranking:
    """Real-valued ranks per word: a permutation of 1..n with tied groups
    replaced by their average rank."""

    ranks: dict[str, float]
    source: str

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def words(self) -> list[str]:
        return list(self.ranks)


@dataclass(frozen=True)
class Theta:
    """Ensemble weight in [0, 1] with its provenance."""

    value: float
    provenance: str  # "heuristic", "manual" or "grid_search"

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.value}")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of `values` ascending, tied groups averaged."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def ranks_from_scores(scores: ChangeScores) -> Ranking:
    """Tie-aware ranking of a complete score set (higher score, higher rank)."""
    words = list(scores.scores)
    values = np.array([scores.scores[w] for w in words])
    ranks = average_ranks(values)
    return Ranking(
        ranks={w: float(r) for w, r in zip(words, ranks)},
        source=scores.model,
    )


def theta_from_accuracy(accuracy: float) -> Theta:
    """Predict the ensemble weight from held-out classification accuracy.

    theta = 2 * (accuracy - 0.5); accuracies below chance clamp to 0.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    value = min(1.0, max(0.0, 2.0 * (accuracy - 0.5)))
    return Theta(value=value, provenance="heuristic")


def _check_same_targets(left: Mapping[str, float], right: Mapping[str, float]) -> None:
    ls, rs = set(left), set(right)
    if ls != rs:
        raise TargetMismatchError(only_left=ls - rs, only_right=rs - ls)


def combine(r_cf: Ranking, r_cd: Ranking, theta: Theta | float) -> Ranking:
    """Linear rank combination followed by re-ranking (average ties)."""
    _check_same_targets(r_cf.ranks, r_cd.ranks)
    t = theta.value if isinstance(theta, Theta) else float(theta)
    words = r_cf.words
    combined = np.array([t * r_cd.ranks[w] + (1.0 - t) * r_cf.ranks[w] for w in words])
    ranks = average_ranks(combined)
    return Ranking(
        ranks={w: float(r) for w, r in zip(words, ranks)}, source=ENSEMBLE
    )


def grid_search_theta(
    r_cf: Ranking,
    r_cd: Ranking,
    gold: Mapping[str, float],
    step: float = 0.01,
) -> Theta:
    """The grid value of theta maximizing rank correlation against gold
    (development mode; requires gold data). Ties pick the smallest theta."""
    from .errors import UndefinedCorrelationError
    from .evaluate import spearman_values

    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    _check_same_targets(r_cf.ranks, gold)
    words = r_cf.words
    gold_vec = np.array([gold[w] for w in words])

    thetas = [round(k * step, 12) for k in range(int(np.floor(1.0 / step)) + 1)]
    if thetas[-1] < 1.0:
        thetas.append(1.0)

    best_theta = None
    best_rho = -np.inf
    for t in thetas:
        combined = combine(r_cf, r_cd, t)
        try:
            rho = spearman_values(
                np.array([combined.ranks[w] for w in words]), gold_vec
            )
        except UndefinedCorrelationError:
            # A fully tied combination (e.g. two reversed rankings at the
            # midpoint) cannot be a maximizer; skip it.
            continue
        if rho > best_rho:
            best_rho = rho
            best_theta = t
    if best_theta is None:
        raise UndefinedCorrelationError(
            "rank correlation undefined at every grid value"
        )
    return Theta(value=float(best_theta), provenance="grid_search")


def binarize(ranking: Ranking) -> dict[str, str]:
    """Label the upper half of ranks (ceil(n/2) words) as changed.

    Ties across the cut are broken by lexicographic word order, so the
    labeling is deterministic.
    """
    n = len(ranking)
    if n < 1:
        raise ValueError("cannot binarize an empty ranking")
    n_changed = ceil(n / 2)
    ordered = sorted(ranking.ranks, key=lambda w: (ranking.ranks[w], w))
    labels = {w: UNCHANGED for w in ordered[: n - n_changed]}
    labels.update({w: CHANGED for w in ordered[n - n_changed :]})
    return {w: labels[w] for w in ranking.words}
