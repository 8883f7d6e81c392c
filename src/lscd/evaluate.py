"""Scoring predictions against gold data.

Ranked predictions are evaluated with Spearman's rank-order correlation;
binary change labels with plain accuracy. Spearman is computed tie-corrected
by converting both sides to average ranks and taking the product-moment
correlation of the rank vectors (exact in the presence of ties).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

import numpy as np

from .ensemble import CHANGED, Ranking, average_ranks
from .errors import FormatError, TargetMismatchError, UndefinedCorrelationError
from .scoring import ChangeScores


def _read_gold(path: str | Path, parse, expected: str) -> dict:
    """Rows `word<TAB>value`, one target per line; blank lines are skipped. A
    malformed row, a value `parse` rejects with ValueError or a repeated
    word raises FormatError with the line number."""
    gold: dict = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise FormatError(f"expected '{expected}' in {path}", line=i)
            word, text = parts
            if word in gold:
                raise FormatError(f"repeated gold word {word!r} in {path}", line=i)
            try:
                gold[word] = parse(text)
            except ValueError as exc:
                raise FormatError(f"bad gold value {text!r} in {path}", line=i) from exc
    return gold


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _label(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"not 0 or 1: {text!r}")
    return int(text)


def load_gold(path: str | Path) -> dict[str, float]:
    """Read graded gold data: `word<TAB>finite float`, one target per line."""
    return _read_gold(path, _finite, "word<TAB>value")


def load_binary_gold(path: str | Path) -> dict[str, int]:
    """Read binary gold labels: `word<TAB>0|1`, one target per line."""
    return _read_gold(path, _label, "word<TAB>0|1")


def spearman_values(x: np.ndarray, y: np.ndarray) -> float:
    """Tie-corrected Spearman's rho of two value vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("expected two 1-d vectors of equal length")
    if len(x) < 2:
        raise UndefinedCorrelationError("need at least two items")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float((dx * dx).sum())
    vy = float((dy * dy).sum())
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelationError("zero rank variance on one side")
    # Single square root keeps rho exactly +/-1 for identical/reversed ranks.
    return float((dx * dy).sum() / np.sqrt(vx * vy))


def _as_value_map(pred) -> Mapping[str, float]:
    if isinstance(pred, Ranking):
        return pred.ranks
    if isinstance(pred, ChangeScores):
        return pred.scores
    return pred


def spearman(pred, gold: Mapping[str, float]) -> float:
    """Spearman's rho of a prediction (Ranking, ChangeScores or mapping)
    against graded gold values, matched by target word."""
    pred_map = _as_value_map(pred)
    ps, gs = set(pred_map), set(gold)
    if ps != gs:
        raise TargetMismatchError(only_left=ps - gs, only_right=gs - ps)
    words = list(pred_map)
    return spearman_values(
        np.array([pred_map[w] for w in words]),
        np.array([gold[w] for w in words]),
    )


def binary_accuracy(pred: Mapping[str, str | int], gold: Mapping[str, int]) -> float:
    """Fraction of matching binary change labels."""
    ps, gs = set(pred), set(gold)
    if ps != gs:
        raise TargetMismatchError(only_left=ps - gs, only_right=gs - ps)

    def _as_int(label) -> int:
        if isinstance(label, str):
            return 1 if label == CHANGED or label == "1" else 0
        return int(label)

    hits = sum(1 for w in gold if _as_int(pred[w]) == int(gold[w]))
    return hits / len(gold)
