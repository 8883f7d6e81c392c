"""Per-target change scores.

Context-free: Euclidean distance between a word's aligned vectors.
Context-dependent: mean pairwise Euclidean (MPE) distance between the two
periods' sets of word-use vectors,

    d(W_t1, W_t2) = (1 / (|W_t1| * |W_t2|)) * sum_i sum_j ||w_i - w_j||

computed exactly over all pairs by default; a seeded uniform pair subsample
can be enabled for very frequent words.

The exact mean costs O(m * n * d) but runs as BLAS products. Both sets are
centered on the mean of their union (distances are translation invariant),
and each row block's squared distances come from the Gram expansion
|a|^2 + |b|^2 - 2 a.b with one matrix product. Where a pair's squared
distance falls below a fixed fraction of |a|^2 + |b|^2, the expansion has
cancelled most of its digits (near-duplicate uses); those few pairs are
recomputed directly as sum_k (a_k - b_k)^2 from the input rows. A row
block's squared-distance matrix, and each temporary beside it, holds at most
`_BLOCK_ELEMENTS` values (a single row when n exceeds that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, TYPE_CHECKING

import numpy as np

from .align import AlignedPair
from .corpus import _read_lines
from .errors import FormatError

if TYPE_CHECKING:
    from .context import UseSet

CONTEXT_FREE = "context_free"
CONTEXT_DEPENDENT = "context_dependent"

# Cap on the elements of one pairwise-distance block, to bound memory.
_BLOCK_ELEMENTS = 2**21

# Pairs whose Gram-expansion squared distance is below this fraction of
# S = |a|^2 + |b|^2 (centered rows) are recomputed directly. With unit
# roundoff u and gamma_d = d*u / (1 - d*u), each computed inner product of
# length d is off by at most gamma_d * |x| * |y| (Higham, Accuracy and
# Stability of Numerical Algorithms, 3.1). So |a|^2 and |b|^2 are off by at
# most gamma_d * S together, 2 a.b by at most 2 gamma_d |a| |b| <= gamma_d * S,
# and the two additions by 3u * S: about (2d + 3) u * S in all. Where the
# squared distance is at least f * S its relative error is at most
# (2d + 3) u / f, and the distance's half that. With f = 1/8 this stays
# below 1e-12 for d up to 1100 (2.7e-13 at d = 300). Rounding in the
# centering moves a distance by at most u * (|a| + |b|) <= u * sqrt(2 S),
# under 4u relative on the kept pairs. The recomputed pairs read the
# uncentered rows, so neither bound applies to them; on the synthetic
# benchmark's 500 x 500 use sets at d = 128 they are at most 3 of 250 000.
_RECOMPUTE_FRACTION = 0.125


@dataclass
class ChangeScores:
    """Scores per target word.

    Targets that could not be scored are listed in `unscorable` with a
    reason. After median substitution (fill_unscorable) such targets carry
    a score as well; `status` distinguishes the cases.
    """

    model: str
    scores: dict[str, float]
    unscorable: dict[str, str] = field(default_factory=dict)

    @property
    def targets(self) -> list[str]:
        return list(self.scores) + [w for w in self.unscorable if w not in self.scores]

    def status(self, word: str) -> str:
        reason = self.unscorable.get(word)
        if reason is None:
            return "ok"
        if word in self.scores:
            return f"median({reason})"
        return f"unscorable({reason})"


def static_score(aligned: AlignedPair, targets: list[str]) -> ChangeScores:
    """Euclidean distance between the rotated t1 vector and the t2 vector."""
    scores: dict[str, float] = {}
    unscorable: dict[str, str] = {}
    for word in targets:
        in_t1 = word in aligned.space_t1
        in_t2 = word in aligned.space_t2
        if not (in_t1 and in_t2):
            missing = [p for p, ok in (("t1", in_t1), ("t2", in_t2)) if not ok]
            unscorable[word] = f"missing in {' and '.join(missing)} vocabulary"
            continue
        mapped = aligned.space_t1.vector(word) @ aligned.rotation
        scores[word] = float(np.linalg.norm(mapped - aligned.space_t2.vector(word)))
    return ChangeScores(model=CONTEXT_FREE, scores=scores, unscorable=unscorable)


def mpe_distance(
    uses_t1: np.ndarray,
    uses_t2: np.ndarray,
    pair_budget: int | None = None,
    seed: int = 0,
) -> float:
    """Mean over all pairwise L2 distances between two sets of vectors.

    Exact by default: the sets are centered on the mean of their union and
    each block of rows gets its squared distances from one matrix product,
    |a|^2 + |b|^2 - 2 a.b, clamped at 0. Pairs whose squared distance is
    below `_RECOMPUTE_FRACTION` of |a|^2 + |b|^2 lost most of their digits
    to cancellation and are recomputed directly from the input rows. Each
    block's temporaries hold at most `_BLOCK_ELEMENTS` values (one row of
    n when n exceeds that).

    With a pair budget set and fewer pairs than budget available the exact
    mean is returned; otherwise `pair_budget` pairs are sampled uniformly
    (seeded, with replacement), and their differences are formed one block
    of at most `_BLOCK_ELEMENTS` values at a time. The budget must be at
    least 1.
    """
    a = np.asarray(uses_t1, dtype=np.float64)
    b = np.asarray(uses_t2, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("use sets must be 2-d arrays")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("use sets must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError("use sets have different dimensionality")
    if pair_budget is not None and pair_budget < 1:
        raise ValueError(f"pair_budget must be >= 1, got {pair_budget}")
    # Canonical operand order makes d(A, B) and d(B, A) run the identical
    # float computation, so symmetry holds exactly.
    if (len(b), b.tobytes()) < (len(a), a.tobytes()):
        a, b = b, a
    m, n = len(a), len(b)

    if pair_budget is not None and m * n > pair_budget:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, m, size=pair_budget)
        jj = rng.integers(0, n, size=pair_budget)
        norms = np.empty(pair_budget)
        block = max(1, _BLOCK_ELEMENTS // a.shape[1])
        for start in range(0, pair_budget, block):
            rows = slice(start, start + block)
            norms[rows] = np.linalg.norm(a[ii[rows]] - b[jj[rows]], axis=1)
        return float(norms.mean())

    center = (a.sum(axis=0) + b.sum(axis=0)) / (m + n)
    a_c = a - center
    b_c = b - center
    sq_a = np.einsum("ij,ij->i", a_c, a_c)
    sq_b = np.einsum("ij,ij->i", b_c, b_c)
    block = max(1, _BLOCK_ELEMENTS // n)
    redo_block = max(1, _BLOCK_ELEMENTS // a.shape[1])
    total = 0.0
    for start in range(0, m, block):
        d2 = a_c[start : start + block] @ b_c.T
        d2 *= -2.0
        scale = sq_a[start : start + block, None] + sq_b
        d2 += scale
        scale *= _RECOMPUTE_FRACTION
        ii, jj = np.nonzero(d2 < scale)
        del scale
        for k in range(0, len(ii), redo_block):
            i, j = ii[k : k + redo_block], jj[k : k + redo_block]
            diff = a[start + i] - b[j]
            d2[i, j] = np.einsum("ij,ij->i", diff, diff)
        np.maximum(d2, 0.0, out=d2)
        total += float(np.sqrt(d2, out=d2).sum())
    return total / (m * n)


def contextual_score(
    use_pairs: Iterable[tuple["UseSet", "UseSet"]],
    targets: list[str],
    pair_budget: int | None = None,
    seed: int = 0,
) -> ChangeScores:
    """MPE distance per target from its two per-period use sets."""
    by_word: dict[str, tuple["UseSet", "UseSet"]] = {}
    for uses_t1, uses_t2 in use_pairs:
        if uses_t1.word != uses_t2.word:
            raise ValueError(
                f"mismatched use-set pair: {uses_t1.word!r} vs {uses_t2.word!r}"
            )
        by_word[uses_t1.word] = (uses_t1, uses_t2)

    scores: dict[str, float] = {}
    unscorable: dict[str, str] = {}
    for word in targets:
        pair = by_word.get(word)
        if pair is None:
            unscorable[word] = "no uses extracted"
            continue
        uses_t1, uses_t2 = pair
        empty = [p for p, u in (("t1", uses_t1), ("t2", uses_t2)) if len(u.vectors) == 0]
        if empty:
            unscorable[word] = " and ".join(f"no {p} uses" for p in empty)
            continue
        scores[word] = mpe_distance(
            uses_t1.vectors, uses_t2.vectors, pair_budget=pair_budget, seed=seed
        )
    return ChangeScores(model=CONTEXT_DEPENDENT, scores=scores, unscorable=unscorable)


def write_scores_tsv(all_scores: Iterable[ChangeScores], path) -> None:
    """Scores TSV: one row per (model, target) as model, word, score, status.

    Unscored targets carry `nan` in the score column; their reason lives in
    the status column.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model\tword\tscore\tstatus\n")
        for cs in all_scores:
            for word in cs.targets:
                value = cs.scores.get(word, float("nan"))
                fh.write(
                    f"{cs.model}\t{word}\t{format(value, '.9g')}\t{cs.status(word)}\n"
                )


def read_scores_tsv(path) -> dict[str, ChangeScores]:
    """Inverse of write_scores_tsv, keyed by model tag. A malformed or cut-off
    file raises FormatError naming it and the line."""
    path = Path(path)
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("model\t"):
        raise FormatError(f"not a scores TSV: {path}", line=1)
    by_model: dict[str, ChangeScores] = {}
    for i, line in enumerate(lines[1:], start=2):
        try:
            model, word, score_str, status = line.split("\t")
            score = float(score_str)
        except ValueError as exc:
            raise FormatError(f"malformed scores row in {path}", line=i) from exc
        cs = by_model.setdefault(model, ChangeScores(model=model, scores={}))
        if status.startswith("unscorable(") or status.startswith("median("):
            cs.unscorable[word] = status[status.index("(") + 1 : -1]
        if status == "ok" or status.startswith("median("):
            cs.scores[word] = score
    return by_model


def fill_unscorable(scores: ChangeScores) -> ChangeScores:
    """Assign unscorable targets the median of the scored values so that a
    full ranking exists; the unscorable reasons stay attached for flagging.

    With nothing scored at all every target gets 0.0 (a fully tied ranking).
    """
    if not scores.unscorable:
        return scores
    fill = float(np.median(list(scores.scores.values()))) if scores.scores else 0.0
    filled = dict(scores.scores)
    for word in scores.unscorable:
        filled[word] = fill
    return ChangeScores(
        model=scores.model, scores=filled, unscorable=dict(scores.unscorable)
    )
