"""Skip-gram with negative sampling, trained from scratch with numpy.

One corpus yields one static embedding space. Training follows the classic
recipe: dynamic windows (the effective window size is sampled uniformly from
[1, window] per position), negative samples drawn from the unigram
distribution raised to a noise exponent, linear learning-rate decay to a
small floor, input vectors initialized uniformly in [-0.5/d, 0.5/d] and
output vectors at zero. Updates are applied in fixed-size chunks of (center,
context) pairs; the procedure is deterministic given the seed.

Each epoch's pairs are built as whole arrays over the concatenated sentences:
one mask column per window offset keeps a pair when both positions lie in the
same sentence and the offset is within the center's sampled span. A chunk's
updates are summed per row in pair order (context words before negatives)
and then added to the matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .corpus import Corpus, parse_rows
from .errors import EmptyCorpusError, FormatError, TrainingDivergedError, VocabularyError

_CHUNK = 512
_LR_FLOOR_FACTOR = 1e-4


@dataclass(frozen=True)
class SgnsConfig:
    dimension: int = 300
    window: int = 10
    negatives: int = 1
    epochs: int = 5
    initial_learning_rate: float = 0.025
    noise_exponent: float = 0.75
    subsample_threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.initial_learning_rate <= 0:
            raise ValueError("initial_learning_rate must be positive")


@dataclass
class EmbeddingSpace:
    """Vocabulary-indexed word vectors plus training metadata.

    `vectors` (the input matrix) is what downstream alignment and scoring
    consume; `context_vectors` is kept for inspection and is None for spaces
    loaded from text files.
    """

    words: list[str]
    word_ids: dict[str, int]
    vectors: np.ndarray
    context_vectors: np.ndarray | None = None
    config: SgnsConfig | None = None
    epoch_losses: list[float] | None = None

    def __contains__(self, word: str) -> bool:
        return word in self.word_ids

    def __len__(self) -> int:
        return len(self.words)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def vector(self, word: str) -> np.ndarray:
        idx = self.word_ids.get(word)
        if idx is None:
            raise VocabularyError(f"word {word!r} not in embedding vocabulary")
        return self.vectors[idx]


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigma(x) = -softplus(-x), computed without overflow
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def sgns_step(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and gradients for a single (center, context, negatives) step.

    loss = -log sigma(u_ctx . v) - sum_k log sigma(-u_k . v); the returned
    gradients are of this loss with respect to the center vector, the context
    vector and each negative vector.
    """
    center = np.asarray(center, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))

    pos_z = float(center @ context)
    neg_z = negatives @ center
    loss = -float(_log_sigmoid(np.asarray(pos_z))) - float(
        _log_sigmoid(-neg_z).sum()
    )
    pos_coef = sigmoid(pos_z) - 1.0  # d loss / d pos_z
    neg_coef = sigmoid(neg_z)  # d loss / d neg_z
    grad_center = pos_coef * context + neg_coef @ negatives
    grad_context = pos_coef * center
    grad_negatives = neg_coef[:, None] * center[None, :]
    return loss, grad_center, grad_context, grad_negatives


def _corpus_ids(corpus: Corpus) -> tuple[list[np.ndarray], list[str], np.ndarray]:
    counts = Counter(corpus.iter_tokens())
    words = sorted(counts, key=lambda w: (-counts[w], w))
    word_ids = {w: i for i, w in enumerate(words)}
    encoded = [
        np.array([word_ids[t] for t in sentence], dtype=np.int64)
        for sentence in corpus.sentences
    ]
    freq = np.array([counts[w] for w in words], dtype=np.float64)
    return encoded, words, freq


def _epoch_pairs(
    encoded: list[np.ndarray],
    window: int,
    rng: np.random.Generator,
    keep_prob: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample dynamic windows over every sentence and emit (center, context)
    id pairs for one epoch, ordered by center position, then context
    position."""
    kept: list[np.ndarray] = []
    spans: list[np.ndarray] = []
    for ids in encoded:
        if keep_prob is not None:
            ids = ids[rng.random(len(ids)) < keep_prob[ids]]
        if len(ids) < 2:
            continue
        kept.append(ids)
        spans.append(rng.integers(1, window + 1, size=len(ids)))
    if not kept:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ids = np.concatenate(kept)
    span = np.concatenate(spans)
    lengths = np.array([len(k) for k in kept])
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    end = first + np.repeat(lengths, lengths)
    # One column per offset, in ascending order, so the row-major mask keeps
    # each center's contexts in corpus order. No pair spans more than the
    # longest sentence, which bounds the mask for any window.
    reach = min(window, int(lengths.max()) - 1)
    offsets = np.r_[-reach:0, 1 : reach + 1]
    ctx = np.arange(len(ids))[:, None] + offsets
    keep = (
        (ctx >= first[:, None])
        & (ctx < end[:, None])
        & (span[:, None] >= np.abs(offsets))
    )
    return ids[np.nonzero(keep)[0]], ids[ctx[keep]]


def _scatter_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows] += values, summing repeated rows (as np.add.at does).

    Each row's values are summed in input order by one bincount over the
    distinct rows, so the cost follows the chunk, not the vocabulary.
    """
    d = target.shape[1]
    distinct, local = np.unique(rows, return_inverse=True)
    sums = np.bincount(
        (local[:, None] * d + np.arange(d)).ravel(),
        weights=values.ravel(),
        minlength=len(distinct) * d,
    )
    target[distinct] += sums.reshape(-1, d)


def train_sgns(corpus: Corpus, config: SgnsConfig) -> EmbeddingSpace:
    """Train one embedding space on one corpus."""
    if corpus.sentence_count == 0:
        raise EmptyCorpusError("cannot train on an empty corpus")
    encoded, words, freq = _corpus_ids(corpus)
    n_words = len(words)
    d = config.dimension
    rng = np.random.default_rng(config.seed)

    # The input and output vectors are the two halves of one matrix, so that
    # a chunk's updates to both take one scatter.
    weights = np.zeros((2 * n_words, d))
    vec_in, vec_out = weights[:n_words], weights[n_words:]
    vec_in[:] = (rng.random((n_words, d)) - 0.5) / d

    noise = freq**config.noise_exponent
    noise_cdf = np.cumsum(noise)
    noise_cdf /= noise_cdf[-1]

    keep_prob = None
    if config.subsample_threshold is not None:
        frac = freq / freq.sum()
        ratio = config.subsample_threshold / frac
        keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)

    k = config.negatives
    deltas = np.empty(((2 + k) * _CHUNK, d))
    lr0 = config.initial_learning_rate
    lr_floor = lr0 * _LR_FLOOR_FACTOR
    word_ids = {w: i for i, w in enumerate(words)}
    losses: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        centers, contexts = _epoch_pairs(encoded, config.window, rng, keep_prob)
        n_pairs = len(centers)
        if n_pairs == 0:
            losses.append(0.0)
            continue
        # Shuffling spreads repeated pairs across update chunks, keeping the
        # summed within-chunk step close to the sequential one.
        order = rng.permutation(n_pairs)
        centers = centers[order]
        contexts = contexts[order]
        # No other draw falls between the chunks, so one draw for the epoch
        # gives every chunk the negatives that a draw per chunk would.
        draws = rng.random((n_pairs, k))
        epoch_loss = 0.0
        for start in range(0, n_pairs, _CHUNK):
            step += 1
            cen = centers[start : start + _CHUNK]
            ctx = contexts[start : start + _CHUNK]
            negs = np.searchsorted(
                noise_cdf, draws[start : start + _CHUNK], side="right"
            )
            progress = (epoch + start / n_pairs) / config.epochs
            lr = max(lr0 * (1.0 - progress), lr_floor)

            # A negative colliding with the true context word contributes
            # nothing to this step.
            live = negs != ctx[:, None]

            v_cen = vec_in[cen]
            u_ctx = vec_out[ctx]
            u_neg = vec_out[negs]

            pos_z = np.einsum("bd,bd->b", v_cen, u_ctx)
            neg_z = np.einsum("bkd,bd->bk", u_neg, v_cen)

            chunk_loss = -_log_sigmoid(pos_z).sum() - (
                _log_sigmoid(-neg_z) * live
            ).sum()
            if not np.isfinite(chunk_loss):
                raise TrainingDivergedError(
                    f"non-finite loss in update chunk {step}", step=step
                )
            epoch_loss += float(chunk_loss)

            pos_coef = (1.0 - sigmoid(pos_z)) * lr
            neg_coef = -(sigmoid(neg_z) * live) * lr

            # Every delta comes from the gathers above, the input and output
            # rows are disjoint, and each row's deltas keep their order, so
            # one scatter over both halves applies what two would. The
            # deltas are written in place: the centers', the context words',
            # then the negatives'.
            b = len(cen)
            d_cen, d_ctx, d_neg = np.split(deltas[: (2 + k) * b], (b, 2 * b))
            np.multiply(pos_coef[:, None], u_ctx, out=d_cen)
            d_cen += np.einsum("bk,bkd->bd", neg_coef, u_neg)
            np.multiply(pos_coef[:, None], v_cen, out=d_ctx)
            np.multiply(
                neg_coef[:, :, None], v_cen[:, None, :], out=d_neg.reshape(b, k, d)
            )
            rows = np.concatenate((cen, n_words + ctx, n_words + negs.reshape(-1)))
            _scatter_add(weights, rows, deltas[: (2 + k) * b])
        losses.append(epoch_loss / n_pairs)
        # Freed before the next epoch builds its own.
        del centers, contexts, order, draws

    if not np.isfinite(weights).all():
        raise TrainingDivergedError("non-finite values in trained matrices", step=step)
    return EmbeddingSpace(
        words=words,
        word_ids=word_ids,
        vectors=vec_in,
        context_vectors=vec_out,
        config=config,
        epoch_losses=losses,
    )


def save_vectors(space: EmbeddingSpace, path: str | Path) -> None:
    """Write the input vectors in the plain-text format: a `<count> <dim>`
    header, then one `word v1 ... vd` line per word (9 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.words)} {space.dimension}\n")
        row_format = " ".join(["%.9g"] * space.dimension)
        for word, row in zip(space.words, space.vectors):
            fh.write(f"{word} {row_format % tuple(row)}\n")


def load_vectors(path: str | Path) -> EmbeddingSpace:
    """Read the plain-text vector format written by save_vectors."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"bad vector file header in {path}", line=1)
        try:
            n_words, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"bad vector file header in {path}", line=1) from exc
        parts = [line.split(None, 1) for line in islice(fh, n_words)]
    if len(parts) != n_words:
        raise FormatError(f"expected {n_words} vector rows", line=len(parts) + 2)
    words = [p[0] if p else "" for p in parts]
    rows = parse_rows(
        [p[1] if len(p) == 2 else "" for p in parts],
        list(range(2, n_words + 2)),
        width=dim,
    )
    word_ids = {w: i for i, w in enumerate(words)}
    if len(word_ids) != len(words):
        raise FormatError(f"duplicate word in vector file {path}")
    return EmbeddingSpace(words=words, word_ids=word_ids, vectors=rows)
