"""Skip-gram with negative sampling, trained from scratch with numpy.

One corpus yields one static embedding space. Training follows the classic
recipe: dynamic windows (the effective window size is sampled uniformly from
[1, window] per position), negative samples drawn from the unigram
distribution raised to a noise exponent, linear learning-rate decay to a
small floor, input vectors initialized uniformly in [-0.5/d, 0.5/d] and
output vectors at zero. Updates are applied in fixed-size chunks of (center,
context) pairs; the procedure is deterministic given the seed.

Training reads the corpus in its flat form (`Corpus.encoded`): one id array
over all sentences and the sentence offsets into it, renumbered so that id 0
is the most frequent word. An epoch draws every token's span, counts its
pairs in closed form from that span and its place in the sentence, shuffles
the pair indices and lists the pairs one block at a time: no array holds all
of an epoch's pairs. Training runs in float32, as word2vec and gensim do:
each chunk's updates are added to the matrices one at a time, centers, then
context words, then negatives, each in pair order. They are added as
complex64 pairs of adjacent float32 columns: complex addition adds the two
halves apart, so each value gets the same float32 additions in the same
order, and one scatter visits half as many elements. The returned vectors
are the float64 values of the trained float32 ones.

One function, `_chunk_update`, computes the loss and the gradients: training
calls it once per chunk, and `sgns_step`, which the gradient checks test, is
the same function on a batch of one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, _load_array, _read_lines
from .errors import EmptyCorpusError, FormatError, TrainingDivergedError, VocabularyError

_CHUNK = 512
_BLOCK = 128 * _CHUNK  # pairs listed at once; a multiple of _CHUNK
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
        if self.subsample_threshold is not None and not self.subsample_threshold > 0:
            raise ValueError("subsample_threshold must be positive")


@dataclass
class EmbeddingSpace:
    """Vocabulary-indexed word vectors plus training metadata.

    `vectors` (the input matrix) is what downstream alignment and scoring
    consume; `context_vectors` is kept for inspection and is None for spaces
    read by load_space, since save_space stores only `vectors`.
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
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigma(x) = -softplus(-x), computed without overflow
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def _chunk_update(
    v_cen: np.ndarray, u_ctx: np.ndarray, u_neg: np.ndarray,
    live: np.ndarray, lr: float, out: np.ndarray,
) -> float:
    """Summed loss of b pairs; writes each gathered row's step into `out`.

    v_cen and u_ctx are (b, d), u_neg is (b, k, d), and live (b, k) masks out
    negatives that collide with their pair's context word. `out` receives
    -lr times the loss gradient for the b centers, the b context words, then
    the b·k negatives in row-major order; a dead negative's row is zero.
    """
    b = len(v_cen)
    pos_z = np.einsum("bd,bd->b", v_cen, u_ctx)
    neg_z = np.einsum("bkd,bd->bk", u_neg, v_cen)
    loss = -_log_sigmoid(pos_z).sum() - (_log_sigmoid(-neg_z) * live).sum()
    # sigmoid computes in float64; the (b, d) products take out's dtype.
    pos_coef = ((1.0 - sigmoid(pos_z)) * lr).astype(out.dtype, copy=False)
    neg_coef = (-(sigmoid(neg_z) * live) * lr).astype(out.dtype, copy=False)
    d_cen, d_ctx, d_neg = out[:b], out[b : 2 * b], out[2 * b :]
    np.multiply(pos_coef[:, None], u_ctx, out=d_cen)
    d_cen += np.einsum("bk,bkd->bd", neg_coef, u_neg)
    np.multiply(pos_coef[:, None], v_cen, out=d_ctx)
    np.multiply(
        neg_coef[:, :, None], v_cen[:, None, :], out=d_neg.reshape(u_neg.shape)
    )
    return float(loss)


def sgns_step(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and gradients for a single (center, context, negatives) step.

    loss = -log sigma(u_ctx . v) - sum_k log sigma(-u_k . v); the returned
    gradients are of this loss with respect to the center vector, the context
    vector and each negative vector. This is `_chunk_update` on one pair with
    every negative live: at lr = -1 its rows are the gradients themselves.
    """
    center = np.asarray(center, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    k, d = negatives.shape
    grads = np.empty((2 + k, d))
    live = np.ones((1, k), dtype=bool)
    loss = _chunk_update(
        center[None], context[None], negatives[None], live, -1.0, grads
    )
    return loss, grads[0], grads[1], grads[2:]


def _corpus_ids(corpus: Corpus) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
    """The corpus's flat ids renumbered by descending count (ties in
    alphabetical order), its sentence offsets, its words in id order and
    their counts."""
    enc = corpus.encoded
    counts = enc.counts().tolist()
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], enc.words[i]))
    renumber = np.empty(len(order), dtype=np.int64)
    renumber[order] = np.arange(len(order))
    words = [enc.words[i] for i in order]
    return renumber[enc.ids], enc.offsets, words, np.array(counts, dtype=float)[order]


def _epoch_pairs(
    ids: np.ndarray, offsets: np.ndarray, window: int, rng, keep_prob
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample dynamic windows over every sentence of the flat `ids`
    (sentence i is ids[offsets[i]:offsets[i + 1]]) and count one epoch's
    pairs. Returns the kept tokens' ids, how many contexts each takes from
    its left, and `first`: token c's pairs are first[c]:first[c + 1], its
    left contexts then its right ones, in corpus order (see _list_pairs)."""
    lengths = np.diff(offsets)
    if keep_prob is None:
        # Sentences of fewer than two tokens draw no span. One draw for all
        # spans yields what one draw per sentence would: a bounded integer
        # draw takes a buffered 32-bit half of the stream, so a call that
        # ends on a half leaves the other half to the next call.
        long = lengths >= 2
        ids, lengths = ids[np.repeat(long, lengths)], lengths[long]
        span = rng.integers(1, window + 1, size=len(ids))
    else:
        # Each sentence draws its keep mask, then its spans, in turn.
        kept, spans = [ids[:0]], [np.empty(0, dtype=np.int64)]
        for sentence in np.split(ids, offsets[1:-1]):
            sentence = sentence[rng.random(len(sentence)) < keep_prob[sentence]]
            if len(sentence) >= 2:
                kept.append(sentence)
                spans.append(rng.integers(1, window + 1, size=len(sentence)))
        ids, span = np.concatenate(kept), np.concatenate(spans)
        lengths = np.array([len(k) for k in kept[1:]], dtype=np.int64)
    position = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    left = np.minimum(span, position)
    right = np.minimum(span, np.repeat(lengths, lengths) - 1 - position)
    return ids, left, np.r_[0, np.cumsum(left + right)]


def _list_pairs(tokens, left, first, center_of, p) -> tuple[np.ndarray, np.ndarray]:
    """The (center, context) ids of pairs p, from _epoch_pairs' arrays and
    center_of, the token of every pair. Ranked from a center's nearest right
    context (0) and back from its left (< 0), its rank-th context is at
    position center + rank + (rank >= 0)."""
    c = center_of[p]
    rank = p - first[c] - left[c]
    return tokens[c], tokens[c + rank + (rank >= 0)]


def train_sgns(corpus: Corpus, config: SgnsConfig) -> EmbeddingSpace:
    """Train one embedding space on one corpus."""
    if corpus.sentence_count == 0:
        raise EmptyCorpusError("cannot train on an empty corpus")
    ids, offsets, words, freq = _corpus_ids(corpus)
    n_words = len(words)
    d = config.dimension
    rng = np.random.default_rng(config.seed)

    # The input and output vectors are the two halves of one float32 matrix,
    # so that a chunk's updates to both take one scatter into its flat
    # complex64 view. An odd d takes a pad column that only ever adds 0.
    width = d + d % 2
    half = width // 2
    weights = np.zeros((2 * n_words, width), dtype=np.float32)
    flat = weights.view(np.complex64).reshape(-1)
    columns = np.arange(half)
    vec_in, vec_out = weights[:n_words, :d], weights[n_words:, :d]
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
    # A chunk's gathered rows, steps and flat index go to buffers kept across
    # chunks: new arrays of this size per chunk made malloc hand their pages
    # back and fault them in again, tens of thousands of times per d=300 space.
    gathered = np.empty(((2 + k) * _CHUNK, d), dtype=np.float32)
    deltas = np.zeros(((2 + k) * _CHUNK, width), dtype=np.float32)
    indices = np.empty(((2 + k) * _CHUNK, half), dtype=np.intp)
    lr0 = config.initial_learning_rate
    lr_floor = lr0 * _LR_FLOOR_FACTOR
    word_ids = {w: i for i, w in enumerate(words)}
    losses: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        tokens, left, first = _epoch_pairs(ids, offsets, config.window, rng, keep_prob)
        n_pairs = int(first[-1])
        if n_pairs == 0:
            losses.append(0.0)
            continue
        # Shuffling spreads repeated pairs across update chunks, keeping the
        # summed within-chunk step close to the sequential one.
        order = rng.permutation(n_pairs)
        center_of = np.repeat(np.arange(len(tokens), dtype=np.int32), np.diff(first))
        epoch_loss = 0.0
        for start in range(0, n_pairs, _CHUNK):
            step += 1
            if start % _BLOCK == 0:
                centers, contexts = _list_pairs(
                    tokens, left, first, center_of, order[start : start + _BLOCK]
                )
            cen = centers[start % _BLOCK :][:_CHUNK]
            ctx = contexts[start % _BLOCK :][:_CHUNK]
            negs = np.searchsorted(noise_cdf, rng.random((len(cen), k)), side="right")
            progress = (epoch + start / n_pairs) / config.epochs
            lr = max(lr0 * (1.0 - progress), lr_floor)

            # A negative colliding with the true context word contributes
            # nothing to this step.
            live = negs != ctx[:, None]

            # Every delta comes from these gathers and the input and output
            # rows are disjoint, so one scatter over both halves applies what
            # two would. np.add.at adds each element in index order.
            b = len(cen)
            v_cen, u_ctx = gathered[:b], gathered[b : 2 * b]
            u_neg = gathered[2 * b : (2 + k) * b].reshape(b, k, d)
            # Every id is in range; "clip" lets take write into `out` in
            # place, where "raise" copies through a new array.
            np.take(vec_in, cen, axis=0, out=v_cen, mode="clip")
            np.take(vec_out, ctx, axis=0, out=u_ctx, mode="clip")
            np.take(vec_out, negs, axis=0, out=u_neg, mode="clip")
            out = deltas[: (2 + k) * b]
            rows = np.concatenate((cen, n_words + ctx, n_words + negs.reshape(-1)))
            index = indices[: len(rows)]
            np.add((rows * half)[:, None], columns, out=index)
            # A diverging run overflows float32; the finite checks report it.
            with np.errstate(over="ignore", invalid="ignore"):
                chunk_loss = _chunk_update(v_cen, u_ctx, u_neg, live, lr, out[:, :d])
                if not np.isfinite(chunk_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss in update chunk {step}", step=step
                    )
                np.add.at(flat, index.ravel(), out.view(np.complex64).ravel())
            epoch_loss += chunk_loss
        losses.append(epoch_loss / n_pairs)
        # Freed before the next epoch builds its own.
        del tokens, left, first, order, center_of, centers, contexts

    if not np.isfinite(weights).all():
        raise TrainingDivergedError("non-finite values in trained matrices", step=step)
    return EmbeddingSpace(
        words=words,
        word_ids=word_ids,
        vectors=vec_in.astype(np.float64),
        context_vectors=vec_out.astype(np.float64),
        config=config,
        epoch_losses=losses,
    )


def save_space(space: EmbeddingSpace, directory: str | Path, name: str) -> None:
    """Write the input vectors exactly: `<name>.npy` holds the (float64)
    matrix and `<name>.words.txt` its words, one per line, in row order."""
    directory = Path(directory)
    np.save(directory / f"{name}.npy", space.vectors, allow_pickle=False)
    (directory / f"{name}.words.txt").write_text(
        "".join(f"{word}\n" for word in space.words), encoding="utf-8"
    )


def load_space(directory: str | Path, name: str) -> EmbeddingSpace:
    """Read the space that save_space wrote; files that do not agree raise
    FormatError naming the file."""
    directory = Path(directory)
    vectors = _load_array(directory / f"{name}.npy")
    path = directory / f"{name}.words.txt"
    words = _read_lines(path)
    if len(words) != len(vectors):
        raise FormatError(f"{path} lists {len(words)} words for {len(vectors)} vectors")
    word_ids = {w: i for i, w in enumerate(words)}
    if len(word_ids) != len(words):
        raise FormatError(f"duplicate word in {path}")
    return EmbeddingSpace(words=words, word_ids=word_ids, vectors=vectors)
