"""Context-dependent word-use representations from a sentence time classifier.

The built-in encoder is deliberately small: a token embedding table, a
learned weight per offset -r..r that mixes each token's embedding with its
neighbors, and a logistic head over the mean of the mixed vectors that
predicts the sentence's period. The mixed vectors double as word-use
representations; extraction forms them only at the requested positions,
one offset-weighted gather per offset, in O(uses * (2r+1) * d).

The head never forms them: their mean is the weighted sum ``weight @ rows``,
where a token's weight is the total offset weight that reaches it over the
sentence's length, so a sentence's logit is the sum of its tokens' weighted
projections ``rows @ head_w``. One pass (`_forward`) takes many sentences
laid end to end, builds the reach rows of their tokens only, and takes each
logit as a segment sum: O(T*d) for T tokens. Every token's embedding
gradient is a multiple ``scale[t] * head_w`` of the head, so the pass
returns the T coefficients, not a T x d gradient. Training takes
`_CLF_CHUNK` shuffled sentences per SGD step and moves every parameter by
the learning rate times the sum of the chunk's per-sentence gradients at
the pre-step parameters; each distinct embedding row of the chunk moves by
one rank-1 step, its tokens' summed coefficient times the pre-step head.
save_uses stores one period's use sets exactly, as the `uses` stage hands
them to `scores`; read_uses reads them back one set at a time, and
load_uses is its list.
"""

from __future__ import annotations

import math
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    PERIODS, TEST, TRAIN, Corpus, TimeClfDataset, _gather, _iter_lines, _load_array,
)
from .errors import DatasetError, FormatError, TrainingDivergedError
from .sgns import _log_sigmoid, sigmoid

_CLF_CHUNK = 32  # training sentences per SGD step
# float64 values in one row block of _contextual: 512 KiB, which stays in
# cache (2^17 ran slower, and 2^15 no faster).
_BLOCK_ELEMENTS = 2**16
_LR_FLOOR_FACTOR = 1e-2


@dataclass(frozen=True)
class EncoderConfig:
    dimension: int = 128
    context_radius: int = 5
    epochs: int = 1
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.context_radius < 0:
            raise ValueError("context_radius must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class ClfMetrics:
    accuracy: float
    per_label_accuracy: dict[str, float]
    example_counts: dict[str, int]
    # Per epoch: the mean binary cross-entropy of its sentences, each taken
    # before its chunk's update.
    train_loss: list[float] = field(default_factory=list)
    # Mean binary cross-entropy over the test examples, after training.
    test_loss: float = math.nan


@dataclass
class UseSet:
    """All contextual vectors of one word in one period, one per occurrence."""

    word: str
    period: str
    vectors: np.ndarray  # (n_uses, dimension)
    sentence_indices: list[int]

    @property
    def empty(self) -> bool:
        return len(self.vectors) == 0


class TimeClassifier:
    """Trained sentence time classifier, whose mixed token vectors are the uses."""

    def __init__(
        self,
        words: list[str],
        embeddings: np.ndarray,
        offset_weights: np.ndarray,
        head_w: np.ndarray,
        head_b: float,
    ):
        self.words = words
        self.word_ids = {w: i for i, w in enumerate(words)}
        self.embeddings = embeddings
        self.offset_weights = offset_weights  # length 2 * radius + 1
        self.head_w = head_w
        self.head_b = head_b

    @property
    def radius(self) -> int:
        return (len(self.offset_weights) - 1) // 2

    def token_ids(self, tokens: list[str]) -> np.ndarray:
        """Embedding row of each token (int32), -1 for out-of-vocabulary tokens."""
        get = self.word_ids.get
        return np.array([get(t, -1) for t in tokens], dtype=np.int32)


def _contextual(
    model: TimeClassifier, ids: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Contextual vectors at `positions` of `ids`: the sum over offsets o of
    weight[o] * the embedding row of ids[p + o], ids of -1 giving zero rows.
    Callers pad: every position needs `radius` ids on each side, and
    sentences that share one `ids` are kept apart by `radius` ids of -1.
    O(len(positions) * (2r+1) * d).

    The positions go in row blocks of at most `_BLOCK_ELEMENTS` values
    through one reused buffer, so the working set beside the output stays
    in cache at any corpus size; each row takes the same additions in the
    same order whatever the block."""
    d = model.embeddings.shape[1]
    out = np.zeros((len(positions), d))
    block = max(1, _BLOCK_ELEMENTS // d)
    # One buffer serves every block and offset: gathered, -1 rows zeroed,
    # weighted.
    buffer = np.empty((min(block, len(positions)), d))
    for start in range(0, len(positions), block):
        at = positions[start : start + block]
        rows = buffer[: len(at)]
        for offset, weight in enumerate(model.offset_weights, start=-model.radius):
            window = ids[at + offset]
            np.take(model.embeddings, window, axis=0, out=rows, mode="clip")
            rows[window < 0] = 0.0
            rows *= weight
            out[start : start + len(at)] += rows
    return out


def _forward(model: TimeClassifier, ids: np.ndarray, lengths: np.ndarray):
    """One pass over sentences laid end to end in `ids`, sentence s being
    lengths[s] >= 1 tokens long, every id in the vocabulary. Returns the
    tokens' embedding rows, their reach rows (reach[t, o + radius] = 1 where
    offset o mixes token t into a position of its sentence), pooling weights
    (the total offset weight reaching the token over its sentence's length),
    projections rows @ head_w and sentence numbers, and each sentence's
    logit as the segment sum of weight * projection plus the bias."""
    rows = model.embeddings[ids]
    radius = model.radius
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    length_of = lengths[sentence]
    position = np.arange(len(ids)) - (np.cumsum(lengths) - lengths)[sentence]
    lag = position[:, None] - np.arange(-radius, radius + 1)
    reach = ((lag >= 0) & (lag < length_of[:, None])).astype(float)
    weight = reach @ model.offset_weights / length_of
    proj = rows @ model.head_w
    z = np.bincount(sentence, weights=weight * proj) + model.head_b
    return rows, reach, weight, proj, sentence, z


def _loss_and_grads(
    model: TimeClassifier,
    ids: np.ndarray,
    lengths: np.ndarray,
    labels: np.ndarray,
    step: int | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed binary cross-entropy of sentences laid end to end in `ids`
    (see _forward), labelled 1 (or true) for the second period, and each
    parameter's gradient summed over them, all at the current parameters.
    Token t's embedding gradient is ``grads["scale"][t] * model.head_w``.
    A non-finite logit raises TrainingDivergedError at `step`."""
    rows, reach, weight, proj, sentence, z = _forward(model, ids, lengths)
    if not np.isfinite(z).all():
        raise TrainingDivergedError(f"non-finite activation at step {step}", step=step)
    dz = sigmoid(z) - labels
    # A sentence's pooled vector is weight @ rows over its tokens, so each
    # token's row and the head see the sentence's dz through its weight.
    scale = dz[sentence] * weight
    return float(-_log_sigmoid(np.where(labels, z, -z)).sum()), {
        "head_w": scale @ rows,
        "head_b": np.array(dz.sum()),
        # Offset o's gradient sums head_w . (the rows it reads) * dz / L.
        "offset_weights": ((dz / lengths)[sentence] * proj) @ reach,
        "scale": scale,
    }


def _chunk_step(
    model: TimeClassifier,
    ids: np.ndarray,
    lengths: np.ndarray,
    labels: np.ndarray,
    lr: float,
    step: int,
) -> float:
    """One SGD step on a chunk of sentences laid end to end in `ids` (see
    _forward): every parameter moves by -lr times the sum of its
    per-sentence gradients at the pre-step parameters, so each distinct
    embedding row moves by -lr * (the summed scale of its tokens) * the
    pre-step head_w. Returns the summed pre-step loss. All `ids` must be in
    the vocabulary."""
    if ids.min() < 0:
        raise ValueError("an out-of-vocabulary token has no embedding row")
    loss, grads = _loss_and_grads(model, ids, lengths, labels, step=step)
    distinct, local = np.unique(ids, return_inverse=True)
    model.embeddings[distinct] -= np.outer(
        lr * np.bincount(local, weights=grads["scale"]), model.head_w
    )
    model.head_w -= lr * grads["head_w"]
    model.head_b -= lr * float(grads["head_b"])
    model.offset_weights -= lr * grads["offset_weights"]
    return loss


def train_time_classifier(
    dataset: TimeClfDataset,
    config: EncoderConfig,
    vocabulary: list[str] | None = None,
) -> tuple[TimeClassifier, ClfMetrics]:
    """Train on the train split for exactly `config.epochs` passes and report
    accuracy on the untouched test split, plus each epoch's mean train loss.

    Each pass takes the non-empty train sentences in a fresh shuffled order,
    `_CLF_CHUNK` at a time, one SGD step per chunk; the learning rate decays
    linearly per chunk to its floor.

    `vocabulary` may supply additional words (e.g. the full joint corpus
    vocabulary) so that later extraction never meets out-of-vocabulary
    tokens; words never seen in training keep their random initialization.
    """
    train_idx = dataset.indices(TRAIN)
    test_idx = dataset.indices(TEST)
    if not len(train_idx) or not len(test_idx):
        raise DatasetError("both train and test splits must be non-empty")

    enc = dataset.encoded
    words = sorted(w for w, n in zip(enc.words, enc.counts().tolist()) if n)
    if vocabulary is not None:
        seen = set(words)
        words.extend(w for w in vocabulary if w not in seen)

    rng = np.random.default_rng(config.seed)
    d = config.dimension
    n_offsets = 2 * config.context_radius + 1
    # Unit-scale embeddings keep the pooled features (and hence the head
    # gradients) large enough to train in a single epoch.
    model = TimeClassifier(
        words=words,
        embeddings=rng.random((len(words), d)) - 0.5,
        offset_weights=np.full(n_offsets, 1.0 / n_offsets),
        head_w=np.zeros(d),
        head_b=0.0,
    )
    ids = model.token_ids(enc.words)[enc.ids]
    offsets = enc.offsets

    lr0 = config.learning_rate
    lr_floor = lr0 * _LR_FLOOR_FACTOR
    step = 0
    train_loss = []
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        order = order[offsets[order + 1] > offsets[order]]
        loss_sum = 0.0
        for start in range(0, len(order), _CLF_CHUNK):
            chunk = order[start : start + _CLF_CHUNK]
            step += 1
            progress = (epoch + start / len(order)) / config.epochs
            lr = max(lr0 * (1.0 - progress), lr_floor)
            chunk_ids, lengths = _gather(ids, offsets, chunk)
            loss_sum += _chunk_step(model, chunk_ids, lengths, dataset.is_t2[chunk], lr, step)
        train_loss.append(loss_sum / len(order) if len(order) else math.nan)

    metrics = _evaluate(model, ids, offsets, dataset.is_t2, test_idx)
    metrics.train_loss = train_loss
    return model, metrics


def _evaluate(
    model: TimeClassifier,
    ids: np.ndarray,
    offsets: np.ndarray,
    labels: np.ndarray,
    sentences: np.ndarray,
) -> ClfMetrics:
    """Metrics over the non-empty `sentences` of the flat `ids` (see
    _gather), `labels` true for the second period, `_CLF_CHUNK` sentences
    per forward pass."""
    sentences = sentences[offsets[sentences + 1] > offsets[sentences]]
    if not len(sentences):
        raise DatasetError("test split has no usable examples")
    y = labels[sentences]
    z = np.concatenate([
        _forward(model, *_gather(ids, offsets, chunk))[-1]
        for chunk in np.split(sentences, range(_CLF_CHUNK, len(sentences), _CLF_CHUNK))
    ])
    p = sigmoid(z)
    counts = np.bincount(y.astype(int), minlength=2)
    hits = np.bincount(y.astype(int), weights=(p > 0.5) == y, minlength=2)
    total = len(sentences)
    return ClfMetrics(
        accuracy=float(hits.sum()) / total,
        per_label_accuracy={
            period: (h / n) if n else 0.0
            for period, h, n in zip(PERIODS, hits.tolist(), counts.tolist())
        },
        example_counts=dict(zip(PERIODS, counts.tolist())),
        test_loss=float(-_log_sigmoid(np.where(y, z, -z)).sum()) / total,
    )


def extract_uses(
    model: TimeClassifier, corpus: Corpus, targets: list[str]
) -> list[UseSet]:
    """One contextual vector per occurrence of each target in the corpus.

    Occurrences in the same sentence yield separate entries. A target absent
    from the corpus yields an empty UseSet; downstream policy decides what to
    do with it.
    """
    enc = corpus.encoded
    radius = model.radius
    code = {w: k for k, w in enumerate(targets)}
    target_of = np.array([code.get(w, -1) for w in enc.words], dtype=np.int32)[enc.ids]
    # Every hit, target by target and in corpus order within a target.
    hits = np.flatnonzero(target_of >= 0)
    hits = hits[np.argsort(target_of[hits], kind="stable")]
    bounds = np.cumsum(np.bincount(target_of[hits], minlength=len(targets)))[:-1]
    sentences = np.searchsorted(enc.offsets, hits, side="right") - 1
    # The embedding rows of the corpus's tokens with `radius` separators (-1)
    # before each sentence and after the last, so that no window reaches
    # into another sentence or past either end: sentence i moves by
    # radius * (i + 1).
    ids = np.insert(
        model.token_ids(enc.words)[enc.ids],
        np.repeat(enc.offsets, radius),
        -1,
    )
    vectors = np.split(_contextual(model, ids, hits + radius * (sentences + 1)), bounds)
    indices = np.split(sentences, bounds)
    return [
        UseSet(w, corpus.period, vectors[code[w]], indices[code[w]].tolist())
        for w in targets
    ]


def save_classifier(model: TimeClassifier, path: str | Path) -> None:
    """Persist the trained classifier (binary, full precision)."""
    np.savez(
        path,
        words=np.array(model.words),
        embeddings=model.embeddings,
        offset_weights=model.offset_weights,
        head_w=model.head_w,
        head_b=np.array(model.head_b),
    )


def load_classifier(path: str | Path) -> TimeClassifier:
    """Read what save_classifier wrote; a corrupt file or a missing array
    raises FormatError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return TimeClassifier(
                words=[str(w) for w in data["words"]],
                embeddings=data["embeddings"],
                offset_weights=data["offset_weights"],
                head_w=data["head_w"],
                head_b=float(data["head_b"]),
            )
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
        raise FormatError(f"corrupt classifier file {path}: {exc}") from exc


def save_uses(use_sets: list[UseSet], directory: str | Path, period: str) -> None:
    """Write one period's use sets exactly: `uses_<period>.npy` holds every
    use vector, set after set, and `uses_<period>.index.tsv` one
    `word<TAB>row count<TAB>sentence indices` line per set, in order."""
    directory = Path(directory)
    rows = [np.asarray(u.vectors, dtype="<f8") for u in use_sets]
    if any(r.ndim != 2 for r in rows) or len({r.shape[1] for r in rows}) > 1:
        raise ValueError("use sets have different dimensionality")
    # np.save's bytes for the sets' concatenation, written set by set with no
    # copy as large as the period's vectors.
    shape = (sum(len(r) for r in rows), rows[0].shape[1] if rows else 0)
    with open(directory / f"uses_{period}.npy", "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape}
        )
        for r in rows:
            fh.write(np.ascontiguousarray(r).data)
    with open(directory / f"uses_{period}.index.tsv", "w", encoding="utf-8") as fh:
        for u in use_sets:
            indices = " ".join(map(str, u.sentence_indices))
            fh.write(f"{u.word}\t{len(u.vectors)}\t{indices}\n")


def read_uses(
    directory: str | Path, period: str, words: list[str] | None = None
) -> Iterator[UseSet]:
    """The use sets that save_uses wrote for `period`, in their order, read
    one at a time: each index row is parsed as it is reached and its set's
    rows are read from the one open `uses_<period>.npy`, so a set is held
    only while its caller keeps it. With `words`, the index must list
    exactly those words, in order. Files that do not agree raise FormatError
    naming the file, once the reader reaches the disagreement."""
    directory = Path(directory)
    array_path = directory / f"uses_{period}.npy"
    path = directory / f"uses_{period}.index.tsv"
    # Mapped for numpy's checks of the file and its length only: no page of
    # the map is read, the rows come through `fh`.
    header = _load_array(array_path, mmap_mode="r")
    (rows, width), offset = header.shape, header.offset
    if not header.flags.c_contiguous:
        raise FormatError(f"array file {array_path} holds its values in Fortran order")
    del header
    with open(array_path, "rb") as fh:
        fh.seek(offset)
        indexed = i = 0
        for i, line in enumerate(_iter_lines(path), start=1):
            parts = line.split("\t")
            try:
                word, count, sids = parts[0], int(parts[1]), list(map(int, parts[2].split()))
            except (IndexError, ValueError) as exc:
                raise FormatError(f"malformed use-set index row in {path}", line=i) from exc
            if len(parts) != 3 or len(sids) != count:
                raise FormatError(f"malformed use-set index row in {path}", line=i)
            if words is not None and (i > len(words) or word != words[i - 1]):
                raise FormatError(f"{path} does not list the run's targets in order")
            indexed += count
            # Past the array's end the rows are only counted, for the error.
            if indexed <= rows:
                # Not bound here, so that the reader does not hold a set it
                # has yielded.
                yield UseSet(
                    word, period, np.fromfile(fh, count=count * width).reshape(count, width), sids
                )
        if indexed != rows:
            raise FormatError(f"{path} indexes {indexed} uses for {rows} vectors")
        if words is not None and i != len(words):
            raise FormatError(f"{path} does not list the run's targets in order")


def load_uses(directory: str | Path, period: str) -> list[UseSet]:
    """Every use set that save_uses wrote for `period` (see read_uses)."""
    return list(read_uses(directory, period))
