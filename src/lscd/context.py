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
logit as a segment sum: O(T*d) for T tokens, with a sparse,
one-row-per-token embedding gradient. Training takes `_CLF_CHUNK` shuffled
sentences per SGD step and moves every parameter by the learning rate times
the sum of the chunk's per-sentence gradients at the pre-step parameters;
the embedding rows take that sum through `_scatter_add`.
`classifier_loss_and_grads`, which the gradient check tests, is that pass on
one sentence; evaluation and prediction use it too. save_uses and load_uses
store one period's use sets exactly, as the `uses` stage hands them to
`scores`.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import T2, PERIODS, Corpus, TimeClfDataset, TRAIN, TEST, _load_array, _read_lines
from .errors import DatasetError, FormatError, TrainingDivergedError
from .sgns import sigmoid

_CLF_CHUNK = 32  # training sentences per SGD step
_LR_FLOOR_FACTOR = 1e-2
_LOSS_EPS = 1e-12


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
    """Trained sentence time classifier exposing per-token contextual vectors."""

    def __init__(
        self,
        words: list[str],
        embeddings: np.ndarray,
        offset_weights: np.ndarray,
        head_w: np.ndarray,
        head_b: float,
        config: EncoderConfig,
    ):
        self.words = words
        self.word_ids = {w: i for i, w in enumerate(words)}
        self.embeddings = embeddings
        self.offset_weights = offset_weights  # length 2 * radius + 1
        self.head_w = head_w
        self.head_b = head_b
        self.config = config

    @property
    def radius(self) -> int:
        return (len(self.offset_weights) - 1) // 2

    def token_ids(self, tokens: list[str]) -> np.ndarray:
        """Embedding row of each token, -1 for out-of-vocabulary tokens."""
        get = self.word_ids.get
        return np.array([get(t, -1) for t in tokens], dtype=np.int64)

    def _embed(self, ids: np.ndarray) -> np.ndarray:
        return np.where((ids >= 0)[:, None], self.embeddings[ids], 0.0)

    def contextual_vectors(self, tokens: list[str]) -> np.ndarray:
        """Per-token contextual vectors: each token's embedding mixed with its
        neighbors under the learned offset weighting. Out-of-vocabulary tokens
        contribute a zero embedding."""
        return _contextual(self, self.token_ids(tokens), np.arange(len(tokens)))

    def predict_proba(self, tokens: list[str]) -> float:
        """Probability that the sentence comes from the second period."""
        if not tokens:
            raise ValueError("cannot classify an empty sentence")
        ids = self.token_ids(tokens)
        return float(sigmoid(_forward(self, ids, np.array([len(ids)]))[-1][0]))


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each probability `p` against its label `y` in {0, 1}."""
    return -(y * np.log(p + _LOSS_EPS) + (1.0 - y) * np.log(1.0 - p + _LOSS_EPS))


def _contextual(
    model: TimeClassifier, ids: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Contextual vectors at `positions` of `ids`: the sum over offsets o of
    weight[o] * the embedding row of ids[p + o], ids of -1 and positions past
    either end giving zero rows. Sentences may share one `ids` if each is
    followed by `radius` ids of -1. O(len(positions) * (2r+1) * d)."""
    radius = model.radius
    window = np.pad(ids, radius, constant_values=-1)[
        positions[:, None] + np.arange(2 * radius + 1)
    ]
    out = np.zeros((len(positions), model.embeddings.shape[1]))
    # One row buffer serves every offset: gathered, -1 rows zeroed, weighted.
    rows = np.empty_like(out)
    for k, weight in enumerate(model.offset_weights):
        np.take(model.embeddings, window[:, k], axis=0, out=rows, mode="clip")
        rows[window[:, k] < 0] = 0.0
        rows *= weight
        out += rows
    return out


def _gather(ids: np.ndarray, offsets: np.ndarray, sentences: np.ndarray):
    """The ids of `sentences` (sentence i is ids[offsets[i]:offsets[i + 1]])
    laid end to end, and their lengths."""
    lengths = offsets[sentences + 1] - offsets[sentences]
    ends = np.cumsum(lengths)
    shift = np.repeat(offsets[sentences] - (ends - lengths), lengths)
    return ids[np.arange(ends[-1]) + shift], lengths


def _forward(
    model: TimeClassifier,
    ids: np.ndarray,
    lengths: np.ndarray,
    rows: np.ndarray | None = None,
):
    """One pass over sentences laid end to end in `ids`, sentence s being
    lengths[s] >= 1 tokens long. Returns the tokens' embedding rows (`rows`,
    if given), their reach rows (reach[t, o + radius] = 1 where offset o
    mixes token t into a position of its sentence), pooling weights (the
    total offset weight reaching the token over its sentence's length),
    projections rows @ head_w and sentence numbers, and each sentence's
    logit as the segment sum of weight * projection plus the bias."""
    if rows is None:
        rows = model._embed(ids)
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
    rows: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed binary cross-entropy of sentences laid end to end in `ids`
    (see _forward), labelled 1 for the second period, and each parameter's
    gradient summed over them, all at the current parameters. Row t of
    ``grads["embeddings"]`` is the gradient for token t's embedding row. A
    non-finite logit raises TrainingDivergedError at `step`."""
    rows, reach, weight, proj, sentence, z = _forward(model, ids, lengths, rows)
    if not np.isfinite(z).all():
        raise TrainingDivergedError(f"non-finite activation at step {step}", step=step)
    p = sigmoid(z)
    dz = p - labels
    # A sentence's pooled vector is weight @ rows over its tokens, so each
    # token's row and the head see the sentence's dz through its weight.
    scale = dz[sentence] * weight
    return float(_bce(p, labels).sum()), {
        "head_w": scale @ rows,
        "head_b": np.array(dz.sum()),
        # Offset o's gradient sums head_w . (the rows it reads) * dz / L.
        "offset_weights": ((dz / lengths)[sentence] * proj) @ reach,
        "embeddings": scale[:, None] * model.head_w,
    }


def classifier_loss_and_grads(
    model: TimeClassifier, ids: np.ndarray, label: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Binary cross-entropy of one non-empty example, given as token ids
    (TimeClassifier.token_ids), and its gradients at the current parameters:
    the training pass on a chunk of one sentence.

    Row j of ``grads["embeddings"]`` is the gradient for token j's embedding
    row (repeated tokens add up; out-of-vocabulary rows belong to no
    parameter). A non-finite logit raises TrainingDivergedError.
    """
    return _loss_and_grads(model, ids, np.array([len(ids)]), np.array([float(label)]))


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
    per-sentence gradients at the pre-step parameters. Returns the summed
    pre-step loss. All `ids` must be in the vocabulary."""
    if ids.min() < 0:
        raise ValueError("an out-of-vocabulary token has no embedding row")
    loss, grads = _loss_and_grads(
        model, ids, lengths, labels, step=step, rows=model.embeddings[ids]
    )
    model.head_w -= lr * grads["head_w"]
    model.head_b -= lr * float(grads["head_b"])
    model.offset_weights -= lr * grads["offset_weights"]
    _scatter_add(model.embeddings, ids, -lr * grads["embeddings"])
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
    if not train_idx or not test_idx:
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
        config=config,
    )
    ids = model.token_ids(enc.words)[enc.ids]
    offsets = enc.offsets
    labels = np.array([1.0 if label == T2 else 0.0 for label in dataset.labels])
    train_idx = np.array(train_idx)

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
            loss_sum += _chunk_step(model, chunk_ids, lengths, labels[chunk], lr, step)
        train_loss.append(loss_sum / len(order) if len(order) else math.nan)

    metrics = _evaluate(model, ids, offsets, labels, np.array(test_idx))
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
    _gather), `labels` holding 1 for the second period, `_CLF_CHUNK`
    sentences per forward pass."""
    sentences = sentences[offsets[sentences + 1] > offsets[sentences]]
    if not len(sentences):
        raise DatasetError("test split has no usable examples")
    y = labels[sentences]
    p = np.concatenate([
        sigmoid(_forward(model, *_gather(ids, offsets, chunk))[-1])
        for chunk in np.split(sentences, range(_CLF_CHUNK, len(sentences), _CLF_CHUNK))
    ])
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
        test_loss=float(_bce(p, y).sum()) / total,
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
    # The corpus's ids with `radius` separators (-1) after each sentence, so
    # that no window reaches into the next one. Sentence i starts at
    # starts[i]; a table's last entry, which -1 selects, is its separator value.
    starts = enc.offsets + model.radius * np.arange(len(enc.offsets))
    gaps = np.repeat(starts[:-1] - enc.offsets[:-1], np.diff(enc.offsets))
    padded = np.full(starts[-1], -1, dtype=np.int64)
    padded[np.arange(len(enc.ids)) + gaps] = enc.ids
    code = {w: k for k, w in enumerate(targets)}
    target_of = np.array([code.get(w, -1) for w in enc.words] + [-1])[padded]
    ids = np.append(model.token_ids(enc.words), -1)[padded]
    # Every hit, target by target and in corpus order within a target.
    hits = np.flatnonzero(target_of >= 0)
    hits = hits[np.argsort(target_of[hits], kind="stable")]
    bounds = np.cumsum(np.bincount(target_of[hits], minlength=len(targets)))[:-1]
    sentences = np.searchsorted(starts, hits, side="right") - 1
    vectors = np.split(_contextual(model, ids, hits), bounds)
    indices = np.split(sentences, bounds)
    return [
        UseSet(w, corpus.period, vectors[code[w]], indices[code[w]].tolist())
        for w in targets
    ]


def save_classifier(model: TimeClassifier, path: str | Path) -> None:
    """Persist the trained classifier (binary, full precision)."""
    cfg = model.config
    np.savez(
        path,
        words=np.array(model.words),
        embeddings=model.embeddings,
        offset_weights=model.offset_weights,
        head_w=model.head_w,
        head_b=np.array(model.head_b),
        config=np.array(
            [
                cfg.dimension,
                cfg.context_radius,
                cfg.epochs,
                cfg.learning_rate,
                cfg.seed,
            ]
        ),
    )


def load_classifier(path: str | Path) -> TimeClassifier:
    """Read what save_classifier wrote; a corrupt file or a missing array
    raises FormatError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as data:
            raw = data["config"]
            config = EncoderConfig(
                dimension=int(raw[0]),
                context_radius=int(raw[1]),
                epochs=int(raw[2]),
                learning_rate=float(raw[3]),
                seed=int(raw[4]),
            )
            return TimeClassifier(
                words=[str(w) for w in data["words"]],
                embeddings=data["embeddings"],
                offset_weights=data["offset_weights"],
                head_w=data["head_w"],
                head_b=float(data["head_b"]),
                config=config,
            )
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
        raise FormatError(f"corrupt classifier file {path}: {exc}") from exc


def save_uses(use_sets: list[UseSet], directory: str | Path, period: str) -> None:
    """Write one period's use sets exactly: `uses_<period>.npy` holds every
    use vector, set after set, and `uses_<period>.index.tsv` one
    `word<TAB>row count<TAB>sentence indices` line per set, in order."""
    directory = Path(directory)
    rows = [u.vectors for u in use_sets]
    np.save(
        directory / f"uses_{period}.npy",
        np.concatenate(rows) if rows else np.empty((0, 0)),
        allow_pickle=False,
    )
    with open(directory / f"uses_{period}.index.tsv", "w", encoding="utf-8") as fh:
        for u in use_sets:
            indices = " ".join(map(str, u.sentence_indices))
            fh.write(f"{u.word}\t{len(u.vectors)}\t{indices}\n")


def load_uses(directory: str | Path, period: str) -> list[UseSet]:
    """Read the use sets that save_uses wrote for `period`, in their order;
    files that do not agree raise FormatError naming the file."""
    directory = Path(directory)
    vectors = _load_array(directory / f"uses_{period}.npy")
    path = directory / f"uses_{period}.index.tsv"
    words, counts, indices = [], [], []
    for i, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        try:
            word, count, sids = parts[0], int(parts[1]), list(map(int, parts[2].split()))
        except (IndexError, ValueError) as exc:
            raise FormatError(f"malformed use-set index row in {path}", line=i) from exc
        if len(parts) != 3 or len(sids) != count:
            raise FormatError(f"malformed use-set index row in {path}", line=i)
        words.append(word)
        counts.append(count)
        indices.append(sids)
    if sum(counts) != len(vectors):
        raise FormatError(f"{path} indexes {sum(counts)} uses for {len(vectors)} vectors")
    blocks = np.split(vectors, np.cumsum(counts)[:-1]) if counts else []
    return [
        UseSet(word=w, period=period, vectors=v, sentence_indices=s)
        for w, v, s in zip(words, blocks, indices)
    ]
