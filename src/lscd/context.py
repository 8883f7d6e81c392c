"""Context-dependent word-use representations from a sentence time classifier.

The built-in encoder is deliberately small: a token embedding table, a
learned weight per offset -r..r that mixes each token's embedding with its
neighbors, and a logistic head over the mean of the mixed vectors that
predicts the sentence's period. The mixed vectors double as word-use
representations; extraction forms them only at the requested positions,
one offset-weighted gather per offset, in O(uses * (2r+1) * d). The head
never forms them: their mean is the coefficient-weighted sum
``coeffs @ rows / L`` (``coeffs[j]`` being the total offset weight that
reaches token j), so one forward and backward pass costs O(L*d) and yields a
sparse, one-row-per-token embedding gradient. Training, prediction and the
gradient check share that pass. save_uses and load_uses store one
period's use sets exactly, as the `uses` stage hands them to `scores`.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .corpus import T2, PERIODS, Corpus, TimeClfDataset, TRAIN, TEST, _load_array, _read_lines
from .errors import DatasetError, FormatError, TrainingDivergedError

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
    # Per epoch: the mean binary cross-entropy of its steps, before each update.
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
        return float(_sigmoid(_forward(self, self.token_ids(tokens))[-1]))


def _bce(p: float, y: float) -> float:
    """Binary cross-entropy of probability `p` against label `y` in {0, 1}."""
    return -(y * math.log(p + _LOSS_EPS) + (1.0 - y) * math.log(1.0 - p + _LOSS_EPS))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


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
    for k, weight in enumerate(model.offset_weights):
        out += weight * model._embed(window[:, k])
    return out


@lru_cache(maxsize=256)
def _reach(length: int, radius: int) -> np.ndarray:
    """reach[j, o + radius] = 1 where offset o mixes token j into some
    position of a `length`-token sentence (0 <= j - o < length), else 0.
    Shared by every caller, hence read-only."""
    lag = np.arange(length)[:, None] - np.arange(-radius, radius + 1)
    reach = ((lag >= 0) & (lag < length)).astype(float)
    reach.flags.writeable = False
    return reach


def _forward(model: TimeClassifier, ids: np.ndarray, rows: np.ndarray | None = None):
    """Rows, `_reach` matrix, pooling coefficients, pooled vector and logit
    of one sentence: coeffs[j] is the total offset weight reaching token j,
    so the mean of the mixed vectors is coeffs @ rows / L. `rows`, if given,
    are the embedding rows of `ids`."""
    if rows is None:
        rows = model._embed(ids)
    reach = _reach(len(ids), model.radius)
    coeffs = reach @ model.offset_weights
    pooled = coeffs @ rows / len(ids)
    z = float(model.head_w @ pooled + model.head_b)
    return rows, reach, coeffs, pooled, z


def classifier_loss_and_grads(
    model: TimeClassifier,
    ids: np.ndarray,
    label: int,
    step: int | None = None,
    rows: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Binary cross-entropy of one non-empty example, given as token ids
    (TimeClassifier.token_ids), and its gradients at the current parameters.

    Row j of ``grads["embeddings"]`` is the gradient for token j's embedding
    row (repeated tokens add up; out-of-vocabulary rows belong to no
    parameter). A non-finite logit raises TrainingDivergedError at `step`.
    A caller that has the embedding rows of `ids` may pass them as `rows`.
    """
    rows, reach, coeffs, pooled, z = _forward(model, ids, rows)
    if not math.isfinite(z):
        raise TrainingDivergedError(f"non-finite activation at step {step}", step=step)
    p = _sigmoid(z)
    y = float(label)
    loss = _bce(p, y)

    dz = p - y
    scale = dz / len(ids)
    # Offset o's gradient is head_w . (sum of the rows it reads) * dz / L, a
    # sum of the per-token projections rows @ head_w over the tokens it reaches.
    d_g = scale * ((rows @ model.head_w) @ reach)
    d_rows = (scale * coeffs)[:, None] * model.head_w
    return loss, {
        "head_w": dz * pooled,
        "head_b": np.array(dz),
        "offset_weights": d_g,
        "embeddings": d_rows,
    }


def _sgd_update(
    model: TimeClassifier, ids: np.ndarray, label: int, lr: float, step: int
) -> float:
    """One SGD step, every gradient taken at the pre-step parameters; returns
    the pre-step loss. All `ids` must be in the vocabulary."""
    listed = ids.tolist()
    if min(listed) < 0:
        raise ValueError("an out-of-vocabulary token has no embedding row")
    # Each id's first position: filled back to front, so the first one stays.
    first = dict(zip(reversed(listed), range(len(listed) - 1, -1, -1)))
    rows = model.embeddings[ids]
    loss, grads = classifier_loss_and_grads(model, ids, label, step=step, rows=rows)
    model.head_w -= lr * grads["head_w"]
    model.head_b -= lr * float(grads["head_b"])
    model.offset_weights -= lr * grads["offset_weights"]
    delta = -lr * grads["embeddings"]
    rows += delta
    # Each row takes its deltas one addition at a time in sentence order, as
    # np.add.at would: its pre-step value plus its first delta, then the
    # delta of each repeat.
    if len(first) == len(listed):
        model.embeddings[ids] = rows
    else:
        model.embeddings[list(first)] = rows[list(first.values())]
        for j, t in enumerate(listed):
            if first[t] != j:
                model.embeddings[t] += delta[j]
    return loss


def train_time_classifier(
    dataset: TimeClfDataset,
    config: EncoderConfig,
    vocabulary: list[str] | None = None,
) -> tuple[TimeClassifier, ClfMetrics]:
    """Train on the train split for exactly `config.epochs` passes and report
    accuracy on the untouched test split, plus each epoch's mean train loss.

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
    bounds = enc.offsets.tolist()
    example_ids = [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    labels = [1 if label == T2 else 0 for label in dataset.labels]

    lr0 = config.learning_rate
    lr_floor = lr0 * _LR_FLOOR_FACTOR
    total_steps = config.epochs * len(train_idx)
    step = 0
    train_loss = []
    for _ in range(config.epochs):
        losses = []
        for i in rng.permutation(len(train_idx)).tolist():
            ids, label = example_ids[train_idx[i]], labels[train_idx[i]]
            if not len(ids):
                continue
            lr = max(lr0 * (1.0 - step / total_steps), lr_floor)
            step += 1
            losses.append(_sgd_update(model, ids, label, lr, step))
        train_loss.append(sum(losses) / len(losses) if losses else math.nan)

    metrics = _evaluate(model, [(example_ids[i], labels[i]) for i in test_idx])
    metrics.train_loss = train_loss
    return model, metrics


def _evaluate(model: TimeClassifier, examples: list[tuple]) -> ClfMetrics:
    """Metrics over test examples given as (ids, label) with label 1 for the
    second period."""
    hits = [0, 0]
    counts = [0, 0]
    loss_sum = 0.0
    for ids, label in examples:
        if not len(ids):
            continue
        p = float(_sigmoid(_forward(model, ids, model.embeddings[ids])[-1]))
        loss_sum += _bce(p, float(label))
        counts[label] += 1
        hits[label] += int(p > 0.5) == label
    total = sum(counts)
    if total == 0:
        raise DatasetError("test split has no usable examples")
    return ClfMetrics(
        accuracy=sum(hits) / total,
        per_label_accuracy={
            p: (h / n) if n else 0.0 for p, h, n in zip(PERIODS, hits, counts)
        },
        example_counts=dict(zip(PERIODS, counts)),
        test_loss=loss_sum / total,
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
    hits = np.flatnonzero(target_of >= 0)
    sentences = np.searchsorted(starts, hits, side="right") - 1
    mine = {w: target_of[hits] == code[w] for w in targets}
    return [
        UseSet(
            word=w,
            period=corpus.period,
            vectors=_contextual(model, ids, hits[mine[w]]),
            sentence_indices=sentences[mine[w]].tolist(),
        )
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
