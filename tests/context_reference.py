"""Reference implementations of the encoder, kept as test oracles.

`reference_mix` forms the contextual vectors offset by offset, and
`reference_train` is the per-example trainer built on d-wide prefix sums of
the embedding rows. `lscd.context` computes the same quantities through
pooling coefficients (training) and one banded matrix product (extraction);
the tests check that both agree. `reference_train` raises IndexError on a
training sentence shorter than the context radius.
"""

from __future__ import annotations

import numpy as np

from lscd.context import EncoderConfig, TimeClassifier, _sigmoid
from lscd.corpus import T2, TRAIN, TimeClfDataset
from lscd.errors import DatasetError, TrainingDivergedError


def reference_embed(model: TimeClassifier, tokens: list[str]) -> np.ndarray:
    rows = np.zeros((len(tokens), model.embeddings.shape[1]))
    for i, tok in enumerate(tokens):
        idx = model.word_ids.get(tok)
        if idx is not None:
            rows[i] = model.embeddings[idx]
    return rows


def reference_mix(rows: np.ndarray, offset_weights: np.ndarray) -> np.ndarray:
    """H[i] = sum over offsets o of weight[o] * rows[i + o], missing
    neighbors contributing nothing."""
    radius = (len(offset_weights) - 1) // 2
    h = np.zeros_like(rows)
    length = len(rows)
    for o in range(-radius, radius + 1):
        w = offset_weights[o + radius]
        if o == 0:
            h += w * rows
        elif o < 0 and length + o > 0:
            h[-o:] += w * rows[:o]
        elif o > 0 and length - o > 0:
            h[:-o] += w * rows[o:]
    return h


def reference_sgd_step(
    model: TimeClassifier, tokens: list[str], label: int, lr: float, step: int
) -> None:
    rows = reference_embed(model, tokens)
    g = model.offset_weights.copy()  # snapshot: all gradients at one point
    radius = model.radius
    length = len(tokens)

    h = reference_mix(rows, g)
    pooled = h.mean(axis=0)
    z = float(model.head_w @ pooled + model.head_b)
    if not np.isfinite(z):
        raise TrainingDivergedError(f"non-finite activation at step {step}", step=step)
    dz = _sigmoid(z) - float(label)
    d_pool = dz * model.head_w

    model.head_w -= lr * dz * pooled
    model.head_b -= lr * dz

    prefix = np.vstack([np.zeros(rows.shape[1]), np.cumsum(rows, axis=0)])
    for o in range(-radius, radius + 1):
        if o <= 0:
            seg_sum = prefix[length + o] if o < 0 else prefix[length]
        else:
            seg_sum = prefix[length] - prefix[o]
        model.offset_weights[o + radius] -= lr * float(d_pool @ seg_sum) / length

    coeffs = np.empty(length)
    for j in range(length):
        lo = max(-radius, j - (length - 1))
        hi = min(radius, j)
        coeffs[j] = g[lo + radius : hi + radius + 1].sum()
    d_rows = np.outer(-lr * coeffs / length, d_pool)
    ids = np.array(
        [model.word_ids[t] for t in tokens if t in model.word_ids], dtype=np.int64
    )
    keep = np.array([t in model.word_ids for t in tokens])
    if len(ids):
        np.add.at(model.embeddings, ids, d_rows[keep])


def reference_train(
    dataset: TimeClfDataset,
    config: EncoderConfig,
    vocabulary: list[str] | None = None,
) -> TimeClassifier:
    """The trained model of `train_time_classifier`, by the reference step."""
    train_idx = dataset.indices(TRAIN)
    if not train_idx:
        raise DatasetError("train split must be non-empty")
    examples = dataset.examples
    words = sorted({t for tokens, _ in examples for t in tokens})
    if vocabulary is not None:
        seen = set(words)
        words.extend(w for w in vocabulary if w not in seen)

    rng = np.random.default_rng(config.seed)
    n_offsets = 2 * config.context_radius + 1
    model = TimeClassifier(
        words=words,
        embeddings=rng.random((len(words), config.dimension)) - 0.5,
        offset_weights=np.full(n_offsets, 1.0 / n_offsets),
        head_w=np.zeros(config.dimension),
        head_b=0.0,
        config=config,
    )
    lr0 = config.learning_rate
    total_steps = config.epochs * len(train_idx)
    step = 0
    for _ in range(config.epochs):
        for i in rng.permutation(len(train_idx)):
            tokens, label = examples[train_idx[int(i)]]
            if not tokens:
                continue
            lr = max(lr0 * (1.0 - step / total_steps), lr0 * 1e-2)
            step += 1
            reference_sgd_step(model, tokens, 1 if label == T2 else 0, lr, step)
    return model
