"""Reference implementations of the encoder, kept as test oracles.

`reference_mix` forms the contextual vectors offset by offset, and
`reference_train` is the chunked trainer built on per-example gradients
from d-wide prefix sums of the embedding rows. `lscd.context` computes the
same quantities through pooling weights and segment sums over a whole chunk
(training) and offset-weighted gathers (extraction); the tests check that
both agree. `reference_train` raises IndexError on a training sentence
shorter than the context radius.
"""

from __future__ import annotations

import math

import numpy as np

from lscd.context import _CLF_CHUNK, EncoderConfig, TimeClassifier
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


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def reference_grads(
    model: TimeClassifier, tokens: list[str], label: int, step: int
) -> dict[str, np.ndarray]:
    """The gradients of one example's loss at the model's parameters, the
    embedding gradient as a dense vocabulary-sized array."""
    rows = reference_embed(model, tokens)
    g = model.offset_weights
    radius = model.radius
    length = len(tokens)

    h = reference_mix(rows, g)
    pooled = h.mean(axis=0)
    z = float(model.head_w @ pooled + model.head_b)
    if not np.isfinite(z):
        raise TrainingDivergedError(f"non-finite activation at step {step}", step=step)
    dz = _sigmoid(z) - float(label)
    d_pool = dz * model.head_w

    prefix = np.vstack([np.zeros(rows.shape[1]), np.cumsum(rows, axis=0)])
    d_g = np.empty(len(g))
    for o in range(-radius, radius + 1):
        if o <= 0:
            seg_sum = prefix[length + o] if o < 0 else prefix[length]
        else:
            seg_sum = prefix[length] - prefix[o]
        d_g[o + radius] = float(d_pool @ seg_sum) / length

    coeffs = np.empty(length)
    for j in range(length):
        lo = max(-radius, j - (length - 1))
        hi = min(radius, j)
        coeffs[j] = g[lo + radius : hi + radius + 1].sum()
    d_rows = np.outer(coeffs / length, d_pool)
    d_emb = np.zeros_like(model.embeddings)
    for j, tok in enumerate(tokens):
        if tok in model.word_ids:
            d_emb[model.word_ids[tok]] += d_rows[j]
    return {
        "head_w": dz * pooled,
        "head_b": dz,
        "offset_weights": d_g,
        "embeddings": d_emb,
    }


def reference_train(
    dataset: TimeClfDataset,
    config: EncoderConfig,
    vocabulary: list[str] | None = None,
) -> TimeClassifier:
    """The trained model of `train_time_classifier`: each chunk of
    `_CLF_CHUNK` non-empty train sentences, in the shuffled order, moves
    every parameter by -lr times the sum of its per-example reference
    gradients at the pre-chunk parameters."""
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
    step = 0
    for epoch in range(config.epochs):
        order = [train_idx[int(i)] for i in rng.permutation(len(train_idx))]
        order = [i for i in order if examples[i][0]]
        for start in range(0, len(order), _CLF_CHUNK):
            step += 1
            progress = (epoch + start / len(order)) / config.epochs
            lr = max(lr0 * (1.0 - progress), lr0 * 1e-2)
            total = None
            for i in order[start : start + _CLF_CHUNK]:
                tokens, label = examples[i]
                grads = reference_grads(model, tokens, 1 if label == T2 else 0, step)
                total = grads if total is None else {
                    name: total[name] + grad for name, grad in grads.items()
                }
            model.head_w = model.head_w - lr * total["head_w"]
            model.head_b = model.head_b - lr * total["head_b"]
            model.offset_weights = model.offset_weights - lr * total["offset_weights"]
            model.embeddings = model.embeddings - lr * total["embeddings"]
    return model
