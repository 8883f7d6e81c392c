"""Synthetic benchmark corpora with known graded semantic shifts.

Two corpora are generated from two disjoint context-vocabulary pools A and
B. Pseudo-target i occurs only inside A-contexts in the first period; in
the second period each of its sentences uses B-contexts with probability
degrees[i] and A-contexts otherwise. The degrees therefore induce the true
change ranking, which lets the whole pipeline be scored end to end without
human annotations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import T1, T2, Corpus, write_corpus
from .ensemble import CHANGED, Ranking, average_ranks, binarize

_COMMON_WORDS = 150
_POOL_WORDS = 60
_TARGET_SENTENCE_FRACTION = 0.3
# Background sentence mix: neutral filler plus one "topic" per context pool.
# Both corpora share the same background distribution, which anchors the
# pool words for alignment while giving each pool its own distinctive
# co-occurrence signature (so A-contexts and B-contexts are far apart).
_TOPIC_RATE = 0.35


@dataclass
class SyntheticBenchmark:
    """Generated corpus pair plus the ground truth that produced it."""

    corpus_t1: Corpus
    corpus_t2: Corpus
    targets: list[str]
    degrees: list[float]
    seed: int


def generate_shift_benchmark(
    n_targets: int,
    degrees: list[float] | None,
    base_sentences: int,
    seed: int,
    min_occurrences: int = 20,
) -> SyntheticBenchmark:
    """Build two corpora of `base_sentences` sentences each with one
    pseudo-target per entry of `degrees` (None: evenly spaced in [0, 1])."""
    if n_targets < 1:
        raise ValueError(f"n_targets must be at least 1, got {n_targets}")
    if base_sentences < 1:
        raise ValueError(f"base_sentences must be at least 1, got {base_sentences}")
    if degrees is None:
        degrees = np.linspace(0.0, 1.0, n_targets).tolist()
    if len(degrees) != n_targets:
        raise ValueError(
            f"degrees has {len(degrees)} entries but n_targets is {n_targets}"
        )
    if any(not 0.0 <= d <= 1.0 for d in degrees):
        raise ValueError("degrees must lie in [0, 1]")
    rng = np.random.default_rng(seed)

    common = [f"w{i:03d}" for i in range(_COMMON_WORDS)]
    pool_a = [f"a{i:03d}" for i in range(_POOL_WORDS)]
    pool_b = [f"b{i:03d}" for i in range(_POOL_WORDS)]
    targets = [f"target{i:02d}" for i in range(n_targets)]

    per_target = max(
        min_occurrences,
        int(_TARGET_SENTENCE_FRACTION * base_sentences / n_targets),
    )
    if per_target * n_targets > base_sentences:
        raise ValueError(
            f"base_sentences={base_sentences} too small for {n_targets} targets "
            f"at {min_occurrences} occurrences each"
        )
    n_background = base_sentences - per_target * n_targets

    # Zipf-ish weights make the common pool look like natural filler text.
    common_w = 1.0 / np.arange(1, len(common) + 1)
    common_w /= common_w.sum()
    # The CDF that `Generator.choice(p=common_w)` builds on every call: a
    # common word is the CDF bucket of one uniform double, so searching it
    # with the same doubles yields the same words as `choice` would.
    cumulative = common_w.cumsum()
    common_cdf = (cumulative / cumulative[-1]).tolist()

    def _common(u: list[float]) -> list[str]:
        return [common[bisect_right(common_cdf, x)] for x in u]

    def _background_sentence() -> list[str]:
        length = int(rng.integers(8, 13))
        draw = rng.random()
        if draw < _TOPIC_RATE:
            topic = pool_a
        elif draw < 2 * _TOPIC_RATE:
            topic = pool_b
        else:
            return _common(rng.random(length).tolist())
        # One step per token: an integer draw takes a buffered 32-bit half
        # of the stream, so it cannot be batched across the doubles between.
        words = []
        for _ in range(length):
            if rng.random() < 0.5:
                words.append(topic[rng.integers(0, len(topic))])
            else:
                words += _common([rng.random()])
        return words

    def _target_sentence(target: str, use_b_prob: float) -> list[str]:
        # Pool words adjacent to the target so even small windows see them;
        # two pool slots keep target sentences a minor share of each pool
        # word's occurrences (topic backgrounds anchor the pools).
        # The first double picks the context pool, the next three the
        # common words before the target.
        u = rng.random(4).tolist()
        pool = pool_b if u[0] < use_b_prob else pool_a
        left = pool[rng.integers(0, len(pool))]
        right = pool[rng.integers(0, len(pool))]
        tail = _common(rng.random(3).tolist())
        return _common(u[1:]) + [left, target, right] + tail

    def _build(period: str, use_b_prob: list[float]) -> Corpus:
        sentences = [
            _target_sentence(targets[i], use_b_prob[i])
            for i in range(n_targets)
            for _ in range(per_target)
        ]
        sentences.extend(_background_sentence() for _ in range(n_background))
        order = rng.permutation(len(sentences))
        return Corpus(sentences=[sentences[int(i)] for i in order], period=period)

    corpus_t1 = _build(T1, [0.0] * n_targets)
    corpus_t2 = _build(T2, list(degrees))
    return SyntheticBenchmark(
        corpus_t1=corpus_t1,
        corpus_t2=corpus_t2,
        targets=targets,
        degrees=list(degrees),
        seed=seed,
    )


def true_binary_labels(benchmark: SyntheticBenchmark) -> dict[str, int]:
    """Binary ground truth: the upper half of the true degree ranking."""
    ranks = average_ranks(np.array(benchmark.degrees))
    ranking = Ranking(
        ranks={w: float(r) for w, r in zip(benchmark.targets, ranks)},
        source="true_degrees",
    )
    labels = binarize(ranking)
    return {w: 1 if labels[w] == CHANGED else 0 for w in benchmark.targets}


def write_benchmark(benchmark: SyntheticBenchmark, out_dir: str | Path) -> dict[str, Path]:
    """Write corpus, target and gold files; returns the path of each piece.
    The labels are derived first, so a benchmark they reject writes nothing."""
    binary = true_binary_labels(benchmark)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus_t1": out / "corpus_t1.txt",
        "corpus_t2": out / "corpus_t2.txt",
        "targets": out / "targets.txt",
        "gold": out / "gold.tsv",
        "binary_gold": out / "gold_binary.tsv",
    }
    write_corpus(benchmark.corpus_t1, paths["corpus_t1"])
    write_corpus(benchmark.corpus_t2, paths["corpus_t2"])
    with open(paths["targets"], "w", encoding="utf-8") as fh:
        for word in benchmark.targets:
            fh.write(word + "\n")
    with open(paths["gold"], "w", encoding="utf-8") as fh:
        for word, degree in zip(benchmark.targets, benchmark.degrees):
            fh.write(f"{word}\t{format(degree, '.9g')}\n")
    with open(paths["binary_gold"], "w", encoding="utf-8") as fh:
        for word in benchmark.targets:
            fh.write(f"{word}\t{binary[word]}\n")
    return paths
