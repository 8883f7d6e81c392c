"""Corpus ingestion, vocabulary statistics, frequency thresholding and the
balanced time-classification dataset.

Corpora are plain UTF-8 text, one pre-lemmatized sentence per line, tokens
separated by whitespace. Tokenization here is whitespace splitting only.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError, EmptyCorpusError, FormatError

T1 = "t1"
T2 = "t2"
PERIODS = (T1, T2)

TRAIN = "train"
TEST = "test"

DEFAULT_MASK_TOKEN = "[MASK]"

# A sentence threshold below which frequency filtering is skipped entirely,
# and the divisor that turns a sentence count into a frequency threshold.
THRESHOLD_SKIP_BELOW = 10**6
THRESHOLD_DIVISOR = 5 * 10**4


def _check_period(period: str) -> str:
    if period not in PERIODS:
        raise ValueError(f"period must be one of {PERIODS}, got {period!r}")
    return period


@dataclass
class Corpus:
    """An ordered collection of tokenized sentences from one time period."""

    sentences: list[list[str]]
    period: str

    def __post_init__(self):
        _check_period(self.period)

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)

    def iter_tokens(self):
        for sentence in self.sentences:
            yield from sentence

    def token_set(self) -> set[str]:
        return set(self.iter_tokens())


def load_corpus(path: str | Path, period: str) -> Corpus:
    """Read a corpus file: one sentence per line, blank lines dropped.

    Raises OSError for unreadable files and EmptyCorpusError when the file
    has no non-empty line.
    """
    _check_period(period)
    sentences: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                # Interning keeps repeated tokens from duplicating storage
                # at corpus scale.
                sentences.append([sys.intern(t) for t in tokens])
    if not sentences:
        raise EmptyCorpusError(f"no non-empty sentences in {path}")
    return Corpus(sentences=sentences, period=period)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in its file format: one sentence per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in corpus.sentences:
            fh.write(" ".join(sentence) + "\n")


def load_targets(path: str | Path) -> list[str]:
    """Read the target list: one word per line, order preserved, no duplicates."""
    targets: list[str] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            word = line.strip()
            if not word:
                continue
            if word in seen:
                raise ValueError(f"duplicate target {word!r} at line {i} of {path}")
            seen.add(word)
            targets.append(word)
    return targets


@dataclass
class Vocabulary:
    """Joint vocabulary over both corpora with per-period frequency counts."""

    words: list[str]
    word_ids: dict[str, int]
    count_t1: np.ndarray
    count_t2: np.ndarray

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_ids

    def total_count(self, word: str) -> int:
        idx = self.word_ids.get(word)
        if idx is None:
            return 0
        return int(self.count_t1[idx] + self.count_t2[idx])


def build_vocabulary(corpus_t1: Corpus, corpus_t2: Corpus) -> Vocabulary:
    """Count word frequencies over both corpora; ids are dense and ordered by
    descending total count (ties broken alphabetically)."""
    c1 = Counter(corpus_t1.iter_tokens())
    c2 = Counter(corpus_t2.iter_tokens())
    words = sorted(set(c1) | set(c2), key=lambda w: (-(c1[w] + c2[w]), w))
    word_ids = {w: i for i, w in enumerate(words)}
    count_t1 = np.array([c1[w] for w in words], dtype=np.int64)
    count_t2 = np.array([c2[w] for w in words], dtype=np.int64)
    return Vocabulary(words, word_ids, count_t1, count_t2)


def frequency_threshold(total_sentences: int) -> int | None:
    """Minimum total frequency a word must reach to be kept, or None when the
    combined corpus is too small (fewer than 10^6 sentences) and filtering is
    skipped to preserve information."""
    if total_sentences < 0:
        raise ValueError("total_sentences must be nonnegative")
    if total_sentences < THRESHOLD_SKIP_BELOW:
        return None
    return total_sentences // THRESHOLD_DIVISOR


def apply_threshold(
    corpus: Corpus,
    vocab: Vocabulary,
    threshold: int,
    targets: list[str] | tuple[str, ...] = (),
) -> Corpus:
    """Remove token occurrences whose summed frequency over both corpora is
    strictly below `threshold`. Target words are never removed (a dropped
    target would be unscorable). Sentences emptied by removal are dropped.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if threshold == 0:
        return corpus
    exempt = set(targets)
    kept: list[list[str]] = []
    for sentence in corpus.sentences:
        filtered = [
            t for t in sentence if t in exempt or vocab.total_count(t) >= threshold
        ]
        if filtered:
            kept.append(filtered)
    return Corpus(sentences=kept, period=corpus.period)


def corpus_unique_tokens(corpus_t1: Corpus, corpus_t2: Corpus) -> set[str]:
    """Tokens that occur in exactly one of the two corpora."""
    s1 = corpus_t1.token_set()
    s2 = corpus_t2.token_set()
    return s1 ^ s2


def choose_mask_token(
    corpus_t1: Corpus, corpus_t2: Corpus, base: str = DEFAULT_MASK_TOKEN
) -> str:
    """Pick a mask token guaranteed absent from both corpora."""
    present = corpus_t1.token_set() | corpus_t2.token_set()
    token = base
    while token in present:
        token += "#"
    return token


@dataclass
class TimeClfDataset:
    """Balanced sentence-classification examples labeled with their period."""

    examples: list[tuple[list[str], str]]
    splits: list[str]  # TRAIN or TEST, parallel to examples
    masked: bool
    mask_token: str

    def __post_init__(self):
        if len(self.examples) != len(self.splits):
            raise ValueError("examples and splits must have equal length")

    def indices(self, split: str) -> list[int]:
        return [i for i, s in enumerate(self.splits) if s == split]

    def label_counts(self, split: str | None = None) -> dict[str, int]:
        counts = {T1: 0, T2: 0}
        for (_, label), s in zip(self.examples, self.splits):
            if split is None or s == split:
                counts[label] += 1
        return counts


def build_clf_dataset(
    corpus_t1: Corpus,
    corpus_t2: Corpus,
    masked: bool,
    seed: int,
    mask_token: str | None = None,
) -> TimeClfDataset:
    """Build the balanced binary time-classification dataset.

    The larger corpus is downsampled uniformly at random (seeded) to the
    smaller corpus's size, a stratified 0.8/0.2 train/test split is assigned,
    and, when `masked` is set, every token occurring in exactly one corpus
    is replaced by the mask token before splitting.
    """
    if corpus_t1.sentence_count == 0 or corpus_t2.sentence_count == 0:
        raise EmptyCorpusError("both corpora must be non-empty")
    rng = np.random.default_rng(seed)

    sents1 = corpus_t1.sentences
    sents2 = corpus_t2.sentences
    if masked:
        if mask_token is None:
            mask_token = choose_mask_token(corpus_t1, corpus_t2)
        unique = corpus_unique_tokens(corpus_t1, corpus_t2)
        sents1 = [[mask_token if t in unique else t for t in s] for s in sents1]
        sents2 = [[mask_token if t in unique else t for t in s] for s in sents2]
    elif mask_token is None:
        mask_token = DEFAULT_MASK_TOKEN

    n = min(len(sents1), len(sents2))

    def _downsample(sentences: list[list[str]]) -> list[list[str]]:
        if len(sentences) == n:
            return list(sentences)
        idx = rng.choice(len(sentences), size=n, replace=False)
        idx.sort()
        return [sentences[i] for i in idx]

    kept1 = _downsample(sents1)
    kept2 = _downsample(sents2)

    examples = [(s, T1) for s in kept1] + [(s, T2) for s in kept2]

    # Stratified split: the same number of training examples per label keeps
    # both the split ratio and the per-split balance.
    n_train = round(0.8 * n)
    splits = [TEST] * len(examples)
    for offset in (0, n):
        perm = rng.permutation(n)
        for i in perm[:n_train]:
            splits[offset + int(i)] = TRAIN

    order = rng.permutation(len(examples))
    examples = [examples[int(i)] for i in order]
    splits = [splits[int(i)] for i in order]

    dataset = TimeClfDataset(
        examples=examples, splits=splits, masked=masked, mask_token=mask_token
    )
    _check_balance(dataset)
    return dataset


def _check_balance(dataset: TimeClfDataset) -> None:
    for split in (None, TRAIN, TEST):
        counts = dataset.label_counts(split)
        if abs(counts[T1] - counts[T2]) > 1:
            raise DatasetError(
                f"unbalanced labels in split {split or 'all'}: {counts}"
            )


def write_dataset_tsv(dataset: TimeClfDataset, path: str | Path) -> None:
    """Debug export: one example per line as label, split, sentence."""
    with open(path, "w", encoding="utf-8") as fh:
        for (tokens, label), split in zip(dataset.examples, dataset.splits):
            fh.write(f"{label}\t{split}\t{' '.join(tokens)}\n")


def read_dataset_tsv(path: str | Path, masked: bool, mask_token: str) -> TimeClfDataset:
    """Inverse of write_dataset_tsv; mask metadata is not stored in the file."""
    examples: list[tuple[list[str], str]] = []
    splits: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            label, split, sentence = line.rstrip("\n").split("\t")
            examples.append((sentence.split(), label))
            splits.append(split)
    return TimeClfDataset(
        examples=examples, splits=splits, masked=masked, mask_token=mask_token
    )


def parse_rows(
    rows: list[str], lines: list[int], width: int | None = None
) -> np.ndarray:
    """The whitespace-separated numbers of `rows` (written with `%.9g`) as
    one (len(rows), width) array, parsed by one np.loadtxt call, which rounds
    exactly as float() does. `width` defaults to the first row's length.
    Only when that call fails or yields another shape does a per-row pass
    run, to raise FormatError with the line number (`lines`) of the bad row.
    """
    if not rows:
        return np.empty((0, width or 0))
    try:
        values = np.loadtxt(rows, ndmin=2, comments=None)
        if len(values) == len(rows) and width in (None, values.shape[1]):
            return values
    except ValueError:
        pass
    parsed = []
    for i, text in zip(lines, rows):
        try:
            row = [float(x) for x in text.split()]
        except ValueError as exc:
            raise FormatError("malformed number", line=i) from exc
        width = len(row) if width is None else width
        if len(row) != width:
            raise FormatError(f"expected {width} numbers, got {len(row)}", line=i)
        parsed.append(row)
    return np.array(parsed, dtype=float)
