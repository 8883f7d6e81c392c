"""Corpus ingestion, vocabulary statistics, frequency thresholding and the
balanced time-classification dataset.

Corpora are plain UTF-8 text, one pre-lemmatized sentence per line, tokens
separated by whitespace. Tokenization here is whitespace splitting only.

A corpus, and the classifier's dataset, are stored only in an integer form
(`Encoded`): one int32 id array over all sentences, the sentence offsets into
it, and the word list the ids index. Counting, masking, thresholding, SGNS
pairs, the classifier and use extraction read that form through lookup
tables indexed by id; token lists are decoded from it on demand.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
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

# Sentences per block of the classifier dataset's gather. A block's
# temporaries, an int64 index of its tokens among them, grow with the block,
# not with the corpus.
_GATHER_BLOCK = 2**16


def _check_period(period: str) -> str:
    if period not in PERIODS:
        raise ValueError(f"period must be one of {PERIODS}, got {period!r}")
    return period


@dataclass(frozen=True, eq=False)  # no field-wise ==: it holds arrays
class Encoded:
    """Sentences as ids: sentence i is ids[offsets[i]:offsets[i + 1]], and id
    j stands for words[j]. `encode` lists each distinct token once, in order
    of first occurrence; other builders may list words that do not occur."""

    ids: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more than there are sentences
    words: list[str]

    def counts(self) -> np.ndarray:
        """Occurrences of each word, indexed by id."""
        return np.bincount(self.ids, minlength=len(self.words))

    def decode(self) -> list[list[str]]:
        """The sentences as token lists."""
        tokens = list(map(self.words.__getitem__, self.ids.tolist()))
        bounds = self.offsets.tolist()
        return [tokens[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def encode(sentences: Iterable[list[str]]) -> Encoded:
    """Encode in one pass over `sentences`; no list of every token is built."""
    index: defaultdict[str, int] = defaultdict(lambda: len(index))  # new word: next id
    ids, ends = array("i"), array("q", [0])
    for sentence in sentences:
        ids.extend(map(index.__getitem__, sentence))
        ends.append(len(ids))
    return Encoded(np.frombuffer(ids, np.int32), np.frombuffer(ends, np.int64), list(index))


class Corpus:
    """An ordered collection of tokenized sentences from one time period,
    stored only as its integer form."""

    def __init__(self, sentences: Iterable[list[str]], period: str):
        self.period = _check_period(period)
        self.encoded = encode(sentences)

    @property
    def sentences(self) -> list[list[str]]:
        """The token lists, decoded anew on each access."""
        return self.encoded.decode()

    @property
    def sentence_count(self) -> int:
        return len(self.encoded.offsets) - 1

    def token_set(self) -> set[str]:
        return set(self.encoded.words)


def load_corpus(path: str | Path, period: str) -> Corpus:
    """Read a corpus file: one sentence per line, blank lines dropped.

    Raises OSError for unreadable files and EmptyCorpusError when the file
    has no non-empty line.
    """
    with open(path, encoding="utf-8") as fh:
        corpus = Corpus(filter(None, map(str.split, fh)), period)
    if not corpus.sentence_count:
        raise EmptyCorpusError(f"no non-empty sentences in {path}")
    return corpus


def load_targets(path: str | Path) -> list[str]:
    """Read the target list: one word per line, order preserved, no
    duplicates, at least one word."""
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
    if not targets:
        raise ValueError(f"no targets in {path}")
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


def build_vocabulary(corpus_t1: Corpus, corpus_t2: Corpus) -> Vocabulary:
    """Count word frequencies over both corpora; ids are dense and ordered by
    descending total count (ties broken alphabetically)."""
    c1, c2 = (
        Counter(dict(zip(c.encoded.words, c.encoded.counts().tolist())))
        for c in (corpus_t1, corpus_t2)
    )
    words = sorted(c1.keys() | c2.keys(), key=lambda w: (-(c1[w] + c2[w]), w))
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
    enc = corpus.encoded
    # A word absent from `vocab` looks up the appended count 0.
    totals = np.append(vocab.count_t1 + vocab.count_t2, 0)
    rows = [vocab.word_ids.get(w, -1) for w in enc.words]
    keep_word = totals[np.array(rows, dtype=np.int64)] >= threshold
    keep_word[[i for i, w in enumerate(enc.words) if w in exempt]] = True
    keep = keep_word[enc.ids]
    kept = enc.ids[keep]
    # The corpus's ids follow first occurrence (encode), and so do the kept
    # words' ids: renumbering them in order keeps what encode would give.
    present = np.flatnonzero(np.bincount(kept, minlength=len(enc.words)))
    renumber = np.zeros(len(enc.words), dtype=np.int32)
    renumber[present] = np.arange(len(present))
    # Sentence i keeps the tokens between bounds[i] and bounds[i + 1]; an
    # emptied sentence repeats a bound, and np.unique drops it.
    bounds = np.r_[0, np.cumsum(keep)][enc.offsets]
    words = [enc.words[i] for i in present.tolist()]
    filtered = Corpus((), corpus.period)
    filtered.encoded = Encoded(renumber[kept], np.unique(bounds), words)
    return filtered


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


@dataclass(eq=False)  # no field-wise ==: it holds arrays
class TimeClfDataset:
    """Balanced sentence-classification examples labeled with their period.
    Example i is sentence i of `encoded`; is_t2[i] says it comes from the
    second period and train[i] that it is in the train split."""

    encoded: Encoded
    is_t2: np.ndarray  # bool
    train: np.ndarray  # bool
    masked: bool
    mask_token: str

    def __post_init__(self):
        if not len(self.encoded.offsets) - 1 == len(self.is_t2) == len(self.train):
            raise ValueError("encoded, is_t2 and train must have equal length")

    def indices(self, split: str) -> np.ndarray:
        """The examples of `split` (TRAIN or TEST), in order."""
        if split not in (TRAIN, TEST):
            raise ValueError(f"split must be {TRAIN!r} or {TEST!r}, got {split!r}")
        return np.flatnonzero(self.train == (split == TRAIN))

    def label_counts(self, split: str | None = None) -> dict[str, int]:
        is_t2 = self.is_t2 if split is None else self.is_t2[self.indices(split)]
        n_t2 = int(np.count_nonzero(is_t2))
        return {T1: len(is_t2) - n_t2, T2: n_t2}


def _gather(ids: np.ndarray, offsets: np.ndarray, sentences: np.ndarray):
    """The ids of `sentences` (sentence i is ids[offsets[i]:offsets[i + 1]])
    laid end to end, and their lengths. The index is shifted in place, so
    no third array as long as the result is alive at once."""
    lengths = offsets[sentences + 1] - offsets[sentences]
    index = np.repeat(offsets[sentences] - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(len(index))
    return ids[index], lengths


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
    corpora = (corpus_t1, corpus_t2)
    if corpus_t1.sentence_count == 0 or corpus_t2.sentence_count == 0:
        raise EmptyCorpusError("both corpora must be non-empty")
    rng = np.random.default_rng(seed)
    unique: set[str] = set()
    if masked:
        if mask_token is None:
            mask_token = choose_mask_token(corpus_t1, corpus_t2)
        unique = corpus_unique_tokens(corpus_t1, corpus_t2)
    elif mask_token is None:
        mask_token = DEFAULT_MASK_TOKEN

    # Sentence g < n1 of both corpora together is corpus_t1's sentence g.
    n1 = corpus_t1.sentence_count
    n = min(n1, corpus_t2.sentence_count)
    picked = []
    for first, corpus in zip((0, n1), corpora):
        idx = np.arange(n)
        if corpus.sentence_count != n:
            idx = np.sort(rng.choice(corpus.sentence_count, size=n, replace=False))
        picked.append(first + idx)
    # Stratified split: the same number of training examples per label keeps
    # both the split ratio and the per-split balance.
    n_train = round(0.8 * n)
    train = np.zeros(2 * n, dtype=bool)
    for first in (0, n):
        train[first + rng.permutation(n)[:n_train]] = True
    order = rng.permutation(2 * n)
    chosen, train = np.concatenate(picked)[order], train[order]

    # The chosen sentences' ids, over both corpora's joint (masked) words.
    encs = [c.encoded for c in corpora]
    own = [[mask_token if w in unique else w for w in e.words] for e in encs]
    words = list(dict.fromkeys(own[0] + own[1]))
    index = {w: i for i, w in enumerate(words)}
    tables = [np.array([index[w] for w in o], dtype=np.int32) for o in own]
    lengths = np.r_[np.diff(encs[0].offsets), np.diff(encs[1].offsets)][chosen]
    offsets = np.r_[0, np.cumsum(lengths)]
    ids = np.empty(offsets[-1], dtype=np.int32)
    # Block by block, each corpus's sentences in the block are gathered from
    # its own ids, through its own table, into their places in `ids`: no copy
    # of both corpora's ids and no index over every chosen token is made.
    for start in range(0, 2 * n, _GATHER_BLOCK):
        block = chosen[start : start + _GATHER_BLOCK]
        in_t2 = block >= n1
        out = ids[offsets[start] : offsets[start + len(block)]]
        from_t2 = np.repeat(in_t2, lengths[start : start + len(block)])
        for flag, first, table, enc in zip((False, True), (0, n1), tables, encs):
            sentences = block[in_t2 == flag] - first
            out[from_t2 == flag] = table[_gather(enc.ids, enc.offsets, sentences)[0]]
    dataset = TimeClfDataset(
        encoded=Encoded(ids, offsets, words),
        is_t2=chosen >= n1,
        train=train,
        masked=masked,
        mask_token=mask_token,
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


def _load_array(path: Path, mmap_mode: str | None = None) -> np.ndarray:
    """The float64 matrix in the `.npy` file `path`, read without pickle
    support (or mapped, with `mmap_mode`); any other content raises
    FormatError naming the file."""
    try:
        array = np.load(path, mmap_mode=mmap_mode, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"corrupt array file {path}: {exc}") from exc
    if array.ndim != 2 or array.dtype != np.float64:
        raise FormatError(
            f"array file {path} holds a {array.dtype} array of shape "
            f"{array.shape}, not a float64 matrix"
        )
    return array


def _iter_lines(path: Path) -> Iterator[str]:
    """The lines of `path`, one at a time, each of which the writer ended
    with a newline; a file whose last line lacks it was cut off and raises
    FormatError when that line is reached."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                if not line.endswith("\n"):
                    raise FormatError(f"{path} is cut off: its last line has no newline")
                yield line[:-1]
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_lines(path: Path) -> list[str]:
    """Every line of `path` (see _iter_lines)."""
    return list(_iter_lines(path))
