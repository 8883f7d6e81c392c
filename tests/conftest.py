from __future__ import annotations

import os
import tracemalloc

# One BLAS thread per test process, set before numpy loads OpenBLAS. With one
# thread per core, OpenBLAS's threads wait on each other whenever another busy
# process holds a core: on 2 cores beside one busy process, a Procrustes test
# that takes about 1 s took 35-44 s. A value already set in the environment
# wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from lscd.corpus import PERIODS, T1, Corpus, TimeClfDataset


def traced_peak(fn, *args, **kwargs):
    """The peak of the memory that tracemalloc traces while `fn(*args,
    **kwargs)` runs, counted from what was traced when it started, and the
    call's result. numpy traces its array buffers."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def examples(dataset: TimeClfDataset) -> list[tuple[list[str], str]]:
    """(tokens, period) of each example of `dataset`, decoded from its arrays."""
    periods = [PERIODS[t] for t in dataset.is_t2.tolist()]
    return list(zip(dataset.encoded.decode(), periods))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_corpus(sentences: list[str], period: str = T1) -> Corpus:
    return Corpus(sentences=[s.split() for s in sentences], period=period)


def random_sentences(
    rng: np.random.Generator,
    n_sentences: int,
    vocab_size: int = 30,
    prefix: str = "w",
    min_len: int = 3,
    max_len: int = 10,
) -> list[list[str]]:
    words = [f"{prefix}{i}" for i in range(vocab_size)]
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        sentences.append([words[i] for i in rng.integers(0, vocab_size, size=length)])
    return sentences


def random_corpus(
    rng: np.random.Generator,
    n_sentences: int,
    vocab_size: int = 30,
    period: str = T1,
    prefix: str = "w",
    min_len: int = 3,
    max_len: int = 10,
) -> Corpus:
    sentences = random_sentences(rng, n_sentences, vocab_size, prefix, min_len, max_len)
    return Corpus(sentences=sentences, period=period)
