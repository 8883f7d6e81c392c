from __future__ import annotations

import numpy as np
import pytest

from lscd.corpus import T1, Corpus


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
