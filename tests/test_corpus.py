from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscd.corpus import (
    T1,
    T2,
    TEST,
    TRAIN,
    Corpus,
    Encoded,
    TimeClfDataset,
    apply_threshold,
    build_clf_dataset,
    build_vocabulary,
    choose_mask_token,
    encode,
    frequency_threshold,
    load_corpus,
    load_targets,
    write_dataset_tsv,
)
from lscd.errors import EmptyCorpusError

from conftest import make_corpus, random_corpus, random_sentences


class TestLoadCorpus:
    def test_blank_lines_dropped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc\n", encoding="utf-8")
        corpus = load_corpus(path, T1)
        assert corpus.sentence_count == 2
        assert corpus.sentences == [["a", "b"], ["c"]]

    def test_token_order_preserved(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("z y x w\n", encoding="utf-8")
        assert load_corpus(path, T2).sentences[0] == ["z", "y", "x", "w"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("\n\n  \n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_corpus(path, T1)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "missing.txt", T1)

    def test_large_line_count(self, tmp_path):
        # Line-count fidelity at scale: every non-blank line is one sentence.
        n = 200_000
        path = tmp_path / "big.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(f"tok{i % 97} other\n")
        assert load_corpus(path, T1).sentence_count == n

    def test_bad_period(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(path, "t3")

    def test_roundtrip(self, tmp_path):
        corpus = make_corpus(["a b c", "d e", "e a"])
        path = tmp_path / "c.txt"
        path.write_text("".join(" ".join(s) + "\n" for s in corpus.sentences))
        again = load_corpus(path, T1)
        assert again.sentences == corpus.sentences == [["a", "b", "c"], ["d", "e"], ["e", "a"]]
        assert again.encoded.words == corpus.encoded.words

    def test_only_the_integer_form_is_stored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc a\n", encoding="utf-8")
        corpus = load_corpus(path, T1)
        assert vars(corpus).keys() == {"period", "encoded"}
        assert corpus.encoded.words == ["a", "b", "c"]
        assert corpus.encoded.ids.tolist() == [0, 1, 2, 0]
        assert corpus.encoded.offsets.tolist() == [0, 2, 4]


sentence_lists = st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "é"]), max_size=6))


class TestEncode:
    @given(sentence_lists)
    @settings(max_examples=80, deadline=None)
    def test_decode_inverts_encode(self, sentences):
        enc = encode(sentences)
        assert enc.decode() == sentences
        assert enc.words == list(dict.fromkeys(chain.from_iterable(sentences)))
        assert enc.ids.dtype == np.int32 and enc.offsets.dtype == np.int64
        assert enc.offsets.tolist() == [0, *np.cumsum([len(s) for s in sentences])]

    def test_reads_an_iterator_once(self):
        enc = encode(iter([["x", "y"], [], ["y"]]))
        assert enc.decode() == [["x", "y"], [], ["y"]]

    def test_equality_is_identity(self):
        # Field-wise == would compare the id arrays and raise.
        enc = encode([["a", "b"]])
        assert (enc == encode([["a", "b"]])) is False
        assert (enc == enc) is True


class TestTargets:
    def test_order_preserved(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text("zebra\napple\nmango\n", encoding="utf-8")
        assert load_targets(path) == ["zebra", "apple", "mango"]

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text("a\nb\na\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_targets(path)


class TestFrequencyThreshold:
    def test_above_cutoff(self):
        assert frequency_threshold(6_100_000) == 122

    def test_below_cutoff_skipped(self):
        assert frequency_threshold(600_000) is None

    def test_exact_boundary(self):
        # "fewer than 10^6" excludes equality, so the threshold applies.
        assert frequency_threshold(1_000_000) == 20

    def test_just_below_boundary(self):
        assert frequency_threshold(999_999) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            frequency_threshold(-1)


def threshold_round_trip(corpus, vocab, threshold, targets):
    """Reference: decode the kept ids to token lists, drop the emptied
    sentences and encode the rest again."""
    exempt = set(targets)
    enc = corpus.encoded
    keep = np.array(
        [w in exempt or vocab.total_count(w) >= threshold for w in enc.words], dtype=bool
    )[enc.ids]
    bounds = np.r_[0, np.cumsum(keep)][enc.offsets]
    return encode(filter(None, Encoded(enc.ids[keep], bounds, enc.words).decode()))


class TestApplyThreshold:
    def test_matches_token_list_round_trip(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            vocab_size = int(rng.integers(1, 20))
            words = [f"w{i}" for i in range(vocab_size)]
            lengths = rng.integers(0, 9, size=int(rng.integers(0, 30)))
            # Skewed draws, so that thresholds split frequent from rare words.
            p = 1.0 / np.arange(1, vocab_size + 1)
            draws = [rng.choice(vocab_size, size=n, p=p / p.sum()) for n in lengths]
            sentences = [[words[i] for i in d] for d in draws]
            corpus = Corpus(sentences, T1)
            # Every third vocabulary comes from other corpora, so that some
            # of this corpus's words are absent from it.
            other = Corpus(random_sentences(rng, 10, vocab_size=8), T2)
            vocab = build_vocabulary(corpus if trial % 3 else other, other)
            threshold = int(rng.integers(1, 12))
            picks = rng.integers(0, vocab_size + 1, size=int(rng.integers(0, 4)))
            targets = [(words + ["absent"])[i] for i in picks]
            got = apply_threshold(corpus, vocab, threshold, targets).encoded
            want = threshold_round_trip(corpus, vocab, threshold, targets)
            assert got.words == want.words
            assert got.ids.dtype == want.ids.dtype == np.int32
            assert np.array_equal(got.ids, want.ids)
            assert got.offsets.dtype == want.offsets.dtype == np.int64
            assert np.array_equal(got.offsets, want.offsets)

    def _vocab(self, *corpora):
        c1 = corpora[0]
        c2 = corpora[1] if len(corpora) > 1 else Corpus([["x"]], T2)
        return build_vocabulary(c1, c2)

    def test_zero_threshold_is_identity(self):
        corpus = make_corpus(["a b", "a c"])
        vocab = self._vocab(corpus)
        assert apply_threshold(corpus, vocab, 0) is corpus

    def test_hand_enumerated_removal(self):
        # counts: a:2, b:1, c:1 (plus the placeholder x in t2); threshold 2
        # removes b and c, leaving ["a"], ["a"].
        corpus = make_corpus(["a b", "a c"])
        vocab = self._vocab(corpus)
        out = apply_threshold(corpus, vocab, 2)
        assert out.sentences == [["a"], ["a"]]

    def test_targets_exempt(self):
        corpus = make_corpus(["a b", "a c"])
        vocab = self._vocab(corpus)
        out = apply_threshold(corpus, vocab, 2, targets=["b"])
        assert out.sentences == [["a", "b"], ["a"]]

    def test_emptied_sentences_dropped(self):
        corpus = make_corpus(["a b", "c"])
        vocab = self._vocab(corpus)
        out = apply_threshold(corpus, vocab, 2)
        assert out.sentences == [["a"]] or out.sentences == []

    def test_counts_summed_over_both_corpora(self):
        c1 = make_corpus(["a b"], T1)
        c2 = make_corpus(["b b b"], T2)
        vocab = build_vocabulary(c1, c2)
        # b has total count 4, a only 1.
        out = apply_threshold(c1, vocab, 2)
        assert out.sentences == [["b"]]

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_vocab_size_monotone_in_threshold(self, threshold, seed):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, 25, vocab_size=15)
        vocab = build_vocabulary(corpus, random_corpus(rng, 5, vocab_size=15, period=T2))
        smaller = apply_threshold(corpus, vocab, threshold + 1)
        larger = apply_threshold(corpus, vocab, threshold)
        assert smaller.token_set() <= larger.token_set()


class TestVocabulary:
    def test_counts_and_ids(self):
        c1 = make_corpus(["a b a"], T1)
        c2 = make_corpus(["b c"], T2)
        vocab = build_vocabulary(c1, c2)
        assert sorted(vocab.word_ids.values()) == [0, 1, 2]
        assert vocab.total_count("a") == 2
        assert vocab.total_count("b") == 2
        assert vocab.total_count("c") == 1
        assert vocab.total_count("zzz") == 0
        assert all(
            vocab.count_t1[i] + vocab.count_t2[i] >= 1 for i in range(len(vocab))
        )


class TestBuildClfDataset:
    def test_balancing_downsamples_larger(self, rng):
        c1 = random_corpus(rng, 100, period=T1)
        c2 = random_corpus(rng, 300, period=T2)
        ds = build_clf_dataset(c1, c2, masked=False, seed=0)
        assert len(ds.examples) == 200
        counts = ds.label_counts()
        assert counts[T1] == 100 and counts[T2] == 100

    def test_split_ratio(self, rng):
        c1 = random_corpus(rng, 100, period=T1)
        c2 = random_corpus(rng, 100, period=T2)
        ds = build_clf_dataset(c1, c2, masked=False, seed=0)
        n_train = len(ds.indices(TRAIN))
        assert abs(n_train - 0.8 * len(ds.examples)) <= 1

    def test_no_token_lists_stored(self, rng):
        c1 = random_corpus(rng, 30, period=T1)
        c2 = random_corpus(rng, 40, period=T2, prefix="v")
        for masked in (False, True):
            ds = build_clf_dataset(c1, c2, masked=masked, seed=0)
            assert vars(ds).keys() == {"encoded", "labels", "splits", "masked", "mask_token"}
            assert len(ds.labels) == len(ds.splits) == 60
            assert set(ds.labels) == {T1, T2}

    def test_lengths_must_agree(self):
        enc = encode([["a"], ["b"]])
        with pytest.raises(ValueError, match="equal length"):
            TimeClfDataset(enc, [T1], [TRAIN, TEST], masked=False, mask_token="[MASK]")
        with pytest.raises(ValueError, match="equal length"):
            TimeClfDataset(enc, [T1, T2, T1], [TRAIN, TEST, TEST], False, "[MASK]")

    def test_masking_replaces_unique_tokens(self, rng):
        c1 = Corpus([["shared", "only1"], ["shared", "x"]], T1)
        c2 = Corpus([["shared", "zeppelin"], ["x", "shared"]], T2)
        ds = build_clf_dataset(c1, c2, masked=True, seed=1)
        tokens = {t for tokens, _ in ds.examples for t in tokens}
        assert "zeppelin" not in tokens and "only1" not in tokens
        assert ds.mask_token in tokens

    def test_unmasked_keeps_source_tokens(self, rng):
        c1 = random_corpus(rng, 40, period=T1, prefix="a")
        c2 = random_corpus(rng, 40, period=T2, prefix="b")
        ds = build_clf_dataset(c1, c2, masked=False, seed=1)
        source = {tuple(s) for s in c1.sentences} | {tuple(s) for s in c2.sentences}
        assert all(tuple(tokens) in source for tokens, _ in ds.examples)

    def test_determinism(self, rng):
        c1 = random_corpus(rng, 60, period=T1)
        c2 = random_corpus(rng, 90, period=T2)
        a = build_clf_dataset(c1, c2, masked=True, seed=7)
        b = build_clf_dataset(c1, c2, masked=True, seed=7)
        assert a.examples == b.examples and a.splits == b.splits

    def test_different_seeds_differ(self, rng):
        c1 = random_corpus(rng, 60, period=T1)
        c2 = random_corpus(rng, 90, period=T2)
        a = build_clf_dataset(c1, c2, masked=False, seed=7)
        b = build_clf_dataset(c1, c2, masked=False, seed=8)
        assert a.examples != b.examples or a.splits != b.splits

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_balance_any_sizes_any_seed(self, n1, n2, seed):
        gen = np.random.default_rng(seed)
        c1 = random_corpus(gen, n1, vocab_size=10, period=T1)
        c2 = random_corpus(gen, n2, vocab_size=10, period=T2)
        ds = build_clf_dataset(c1, c2, masked=False, seed=seed)
        for split in (None, TRAIN, TEST):
            counts = ds.label_counts(split)
            assert abs(counts[T1] - counts[T2]) <= 1
        assert abs(len(ds.indices(TRAIN)) - 0.8 * len(ds.examples)) <= 1

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_mask_completeness(self, seed):
        gen = np.random.default_rng(seed)
        s1 = random_sentences(gen, 30, vocab_size=12, prefix="s")
        s2 = random_sentences(gen, 40, vocab_size=12, prefix="s")
        # Sprinkle some corpus-unique tokens into both sides.
        s1[0].append("unique_one")
        s2[0].append("unique_two")
        unique = set(chain.from_iterable(s1)) ^ set(chain.from_iterable(s2))
        ds = build_clf_dataset(Corpus(s1, T1), Corpus(s2, T2), masked=True, seed=seed)
        assert ds.mask_token not in set(chain.from_iterable(s1 + s2))

        # Each example is one source sentence of its period, each source
        # sentence used at most once, with every corpus-unique token masked.
        def masked(sentences):
            return Counter(
                tuple(ds.mask_token if t in unique else t for t in s) for s in sentences
            )

        got = {T1: Counter(), T2: Counter()}
        for tokens, label in ds.examples:
            got[label][tuple(tokens)] += 1
        assert sum(got[T1].values()) == sum(got[T2].values()) == 30
        assert got[T1] == masked(s1)  # the smaller corpus is taken whole
        assert not got[T2] - masked(s2)

    def test_mask_token_avoids_collision(self):
        c1 = Corpus([["[MASK]", "a"]], T1)
        c2 = Corpus([["a", "b"]], T2)
        token = choose_mask_token(c1, c2)
        assert token != "[MASK]"
        assert token not in c1.token_set() | c2.token_set()

    def test_empty_corpus_rejected(self):
        c1 = Corpus([], T1)
        c2 = make_corpus(["a"], T2)
        with pytest.raises(EmptyCorpusError):
            build_clf_dataset(c1, c2, masked=False, seed=0)

    def test_tsv_format(self, tmp_path, rng):
        s1 = random_sentences(rng, 20)
        s1[3].append("unique_one")
        c2 = random_corpus(rng, 30, period=T2)
        ds = build_clf_dataset(Corpus(s1, T1), c2, masked=True, seed=2)
        path = tmp_path / "dataset.tsv"
        write_dataset_tsv(ds, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert lines == [
            f"{label}\t{split}\t{' '.join(tokens)}"
            for (tokens, label), split in zip(ds.examples, ds.splits)
        ]
        assert {T1, T2} == {line.split("\t")[0] for line in lines}
        assert {TRAIN, TEST} == {line.split("\t")[1] for line in lines}
        tokens = [t for line in lines for t in line.split("\t")[2].split()]
        assert ds.mask_token in tokens and "unique_one" not in tokens
