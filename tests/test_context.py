from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import re
import weakref

import numpy as np
import pytest

from lscd import context
from lscd.context import (
    EncoderConfig,
    TimeClassifier,
    UseSet,
    _chunk_step,
    _forward,
    _loss_and_grads,
    extract_uses,
    load_classifier,
    load_uses,
    read_uses,
    save_classifier,
    save_uses,
    train_time_classifier,
)
from lscd.corpus import T1, T2, TEST, Corpus, TimeClfDataset, build_clf_dataset, encode
from lscd.errors import DatasetError, FormatError, TrainingDivergedError

from conftest import examples, random_corpus, traced_peak
from context_reference import reference_embed, reference_mix, reference_train


def marker_corpora(rng, n=1200, vocab_size=40):
    """Two corpora over a shared vocabulary, each with its own marker token
    planted in every sentence."""

    def sentences(marker):
        out = []
        for _ in range(n):
            s = [f"w{i}" for i in rng.integers(0, vocab_size, size=8)]
            s.insert(int(rng.integers(0, 9)), marker)
            out.append(s)
        return out

    return (
        Corpus(sentences("markone"), T1),
        Corpus(sentences("marktwo"), T2),
    )


def shuffle_labels(dataset: TimeClfDataset, seed: int) -> TimeClfDataset:
    order = np.random.default_rng(seed).permutation(len(dataset.is_t2))
    return dataclasses.replace(dataset, is_t2=dataset.is_t2[order])


def small_model(seed=0, dimension=6, radius=2) -> TimeClassifier:
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(10)]
    model = TimeClassifier(
        words=words,
        embeddings=rng.standard_normal((10, dimension)),
        offset_weights=rng.standard_normal(2 * radius + 1) * 0.3,
        head_w=rng.standard_normal(dimension) * 0.5,
        head_b=0.1,
    )
    return model


def one_sentence(model: TimeClassifier, ids: np.ndarray, label: int):
    """_loss_and_grads on a chunk of the one sentence `ids`."""
    return _loss_and_grads(model, ids, np.array([len(ids)]), np.array([float(label)]))


def densify(model: TimeClassifier, ids, scale) -> np.ndarray:
    """The embedding gradient scale[t] * head_w of each token t, summed into
    a dense vocabulary-sized array."""
    dense = np.zeros_like(model.embeddings)
    np.add.at(dense, ids, np.outer(scale, model.head_w))
    return dense


def lengths_dataset(radius: int, repeats: int = 6) -> TimeClfDataset:
    """Sentences of every length 1..2*radius+2 in both periods, with repeated
    tokens, split so that every length is trained on."""
    rng = np.random.default_rng(radius)
    sentences, is_t2 = [], []
    for _ in range(repeats):
        for length in range(1, 2 * radius + 3):
            for label in (False, True):
                sentences.append([f"w{i}" for i in rng.integers(0, 5, size=length)])
                is_t2.append(label)
    n_train = len(sentences)
    sentences += [["w1", "w2"], ["w3"]]
    is_t2 += [False, True]
    train = np.arange(len(sentences)) < n_train
    return TimeClfDataset(
        encode(sentences), np.array(is_t2), train, masked=False, mask_token="[MASK]"
    )


class TestGradients:
    def test_head_and_contextualizer_match_finite_differences(self):
        model = small_model()
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(10):
            tokens = [f"w{i}" for i in rng.integers(0, 10, size=int(rng.integers(1, 9)))]
            label = int(rng.integers(0, 2))
            ids = model.token_ids(tokens)
            _, grads = one_sentence(model, ids, label)
            grads["embeddings"] = densify(model, ids, grads.pop("scale"))
            for name in ("head_w", "offset_weights", "embeddings"):
                arr = getattr(model, name)
                analytic = grads[name]
                indices = range(arr.size) if arr.size <= 64 else \
                    rng.choice(arr.size, size=40, replace=False)
                for k in indices:
                    orig = arr.flat[k]
                    arr.flat[k] = orig + h
                    lp = one_sentence(model, ids, label)[0]
                    arr.flat[k] = orig - h
                    lm = one_sentence(model, ids, label)[0]
                    arr.flat[k] = orig
                    fd = (lp - lm) / (2 * h)
                    scale = max(abs(analytic.flat[k]), abs(fd), 1e-8)
                    assert abs(analytic.flat[k] - fd) / scale <= 1e-4
            # bias gradient
            _, grads = one_sentence(model, ids, label)
            orig = model.head_b
            model.head_b = orig + h
            lp = one_sentence(model, ids, label)[0]
            model.head_b = orig - h
            lm = one_sentence(model, ids, label)[0]
            model.head_b = orig
            assert abs(float(grads["head_b"]) - (lp - lm) / (2 * h)) <= 1e-4


class TestSharedPass:
    @pytest.mark.parametrize("radius", [2, 5])
    def test_step_is_params_minus_lr_grads(self, radius, monkeypatch):
        # Sentences of lengths 0..2r+2 over 4 distinct tokens: empty ones,
        # short ones, ones longer than the window, and tokens repeated within
        # a sentence and across the sentences of a chunk. 12 of each length
        # in each epoch: the last chunk of each epoch is short.
        import lscd.context

        rng = np.random.default_rng(radius)
        sentences, is_t2 = [], []
        for _ in range(6):
            for length in range(2 * radius + 3):
                for label in (False, True):
                    sentences.append([f"w{i}" for i in rng.integers(0, 4, size=length)])
                    is_t2.append(label)
        n_train = len(sentences)
        n_empty = sum(not sentence for sentence in sentences)
        assert (n_train - n_empty) % lscd.context._CLF_CHUNK
        sentences += [["w1", "w2"], ["w3"]]
        is_t2 += [False, True]
        train = np.arange(len(sentences)) < n_train
        dataset = TimeClfDataset(
            encode(sentences), np.array(is_t2), train, masked=False, mask_token="[MASK]"
        )

        chunk_step = lscd.context._chunk_step
        steps = []

        def recording(model, ids, lengths, chunk_labels, lr, step):
            before = copy.deepcopy(model)
            loss = chunk_step(model, ids, lengths, chunk_labels, lr, step)
            steps.append((before, copy.deepcopy(model), ids, lengths, chunk_labels, lr, loss))
            return loss

        monkeypatch.setattr(lscd.context, "_chunk_step", recording)
        cfg = EncoderConfig(dimension=6, context_radius=radius, epochs=2, seed=7)
        train_time_classifier(dataset, cfg)

        sizes = [len(lengths) for _, _, _, lengths, _, _, _ in steps]
        per_epoch = math.ceil((n_train - n_empty) / lscd.context._CLF_CHUNK)
        assert len(steps) == 2 * per_epoch
        assert sum(sizes) == 2 * (n_train - n_empty)
        assert sizes[per_epoch - 1] < lscd.context._CLF_CHUNK
        for before, after, ids, lengths, chunk_labels, lr, loss in steps:
            assert lengths.min() >= 1
            want_loss = 0.0
            want = {
                "head_w": np.zeros_like(before.head_w),
                "head_b": 0.0,
                "offset_weights": np.zeros_like(before.offset_weights),
                "embeddings": np.zeros_like(before.embeddings),
            }
            for sentence, label in zip(np.split(ids, np.cumsum(lengths)[:-1]), chunk_labels):
                one_loss, grads = one_sentence(before, sentence, int(label))
                want_loss += one_loss
                grads["embeddings"] = densify(before, sentence, grads.pop("scale"))
                for name in want:
                    want[name] = want[name] + grads[name]
            assert abs(loss - want_loss) <= 1e-12 * max(1.0, want_loss)
            for name, grad in want.items():
                expected = getattr(before, name) - lr * grad
                assert np.abs(getattr(after, name) - expected).max() <= 1e-12

    def test_non_finite_logit_raises_with_step(self):
        # Only the chunk's second sentence diverges; nothing moves.
        model = small_model()
        model.head_w = np.abs(model.head_w)
        model.embeddings[5] = math.inf
        before = copy.deepcopy(model)
        ids, lengths = np.array([1, 2, 3, 4, 5]), np.array([3, 2])
        with pytest.raises(TrainingDivergedError) as excinfo:
            _chunk_step(model, ids, lengths, np.array([1.0, 0.0]), 0.1, step=17)
        assert excinfo.value.step == 17
        for name in ("embeddings", "offset_weights", "head_w"):
            assert np.array_equal(getattr(model, name), getattr(before, name))
        assert model.head_b == before.head_b

    def test_out_of_vocabulary_id_rejected_before_any_update(self):
        model = small_model()
        before = copy.deepcopy(model)
        with pytest.raises(ValueError):
            _chunk_step(
                model, np.array([1, 2, -1, 2]), np.array([2, 2]), np.array([1.0, 0.0]),
                0.1, step=1,
            )
        assert np.array_equal(model.embeddings, before.embeddings)
        assert np.array_equal(model.head_w, before.head_w)

    def test_update_reaches_non_contiguous_embeddings(self):
        model = small_model(seed=8)
        fortran = copy.deepcopy(model)
        fortran.embeddings = np.asfortranarray(fortran.embeddings)
        ids, lengths, labels = np.array([3, 1, 3, 7]), np.array([2, 2]), np.array([1.0, 0.0])
        _chunk_step(model, ids, lengths, labels, 0.2, step=1)
        _chunk_step(fortran, ids, lengths, labels, 0.2, step=1)
        assert fortran.embeddings.flags.f_contiguous
        assert np.array_equal(fortran.embeddings, model.embeddings)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_embedding_step_is_rank_one_per_row(self, order):
        # Each distinct row of a chunk moves by -lr * (the summed scale of its
        # tokens) * the pre-step head_w; every other row keeps its bits.
        cases = [
            [3, 1, 7, 0],
            [3, 1, 3, 7, 3],  # repeated 3 times, in the first and last position
            [5],
            [2, 2],
            [6, 2, 9, 2, 6],  # repeats in the first and last position
            [1, 5, 1, 5, 1, 8, 1],  # one token 4 times, another twice
            [4, 4, 4, 4, 4],  # only repeats
            [7, 3, 7, 3, 3, 7],  # only repeats, of two tokens
        ]
        # Each case as a chunk of its own, then all of them as one chunk, so
        # that tokens also repeat across sentences.
        chunks = [[ids] for ids in cases] + [cases]
        for chunk in chunks:
            ids = np.concatenate(chunk)
            lengths = np.array([len(sentence) for sentence in chunk])
            # Of the two labels, at least one leaves the logit unsaturated,
            # so the rows move.
            moved = set()
            for scale, label in itertools.product((1.0, 1e3), (0, 1)):
                labels = np.full(len(chunk), float(label))
                model = small_model(seed=len(ids))
                model.embeddings = np.asarray(model.embeddings * scale, order=order)
                before = copy.deepcopy(model)
                _, grads = _loss_and_grads(model, ids, lengths, labels)
                _chunk_step(model, ids, lengths, labels, 0.2, step=1)
                assert model.embeddings.flags.f_contiguous == (order == "F")
                untouched = np.setdiff1d(np.arange(len(model.words)), ids)
                assert model.embeddings[untouched].tobytes() == \
                    before.embeddings[untouched].tobytes()
                for row in np.unique(ids):
                    coefficient = grads["scale"][ids == row].sum()
                    want = before.embeddings[row] - 0.2 * coefficient * before.head_w
                    got = model.embeddings[row]
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                    if not np.array_equal(got, before.embeddings[row]):
                        moved.add(scale)
            assert moved == {1.0, 1e3}

    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_pooled_logit_matches_mix_oracle(self, radius):
        # The pooled vector is the mean of the reference mix.
        model = small_model(seed=4, radius=radius)
        rng = np.random.default_rng(5)
        for length in range(1, 2 * radius + 4):
            tokens = [f"w{i}" for i in rng.integers(0, 10, size=length)]
            pooled = reference_mix(reference_embed(model, tokens), model.offset_weights).mean(axis=0)
            z = model.head_w @ pooled + model.head_b
            ids = model.token_ids(tokens)
            assert abs(_forward(model, ids, np.array([length]))[-1][0] - z) <= 1e-12
            loss, _ = one_sentence(model, ids, 1)
            assert abs(loss - math.log1p(math.exp(-z))) <= 1e-12


class TestTraining:
    def test_matches_reference_trainer(self, rng):
        # The reference step crashes on sentences shorter than the radius, so
        # the marker sentences (9 tokens) stay at least radius 5 long.
        c1, c2 = marker_corpora(rng, n=300)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=2)
        cfg = EncoderConfig(dimension=12, context_radius=5, epochs=2, seed=3)
        model, _ = train_time_classifier(dataset, cfg, vocabulary=["extra"])
        reference = reference_train(dataset, cfg, vocabulary=["extra"])
        assert model.words == reference.words
        for name in ("embeddings", "offset_weights", "head_w"):
            assert np.abs(getattr(model, name) - getattr(reference, name)).max() <= 1e-12
        assert abs(model.head_b - reference.head_b) <= 1e-12

    def test_training_never_calls_add_at(self, rng, monkeypatch):
        import lscd.context

        # 8 draws from 40 words: many sentences repeat a token.
        c1, c2 = marker_corpora(rng, n=200)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=2)
        assert any(len(set(tokens)) < len(tokens) for tokens, _ in examples(dataset))
        cfg = EncoderConfig(dimension=8, context_radius=2, seed=3)
        want, _ = train_time_classifier(dataset, cfg)

        def add_at(*args, **kwargs):
            raise AssertionError("np.add.at called while training")

        class NumpyWithoutAddAt:
            add = type("add", (), {"at": staticmethod(add_at)})

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(lscd.context, "np", NumpyWithoutAddAt())
        got, _ = train_time_classifier(dataset, cfg)
        assert got.embeddings.tobytes() == want.embeddings.tobytes()

    def test_sentences_shorter_than_radius_train(self):
        # Regression: every length 1..2r+2 at the default radius 5.
        dataset = lengths_dataset(radius=5)
        with pytest.raises(IndexError):
            reference_train(dataset, EncoderConfig(dimension=8, seed=1))
        model, metrics = train_time_classifier(dataset, EncoderConfig(dimension=8, seed=1))
        for name in ("embeddings", "offset_weights", "head_w"):
            assert np.isfinite(getattr(model, name)).all()
        assert all(math.isfinite(x) for x in metrics.train_loss)

    def test_train_loss_per_epoch(self, rng):
        c1, c2 = marker_corpora(rng, n=200)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=17)
        _, metrics = train_time_classifier(
            dataset, EncoderConfig(dimension=16, context_radius=2, epochs=3, seed=18)
        )
        loss = metrics.train_loss
        assert len(loss) == 3
        # The head starts at zero, so the first step's loss is log 2.
        assert 0.0 < loss[2] < loss[1] < loss[0] < math.log(2.0)

    def test_test_loss_is_mean_held_out_cross_entropy(self, rng):
        c1, c2 = marker_corpora(rng, n=200)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=17)
        model, metrics = train_time_classifier(
            dataset, EncoderConfig(dimension=16, context_radius=2, seed=18)
        )
        # Each test sentence's logit on its own; -log sigmoid(+-z) as log1p.
        enc = dataset.encoded
        ids = model.token_ids(enc.words)[enc.ids]
        losses = []
        for i in dataset.indices(TEST):
            sentence = ids[enc.offsets[i] : enc.offsets[i + 1]]
            z = float(_forward(model, sentence, np.array([len(sentence)]))[-1][0])
            losses.append(math.log1p(math.exp(-z if dataset.is_t2[i] else z)))
        assert metrics.test_loss == pytest.approx(sum(losses) / len(losses), rel=1e-12)
        assert 0.0 < metrics.test_loss < math.log(2.0)

    def test_planted_marker_high_accuracy(self, rng):
        c1, c2 = marker_corpora(rng)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=2)
        _, metrics = train_time_classifier(
            dataset, EncoderConfig(dimension=32, context_radius=3, seed=3)
        )
        assert metrics.accuracy >= 0.95

    def test_masked_markers_drop_to_chance(self, rng):
        # The markers are corpus-unique, so masking maps both to the same
        # token and the planted signal disappears.
        c1, c2 = marker_corpora(rng)
        dataset = build_clf_dataset(c1, c2, masked=True, seed=2)
        assert not any(
            "markone" in tokens or "marktwo" in tokens
            for tokens, _ in examples(dataset)
        )
        _, metrics = train_time_classifier(
            dataset, EncoderConfig(dimension=32, context_radius=3, seed=3)
        )
        assert abs(metrics.accuracy - 0.5) <= 0.1

    def test_shuffled_labels_near_chance(self, rng):
        c1, c2 = marker_corpora(rng, n=1500)
        dataset = shuffle_labels(build_clf_dataset(c1, c2, masked=False, seed=4), seed=5)
        _, metrics = train_time_classifier(
            dataset, EncoderConfig(dimension=32, context_radius=3, seed=6)
        )
        assert sum(metrics.example_counts.values()) >= 500
        assert 0.45 <= metrics.accuracy <= 0.55

    def test_accuracy_consistent_with_per_label_counts(self, rng):
        c1, c2 = marker_corpora(rng, n=400)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=7)
        _, metrics = train_time_classifier(
            dataset, EncoderConfig(dimension=16, context_radius=2, seed=8)
        )
        counts = metrics.example_counts
        recomposed = (
            metrics.per_label_accuracy[T1] * counts[T1]
            + metrics.per_label_accuracy[T2] * counts[T2]
        ) / (counts[T1] + counts[T2])
        assert abs(recomposed - metrics.accuracy) <= 1e-12
        assert 0.0 <= metrics.accuracy <= 1.0

    def test_deterministic(self, rng):
        c1, c2 = marker_corpora(rng, n=300)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=9)
        cfg = EncoderConfig(dimension=16, context_radius=2, seed=10)
        m1, met1 = train_time_classifier(dataset, cfg)
        m2, met2 = train_time_classifier(dataset, cfg)
        assert np.array_equal(m1.embeddings, m2.embeddings)
        assert np.array_equal(m1.head_w, m2.head_w)
        assert met1.accuracy == met2.accuracy

    def test_empty_split_rejected(self):
        dataset = TimeClfDataset(
            encoded=encode([["a"], ["b"]]),
            is_t2=np.array([False, True]),
            train=np.array([True, True]),
            masked=False,
            mask_token="[MASK]",
        )
        with pytest.raises(DatasetError):
            train_time_classifier(dataset, EncoderConfig(dimension=4))

    def test_extra_vocabulary_reaches_model(self, rng):
        c1, c2 = marker_corpora(rng, n=200)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=11)
        extra = ["neverseen1", "neverseen2"]
        model, _ = train_time_classifier(
            dataset, EncoderConfig(dimension=8, context_radius=1, seed=12),
            vocabulary=extra,
        )
        assert all(w in model.word_ids for w in extra)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(dimension=0)
        with pytest.raises(ValueError):
            EncoderConfig(epochs=0)
        with pytest.raises(ValueError):
            EncoderConfig(learning_rate=0.0)


class TestExtraction:
    def test_repeated_target_gives_separate_entries(self):
        model = small_model()
        corpus = Corpus([["w1", "w2", "w1"], ["w3"]], T1)
        uses = extract_uses(model, corpus, ["w1"])
        assert len(uses) == 1
        assert uses[0].vectors.shape == (2, 6)
        assert uses[0].sentence_indices == [0, 0]

    def test_absent_target_empty_and_flagged(self):
        model = small_model()
        corpus = Corpus([["w1", "w2"]], T1)
        uses = extract_uses(model, corpus, ["w9"])
        assert uses[0].empty
        assert uses[0].vectors.shape == (0, 6)

    def test_single_token_sentence_is_self_weight_times_embedding(self):
        model = small_model()
        corpus = Corpus([["w4"]], T2)
        uses = extract_uses(model, corpus, ["w4"])
        self_weight = model.offset_weights[model.radius]
        expected = self_weight * model.embeddings[model.word_ids["w4"]]
        assert np.abs(uses[0].vectors[0] - expected).max() <= 1e-12

    def test_matches_contextual_vector_definition(self):
        model = small_model()
        tokens = ["w0", "w5", "w2", "w5", "w7"]
        corpus = Corpus([tokens], T1)
        uses = extract_uses(model, corpus, ["w5"])
        vectors = reference_mix(reference_embed(model, tokens), model.offset_weights)
        assert np.array_equal(uses[0].vectors[0], vectors[1])
        assert np.array_equal(uses[0].vectors[1], vectors[3])

    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_banded_vectors_match_mix_oracle(self, radius):
        model = small_model(seed=6, radius=radius)
        rng = np.random.default_rng(7)
        for length in range(1, 2 * radius + 4):
            # Every token is a target, out-of-vocabulary ones ("oov", a zero
            # row) included.
            tokens = [f"w{i}" if i < 10 else "oov" for i in rng.integers(0, 12, size=length)]
            expected = reference_mix(reference_embed(model, tokens), model.offset_weights)
            targets = sorted(set(tokens))
            for use_set in extract_uses(model, Corpus([tokens], T1), targets):
                at = [pos for pos, token in enumerate(tokens) if token == use_set.word]
                assert use_set.vectors.shape == (len(at), 6)
                assert np.abs(use_set.vectors - expected[at]).max() <= 1e-12

    def test_long_sentences_match_mix_oracle_exactly(self):
        # One 2000-token sentence between short ones: extraction adds the
        # offsets in the oracle's order, so the vectors (and the use-set
        # files) are bit-identical to it.
        model = small_model(seed=9, radius=5)
        rng = np.random.default_rng(10)
        sentences = [
            [f"w{i}" if i < 10 else "oov" for i in rng.integers(0, 11, size=n)]
            for n in (3, 2000, 1, 7)
        ]
        uses = extract_uses(model, Corpus(sentences, T1), ["w0", "w5"])
        for use_set in uses:
            expected = [
                reference_mix(reference_embed(model, s), model.offset_weights)[pos]
                for s in sentences
                for pos, token in enumerate(s)
                if token == use_set.word
            ]
            assert len(expected) > 100
            assert np.array_equal(use_set.vectors, np.array(expected))

    def test_deterministic(self, rng):
        model = small_model()
        corpus = random_corpus(rng, 40, vocab_size=10)
        a = extract_uses(model, corpus, ["w1", "w2"])
        b = extract_uses(model, corpus, ["w1", "w2"])
        # Neither the order of the targets nor a repeated one changes a set.
        c = extract_uses(model, corpus, ["w2", "w1", "w2"])
        for x, y in zip(a + a[::-1] + a[1:], b + c):
            assert np.array_equal(x.vectors, y.vectors)
            assert x.sentence_indices == y.sentence_indices

    @pytest.mark.parametrize("rows_per_block", [1, 4])
    def test_row_blocks_match_one_block(self, rows_per_block, monkeypatch):
        # The targets sit first and last in the first and last sentences,
        # where only the separators around the corpus pad the windows; one
        # target is asked for twice, and an empty sentence and an unknown
        # token sit in between.
        model = small_model(seed=11, radius=3)
        sentences = [
            ["w1", "w5", "w2", "w1", "w2"],
            ["w3", "oov", "w4"],
            [],
            ["w2"],
            ["w4", "w6", "w1", "w7", "w3"],
        ]
        targets = ["w1", "w3", "w4", "w2", "w1"]
        corpus = Corpus(sentences, T1)
        whole = extract_uses(model, corpus, targets)
        # 10 uses: blocks of 1 row, and blocks of 4 with a ragged last one.
        assert sum(len(u.vectors) for u in whole[:4]) == 10
        monkeypatch.setattr(context, "_BLOCK_ELEMENTS", rows_per_block * 6)
        blocked = extract_uses(model, corpus, targets)
        for x, y in zip(whole, blocked):
            assert x.word == y.word
            assert x.vectors.shape == y.vectors.shape
            assert x.vectors.tobytes() == y.vectors.tobytes()
            assert x.sentence_indices == y.sentence_indices
            expected = [
                reference_mix(reference_embed(model, s), model.offset_weights)[pos]
                for s in sentences
                for pos, token in enumerate(s)
                if token == x.word
            ]
            assert np.array_equal(x.vectors, np.array(expected))
        assert whole[0].sentence_indices == [0, 0, 4]
        assert whole[2].sentence_indices == [1, 4]

    def test_working_set_is_output_index_and_blocks(self):
        # The traced peak is the output, the corpus's int32 index arrays, a
        # few int64 arrays and a list entry per use, and two row blocks: no
        # buffer or window as large as the output.
        model = small_model(seed=12, dimension=128, radius=2)
        corpus = random_corpus(np.random.default_rng(13), 4000, vocab_size=10)
        padded_tokens = len(corpus.encoded.ids) + 2 * len(corpus.encoded.offsets)
        peak, uses = traced_peak(extract_uses, model, corpus, ["w1", "w2", "w3"])
        output = sum(u.vectors.nbytes for u in uses)
        n_uses = sum(len(u.vectors) for u in uses)
        assert output > 8 * 8 * context._BLOCK_ELEMENTS
        assert peak <= (
            output + 16 * padded_tokens + 64 * n_uses + 2 * 8 * context._BLOCK_ELEMENTS
        )

    def test_context_sensitivity(self, rng):
        # After training, the same word in two very different planted
        # contexts must sit farther apart than in two identical contexts.
        c1, c2 = marker_corpora(rng, n=600)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=13)
        model, _ = train_time_classifier(
            dataset,
            EncoderConfig(dimension=16, context_radius=2, seed=14),
            vocabulary=["probe"],
        )
        ctx_a = ["markone", "markone", "probe", "markone", "markone"]
        ctx_b = ["marktwo", "marktwo", "probe", "marktwo", "marktwo"]
        corpus = Corpus([ctx_a, ctx_b, list(ctx_a)], T1)
        uses = extract_uses(model, corpus, ["probe"])[0]
        different = np.linalg.norm(uses.vectors[0] - uses.vectors[1])
        identical = np.linalg.norm(uses.vectors[0] - uses.vectors[2])
        assert identical == 0.0
        assert different > 1e-6


class TestUseSetTsv:
    """save_uses/load_uses: `uses_<period>.npy` plus the index TSV
    `uses_<period>.index.tsv`, the files the uses stage hands to scores."""

    def make_uses(self):
        rng = np.random.default_rng(3)
        return [
            UseSet("alpha", T1, rng.standard_normal((3, 4)), [0, 4, 9]),
            UseSet("none", T1, np.empty((0, 4)), []),
            UseSet("beta", T1, rng.standard_normal((1, 4)), [5]),
        ]

    def write_index(self, tmp_path, text, rows=2):
        np.save(tmp_path / f"uses_{T1}.npy", np.ones((rows, 2)))
        (tmp_path / f"uses_{T1}.index.tsv").write_text(text, encoding="utf-8")

    def test_roundtrip_groups_by_word_and_period(self, tmp_path):
        save_uses(self.make_uses(), tmp_path, T1)
        again = load_uses(tmp_path, T1)
        assert [(u.word, u.period, u.vectors.shape) for u in again] == [
            ("alpha", T1, (3, 4)),
            ("none", T1, (0, 4)),
            ("beta", T1, (1, 4)),
        ]
        assert [u.sentence_indices for u in again] == [[0, 4, 9], [], [5]]

    def test_values_roundtrip_at_9_digits(self, tmp_path):
        uses = self.make_uses()
        save_uses(uses, tmp_path, T1)
        again = {(u.word, u.period): u for u in load_uses(tmp_path, T1)}
        for u in uses:
            got = again[(u.word, u.period)].vectors
            if u.vectors.size:
                assert np.abs(got - u.vectors).max() <= 1e-8 * np.abs(u.vectors).max()
            # the array file keeps every bit, beyond the 9 digits asked for
            assert np.array_equal(got.view(np.uint64), u.vectors.view(np.uint64))

    def test_import_bit_identical_to_per_value_float(self, tmp_path):
        rng = np.random.default_rng(23)
        vectors = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
        vectors[0] = [0.0, -0.0, 1e308, -5e-324, 2.2e-310, np.inf, -np.inf]
        uses = [
            UseSet("w", T2, vectors[:25], list(range(25))),
            UseSet("v", T2, vectors[25:], list(range(15))),
        ]
        save_uses(uses, str(tmp_path), T2)
        got = np.concatenate([u.vectors for u in load_uses(str(tmp_path), T2)])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), vectors.view(np.uint64))

    def test_empty_list_roundtrip(self, tmp_path):
        save_uses([], tmp_path, T2)
        assert load_uses(tmp_path, T2) == []

    @pytest.mark.parametrize("empty", [False, True])
    def test_array_file_is_np_save_of_the_concatenation(self, tmp_path, empty):
        uses = [] if empty else self.make_uses()
        save_uses(uses, tmp_path, T1)
        rows = [u.vectors for u in uses]
        np.save(tmp_path / "expected.npy", np.concatenate(rows) if rows else np.empty((0, 0)))
        got = (tmp_path / f"uses_{T1}.npy").read_bytes()
        assert got == (tmp_path / "expected.npy").read_bytes()

    def test_fortran_ordered_set_roundtrips(self, tmp_path):
        vectors = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        save_uses([UseSet("w", T1, vectors, [0, 0, 1, 2])], tmp_path, T1)
        (again,) = load_uses(tmp_path, T1)
        assert np.array_equal(again.vectors, vectors)

    def test_reader_holds_no_set_it_has_yielded(self, tmp_path):
        save_uses(self.make_uses(), tmp_path, T1)
        reader = read_uses(tmp_path, T1)
        drawn = []

        def take():
            use_set = next(reader, None)
            if use_set is not None:
                drawn.append(weakref.ref(use_set.vectors))
            return use_set is not None

        while take():
            assert all(ref() is None for ref in drawn)
        assert len(drawn) == 3

    def test_reader_checks_the_words_in_order(self, tmp_path):
        save_uses(self.make_uses(), tmp_path, T1)
        path = tmp_path / f"uses_{T1}.index.tsv"
        listed = ["alpha", "none", "beta"]
        assert [u.word for u in read_uses(tmp_path, T1, listed)] == listed
        for words in (listed[:2], listed + ["gamma"], ["alpha", "beta", "none"]):
            with pytest.raises(FormatError, match=re.escape(f"{path} does not list")):
                list(read_uses(tmp_path, T1, words))

    def test_sets_of_different_widths_refused(self, tmp_path):
        uses = [UseSet("a", T1, np.ones((2, 3)), [0, 1]), UseSet("b", T1, np.ones((1, 4)), [0])]
        with pytest.raises(ValueError, match="dimensionality"):
            save_uses(uses, tmp_path, T1)

    def test_two_rows_same_word_period_one_set(self, tmp_path):
        self.write_index(tmp_path, "word\t2\t0 3\n")
        (only,) = load_uses(tmp_path, T1)
        assert (only.word, only.period, only.vectors.shape) == ("word", T1, (2, 2))
        assert only.sentence_indices == [0, 3]

    def test_serialization_is_fixed_point(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        save_uses(self.make_uses(), first, T1)
        save_uses(load_uses(first, T1), second, T1)
        for name in (f"uses_{T1}.npy", f"uses_{T1}.index.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_bad_float_token_reports_line(self, tmp_path):
        self.write_index(tmp_path, "word\t1\t0\nother\t1\t1.5\n")
        with pytest.raises(FormatError) as excinfo:
            load_uses(tmp_path, T1)
        assert excinfo.value.line == 2

    def test_count_disagrees_with_indices_reports_line(self, tmp_path):
        self.write_index(tmp_path, "word\t1\t0\nother\t1\t1 2\n")
        with pytest.raises(FormatError) as excinfo:
            load_uses(tmp_path, T1)
        assert excinfo.value.line == 2

    def test_malformed_row_rejected(self, tmp_path):
        self.write_index(tmp_path, "word\t2\n")
        with pytest.raises(FormatError, match="malformed use-set index row"):
            load_uses(tmp_path, T1)

    @pytest.mark.parametrize("rows", [1, 3], ids=["fewer", "more"])
    def test_row_count_mismatch(self, tmp_path, rows):
        self.write_index(tmp_path, "word\t2\t0 3\n", rows=rows)
        path = tmp_path / f"uses_{T1}.index.tsv"
        with pytest.raises(FormatError, match=re.escape(f"{path} indexes 2 uses for {rows}")):
            load_uses(tmp_path, T1)

    @pytest.mark.parametrize(
        "array",
        [np.ones((2, 2), np.float32), np.ones(4)],
        ids=["float32", "1-d"],
    )
    def test_non_float64_matrix_refused(self, tmp_path, array):
        self.write_index(tmp_path, "word\t2\t0 3\n")
        np.save(tmp_path / f"uses_{T1}.npy", array)
        with pytest.raises(FormatError, match="not a float64 matrix"):
            load_uses(tmp_path, T1)

    def test_fortran_ordered_array_file_refused(self, tmp_path):
        # save_uses writes C order; read set by set, a Fortran-ordered file
        # would hand each set another set's values.
        self.write_index(tmp_path, "word\t2\t0 3\n")
        np.save(tmp_path / f"uses_{T1}.npy", np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        with pytest.raises(FormatError, match="Fortran order"):
            load_uses(tmp_path, T1)

    def test_object_array_refused(self, tmp_path):
        self.write_index(tmp_path, "word\t1\t0\n")
        array = np.empty((1, 2), dtype=object)
        array[0] = [1.0, 2.0]
        np.save(tmp_path / f"uses_{T1}.npy", array, allow_pickle=True)
        with pytest.raises(FormatError, match="corrupt array file"):
            load_uses(tmp_path, T1)

    def test_classifier_persistence_roundtrip(self, tmp_path, rng):
        c1, c2 = marker_corpora(rng, n=150)
        dataset = build_clf_dataset(c1, c2, masked=False, seed=15)
        model, _ = train_time_classifier(
            dataset, EncoderConfig(dimension=8, context_radius=2, seed=16)
        )
        path = tmp_path / "model.npz"
        save_classifier(model, path)
        again = load_classifier(path)
        assert again.words == model.words
        assert np.array_equal(again.embeddings, model.embeddings)
        assert np.array_equal(again.offset_weights, model.offset_weights)
        assert np.array_equal(again.head_w, model.head_w)
        assert again.head_b == model.head_b
        with np.load(path) as data:
            assert sorted(data.files) == [
                "embeddings", "head_b", "head_w", "offset_weights", "words",
            ]
        corpus = Corpus([["w1", "w2", "w3"]], T1)
        a = extract_uses(model, corpus, ["w2"])[0]
        b = extract_uses(again, corpus, ["w2"])[0]
        assert np.array_equal(a.vectors, b.vectors)
