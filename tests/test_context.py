from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from lscd.context import (
    EncoderConfig,
    TimeClassifier,
    UseSet,
    _sgd_update,
    classifier_loss_and_grads,
    export_uses,
    extract_uses,
    import_uses,
    load_classifier,
    save_classifier,
    train_time_classifier,
)
from lscd.corpus import T1, T2, TEST, Corpus, TimeClfDataset, build_clf_dataset
from lscd.errors import DatasetError, FormatError, TrainingDivergedError

from conftest import random_corpus
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
    rng = np.random.default_rng(seed)
    labels = [label for _, label in dataset.examples]
    order = rng.permutation(len(labels))
    shuffled = [
        (dataset.examples[i][0], labels[int(order[i])]) for i in range(len(labels))
    ]
    return TimeClfDataset(
        examples=shuffled,
        splits=list(dataset.splits),
        masked=dataset.masked,
        mask_token=dataset.mask_token,
    )


def small_model(seed=0, dimension=6, radius=2) -> TimeClassifier:
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(10)]
    model = TimeClassifier(
        words=words,
        embeddings=rng.standard_normal((10, dimension)),
        offset_weights=rng.standard_normal(2 * radius + 1) * 0.3,
        head_w=rng.standard_normal(dimension) * 0.5,
        head_b=0.1,
        config=EncoderConfig(dimension=dimension, context_radius=radius),
    )
    return model


def densify(model: TimeClassifier, ids, sparse_rows) -> np.ndarray:
    """The per-token embedding gradient as a dense vocabulary-sized array."""
    dense = np.zeros_like(model.embeddings)
    np.add.at(dense, ids, sparse_rows)
    return dense


def lengths_dataset(radius: int, repeats: int = 6) -> TimeClfDataset:
    """Sentences of every length 1..2*radius+2 in both periods, with repeated
    tokens, split so that every length is trained on."""
    rng = np.random.default_rng(radius)
    examples, splits = [], []
    for _ in range(repeats):
        for length in range(1, 2 * radius + 3):
            for label in (T1, T2):
                tokens = [f"w{i}" for i in rng.integers(0, 5, size=length)]
                examples.append((tokens, label))
                splits.append("train")
    examples += [(["w1", "w2"], T1), (["w3"], T2)]
    splits += ["test", "test"]
    return TimeClfDataset(examples, splits, masked=False, mask_token="[MASK]")


class TestGradients:
    def test_head_and_contextualizer_match_finite_differences(self):
        model = small_model()
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(10):
            tokens = [f"w{i}" for i in rng.integers(0, 10, size=int(rng.integers(1, 9)))]
            label = int(rng.integers(0, 2))
            ids = model.token_ids(tokens)
            _, grads = classifier_loss_and_grads(model, ids, label)
            grads["embeddings"] = densify(model, ids, grads["embeddings"])
            for name in ("head_w", "offset_weights", "embeddings"):
                arr = getattr(model, name)
                analytic = grads[name]
                indices = range(arr.size) if arr.size <= 64 else \
                    rng.choice(arr.size, size=40, replace=False)
                for k in indices:
                    orig = arr.flat[k]
                    arr.flat[k] = orig + h
                    lp = classifier_loss_and_grads(model, ids, label)[0]
                    arr.flat[k] = orig - h
                    lm = classifier_loss_and_grads(model, ids, label)[0]
                    arr.flat[k] = orig
                    fd = (lp - lm) / (2 * h)
                    scale = max(abs(analytic.flat[k]), abs(fd), 1e-8)
                    assert abs(analytic.flat[k] - fd) / scale <= 1e-4
            # bias gradient
            _, grads = classifier_loss_and_grads(model, ids, label)
            orig = model.head_b
            model.head_b = orig + h
            lp = classifier_loss_and_grads(model, ids, label)[0]
            model.head_b = orig - h
            lm = classifier_loss_and_grads(model, ids, label)[0]
            model.head_b = orig
            assert abs(float(grads["head_b"]) - (lp - lm) / (2 * h)) <= 1e-4


class TestSharedPass:
    @pytest.mark.parametrize("radius", [2, 5])
    def test_step_is_params_minus_lr_grads(self, radius):
        # Lengths 1..2r+2 over 4 distinct tokens: short sentences, sentences
        # longer than the window, and repeated tokens in the one scatter.
        rng = np.random.default_rng(radius)
        model = small_model(seed=3, radius=radius)
        for step, length in enumerate(range(1, 2 * radius + 3), start=1):
            ids = rng.integers(0, 4, size=length)
            label = step % 2
            lr = 0.3 / step
            before = copy.deepcopy(model)
            loss, grads = classifier_loss_and_grads(before, ids, label)
            assert _sgd_update(model, ids, label, lr, step) == loss
            emb = before.embeddings - lr * densify(before, ids, grads["embeddings"])
            assert np.abs(model.embeddings - emb).max() <= 1e-12
            for name in ("head_w", "offset_weights"):
                expected = getattr(before, name) - lr * grads[name]
                assert np.abs(getattr(model, name) - expected).max() <= 1e-12
            assert abs(model.head_b - (before.head_b - lr * grads["head_b"])) <= 1e-12

    def test_non_finite_logit_raises_with_step(self):
        model = small_model()
        model.head_b = math.inf
        before = copy.deepcopy(model)
        ids = model.token_ids(["w1", "w2", "w3"])
        with pytest.raises(TrainingDivergedError) as excinfo:
            _sgd_update(model, ids, 1, 0.1, step=17)
        assert excinfo.value.step == 17
        assert np.array_equal(model.embeddings, before.embeddings)
        assert np.array_equal(model.offset_weights, before.offset_weights)

    def test_out_of_vocabulary_id_rejected_before_any_update(self):
        model = small_model()
        before = copy.deepcopy(model)
        with pytest.raises(ValueError):
            _sgd_update(model, np.array([1, -1, 2]), 1, 0.1, step=1)
        assert np.array_equal(model.embeddings, before.embeddings)
        assert np.array_equal(model.head_w, before.head_w)

    def test_update_reaches_non_contiguous_embeddings(self):
        model = small_model(seed=8)
        fortran = copy.deepcopy(model)
        fortran.embeddings = np.asfortranarray(fortran.embeddings)
        ids = np.array([3, 1, 3, 7])
        _sgd_update(model, ids, 1, 0.2, step=1)
        _sgd_update(fortran, ids, 1, 0.2, step=1)
        assert np.array_equal(fortran.embeddings, model.embeddings)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_embedding_update_matches_add_at_bit_for_bit(self, order):
        # A step adds to the rows in place when no token repeats and through
        # np.add.at when one does; both must give np.add.at's bits.
        for ids in ([3, 1, 7, 0], [3, 1, 3, 7, 3], [5], [2, 2]):
            ids = np.array(ids)
            model = small_model(seed=len(ids))
            model.embeddings = np.asarray(model.embeddings * 1e3, order=order)
            _, grads = classifier_loss_and_grads(model, ids, 1)
            want = model.embeddings.copy(order=order)
            np.add.at(want, ids, -0.2 * grads["embeddings"])
            _sgd_update(model, ids, 1, 0.2, step=1)
            assert model.embeddings.flags.f_contiguous == (order == "F")
            assert model.embeddings.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_pooled_logit_matches_mix_oracle(self, radius):
        # The pooled vector is the mean of the reference mix, out-of-vocabulary
        # tokens ("oov") included as zero rows.
        model = small_model(seed=4, radius=radius)
        rng = np.random.default_rng(5)
        for length in range(1, 2 * radius + 4):
            tokens = [f"w{i}" if i < 10 else "oov" for i in rng.integers(0, 12, size=length)]
            pooled = reference_mix(reference_embed(model, tokens), model.offset_weights).mean(axis=0)
            z = model.head_w @ pooled + model.head_b
            assert abs(model.predict_proba(tokens) - 1.0 / (1.0 + math.exp(-z))) <= 1e-12
            loss, _ = classifier_loss_and_grads(model, model.token_ids(tokens), 1)
            assert abs(loss - math.log1p(math.exp(-z))) <= 1e-9


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
        losses = []
        for tokens, label in (dataset.examples[i] for i in dataset.indices(TEST)):
            p = model.predict_proba(tokens)
            y = 1.0 if label == T2 else 0.0
            losses.append(-(y * math.log(p + 1e-12) + (1 - y) * math.log(1 - p + 1e-12)))
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
            for tokens, _ in dataset.examples
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
            examples=[(["a"], T1), (["b"], T2)],
            splits=["train", "train"],
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
        vectors = model.contextual_vectors(tokens)
        assert np.array_equal(uses[0].vectors[0], vectors[1])
        assert np.array_equal(uses[0].vectors[1], vectors[3])

    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_banded_vectors_match_mix_oracle(self, radius):
        model = small_model(seed=6, radius=radius)
        rng = np.random.default_rng(7)
        for length in range(0, 2 * radius + 4):
            tokens = [f"w{i}" if i < 10 else "oov" for i in rng.integers(0, 12, size=length)]
            expected = reference_mix(reference_embed(model, tokens), model.offset_weights)
            got = model.contextual_vectors(tokens)
            assert got.shape == (length, 6)
            assert np.abs(got - expected).max(initial=0.0) <= 1e-12
            if length:
                uses = extract_uses(model, Corpus([tokens], T1), [tokens[-1]])[0]
                assert np.array_equal(uses.vectors[-1], got[-1])

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
        long = model.contextual_vectors(sentences[1])
        oracle = reference_mix(reference_embed(model, sentences[1]), model.offset_weights)
        assert np.array_equal(long, oracle)

    def test_deterministic(self, rng):
        model = small_model()
        corpus = random_corpus(rng, 40, vocab_size=10)
        a = extract_uses(model, corpus, ["w1", "w2"])
        b = extract_uses(model, corpus, ["w1", "w2"])
        for x, y in zip(a, b):
            assert np.array_equal(x.vectors, y.vectors)
            assert x.sentence_indices == y.sentence_indices

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
    def make_uses(self):
        rng = np.random.default_rng(3)
        return [
            UseSet("alpha", T1, rng.standard_normal((3, 4)), [0, 4, 9]),
            UseSet("alpha", T2, rng.standard_normal((2, 4)), [1, 2]),
            UseSet("beta", T1, rng.standard_normal((1, 4)), [5]),
        ]

    def test_roundtrip_groups_by_word_and_period(self, tmp_path):
        uses = self.make_uses()
        path = tmp_path / "uses.tsv"
        export_uses(uses, path)
        again = import_uses(path)
        assert [(u.word, u.period, len(u.vectors)) for u in again] == [
            ("alpha", T1, 3),
            ("alpha", T2, 2),
            ("beta", T1, 1),
        ]
        assert again[0].sentence_indices == [0, 4, 9]

    def test_two_rows_same_word_period_one_set(self, tmp_path):
        path = tmp_path / "uses.tsv"
        path.write_text(
            "word\tt1\t0\t1 2\nword\tt1\t3\t4 5\n", encoding="utf-8"
        )
        sets = import_uses(path)
        assert len(sets) == 1
        assert sets[0].vectors.shape == (2, 2)

    def test_serialization_is_fixed_point(self, tmp_path):
        uses = self.make_uses()
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        export_uses(uses, first)
        export_uses(import_uses(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_values_roundtrip_at_9_digits(self, tmp_path):
        uses = self.make_uses()
        path = tmp_path / "uses.tsv"
        export_uses(uses, path)
        again = {(u.word, u.period): u for u in import_uses(path)}
        for u in uses:
            got = again[(u.word, u.period)].vectors
            assert np.abs(got - u.vectors).max() <= 1e-8 * np.abs(u.vectors).max()

    def test_rows_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(19)
        vectors = rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-300, 300, (4, 5))
        vectors[0] = [0.0, -0.0, 1e308, -5e-324, 2.2e-310]
        path = tmp_path / "uses.tsv"
        export_uses([UseSet("w", T2, vectors, [3, 1, 4, 1])], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for si, row, line in zip([3, 1, 4, 1], vectors, lines):
            assert line == f"w\t{T2}\t{si}\t" + " ".join(format(x, ".9g") for x in row)

    def test_import_bit_identical_to_per_value_float(self, tmp_path):
        rng = np.random.default_rng(23)
        vectors = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
        vectors[0] = [0.0, -0.0, 1e308, -5e-324, 2.2e-310, np.inf, -np.inf]
        uses = [
            UseSet("w", T1, vectors[:25], list(range(25))),
            UseSet("v", T2, vectors[25:], list(range(15))),
        ]
        path = tmp_path / "uses.tsv"
        export_uses(uses, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("\n" + "".join(lines[:10]) + "  \n" + "".join(lines[10:]), encoding="utf-8")
        expected = np.array([[float(x) for x in line.split("\t")[3].split()] for line in lines])
        got = np.concatenate([u.vectors for u in import_uses(path)])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_bad_float_token_reports_line(self, tmp_path):
        path = tmp_path / "uses.tsv"
        path.write_text(
            "word\tt1\t0\t1 2\n\nword\tt2\t1\t4 1.2.3\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as excinfo:
            import_uses(path)
        assert excinfo.value.line == 3

    def test_ragged_dimension_reports_line(self, tmp_path):
        path = tmp_path / "uses.tsv"
        path.write_text(
            "word\tt1\t0\t1 2 3\nword\tt1\t1\t4 5\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as excinfo:
            import_uses(path)
        assert excinfo.value.line == 2

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "uses.tsv"
        path.write_text("word\tt9\t0\t1 2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            import_uses(path)

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
        assert again.config == model.config
        corpus = Corpus([["w1", "w2", "w3"]], T1)
        a = extract_uses(model, corpus, ["w2"])[0]
        b = extract_uses(again, corpus, ["w2"])[0]
        assert np.array_equal(a.vectors, b.vectors)
