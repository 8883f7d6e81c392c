from __future__ import annotations

import re

import numpy as np
import pytest

from lscd.corpus import T1, Corpus
from lscd.errors import EmptyCorpusError, FormatError
from lscd.sgns import (
    _CHUNK,
    _LR_FLOOR_FACTOR,
    EmbeddingSpace,
    SgnsConfig,
    _chunk_update,
    _corpus_ids,
    _epoch_pairs,
    _scatter_add,
    load_space,
    save_space,
    sgns_step,
    sigmoid,
    train_sgns,
)

from conftest import random_corpus


def finite_difference_grads(center, context, negatives, h=1e-6):
    def loss_at(v, u, negs):
        return sgns_step(v, u, negs)[0]

    def fd(array, setter):
        grad = np.zeros_like(array)
        for k in range(array.size):
            plus = array.copy()
            minus = array.copy()
            plus.flat[k] += h
            minus.flat[k] -= h
            grad.flat[k] = (setter(plus) - setter(minus)) / (2 * h)
        return grad

    g_center = fd(center, lambda v: loss_at(v, context, negatives))
    g_context = fd(context, lambda u: loss_at(center, u, negatives))
    g_negs = fd(negatives, lambda n: loss_at(center, context, n))
    return g_center, g_context, g_negs


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, 5))
            center = rng.standard_normal(d)
            context = rng.standard_normal(d)
            negatives = rng.standard_normal((k, d))
            _, g_c, g_u, g_n = sgns_step(center, context, negatives)
            fd_c, fd_u, fd_n = finite_difference_grads(center, context, negatives)
            assert relative_error(g_c, fd_c) <= 1e-4
            assert relative_error(g_u, fd_u) <= 1e-4
            assert relative_error(g_n, fd_n) <= 1e-4

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            loss, *_ = sgns_step(
                rng.standard_normal(6),
                rng.standard_normal(6),
                rng.standard_normal((2, 6)),
            )
            assert loss >= 0.0

    def test_chunk_update_matches_finite_differences(self):
        # The update that training runs, on a batch with dead negatives (one
        # pair has only dead ones) and lr != 1: -out / lr is the gradient of
        # the returned loss for every gathered row.
        rng = np.random.default_rng(5)
        b, k, d, lr = 4, 3, 5, 0.037
        gathered = [
            rng.standard_normal((b, d)),
            rng.standard_normal((b, d)),
            rng.standard_normal((b, k, d)),
        ]
        live = np.array(
            [[True, False, True], [False, False, False], [True, True, True],
             [False, True, True]]
        )
        out = np.empty(((2 + k) * b, d))
        _chunk_update(*gathered, live, lr, out)

        def loss_at(arrays):
            return _chunk_update(*arrays, live, lr, np.empty_like(out))

        h = 1e-6
        got = np.split(-out / lr, (b, 2 * b))
        for i, array in enumerate(gathered):
            fd = np.zeros_like(array)
            for j in range(array.size):
                plus = [a.copy() for a in gathered]
                minus = [a.copy() for a in gathered]
                plus[i].flat[j] += h
                minus[i].flat[j] -= h
                fd.flat[j] = (loss_at(plus) - loss_at(minus)) / (2 * h)
            assert relative_error(got[i], fd.reshape(-1, d)) <= 1e-4
        dead = 2 * b + np.flatnonzero(~live.ravel())
        assert len(dead) == 5
        assert not out[dead].any()

    def test_sigmoid_stable(self):
        x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
        out = sigmoid(x)
        assert np.isfinite(out).all()
        assert out[0] == 0.0 and out[-1] == 1.0
        assert abs(out[2] - 0.5) <= 1e-15


def mirror_train(corpus: Corpus, config: SgnsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Reference trainer: identical RNG recipe, but per-pair sgns_step calls
    accumulated in plain Python instead of the vectorized chunk update."""
    ids, offsets, words, freq = _corpus_ids(corpus)
    d = config.dimension
    rng = np.random.default_rng(config.seed)
    vec_in = (rng.random((len(words), d)) - 0.5) / d
    vec_out = np.zeros((len(words), d))
    noise_cdf = np.cumsum(freq**config.noise_exponent)
    noise_cdf /= noise_cdf[-1]
    lr0 = config.initial_learning_rate
    for epoch in range(config.epochs):
        centers, contexts = _epoch_pairs(ids, offsets, config.window, rng, None)
        n_pairs = len(centers)
        order = rng.permutation(n_pairs)
        centers = centers[order]
        contexts = contexts[order]
        for start in range(0, n_pairs, _CHUNK):
            cen = centers[start : start + _CHUNK]
            ctx = contexts[start : start + _CHUNK]
            b = len(cen)
            progress = (epoch + start / n_pairs) / config.epochs
            lr = max(lr0 * (1.0 - progress), lr0 * _LR_FLOOR_FACTOR)
            negs = np.searchsorted(
                noise_cdf, rng.random((b, config.negatives)), side="right"
            )
            d_in = np.zeros_like(vec_in)
            d_out = np.zeros_like(vec_out)
            for p in range(b):
                live = [int(n) for n in negs[p] if n != ctx[p]]
                neg_rows = vec_out[live] if live else np.zeros((0, d))
                _, g_cen, g_ctx, g_negs = sgns_step(
                    vec_in[cen[p]], vec_out[ctx[p]], neg_rows
                )
                d_in[cen[p]] -= lr * g_cen
                d_out[ctx[p]] -= lr * g_ctx
                for row, g in zip(live, g_negs):
                    d_out[row] -= lr * g
            vec_in += d_in
            vec_out += d_out
    return vec_in, vec_out


class TestTraining:
    def test_chunked_update_matches_per_pair_reference(self):
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, 12, vocab_size=9, min_len=4, max_len=7)
        config = SgnsConfig(
            dimension=5, window=2, negatives=2, epochs=2, seed=3,
            initial_learning_rate=0.05,
        )
        space = train_sgns(corpus, config)
        ref_in, ref_out = mirror_train(corpus, config)
        assert np.abs(space.vectors - ref_in).max() <= 1e-12
        assert np.abs(space.context_vectors - ref_out).max() <= 1e-12

    def test_zero_epochs_keeps_initialization(self):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, 10, vocab_size=6)
        config = SgnsConfig(dimension=4, window=2, epochs=0, seed=11)
        space = train_sgns(corpus, config)
        init_rng = np.random.default_rng(11)
        expected = (init_rng.random((len(space.words), 4)) - 0.5) / 4
        assert np.array_equal(space.vectors, expected)
        assert not space.context_vectors.any()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 30, vocab_size=12)
        config = SgnsConfig(dimension=8, window=3, epochs=2, seed=21)
        a = train_sgns(corpus, config)
        b = train_sgns(corpus, config)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.context_vectors, b.context_vectors)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(10)
        corpus = random_corpus(rng, 30, vocab_size=12)
        a = train_sgns(corpus, SgnsConfig(dimension=8, window=3, epochs=1, seed=1))
        b = train_sgns(corpus, SgnsConfig(dimension=8, window=3, epochs=1, seed=2))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_cooccurring_words_become_similar(self):
        # One repeated alternating sentence "a b a b ..." gives both words
        # the same context distribution, which forces their vectors together.
        rng = np.random.default_rng(11)
        sentences = [["a", "b"] * 4 for _ in range(150)]
        background = random_corpus(rng, 80, vocab_size=20, prefix="f")
        corpus = Corpus(sentences=sentences + background.sentences, period=T1)
        config = SgnsConfig(
            dimension=16, window=2, negatives=2, epochs=3, seed=5,
            initial_learning_rate=0.02,
        )
        space = train_sgns(corpus, config)

        def cos(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

        va, vb = space.vector("a"), space.vector("b")
        control = np.random.default_rng(0).standard_normal(16)
        assert cos(va, vb) > cos(va, control)
        assert cos(va, vb) > 0.5

    def test_epoch_loss_non_increasing_early(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 80, vocab_size=25, min_len=5, max_len=9)
        config = SgnsConfig(
            dimension=12, window=3, negatives=2, epochs=2, seed=13,
            initial_learning_rate=0.005,
        )
        space = train_sgns(corpus, config)
        assert space.epoch_losses[1] <= space.epoch_losses[0]

    def test_matrices_finite_fuzzed(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            corpus = random_corpus(rng, int(rng.integers(5, 50)), vocab_size=int(rng.integers(3, 30)))
            cfg = SgnsConfig(dimension=6, window=4, negatives=3, epochs=2, seed=seed)
            space = train_sgns(corpus, cfg)
            assert np.isfinite(space.vectors).all()
            assert np.isfinite(space.context_vectors).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            train_sgns(Corpus([], T1), SgnsConfig(dimension=4))

    def test_subsampling_smoke(self):
        rng = np.random.default_rng(15)
        sentences = [["the"] + s for s in random_corpus(rng, 50, vocab_size=10).sentences]
        corpus = Corpus(sentences=sentences, period=T1)
        cfg = SgnsConfig(dimension=4, window=2, epochs=1, seed=1, subsample_threshold=1e-2)
        space = train_sgns(corpus, cfg)
        assert np.isfinite(space.vectors).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgnsConfig(dimension=0)
        with pytest.raises(ValueError):
            SgnsConfig(window=0)
        with pytest.raises(ValueError):
            SgnsConfig(negatives=0)
        with pytest.raises(ValueError):
            SgnsConfig(initial_learning_rate=0.0)
        for threshold in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError):
                SgnsConfig(subsample_threshold=threshold)


def reference_epoch_pairs(encoded, window, rng, keep_prob):
    """Per-token pair loop: the same RNG calls as _epoch_pairs, one
    dynamic-window slice per center."""
    centers, contexts = [], []
    for ids in encoded:
        if keep_prob is not None:
            ids = ids[rng.random(len(ids)) < keep_prob[ids]]
        n = len(ids)
        if n < 2:
            continue
        spans = rng.integers(1, window + 1, size=n)
        for i in range(n):
            b = int(spans[i])
            lo = max(0, i - b)
            hi = min(n, i + b + 1)
            ctx = np.concatenate((ids[lo:i], ids[i + 1 : hi]))
            if len(ctx):
                centers.append(np.full(len(ctx), ids[i], dtype=np.int64))
                contexts.append(ctx)
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


class TestEpochPairs:
    @pytest.mark.parametrize("window", [1, 2, 5, 40])
    @pytest.mark.parametrize("subsample", [False, True])
    def test_matches_per_token_reference(self, window, subsample):
        rng = np.random.default_rng(100 + window)
        for trial in range(24):
            vocab = int(rng.integers(1, 15))
            if trial == 0:
                # Only sentences of length 0 and 1, so no pairs.
                lengths = rng.integers(0, 2, size=int(rng.integers(0, 25)))
            elif trial < 4:
                # Odd lengths with sentences of length 0 or 1 between them.
                odd = 2 * rng.integers(1, 7, size=8) + 1
                lengths = np.stack([odd, rng.integers(0, 2, size=8)], 1).ravel()
            else:
                lengths = rng.integers(0, 12, size=int(rng.integers(0, 25)))
            encoded = [rng.integers(0, vocab, size=n) for n in lengths]
            ids = np.concatenate(encoded) if encoded else np.empty(0, dtype=np.int64)
            offsets = np.r_[0, np.cumsum(lengths)]
            keep_prob = rng.random(vocab) if subsample else None
            got_rng = np.random.default_rng(trial)
            want_rng = np.random.default_rng(trial)
            got = _epoch_pairs(ids, offsets, window, got_rng, keep_prob)
            want = reference_epoch_pairs(encoded, window, want_rng, keep_prob)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                assert np.array_equal(g, w)
            # Both consumed the same RNG draws, the buffered 32-bit half
            # that a bounded integer draw may leave included.
            assert got_rng.integers(0, 1000, size=3).tolist() == (
                want_rng.integers(0, 1000, size=3).tolist()
            )
            assert got_rng.random() == want_rng.random()


class TestScatterAdd:
    def test_matches_add_at_with_repeated_rows(self):
        rng = np.random.default_rng(3)
        for n_rows, d, b in ((1, 1, 50), (5, 3, 200), (40, 17, 1000)):
            start = rng.standard_normal((n_rows, d))
            rows = np.minimum(rng.zipf(1.5, size=b) - 1, n_rows - 1)
            values = rng.standard_normal((b, d))
            want = start.copy()
            np.add.at(want, rows, values)
            got = start.copy()
            _scatter_add(got, rows, values)
            assert np.abs(got - want).max() <= 1e-12


def space_of(words, vectors):
    return EmbeddingSpace(
        words=words, word_ids={w: i for i, w in enumerate(words)}, vectors=vectors
    )


class TestVectorFormat:
    """save_space/load_space: `<name>.npy` plus `<name>.words.txt`, the
    files the static and align stages hand downstream."""

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        corpus = random_corpus(rng, 20, vocab_size=10)
        trained = train_sgns(corpus, SgnsConfig(dimension=6, window=2, epochs=1, seed=4))
        space = space_of(trained.words, trained.vectors)
        save_space(space, tmp_path, "t1")
        again = load_space(tmp_path, "t1")
        assert again.words == space.words
        assert again.word_ids == space.word_ids
        assert np.array_equal(again.vectors, space.vectors)
        # saving what was loaded rewrites both files byte for byte
        (tmp_path / "again").mkdir()
        save_space(again, tmp_path / "again", "t1")
        for name in ("t1.npy", "t1.words.txt"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_load_bit_identical_to_per_value_float(self, tmp_path):
        rng = np.random.default_rng(19)
        vectors = rng.standard_normal((30, 6)) * 10.0 ** rng.integers(-300, 300, (30, 6))
        vectors[0] = [0.0, -0.0, 1e308, -5e-324, np.inf, -np.inf]
        save_space(space_of([f"w{i}" for i in range(30)], vectors), tmp_path, "v")
        got = load_space(tmp_path, "v").vectors
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), vectors.view(np.uint64))

    def test_empty_space_roundtrip(self, tmp_path):
        save_space(space_of([], np.empty((0, 3))), str(tmp_path), "t2")
        again = load_space(str(tmp_path), "t2")
        assert again.words == []
        assert again.vectors.shape == (0, 3)

    def test_bad_header(self, tmp_path):
        save_space(space_of(["a"], np.ones((1, 2))), tmp_path, "t1")
        path = tmp_path / "t1.npy"
        path.write_bytes(b"\x93NUMPY" + b"\x00" * 40)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_space(tmp_path, "t1")

    @pytest.mark.parametrize("words", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
    def test_word_count_mismatch(self, tmp_path, words):
        save_space(space_of(["a", "b"], np.ones((2, 2))), tmp_path, "t1")
        path = tmp_path / "t1.words.txt"
        path.write_text("".join(f"{w}\n" for w in words), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path} lists {len(words)} words for 2")):
            load_space(tmp_path, "t1")

    def test_duplicate_word(self, tmp_path):
        save_space(space_of(["a", "b"], np.ones((2, 2))), tmp_path, "t1")
        (tmp_path / "t1.words.txt").write_text("a\na\n", encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate word"):
            load_space(tmp_path, "t1")

    @pytest.mark.parametrize(
        "array",
        [np.ones((2, 2), np.float32), np.ones((2, 2), np.int64), np.ones(2)],
        ids=["float32", "int64", "1-d"],
    )
    def test_non_float64_matrix_refused(self, tmp_path, array):
        (tmp_path / "t1.words.txt").write_text("a\nb\n", encoding="utf-8")
        np.save(tmp_path / "t1.npy", array)
        with pytest.raises(FormatError, match="not a float64 matrix"):
            load_space(tmp_path, "t1")

    def test_object_array_refused(self, tmp_path):
        (tmp_path / "t1.words.txt").write_text("a\n", encoding="utf-8")
        array = np.empty((1, 1), dtype=object)
        array[0, 0] = 1.0
        np.save(tmp_path / "t1.npy", array, allow_pickle=True)
        with pytest.raises(FormatError, match="corrupt array file"):
            load_space(tmp_path, "t1")


