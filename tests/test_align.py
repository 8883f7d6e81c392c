from __future__ import annotations

import numpy as np
import pytest

from lscd.align import (
    align,
    length_normalize,
    mean_center,
    preprocess,
    procrustes,
    procrustes_rotation,
    shared_vocabulary,
)
from lscd.errors import UnderdeterminedError, ZeroNormError
from lscd.sgns import EmbeddingSpace

from jacobi_svd import jacobi_svd


def space_of(vectors, words=None) -> EmbeddingSpace:
    vectors = np.asarray(vectors, dtype=np.float64)
    if words is None:
        words = [f"w{i}" for i in range(len(vectors))]
    return EmbeddingSpace(
        words=words, word_ids={w: i for i, w in enumerate(words)}, vectors=vectors
    )


def random_orthogonal(d, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestLengthNormalize:
    def test_three_four_five(self):
        out = length_normalize(space_of([[3.0, 4.0]]))
        assert np.allclose(out.vectors, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        space = space_of(rng.standard_normal((20, 5)))
        once = length_normalize(space)
        twice = length_normalize(once)
        assert np.abs(twice.vectors - once.vectors).max() <= 1e-12

    def test_all_norms_one(self):
        rng = np.random.default_rng(1)
        out = length_normalize(space_of(rng.standard_normal((50, 7))))
        norms = np.linalg.norm(out.vectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_zero_row_outside_shared_kept(self):
        space = space_of([[0.0, 0.0], [1.0, 1.0]])
        out = length_normalize(space, required=["w1"])
        assert np.array_equal(out.vectors[0], [0.0, 0.0])

    def test_zero_row_for_required_word_raises(self):
        space = space_of([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ZeroNormError, match="w0"):
            length_normalize(space, required=["w0", "w1"])


class TestMeanCenter:
    def test_single_row_becomes_zero(self):
        out = mean_center(space_of([[2.0, -3.0, 7.0]]))
        assert np.allclose(out.vectors, 0.0, atol=1e-15)

    def test_two_rows(self):
        out = mean_center(space_of([[1.0, 0.0], [3.0, 0.0]]))
        assert np.allclose(out.vectors, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-15)

    def test_column_means_zero(self):
        rng = np.random.default_rng(2)
        out = mean_center(space_of(rng.standard_normal((40, 6)) + 5.0))
        assert np.abs(out.vectors.mean(axis=0)).max() <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = mean_center(space_of(rng.standard_normal((30, 4))))
        twice = mean_center(once)
        assert np.abs(twice.vectors - once.vectors).max() <= 1e-12


class TestProcrustes:
    def test_identity_alignment(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((40, 6))
        w = procrustes_rotation(a, a)
        assert np.linalg.norm(a @ w - a) <= 1e-8

    def test_planted_rotation_recovered(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((100, 10))
        r = random_orthogonal(10, rng)
        w = procrustes_rotation(a, a @ r)
        assert np.linalg.norm(w - r) <= 1e-6

    def test_noisy_fit_beats_random_probes(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((200, 8))
        r = random_orthogonal(8, rng)
        b = a @ r + rng.normal(0.0, 1e-3, size=a.shape)
        w = procrustes_rotation(a, b)
        residual = np.linalg.norm(a @ w - b)
        for _ in range(100):
            q = random_orthogonal(8, rng)
            assert residual <= np.linalg.norm(a @ q - b)

    def test_orthogonality_fuzzed(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, d = int(rng.integers(5, 40)), int(rng.integers(1, 6))
            n = max(n, d)
            w = procrustes_rotation(
                rng.standard_normal((n, d)), rng.standard_normal((n, d))
            )
            assert np.linalg.norm(w.T @ w - np.eye(d)) <= 1e-8

    def test_matches_jacobi_reference(self):
        # A full-rank cross-covariance has one optimal rotation, so the
        # LAPACK fit must equal the one built from the Jacobi oracle.
        rng = np.random.default_rng(15)
        for n, d in ((12, 1), (40, 7), (300, 40)):
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, d))
            u, _, vt = jacobi_svd(a.T @ b)
            assert np.linalg.norm(procrustes_rotation(a, b) - u @ vt) <= 1e-9

    def test_rank_deficient_fit_still_orthogonal(self):
        # Centering exactly d shared words leaves rank d - 1; a zero
        # cross-covariance is the extreme case.
        rng = np.random.default_rng(14)
        a = mean_center(space_of(rng.standard_normal((6, 6)))).vectors
        b = mean_center(space_of(rng.standard_normal((6, 6)))).vectors
        for x, y in ((a, b), (a, a), (np.zeros((6, 6)), b)):
            w = procrustes_rotation(x, y)
            assert np.isfinite(w).all()
            assert np.linalg.norm(w.T @ w - np.eye(6)) <= 1e-10

    def test_norm_preservation(self):
        rng = np.random.default_rng(8)
        w = procrustes_rotation(
            rng.standard_normal((50, 12)), rng.standard_normal((50, 12))
        )
        for _ in range(50):
            x = rng.standard_normal(12)
            assert abs(np.linalg.norm(x @ w) - np.linalg.norm(x)) <= 1e-10

    def test_shared_vocabulary_intersection(self):
        s1 = space_of(np.eye(3), words=["a", "b", "c"])
        s2 = space_of(np.eye(3), words=["b", "c", "d"])
        assert shared_vocabulary(s1, s2) == ["b", "c"]

    def test_underdetermined_raises(self):
        rng = np.random.default_rng(9)
        s1 = space_of(rng.standard_normal((3, 5)), words=["a", "b", "c"])
        s2 = space_of(rng.standard_normal((3, 5)), words=["a", "b", "x"])
        with pytest.raises(UnderdeterminedError):
            procrustes(s1, s2)

    def test_pipeline_order_same_space_residual(self):
        rng = np.random.default_rng(10)
        vectors = rng.standard_normal((60, 5))
        pair = align(space_of(vectors), space_of(vectors.copy()))
        shared_rows = np.array([pair.space_t1.word_ids[w] for w in pair.shared_vocabulary])
        a = pair.space_t1.vectors[shared_rows]
        b = pair.space_t2.vectors[shared_rows]
        assert np.linalg.norm(a @ pair.rotation - b) <= 1e-8

    def test_align_applies_normalize_then_center(self):
        rng = np.random.default_rng(11)
        v1 = rng.standard_normal((30, 4)) + 2.0
        v2 = rng.standard_normal((30, 4)) - 1.0
        pair = align(space_of(v1), space_of(v2))
        for space, raw in ((pair.space_t1, v1), (pair.space_t2, v2)):
            expected = preprocess(space_of(raw))
            assert np.abs(space.vectors - expected.vectors).max() <= 1e-12
            assert np.abs(space.vectors.mean(axis=0)).max() <= 1e-12

    def test_rotation_direction_t1_into_t2(self):
        # B = A R with unit, centered rows: the fitted map must send t1
        # vectors onto t2 vectors, not the other way around.
        rng = np.random.default_rng(12)
        a = rng.standard_normal((80, 6))
        pair_input = space_of(a)
        r = random_orthogonal(6, rng)
        rotated = space_of(a @ r)
        pair = align(pair_input, rotated)
        rows = np.array([pair.space_t1.word_ids[w] for w in pair.shared_vocabulary])
        mapped = pair.space_t1.vectors[rows] @ pair.rotation
        assert np.linalg.norm(mapped - pair.space_t2.vectors[rows]) <= 1e-6

    def test_mismatched_dimensions_rejected(self):
        s1 = space_of(np.eye(3))
        s2 = space_of(np.ones((3, 2)))
        with pytest.raises(ValueError):
            procrustes(s1, s2)

    def test_unknown_preprocessing_step(self):
        with pytest.raises(ValueError):
            preprocess(space_of(np.eye(2)), steps=("normalize", "scale"))
