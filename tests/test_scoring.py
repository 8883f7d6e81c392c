from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from lscd import scoring
from lscd.align import AlignedPair
from lscd.context import UseSet
from lscd.corpus import T1, T2
from lscd.scoring import (
    CONTEXT_DEPENDENT,
    CONTEXT_FREE,
    ChangeScores,
    contextual_score,
    fill_unscorable,
    mpe_distance,
    read_scores_tsv,
    static_score,
    write_scores_tsv,
)
from lscd.sgns import EmbeddingSpace


def brute_force_mpe(a, b):
    total = 0.0
    for x in a:
        for y in b:
            total += math.sqrt(sum((xi - yi) ** 2 for xi, yi in zip(x, y)))
    return total / (len(a) * len(b))


def fsum_mpe(a, b):
    """Oracle for large sets: every distance from the direct difference,
    summed without rounding error by math.fsum."""
    distances = [np.sqrt(((x - b) ** 2).sum(axis=1)) for x in a]
    return math.fsum(np.concatenate(distances)) / (len(a) * len(b))


def space_of(vectors, words):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSpace(
        words=list(words),
        word_ids={w: i for i, w in enumerate(words)},
        vectors=vectors,
    )


def aligned_identity(v1, v2, words):
    d = np.asarray(v1).shape[1]
    return AlignedPair(
        space_t1=space_of(v1, words),
        space_t2=space_of(v2, words),
        rotation=np.eye(d),
        shared_vocabulary=list(words),
    )


class TestStaticScore:
    def test_identical_vectors_zero(self):
        pair = aligned_identity([[1.0, 2.0]], [[1.0, 2.0]], ["w"])
        scores = static_score(pair, ["w"])
        assert scores.scores["w"] == 0.0

    def test_three_four_five(self):
        pair = aligned_identity([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]], ["w"])
        assert static_score(pair, ["w"]).scores["w"] == 5.0

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(20)]
        v1 = rng.standard_normal((20, 6))
        v2 = rng.standard_normal((20, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        pair = AlignedPair(
            space_t1=space_of(v1, words),
            space_t2=space_of(v2, words),
            rotation=q,
            shared_vocabulary=words,
        )
        scores = static_score(pair, words)
        for i, w in enumerate(words):
            mapped = v1[i] @ q
            expected = math.sqrt(sum((mapped[k] - v2[i][k]) ** 2 for k in range(6)))
            assert abs(scores.scores[w] - expected) <= 1e-12

    def test_missing_target_unscorable_not_fatal(self):
        pair = aligned_identity([[1.0, 0.0]], [[1.0, 0.0]], ["w"])
        scores = static_score(pair, ["w", "gone"])
        assert scores.scores["w"] == 0.0
        assert "gone" in scores.unscorable
        assert "missing" in scores.unscorable["gone"]

    def test_rotation_used(self):
        rot = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = AlignedPair(
            space_t1=space_of([[1.0, 0.0]], ["w"]),
            space_t2=space_of([[0.0, 1.0]], ["w"]),
            rotation=rot,
            shared_vocabulary=["w"],
        )
        assert static_score(pair, ["w"]).scores["w"] == 0.0


class TestMpeDistance:
    def test_identical_singletons_zero(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert mpe_distance(v, v.copy()) == 0.0

    def test_three_four_five(self):
        assert mpe_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0

    def test_hand_case_two_pairs(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        expected = (1.0 + math.sqrt(2.0)) / 2.0
        assert abs(mpe_distance(a, b) - expected) <= 1e-15

    def test_fuzzed_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m, n = int(rng.integers(1, 21)), int(rng.integers(1, 21))
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-2, 3)
            b = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3)
            exact = mpe_distance(a, b)
            brute = brute_force_mpe(a, b)
            assert abs(exact - brute) <= 1e-12 * max(1.0, brute)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((5, 3))
        assert mpe_distance(a, b) == mpe_distance(b, a)

    @pytest.mark.parametrize("pair_budget", [None, 10], ids=["exact", "sampled"])
    def test_symmetry_bit_for_bit_at_unequal_lengths(self, pair_budget):
        rng = np.random.default_rng(6)
        for m, n in [(1, 2), (3, 8), (40, 9), (700, 5)]:
            a = rng.standard_normal((m, 4)) * 10.0 ** rng.integers(-3, 4)
            b = rng.standard_normal((n, 4)) + 5.0
            ab = mpe_distance(a, b, pair_budget=pair_budget, seed=3)
            ba = mpe_distance(b, a, pair_budget=pair_budget, seed=3)
            assert np.float64(ab).tobytes() == np.float64(ba).tobytes()

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal((6, 4))
        shift = rng.standard_normal(4) * 100
        assert abs(mpe_distance(a + shift, b + shift) - mpe_distance(a, b)) <= 1e-10

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((9, 5))
        base = mpe_distance(a, b)
        for alpha in (0.0, 0.3, 2.0, 17.5):
            assert abs(mpe_distance(alpha * a, alpha * b) - alpha * base) <= 1e-10 * max(1.0, alpha)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((3, 2))
            b = rng.standard_normal((4, 2))
            assert mpe_distance(a, b) >= 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mpe_distance(np.empty((0, 3)), np.ones((2, 3)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mpe_distance(np.ones((2, 3)), np.ones((2, 4)))

    def test_budget_exact_when_under_budget(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        assert mpe_distance(a, b, pair_budget=100) == mpe_distance(a, b)

    def test_budget_deterministic(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 3))
        b = rng.standard_normal((50, 3))
        x = mpe_distance(a, b, pair_budget=100, seed=9)
        y = mpe_distance(a, b, pair_budget=100, seed=9)
        assert x == y

    def test_subsample_converges_to_exact(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((1000, 4))
        b = rng.standard_normal((1000, 4)) + 0.5
        exact = mpe_distance(a, b)
        sampled = mpe_distance(a, b, pair_budget=100_000, seed=1)
        assert abs(sampled - exact) / exact <= 0.02

    def test_chunked_path_matches_brute_force(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((700, 40))
        b = rng.standard_normal((900, 40))
        exact = mpe_distance(a, b)
        oracle = fsum_mpe(a, b)
        assert abs(exact - oracle) <= 1e-12 * oracle
        small_a, small_b = a[:30], b[:25]
        assert abs(mpe_distance(small_a, small_b) - brute_force_mpe(small_a, small_b)) <= 1e-12

    def test_many_row_blocks_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((230, 12)) + 3.0
        b = rng.standard_normal((170, 12))
        whole = mpe_distance(a, b)
        # The 170-row set goes first: 7 rows of n = 230 per block, 24 full
        # blocks and a ragged last one of 2 rows.
        monkeypatch.setattr(scoring, "_BLOCK_ELEMENTS", 7 * 230)
        blocked = mpe_distance(a, b)
        oracle = fsum_mpe(a, b)
        assert abs(blocked - oracle) <= 1e-12 * oracle
        assert abs(whole - oracle) <= 1e-12 * oracle
        assert mpe_distance(b, a) == blocked

    def test_cancellation_case_matches_oracle(self, monkeypatch):
        # A large common offset, duplicates and near-duplicates across the
        # periods: the pairs where the Gram expansion cancels.
        rng = np.random.default_rng(11)
        d = 300
        offset = rng.standard_normal(d) * 1e4
        a = rng.standard_normal((120, d)) + offset
        b = rng.standard_normal((90, d)) + offset
        b[:30] = a[:30]
        b[30:60] = a[30:60] + rng.standard_normal((30, d)) * 1e-7
        b[60:70] = a[:10] * (1.0 + 1e-12)
        oracle = fsum_mpe(a, b)
        assert abs(mpe_distance(a, b) - oracle) <= 1e-12 * oracle
        monkeypatch.setattr(scoring, "_BLOCK_ELEMENTS", 5 * 120)
        assert abs(mpe_distance(a, b) - oracle) <= 1e-12 * oracle

    def test_identical_multisets_exactly_zero(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(300) * 1e3 + 0.1
        assert mpe_distance(np.tile(v, (400, 1)), np.tile(v, (300, 1))) == 0.0

    def test_sampled_path_blocked_memory_and_value(self, monkeypatch):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((300, 64))
        b = rng.standard_normal((400, 64))
        # 16 sampled pairs per block: the pairs' difference rows are never
        # formed for the whole budget, only its indices and norms (24 bytes
        # per pair).
        monkeypatch.setattr(scoring, "_BLOCK_ELEMENTS", 1024)
        for budget in (20_000, 80_000):
            tracemalloc.start()
            try:
                value = mpe_distance(a, b, pair_budget=budget, seed=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            draw = np.random.default_rng(4)
            ii = draw.integers(0, len(a), size=budget)
            jj = draw.integers(0, len(b), size=budget)
            assert value == float(np.linalg.norm(a[ii] - b[jj], axis=1).mean())
            assert peak - 24 * budget <= 8 * 8 * 1024

    def test_exact_path_working_set(self):
        # Beside the centered copies of both sets and their squared norms,
        # the exact path holds a few temporaries of one row block each.
        rng = np.random.default_rng(14)
        a = rng.standard_normal((1500, 64))
        b = rng.standard_normal((1450, 64))
        tracemalloc.start()
        try:
            value = mpe_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        centered = a.nbytes + b.nbytes + 8 * (len(a) + len(b))
        assert peak <= centered + 4 * 8 * scoring._BLOCK_ELEMENTS
        assert abs(value - fsum_mpe(a, b)) <= 1e-12 * value

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="pair_budget"):
            mpe_distance(np.ones((2, 3)), np.zeros((2, 3)), pair_budget=budget)


def use(word, period, vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return UseSet(word, period, vectors, list(range(len(vectors))))


class TestContextualScore:
    def test_identical_uses_zero(self):
        v = [[1.0, 2.0], [1.0, 2.0]]
        scores = contextual_score(
            [(use("w", T1, v), use("w", T2, v))], ["w"]
        )
        assert scores.model == CONTEXT_DEPENDENT
        assert scores.scores["w"] == 0.0

    def test_three_by_two_matches_brute_force(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((2, 5))
        scores = contextual_score([(use("w", T1, a), use("w", T2, b))], ["w"])
        assert abs(scores.scores["w"] - brute_force_mpe(a, b)) <= 1e-12

    def test_absent_in_t2_unscorable_with_reason(self):
        a = np.ones((2, 3))
        scores = contextual_score(
            [(use("w", T1, a), use("w", T2, np.empty((0, 3))))], ["w"]
        )
        assert "w" not in scores.scores
        assert scores.unscorable["w"] == "no t2 uses"

    def test_absent_in_both_reports_both(self):
        scores = contextual_score(
            [(use("w", T1, np.empty((0, 3))), use("w", T2, np.empty((0, 3))))], ["w"]
        )
        assert scores.unscorable["w"] == "no t1 uses and no t2 uses"

    def test_missing_pair_flagged(self):
        scores = contextual_score([], ["w"])
        assert scores.unscorable["w"] == "no uses extracted"

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ValueError):
            contextual_score(
                [(use("a", T1, np.ones((1, 2))), use("b", T2, np.ones((1, 2))))],
                ["a"],
            )


class TestFillAndTsv:
    def test_median_fill(self):
        scores = ChangeScores(
            model=CONTEXT_FREE,
            scores={"a": 1.0, "b": 3.0, "c": 10.0},
            unscorable={"d": "missing in t2 vocabulary"},
        )
        filled = fill_unscorable(scores)
        assert filled.scores["d"] == 3.0
        assert filled.status("d") == "median(missing in t2 vocabulary)"
        assert filled.status("a") == "ok"

    def test_fill_without_unscorable_is_noop(self):
        scores = ChangeScores(model=CONTEXT_FREE, scores={"a": 1.0})
        assert fill_unscorable(scores) is scores

    def test_fill_with_nothing_scored(self):
        scores = ChangeScores(
            model=CONTEXT_FREE, scores={}, unscorable={"a": "x", "b": "y"}
        )
        filled = fill_unscorable(scores)
        assert filled.scores == {"a": 0.0, "b": 0.0}

    def test_tsv_roundtrip(self, tmp_path):
        cf = ChangeScores(
            model=CONTEXT_FREE,
            scores={"a": 0.25, "b": 1.5},
            unscorable={"c": "missing in t1 vocabulary"},
        )
        cd = fill_unscorable(
            ChangeScores(
                model=CONTEXT_DEPENDENT,
                scores={"a": 2.0, "b": 0.125},
                unscorable={"c": "no t2 uses"},
            )
        )
        path = tmp_path / "scores.tsv"
        write_scores_tsv([cf, cd], path)
        again = read_scores_tsv(path)
        assert again[CONTEXT_FREE].scores == cf.scores
        assert again[CONTEXT_FREE].unscorable == cf.unscorable
        assert again[CONTEXT_DEPENDENT].scores == cd.scores
        assert again[CONTEXT_DEPENDENT].unscorable == cd.unscorable
