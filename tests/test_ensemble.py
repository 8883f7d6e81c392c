from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscd.ensemble import (
    CHANGED,
    UNCHANGED,
    Ranking,
    Theta,
    average_ranks,
    binarize,
    combine,
    grid_search_theta,
    ranks_from_scores,
    theta_from_accuracy,
)
from lscd.errors import TargetMismatchError
from lscd.scoring import CONTEXT_FREE, ChangeScores


def sort_oracle_ranks(values):
    """Independent average-rank computation via explicit sorting."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def ranking_of(mapping, source="test") -> Ranking:
    return Ranking(ranks=dict(mapping), source=source)


class TestRanksFromScores:
    def test_two_scores(self):
        scores = ChangeScores(model=CONTEXT_FREE, scores={"a": 0.1, "b": 0.9})
        assert ranks_from_scores(scores).ranks == {"a": 1.0, "b": 2.0}

    def test_average_ties(self):
        scores = ChangeScores(
            model=CONTEXT_FREE, scores={"a": 0.5, "b": 0.5, "c": 1.0}
        )
        assert ranks_from_scores(scores).ranks == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        # Distinct values, then tie-heavy ones where 0.0 and -0.0 tie.
        tied = rng.integers(-3, 4, size=100) * 0.5
        tied[rng.random(100) < 0.2] = -0.0
        for values in (rng.standard_normal(100), tied):
            words = [f"w{i}" for i in range(100)]
            scores = ChangeScores(
                model=CONTEXT_FREE, scores=dict(zip(words, map(float, values)))
            )
            ranking = ranks_from_scores(scores)
            oracle = sort_oracle_ranks(list(values))
            assert [ranking.ranks[w] for w in words] == oracle

    def test_source_defaults_to_model(self):
        scores = ChangeScores(model=CONTEXT_FREE, scores={"a": 1.0})
        assert ranks_from_scores(scores).source == CONTEXT_FREE

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_sum_invariant(self, values):
        ranks = average_ranks(np.array(values))
        n = len(values)
        assert abs(ranks.sum() - n * (n + 1) / 2) <= 1e-9
        assert (ranks >= 1.0).all() and (ranks <= n).all()

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_property(self, values):
        assert list(average_ranks(np.array(values))) == sort_oracle_ranks(values)

    def test_nans_tie_and_rank_last(self):
        nan = float("nan")
        assert average_ranks(np.array([1.0, nan, nan, 0.0])).tolist() == [2.0, 3.5, 3.5, 1.0]


class TestTheta:
    # Held-out accuracy -> ensemble weight pairs, exact at two decimals.
    FIXTURES = [
        (0.59, 0.18),
        (0.95, 0.90),
        (0.82, 0.64),
        (0.50, 0.00),
        (0.73, 0.46),
        (0.50, 0.00),
    ]

    def test_reference_pairs_exact_at_two_decimals(self):
        for accuracy, expected in self.FIXTURES:
            theta = theta_from_accuracy(accuracy)
            assert round(theta.value, 2) == expected
            assert theta.provenance == "heuristic"

    def test_endpoints_exact(self):
        assert theta_from_accuracy(0.5).value == 0.0
        assert theta_from_accuracy(1.0).value == 1.0

    def test_below_chance_clamps_to_zero(self):
        assert theta_from_accuracy(0.3).value == 0.0
        assert theta_from_accuracy(0.0).value == 0.0

    def test_monotone_non_decreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [theta_from_accuracy(a).value for a in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        for bad in (-0.01, 1.01, 2.0):
            with pytest.raises(ValueError):
                theta_from_accuracy(bad)

    def test_theta_range_validated(self):
        with pytest.raises(ValueError):
            Theta(value=1.5, provenance="manual")


class TestCombine:
    def test_theta_zero_reproduces_cf_order(self):
        r_cf = ranking_of({"a": 1.0, "b": 2.0, "c": 3.0})
        r_cd = ranking_of({"a": 3.0, "b": 1.0, "c": 2.0})
        out = combine(r_cf, r_cd, 0.0)
        assert out.ranks == r_cf.ranks

    def test_theta_one_reproduces_cd_order(self):
        r_cf = ranking_of({"a": 1.0, "b": 2.0, "c": 3.0})
        r_cd = ranking_of({"a": 3.0, "b": 1.0, "c": 2.0})
        out = combine(r_cf, r_cd, 1.0)
        assert out.ranks == r_cd.ranks

    def test_hand_computed_midpoint(self):
        # combined values {a: 2, b: 1.5, c: 2.5} re-rank to {a: 2, b: 1, c: 3}
        r_cf = ranking_of({"a": 1.0, "b": 2.0, "c": 3.0})
        r_cd = ranking_of({"a": 3.0, "b": 1.0, "c": 2.0})
        out = combine(r_cf, r_cd, Theta(value=0.5, provenance="manual"))
        assert out.ranks == {"a": 2.0, "b": 1.0, "c": 3.0}

    def test_combine_with_self_is_identity(self):
        rng = np.random.default_rng(1)
        ranks = ranks_from_scores(
            ChangeScores(
                model=CONTEXT_FREE,
                scores={f"w{i}": float(v) for i, v in enumerate(rng.standard_normal(20))},
            )
        )
        for theta in (0.0, 0.3, 0.7, 1.0):
            assert combine(ranks, ranks, theta).ranks == ranks.ranks

    def test_extremes_on_fuzzed_rankings(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            words = [f"w{i}" for i in range(n)]
            cf_vals = rng.integers(0, n, size=n).astype(float)
            cd_vals = rng.integers(0, n, size=n).astype(float)
            r_cf = ranking_of(dict(zip(words, average_ranks(cf_vals))))
            r_cd = ranking_of(dict(zip(words, average_ranks(cd_vals))))
            assert combine(r_cf, r_cd, 0.0).ranks == r_cf.ranks
            assert combine(r_cf, r_cd, 1.0).ranks == r_cd.ranks

    def test_target_mismatch_lists_difference(self):
        r_cf = ranking_of({"a": 1.0, "b": 2.0})
        r_cd = ranking_of({"a": 1.0, "c": 2.0})
        with pytest.raises(TargetMismatchError) as excinfo:
            combine(r_cf, r_cd, 0.5)
        assert excinfo.value.only_left == {"b"}
        assert excinfo.value.only_right == {"c"}


class TestGridSearch:
    def test_cd_matches_gold_forces_one(self):
        # r_cd equals the gold order; r_cf puts "a" dead last, which keeps
        # the combination's order wrong for every grid value below 1.
        gold = {"a": 0.0, "b": 1.0, "c": 2.0, "d": 3.0}
        r_cd = ranking_of({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        r_cf = ranking_of({"a": 4.0, "b": 1.0, "c": 2.0, "d": 3.0})
        theta = grid_search_theta(r_cf, r_cd, gold, step=0.25)
        assert theta.value == 1.0
        assert theta.provenance == "grid_search"

    def test_identical_inputs_tie_returns_zero(self):
        r = ranking_of({"a": 1.0, "b": 2.0, "c": 3.0})
        gold = {"a": 0.1, "b": 0.5, "c": 0.9}
        assert grid_search_theta(r, ranking_of(r.ranks), gold, step=0.1).value == 0.0

    def test_matches_exhaustive_oracle(self):
        from lscd.evaluate import spearman_values

        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(20)]
        r_cf = ranking_of(dict(zip(words, average_ranks(rng.standard_normal(20)))))
        r_cd = ranking_of(dict(zip(words, average_ranks(rng.standard_normal(20)))))
        gold = {w: float(v) for w, v in zip(words, rng.standard_normal(20))}
        step = 0.05
        best = grid_search_theta(r_cf, r_cd, gold, step=step)

        gold_vec = np.array([gold[w] for w in words])
        best_rho, best_theta = -np.inf, None
        for k in range(21):
            theta = k * step
            combined = combine(r_cf, r_cd, theta)
            rho = spearman_values(
                np.array([combined.ranks[w] for w in words]), gold_vec
            )
            if rho > best_rho:
                best_rho, best_theta = rho, theta
        assert abs(best.value - best_theta) <= 1e-12

    def test_bad_step_rejected(self):
        r = ranking_of({"a": 1.0, "b": 2.0})
        with pytest.raises(ValueError):
            grid_search_theta(r, r, {"a": 1.0, "b": 2.0}, step=0.0)
        with pytest.raises(ValueError):
            grid_search_theta(r, r, {"a": 1.0, "b": 2.0}, step=0.6)

    def test_gold_mismatch_rejected(self):
        r = ranking_of({"a": 1.0, "b": 2.0})
        with pytest.raises(TargetMismatchError):
            grid_search_theta(r, r, {"a": 1.0, "zzz": 2.0}, step=0.1)


class TestBinarize:
    def test_even_count(self):
        labels = binarize(ranking_of({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}))
        assert labels == {
            "a": UNCHANGED, "b": UNCHANGED, "c": CHANGED, "d": CHANGED
        }

    def test_odd_count_extra_word_changed(self):
        labels = binarize(ranking_of({f"w{i}": float(i + 1) for i in range(5)}))
        assert sum(1 for v in labels.values() if v == CHANGED) == 3

    def test_all_tied_lexicographic_cut(self):
        labels = binarize(ranking_of({w: 2.5 for w in ["d", "b", "a", "c"]}))
        assert labels == {
            "a": UNCHANGED, "b": UNCHANGED, "c": CHANGED, "d": CHANGED
        }

    def test_single_word(self):
        assert binarize(ranking_of({"only": 1.0})) == {"only": CHANGED}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binarize(ranking_of({}))
