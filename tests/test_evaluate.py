from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from lscd.benchmark import generate_shift_benchmark, true_binary_labels, write_benchmark
from lscd.ensemble import Ranking
from lscd.errors import (
    FormatError,
    TargetMismatchError,
    UndefinedCorrelationError,
)
from lscd.evaluate import (
    binary_accuracy,
    load_binary_gold,
    load_gold,
    spearman,
    spearman_values,
)
from lscd.scoring import CONTEXT_FREE, ChangeScores


def oracle_spearman(x, y):
    """Independent tie-corrected recomputation: average ranks via explicit
    sorting, then the product-moment correlation from first principles."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


class TestSpearman:
    def test_identical_orders_exactly_one(self):
        x = np.array([0.1, 0.4, 2.0, 5.0])
        assert spearman_values(x, x * 3.0 + 1.0) == 1.0

    def test_reversed_orders_exactly_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_values(x, -x) == -1.0

    def test_tied_fixture_matches_oracle(self):
        pred = [1.0, 2.0, 2.0, 4.0]
        gold = [1.0, 2.0, 3.0, 4.0]
        rho = spearman_values(np.array(pred), np.array(gold))
        assert abs(rho - oracle_spearman(pred, gold)) <= 1e-12
        assert abs(rho - math.sqrt(0.9)) <= 1e-12

    def test_fuzzed_with_ties_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            # integer draws produce plenty of ties
            x = rng.integers(0, max(2, n // 2), size=n).astype(float)
            y = rng.integers(0, max(2, n // 2), size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            rho = spearman_values(x, y)
            assert abs(rho - oracle_spearman(x, y)) <= 1e-12
            assert -1.0 <= rho <= 1.0

    def test_matches_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 8, size=n).astype(float)
            y = rng.standard_normal(n)
            if len(set(x)) < 2:
                continue
            rho = spearman_values(x, y)
            assert abs(rho - spearmanr(x, y).statistic) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert spearman_values(x, y) == spearman_values(y, x)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        base = spearman_values(x, y)
        assert abs(spearman_values(np.exp(x), y) - base) <= 1e-12
        assert abs(spearman_values(x, y**3) - base) <= 1e-12

    def test_short_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_values(np.array([1.0]), np.array([2.0]))

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_values(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_domain_objects_and_target_matching(self):
        ranking = Ranking(ranks={"a": 1.0, "b": 2.0, "c": 3.0}, source="test")
        gold = {"b": 5.0, "a": 1.0, "c": 9.0}
        assert spearman(ranking, gold) == 1.0
        scores = ChangeScores(
            model=CONTEXT_FREE, scores={"a": 0.0, "b": 0.5, "c": 1.0}
        )
        assert spearman(scores, gold) == 1.0

    def test_target_mismatch_rejected(self):
        ranking = Ranking(ranks={"a": 1.0, "b": 2.0}, source="test")
        with pytest.raises(TargetMismatchError):
            spearman(ranking, {"a": 1.0, "x": 2.0})


class TestBinaryAccuracy:
    def test_all_correct(self):
        pred = {"a": 1, "b": 0}
        assert binary_accuracy(pred, {"a": 1, "b": 0}) == 1.0

    def test_all_wrong(self):
        pred = {"a": 0, "b": 1}
        assert binary_accuracy(pred, {"a": 1, "b": 0}) == 0.0

    def test_35_of_48_counting_fixture(self):
        words = [f"w{i:02d}" for i in range(48)]
        gold = {w: i % 2 for i, w in enumerate(words)}
        pred = dict(gold)
        for w in words[:13]:
            pred[w] = 1 - pred[w]
        acc = binary_accuracy(pred, gold)
        assert abs(acc - 35 / 48) <= 1e-12
        assert round(acc, 4) == 0.7292

    def test_string_labels_accepted(self):
        pred = {"a": "changed", "b": "unchanged"}
        assert binary_accuracy(pred, {"a": 1, "b": 0}) == 1.0

    def test_mismatch_rejected(self):
        with pytest.raises(TargetMismatchError):
            binary_accuracy({"a": 1}, {"b": 1})


class TestGoldFiles:
    def test_graded_roundtrip(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("alpha\t0.25\nbeta\t-1.5\n", encoding="utf-8")
        assert load_gold(path) == {"alpha": 0.25, "beta": -1.5}

    def test_graded_malformed_line_reported(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("alpha\t0.25\nbeta\n", encoding="utf-8")
        with pytest.raises(FormatError) as excinfo:
            load_gold(path)
        assert excinfo.value.line == 2

    def test_binary_roundtrip(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("alpha\t1\nbeta\t0\n", encoding="utf-8")
        assert load_binary_gold(path) == {"alpha": 1, "beta": 0}

    def test_binary_bad_label_rejected(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("alpha\t2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_binary_gold(path)

    @pytest.mark.parametrize(
        "load, rows",
        [(load_gold, ["0.1", "0.5", "0.9"]), (load_binary_gold, ["0", "1", "1"])],
        ids=["graded", "binary"],
    )
    def test_repeated_word_rejected(self, tmp_path, load, rows):
        # A later row must not silently replace an earlier one.
        path = tmp_path / "gold.tsv"
        path.write_text("a\t{}\nb\t{}\n\na\t{}\n".format(*rows), encoding="utf-8")
        with pytest.raises(FormatError, match="'a'") as excinfo:
            load(path)
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_graded_non_finite_rejected(self, tmp_path, value):
        # A NaN would rank above every number and hide in Spearman's rho.
        path = tmp_path / "gold.tsv"
        path.write_text(f"a\t0.1\nb\t{value}\nc\t0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match=value) as excinfo:
            load_gold(path)
        assert excinfo.value.line == 2


class TestBenchmarkGenerator:
    def count_pool_fractions(self, benchmark):
        """Counting oracle: classify each target sentence by its adjacent
        context pool and measure the B fraction per target in each corpus."""
        fractions = {}
        for corpus_name, sentences in (
            ("t1", benchmark.sentences_t1),
            ("t2", benchmark.sentences_t2),
        ):
            counts = {w: [0, 0] for w in benchmark.targets}  # [a_ctx, b_ctx]
            for sentence in sentences:
                for target in benchmark.targets:
                    if target in sentence:
                        pos = sentence.index(target)
                        neighbor = sentence[pos - 1]
                        if neighbor.startswith("a"):
                            counts[target][0] += 1
                        elif neighbor.startswith("b"):
                            counts[target][1] += 1
            fractions[corpus_name] = {
                w: b / (a + b) if a + b else 0.0 for w, (a, b) in counts.items()
            }
        return fractions

    def test_degree_zero_and_one_structure(self):
        bench = generate_shift_benchmark(2, [0.0, 1.0], 2000, seed=0)
        fractions = self.count_pool_fractions(bench)
        assert fractions["t1"][bench.targets[0]] == 0.0
        assert fractions["t1"][bench.targets[1]] == 0.0
        assert fractions["t2"][bench.targets[0]] == 0.0
        assert fractions["t2"][bench.targets[1]] == 1.0

    def test_b_fraction_tracks_degree(self):
        degrees = [0.0, 0.25, 0.5, 0.75, 1.0]
        bench = generate_shift_benchmark(5, degrees, 10_000, seed=1)
        fractions = self.count_pool_fractions(bench)
        for target, degree in zip(bench.targets, degrees):
            assert abs(fractions["t2"][target] - degree) <= 0.05
            assert fractions["t1"][target] == 0.0

    def test_min_occurrences(self):
        bench = generate_shift_benchmark(4, [0.1, 0.4, 0.7, 0.9], 500, seed=2)
        for sentences in (bench.sentences_t1, bench.sentences_t2):
            counts = {w: 0 for w in bench.targets}
            for sentence in sentences:
                for w in bench.targets:
                    counts[w] += sentence.count(w)
            assert all(c >= 20 for c in counts.values())

    def test_deterministic_per_seed(self):
        a = generate_shift_benchmark(3, [0.0, 0.5, 1.0], 300, seed=5)
        b = generate_shift_benchmark(3, [0.0, 0.5, 1.0], 300, seed=5)
        assert a.sentences_t1 == b.sentences_t1
        assert a.sentences_t2 == b.sentences_t2

    def test_sentence_counts(self):
        bench = generate_shift_benchmark(3, [0.0, 0.5, 1.0], 1000, seed=6)
        assert len(bench.sentences_t1) == 1000
        assert len(bench.sentences_t2) == 1000

    def test_degrees_validation(self):
        with pytest.raises(ValueError):
            generate_shift_benchmark(2, [0.5], 100, seed=0)
        with pytest.raises(ValueError):
            generate_shift_benchmark(1, [1.5], 100, seed=0)

    @pytest.mark.parametrize(
        "n_targets, base_sentences, message",
        [(0, 100, "n_targets"), (-2, 100, "n_targets"), (2, 0, "base_sentences")],
    )
    def test_sizes_rejected_before_drawing(
        self, n_targets, base_sentences, message, monkeypatch
    ):
        def no_rng(seed):
            raise AssertionError("drew before checking the sizes")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(ValueError, match=f"{message} must be at least 1"):
            generate_shift_benchmark(n_targets, None, base_sentences, seed=0)

    def test_write_benchmark_rejected_labels_write_nothing(self, tmp_path):
        bench = generate_shift_benchmark(2, [0.0, 1.0], 100, seed=0)
        bench.targets, bench.degrees = [], []
        with pytest.raises(ValueError, match="empty ranking"):
            write_benchmark(bench, tmp_path / "bench")
        assert not (tmp_path / "bench").exists()

    # sha256 of every file `lscd gen-bench` writes. Any change to the
    # generator's random stream changes them; the default output must stay
    # byte-identical for every seed.
    GOLDEN = {
        (4, 300, 1): {
            "corpus_t1": "7930e038d6bb551fe36eea48b34889b98bcb5ac26cc5d17e46174f4dabf7cdd4",
            "corpus_t2": "da7f820c0ccb84c42730880555d8c9e77e2431eb80add00b9f763bbbfafa2eaf",
            "targets": "1fe473ad62b02107e5383a7935116f6485e9c5677d547324e196ae5d0f4f3ed2",
            "gold": "f9451930b7b2d5e64e7ce43a939b6215682214c3385c97a6747f494f97972761",
            "binary_gold": "415a1f9a336bc8481878557843e555c72b02c83644c8addca10f0d59d2070c5c",
        },
        (8, 20000, 101): {
            "corpus_t1": "b0c90d82e6470bf6c23ae23d615c39dc62741244fe9445e7c4a315829af009e6",
            "corpus_t2": "ba6e0170bf4f3c98ad1308c20dcf81f4f9abf3e92c3510979bf33cc6eca88f4d",
            "targets": "d85cf3651d05ab702b861c75cea6b67ed01612c1cbf6293e379fb706fdf426be",
            "gold": "d6649db0f523ba7ee5aa6060761d8f2161bca216632d8060762e8d8b6d9c1eaf",
            "binary_gold": "0ea24fcd68c2f38b495ec7ef6498b68aa4b2a23edf141d0a4439742b44cd3cdd",
        },
    }

    @pytest.mark.parametrize("n_targets, sentences, seed", sorted(GOLDEN))
    def test_output_byte_identical_to_golden(self, n_targets, sentences, seed, tmp_path):
        degrees = list(np.linspace(0.0, 1.0, n_targets))
        bench = generate_shift_benchmark(n_targets, degrees, sentences, seed)
        paths = write_benchmark(bench, tmp_path)
        digests = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()
        }
        assert digests == self.GOLDEN[n_targets, sentences, seed]

    def test_true_binary_labels_upper_half(self):
        bench = generate_shift_benchmark(4, [0.9, 0.1, 0.6, 0.3], 500, seed=7)
        labels = true_binary_labels(bench)
        assert labels == {
            bench.targets[0]: 1,
            bench.targets[1]: 0,
            bench.targets[2]: 1,
            bench.targets[3]: 0,
        }

    def test_write_benchmark_files(self, tmp_path):
        bench = generate_shift_benchmark(3, [0.0, 0.5, 1.0], 200, seed=8)
        paths = write_benchmark(bench, tmp_path / "bench")
        for path in paths.values():
            assert path.is_file()
        assert set(load_gold(paths["gold"])) == set(bench.targets)
        assert set(load_binary_gold(paths["binary_gold"])) == set(bench.targets)
        targets = (paths["targets"].read_text(encoding="utf-8")).split()
        assert targets == bench.targets
