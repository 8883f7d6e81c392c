"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The heavy end-to-end criteria run the real pipeline on the synthetic
benchmark with known shift degrees; the numeric criteria check the core
operations against independent oracles at their stated tolerances.
"""

from __future__ import annotations

import shutil
import time

import numpy as np
import pytest

from lscd.align import align, procrustes_rotation
from lscd.benchmark import generate_shift_benchmark, write_benchmark
from lscd.context import EncoderConfig, train_time_classifier
from lscd.corpus import T1, T2, build_clf_dataset, load_corpus, load_targets
from lscd.ensemble import average_ranks, combine, theta_from_accuracy, Ranking
from lscd.evaluate import load_gold, spearman_values
from lscd.pipeline import Pipeline, load_config
from lscd.scoring import mpe_distance, static_score
from lscd.sgns import SgnsConfig, sgns_step, train_sgns

from test_context import marker_corpora, shuffle_labels
from test_evaluate import oracle_spearman
from test_scoring import brute_force_mpe
from test_sgns import finite_difference_grads, relative_error


def report(name: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert passed, line


BENCH_SENTENCES = 20_000
BENCH_TARGETS = 8

BENCH_CONFIG = """
[paths]
corpus_t1 = {bench}/corpus_t1.txt
corpus_t2 = {bench}/corpus_t2.txt
targets = {bench}/targets.txt
gold = {bench}/gold.tsv
binary_gold = {bench}/gold_binary.tsv
output_dir = {out}

[sgns]
dimension = 64
window = 5
negatives = 2
epochs = 3

[encoder]
dimension = 32
context_radius = 3

[run]
seed = 929
"""

SGNS_BENCH = dict(dimension=64, window=5, negatives=2, epochs=3)


@pytest.fixture(scope="module")
def bench_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_bench")
    bench = generate_shift_benchmark(
        BENCH_TARGETS,
        list(np.linspace(0.0, 1.0, BENCH_TARGETS)),
        BENCH_SENTENCES,
        seed=101,
    )
    paths = write_benchmark(bench, out)
    return out, paths, bench


def test_theta_heuristic_fixtures():
    start = time.time()
    fixtures = [
        (0.59, 0.18),
        (0.95, 0.90),
        (0.82, 0.64),
        (0.50, 0.00),
        (0.73, 0.46),
        (0.50, 0.00),
    ]
    ok = all(
        round(theta_from_accuracy(acc).value, 2) == expected
        for acc, expected in fixtures
    )
    elapsed = time.time() - start
    report(
        "theta heuristic fixtures (6 accuracy->weight pairs, 2 decimals)",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_procrustes_rotation_recovery():
    start = time.time()
    rng = np.random.default_rng(7)
    recovery_ok = True
    worst = 0.0
    for d in (10, 50, 300):
        a = rng.standard_normal((1000, d))
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        planted = q * np.sign(np.diag(r))
        w = procrustes_rotation(a, a @ planted)
        err = np.linalg.norm(w - planted)
        worst = max(worst, err)
        recovery_ok &= err <= 1e-6

    # noisy variant: fitted residual must beat 100 random orthogonal probes
    d = 300
    a = rng.standard_normal((1000, d))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    planted = q * np.sign(np.diag(r))
    b = a @ planted + rng.normal(0.0, 1e-3, size=a.shape)
    w = procrustes_rotation(a, b)
    fitted = np.linalg.norm(a @ w - b)
    probes_ok = True
    for _ in range(100):
        qq, rr = np.linalg.qr(rng.standard_normal((d, d)))
        probe = qq * np.sign(np.diag(rr))
        probes_ok &= fitted <= np.linalg.norm(a @ probe - b)

    elapsed = time.time() - start
    report(
        "procrustes rotation recovery (d in {10,50,300}, noise probes)",
        recovery_ok and probes_ok and elapsed < 30.0,
        f"worst recovery {worst:.2e}, {elapsed:.1f}s",
    )


def test_mpe_oracle_equivalence():
    rng = np.random.default_rng(11)
    exact_ok = True
    for _ in range(200):
        m, n = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-2, 3)
        b = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3)
        got = mpe_distance(a, b)
        want = brute_force_mpe(a, b)
        exact_ok &= abs(got - want) <= 1e-12 * max(1.0, want)

    props_ok = True
    for _ in range(50):
        a = rng.standard_normal((int(rng.integers(1, 12)), 4))
        b = rng.standard_normal((int(rng.integers(1, 12)), 4))
        base = mpe_distance(a, b)
        props_ok &= mpe_distance(a, b) == mpe_distance(b, a)
        shift = rng.standard_normal(4) * 50
        props_ok &= abs(mpe_distance(a + shift, b + shift) - base) <= 1e-10
        alpha = float(rng.random() * 3)
        props_ok &= abs(mpe_distance(alpha * a, alpha * b) - alpha * base) <= 1e-10

    report(
        "mean-pairwise-Euclidean oracle equivalence (200 fuzzed pairs)",
        exact_ok and props_ok,
    )


def test_spearman_oracle_equivalence():
    rng = np.random.default_rng(13)
    ok = True
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 40))
        x = rng.integers(0, max(2, n // 2), size=n).astype(float)
        y = rng.integers(0, max(2, n // 2), size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        checked += 1
        ok &= abs(spearman_values(x, y) - oracle_spearman(x, y)) <= 1e-12
    identity = np.arange(10, dtype=float)
    ok &= spearman_values(identity, identity * 2 + 3) == 1.0
    ok &= spearman_values(identity, -identity) == -1.0
    report(
        "spearman oracle equivalence (200 fuzzed tie-bearing pairs, exact endpoints)",
        ok,
    )


def test_sgns_gradient_check():
    rng = np.random.default_rng(17)
    ok = True
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, 6))
        center = rng.standard_normal(d)
        context = rng.standard_normal(d)
        negatives = rng.standard_normal((k, d))
        _, g_c, g_u, g_n = sgns_step(center, context, negatives)
        fd_c, fd_u, fd_n = finite_difference_grads(center, context, negatives)
        err = max(
            relative_error(g_c, fd_c),
            relative_error(g_u, fd_u),
            relative_error(g_n, fd_n),
        )
        worst = max(worst, err)
        ok &= err <= 1e-4
    report(
        "skip-gram negative-sampling gradient check (100 random steps)",
        ok,
        f"worst relative error {worst:.2e}",
    )


def test_classifier_sanity():
    start = time.time()
    rng = np.random.default_rng(19)
    c1, c2 = marker_corpora(rng, n=1600)
    planted = build_clf_dataset(c1, c2, masked=False, seed=23)
    _, planted_metrics = train_time_classifier(
        planted, EncoderConfig(dimension=32, context_radius=3, seed=29)
    )

    shuffled = shuffle_labels(planted, seed=31)
    _, shuffled_metrics = train_time_classifier(
        shuffled, EncoderConfig(dimension=32, context_radius=3, seed=37)
    )
    n_test = sum(shuffled_metrics.example_counts.values())
    theta = theta_from_accuracy(
        min(1.0, max(0.0, shuffled_metrics.accuracy))
    ).value

    elapsed = time.time() - start
    report(
        "classifier sanity (planted marker >= 0.95; shuffled labels near chance)",
        planted_metrics.accuracy >= 0.95
        and n_test >= 500
        and 0.45 <= shuffled_metrics.accuracy <= 0.55
        and theta <= 0.10
        and elapsed < 120.0,
        f"planted {planted_metrics.accuracy:.3f}, shuffled {shuffled_metrics.accuracy:.3f} "
        f"(n_test={n_test}), theta {theta:.2f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_end_to_end_synthetic_recovery(bench_files, tmp_path):
    start = time.time()
    bench_dir, paths, bench = bench_files
    targets = load_targets(paths["targets"])
    gold = load_gold(paths["gold"])

    rhos = []
    for seed in range(5):
        c1 = load_corpus(paths["corpus_t1"], T1)
        c2 = load_corpus(paths["corpus_t2"], T2)
        s1 = train_sgns(c1, SgnsConfig(**SGNS_BENCH, seed=1000 + seed))
        s2 = train_sgns(c2, SgnsConfig(**SGNS_BENCH, seed=2000 + seed))
        pair = align(s1, s2)
        scores = static_score(pair, targets)
        rho = spearman_values(
            np.array([scores.scores[w] for w in targets]),
            np.array([gold[w] for w in targets]),
        )
        rhos.append(rho)
    median_rho = float(np.median(rhos))

    # ensemble at theta=0 must be byte-identical to the context-free answers
    out = tmp_path / "out"
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        BENCH_CONFIG.format(bench=bench_dir, out=out), encoding="utf-8"
    )
    pipeline = Pipeline(load_config(config_path, overrides={"theta": 0.0}))
    pipeline.run_all()
    ensemble_bytes = (out / "answers" / "graded_ensemble.tsv").read_bytes()
    cf_bytes = (out / "answers" / "graded_context_free.tsv").read_bytes()

    elapsed = time.time() - start
    report(
        "end-to-end synthetic recovery (median rho over 5 seeds; theta=0 identity)",
        median_rho >= 0.8 and ensemble_bytes == cf_bytes and elapsed < 600.0,
        f"median rho {median_rho:.3f} (all: {[round(r, 3) for r in rhos]}), {elapsed:.0f}s",
    )


def test_ensemble_extremes_on_fuzzed_rankings():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 40))
        words = [f"w{i}" for i in range(n)]
        r_cf = Ranking(
            ranks=dict(zip(words, average_ranks(rng.integers(0, n, size=n).astype(float)))),
            source="cf",
        )
        r_cd = Ranking(
            ranks=dict(zip(words, average_ranks(rng.integers(0, n, size=n).astype(float)))),
            source="cd",
        )
        ok &= combine(r_cf, r_cd, 0.0).ranks == r_cf.ranks
        ok &= combine(r_cf, r_cd, 1.0).ranks == r_cd.ranks
    report("ensemble extremes reproduce input rank order (100 fuzzed pairs)", ok)


@pytest.mark.slow
def test_deterministic_reruns_byte_identical(bench_files, tmp_path):
    start = time.time()
    bench_dir, _, _ = bench_files
    out = tmp_path / "out"
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        BENCH_CONFIG.format(bench=bench_dir, out=out), encoding="utf-8"
    )

    def run_once() -> tuple[dict[str, bytes], bytes]:
        config = load_config(config_path)
        Pipeline(config).run_all()
        answers = {
            p.name: p.read_bytes() for p in sorted((out / "answers").iterdir())
        }
        manifest = (out / "manifest.json").read_bytes()
        shutil.rmtree(out)  # force the second run to recompute from scratch
        return answers, manifest

    answers_a, manifest_a = run_once()
    answers_b, manifest_b = run_once()
    elapsed = time.time() - start
    report(
        "deterministic reruns byte-identical (answers and manifest)",
        answers_a == answers_b and manifest_a == manifest_b,
        f"{elapsed:.0f}s",
    )
