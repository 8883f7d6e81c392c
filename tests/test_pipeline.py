from __future__ import annotations

import dataclasses
import json
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import lscd
from lscd.benchmark import generate_shift_benchmark, write_benchmark
from lscd.cli import build_parser, main
from lscd.corpus import (
    T1,
    T2,
    _read_lines,
    apply_threshold,
    build_vocabulary,
    load_corpus,
    load_targets,
)
from lscd.errors import (
    FormatError,
    StageError,
    TrainingDivergedError,
    UnderdeterminedError,
)
from lscd.pipeline import (
    Pipeline,
    PipelineConfig,
    derive_seed,
    load_config,
)
from lscd.sgns import train_sgns

CONFIG_TEMPLATE = """
[paths]
corpus_t1 = {bench}/corpus_t1.txt
corpus_t2 = {bench}/corpus_t2.txt
targets = {bench}/targets.txt
gold = {bench}/gold.tsv
binary_gold = {bench}/gold_binary.tsv
output_dir = {out}

[sgns]
dimension = 16
window = 3
negatives = 2
epochs = 1

[encoder]
dimension = 16
context_radius = 2

[ensemble]
grid_step = 0.25

[run]
seed = 7
"""


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench")
    bench = generate_shift_benchmark(
        n_targets=5, degrees=None, base_sentences=600, seed=3
    )
    write_benchmark(bench, path)
    return path


# What forking the static stage's helper imports; the process pool it
# replaced is listed too.
FORK_MODULES = {
    "multiprocessing",
    "multiprocessing.connection",
    "multiprocessing.queues",
    "concurrent.futures.process",
}
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(lscd.__file__).parents[1]))


def cut(data: bytes, how: str) -> bytes:
    """`data` cut in the middle of a line ("bytes"), after half its lines
    ("lines") or before its last line ("last-line"), which both leave a file
    that ends as a whole one does, or in the middle of its last line, with
    the newline kept ("row": a malformed row)."""
    lines = data.splitlines(keepends=True)
    if how == "bytes":
        return data[: len(data) // 2]
    if how == "row":
        return b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2] + b"\n"
    return b"".join(lines[: len(lines) // 2 if how == "lines" else -1])


def write_config(tmp_path: Path, bench: Path, extra: str = "") -> Path:
    out = tmp_path / "out"
    text = CONFIG_TEMPLATE.format(bench=bench, out=out) + extra
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_and_parsing(self, tmp_path, bench_dir):
        config = load_config(write_config(tmp_path, bench_dir))
        assert config.sgns.dimension == 16
        assert config.sgns.window == 3
        assert config.sgns.negatives == 2
        assert config.sgns.noise_exponent == 0.75  # documented default
        assert config.encoder.dimension == 16
        assert config.encoder.epochs == 1  # documented default
        assert config.masked is True
        assert config.threshold == "auto"
        assert config.theta is None
        assert config.grid_step == 0.25
        assert config.pair_budget is None
        assert config.seed == 7

    def test_unknown_key_rejected(self, tmp_path, bench_dir):
        for section, key in (("[sgns]", "typo_key"), ("[run]", "deterministic")):
            path = write_config(tmp_path, bench_dir)
            text = path.read_text().replace(section, f"{section}\n{key} = true")
            path.write_text(text)
            with pytest.raises(ValueError, match=key):
                load_config(path)

    @pytest.mark.parametrize(
        "section, key",
        [("mystery", "x = 1"), ("align", "preprocessing = normalize,center")],
        ids=["mystery", "align"],
    )
    def test_unknown_section_rejected(self, tmp_path, bench_dir, section, key):
        path = write_config(tmp_path, bench_dir, extra=f"\n[{section}]\n{key}\n")
        with pytest.raises(ValueError, match=re.escape(f"[{section}]")):
            load_config(path)

    def test_missing_required_path(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[paths]\ncorpus_t1 = x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="corpus_t2"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path, bench_dir):
        config_path = write_config(tmp_path, bench_dir)
        text = config_path.read_text().replace("corpus_t1.txt", "nope.txt")
        config_path.write_text(text)
        with pytest.raises(FileNotFoundError):
            load_config(config_path)

    def test_overrides(self, tmp_path, bench_dir):
        config = load_config(
            write_config(tmp_path, bench_dir),
            overrides={"seed": 99, "theta": 0.5, "masked": False, "pair_budget": 500},
        )
        assert config.seed == 99
        assert config.theta == 0.5
        assert config.masked is False
        assert config.pair_budget == 500

    def test_pair_budget_below_one_rejected(self, tmp_path, bench_dir):
        path = write_config(tmp_path, bench_dir, extra="\n[scoring]\npair_budget = 0\n")
        with pytest.raises(ValueError, match="pair_budget"):
            load_config(path)
        with pytest.raises(ValueError, match="pair_budget"):
            load_config(write_config(tmp_path, bench_dir), overrides={"pair_budget": -3})

    def grid_step_config(self, tmp_path, bench_dir, value: str) -> Path:
        path = write_config(tmp_path, bench_dir)
        path.write_text(path.read_text().replace("grid_step = 0.25", f"grid_step = {value}"))
        return path

    @pytest.mark.parametrize("value", ["0.7", "-1", "0", "nan"])
    def test_grid_step_outside_range_rejected(self, tmp_path, bench_dir, value):
        message = re.escape("[ensemble] grid_step must be in (0, 0.5]")
        with pytest.raises(ValueError, match=message):
            load_config(self.grid_step_config(tmp_path, bench_dir, value))
        with pytest.raises(ValueError, match=message):
            load_config(write_config(tmp_path, bench_dir), overrides={"grid_step": float(value)})

    def test_grid_step_bounds_accepted(self, tmp_path, bench_dir):
        for value in ("0.5", "0.01"):
            path = self.grid_step_config(tmp_path, bench_dir, value)
            assert load_config(path).grid_step == float(value)

    @pytest.mark.parametrize("value", ["-5", "AUTO", "1.5", ""])
    def test_bad_threshold_rejected_naming_key_and_values(self, tmp_path, bench_dir, value):
        path = write_config(tmp_path, bench_dir, extra=f"\n[corpus]\nthreshold = {value}\n")
        message = re.escape("[corpus] threshold must be auto, none or an integer >= 0")
        with pytest.raises(ValueError, match=message):
            load_config(path)
        with pytest.raises(ValueError, match=message):
            load_config(write_config(tmp_path, bench_dir), overrides={"threshold": value})

    def test_integer_thresholds_accepted(self, tmp_path, bench_dir):
        for value in ("0", "40"):
            path = write_config(tmp_path, bench_dir, extra=f"\n[corpus]\nthreshold = {value}\n")
            assert load_config(path).threshold_for(10**7) == int(value)

    def test_readme_config_blocks_load(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        quick_start = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench").mkdir()
        for name in ("corpus_t1.txt", "corpus_t2.txt", "targets.txt", "gold.tsv", "gold_binary.tsv"):
            (tmp_path / "bench" / name).touch()

        (tmp_path / "quick.ini").write_text(quick_start, encoding="utf-8")
        config = load_config("quick.ini")
        assert config.gold == Path("bench/gold.tsv")
        assert config.binary_gold == Path("bench/gold_binary.tsv")
        assert config.sgns.window == 5 and config.encoder.context_radius == 3

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "sgns-t1") == derive_seed(7, "sgns-t1")
        assert derive_seed(7, "sgns-t1") != derive_seed(7, "sgns-t2")
        assert derive_seed(7, "sgns-t1") != derive_seed(8, "sgns-t1")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, bench_dir):
    tmp = tmp_path_factory.mktemp("run")
    config_path = write_config(tmp, bench_dir)
    config = load_config(config_path)
    pipeline = Pipeline(config)
    pipeline.run_all()
    return tmp, config_path, config, pipeline


class TestPipelineRun:
    def test_outputs_exist(self, run_dir):
        _, _, config, _ = run_dir
        answers = config.output_dir / "answers"
        for name in (
            "graded_context_free.tsv",
            "graded_context_dependent.tsv",
            "graded_ensemble.tsv",
            "binary_ensemble.tsv",
        ):
            assert (answers / name).is_file()
        assert (config.output_dir / "manifest.json").is_file()
        assert (config.output_dir / "run.complete").is_file()

    def test_answer_files_cover_targets(self, run_dir, bench_dir):
        _, _, config, _ = run_dir
        targets = (bench_dir / "targets.txt").read_text().split()
        graded = (config.output_dir / "answers" / "graded_ensemble.tsv").read_text()
        words = [line.split("\t")[0] for line in graded.strip().splitlines()]
        assert sorted(words) == sorted(targets)
        binary = (config.output_dir / "answers" / "binary_ensemble.tsv").read_text()
        labels = {l.split("\t")[1] for l in binary.strip().splitlines()}
        assert labels <= {"0", "1"}

    def test_manifest_covers_every_tunable(self, run_dir):
        _, _, config, _ = run_dir
        manifest = json.loads((config.output_dir / "manifest.json").read_text())
        for field in dataclasses.fields(PipelineConfig):
            assert field.name in manifest["config"]
        assert manifest["inputs"]["corpus_t1"]
        assert set(manifest["stages"]) == {
            "ingest",
            "static",
            "align",
            "clf-dataset",
            "clf-model",
            "uses",
            "scores",
            "ensemble",
            "evaluate",
        }

    def test_rerun_fully_cached_and_byte_identical(self, run_dir):
        _, _, config, _ = run_dir
        manifest_before = (config.output_dir / "manifest.json").read_bytes()
        answers_before = {
            p.name: p.read_bytes() for p in (config.output_dir / "answers").iterdir()
        }
        pipeline = Pipeline(load_config(run_dir[1]))
        pipeline.run_all()
        assert all(res.cached for res in pipeline.stages.values())
        assert (config.output_dir / "manifest.json").read_bytes() == manifest_before
        for p in (config.output_dir / "answers").iterdir():
            assert p.read_bytes() == answers_before[p.name]

    def test_downstream_change_keeps_upstream_cache(self, run_dir):
        _, config_path, config, first = run_dir
        pipeline = Pipeline(load_config(config_path, overrides={"theta": 0.25}))
        pipeline.run_all()
        for stage in ("ingest", "static", "align", "clf-dataset", "clf-model", "uses", "scores"):
            assert pipeline.stages[stage].cached
            assert pipeline.stages[stage].key == first.stages[stage].key
        assert pipeline.stages["ensemble"].key != first.stages["ensemble"].key

    def test_theta_zero_matches_context_free_answers(self, run_dir):
        _, config_path, config, _ = run_dir
        pipeline = Pipeline(load_config(config_path, overrides={"theta": 0.0}))
        pipeline.run_all()
        answers = config.output_dir / "answers"
        assert (answers / "graded_ensemble.tsv").read_bytes() == (
            answers / "graded_context_free.tsv"
        ).read_bytes()

    def test_evaluation_report_written(self, run_dir):
        _, _, config, pipeline = run_dir
        report_dir = pipeline.stages["evaluate"].path
        report = (report_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert report[0] == "model\tmetric\tvalue"
        metrics = {(r.split("\t")[0], r.split("\t")[1]) for r in report[1:]}
        assert ("context_free", "spearman") in metrics
        assert ("context_dependent", "spearman") in metrics
        assert ("ensemble", "spearman") in metrics
        assert ("ensemble", "binary_accuracy") in metrics
        assert ("ensemble", "theta_grid_search") in metrics
        assert (report_dir / "summary.txt").is_file()

    def test_classifier_metrics_record_train_loss(self, run_dir):
        _, _, config, pipeline = run_dir
        path = pipeline.stages["clf-model"].path / "metrics.tsv"
        rows = dict(line.split("\t") for line in path.read_text().splitlines())
        assert list(rows)[:2] == ["accuracy", "accuracy_t1"]
        epochs = [f"train_loss_epoch{k}" for k in range(1, config.encoder.epochs + 1)]
        assert list(rows)[-len(epochs) - 1:] == epochs + ["test_loss"]
        assert all(0.0 < float(rows[name]) < 1.0 for name in epochs + ["test_loss"])

    def test_cached_static_stage_forks_nothing(self, run_dir, monkeypatch):
        # Only building the static stage forks its helper: a warm run and a
        # rescore neither fork nor import multiprocessing.
        import multiprocessing

        _, config_path, _, _ = run_dir

        def no_fork(*args, **kwargs):
            raise AssertionError("a run with a cached static stage forked")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        for overrides in ({"pair_budget": 10**15}, {}):  # rescore, then warm
            pipeline = Pipeline(load_config(config_path, overrides=overrides))
            pipeline.run_all()
            assert pipeline.stages["static"].cached
            assert pipeline.stages["ensemble"].cached == (not overrides)

        run_all = ["run-all", "--config", str(config_path)]
        code = (
            "import sys; from lscd.cli import main; "
            f"main({run_all!r}); main({run_all + ['--pair-budget', '51']!r}); "
            f"print(sorted(set({sorted(FORK_MODULES)!r}) & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout
        assert out.splitlines()[-1] == "[]"

    def test_interrupted_stage_rebuilt(self, run_dir):
        _, config_path, config, first = run_dir
        # An interrupted build publishes nothing: no directory at the key.
        stage_dir = first.stages["ensemble"].path
        before = {p.name: p.read_bytes() for p in stage_dir.iterdir()}
        shutil.rmtree(stage_dir)
        pipeline = Pipeline(load_config(config_path))
        pipeline.run_all()
        assert not pipeline.stages["ensemble"].cached
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before

    def test_classifier_over_cached_dataset_unchanged(self, run_dir):
        # With `clf-dataset` cached, `clf-model` builds the dataset again
        # from the corpora; no stage writes the dataset itself out.
        _, config_path, _, first = run_dir
        stage_dir = first.stages["clf-model"].path
        before = {p.name: p.read_bytes() for p in stage_dir.iterdir()}
        shutil.rmtree(stage_dir)
        pipeline = Pipeline(load_config(config_path))
        pipeline.train_clf()
        assert pipeline.stages["clf-dataset"].cached
        assert not pipeline.stages["clf-model"].cached
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before

    @pytest.mark.parametrize("how", ["lines", "last-line", "row"])
    def test_cut_ranks_fail_evaluate_naming_file(self, tmp_path, run_dir, how):
        _, _, config, first = run_dir
        out = tmp_path / "out"
        for name, built in first.stages.items():
            if name != "evaluate":
                shutil.copytree(built.path, out / name / built.key)
        path = out / "ensemble" / first.stages["ensemble"].key / "ranks.tsv"
        data = path.read_bytes()
        path.write_bytes(cut(data, how))
        with pytest.raises(StageError) as excinfo:
            Pipeline(dataclasses.replace(config, output_dir=out)).evaluate()
        assert excinfo.value.stage == "evaluate"
        assert isinstance(excinfo.value.cause, FormatError)
        assert str(path) in str(excinfo.value)
        if how == "row":
            assert excinfo.value.cause.line == data.count(b"\n")


def assert_static_trained_on(static, config, corpora, tmp_path):
    """The static stage's spaces are `train_sgns` on `corpora`, bit for bit."""
    for corpus in corpora:
        period = corpus.period
        sgns = dataclasses.replace(
            config.sgns, seed=derive_seed(config.seed, f"sgns-{period}")
        )
        space = train_sgns(corpus, sgns)
        np.save(tmp_path / f"{period}.npy", space.vectors)
        assert (static.path / f"{period}.npy").read_bytes() == (
            tmp_path / f"{period}.npy"
        ).read_bytes()
        words = (static.path / f"{period}.words.txt").read_text(encoding="utf-8")
        assert words.splitlines() == space.words


class TestStaticStage:
    def test_matches_sequential_training(self, tmp_path, bench_dir):
        config = load_config(write_config(tmp_path, bench_dir))
        pipeline = Pipeline(config)
        static = pipeline.train_static()
        corpora = [load_corpus(config.corpus_t1, T1), load_corpus(config.corpus_t2, T2)]
        assert_static_trained_on(static, config, corpora, tmp_path)

    def test_numeric_threshold_filters_what_sgns_trains_on(self, tmp_path, bench_dir):
        threshold = 20
        config = load_config(
            write_config(tmp_path, bench_dir, f"\n[corpus]\nthreshold = {threshold}\n")
        )
        pipeline = Pipeline(config)
        static = pipeline.train_static()
        raw = [load_corpus(config.corpus_t1, T1), load_corpus(config.corpus_t2, T2)]
        vocab = build_vocabulary(*raw)
        targets = load_targets(config.targets)
        filtered = [apply_threshold(c, vocab, threshold, targets) for c in raw]
        kept = filtered[0].token_set() | filtered[1].token_set()
        assert set(targets) <= kept < set(vocab.words)  # the threshold drops words
        assert_static_trained_on(static, config, filtered, tmp_path)

        ingest = pipeline.stages["ingest"]
        stats = json.loads((ingest.path / "stats.json").read_text())
        assert stats["threshold"] == threshold
        assert stats["sentences_t1"] == raw[0].sentence_count
        assert stats["sentences_t2"] == raw[1].sentence_count
        assert stats["filtered_sentences_t1"] == filtered[0].sentence_count
        assert stats["filtered_sentences_t2"] == filtered[1].sentence_count
        # The words that both spaces have vectors for, which align fits on.
        words = [set(_read_lines(static.path / f"{p}.words.txt")) for p in (T1, T2)]
        assert stats["shared_words"] == len(words[0] & words[1])
        # SGNS trains on the filtered corpora in memory; no copy is written.
        assert sorted(p.name for p in ingest.path.iterdir()) == ["stats.json"]

    def test_one_core_trains_in_process(self, tmp_path, bench_dir, monkeypatch):
        import multiprocessing

        (tmp_path / "forked").mkdir()
        (tmp_path / "single").mkdir()
        forked = Pipeline(load_config(write_config(tmp_path / "forked", bench_dir)))
        forked_static = forked.train_static()

        def no_fork(*args, **kwargs):
            raise AssertionError("a helper process was forked on one core")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        single = Pipeline(load_config(write_config(tmp_path / "single", bench_dir)))
        single_static = single.train_static()
        assert not single_static.cached
        for name in (f"{p}.{ext}" for p in (T1, T2) for ext in ("npy", "words.txt")):
            assert (single_static.path / name).read_bytes() == (
                forked_static.path / name
            ).read_bytes()


@pytest.fixture(scope="module")
def handoff(tmp_path_factory, bench_dir):
    """One run on the test benchmark plus a target that occurs only in t1,
    recording what `align_spaces` and `extract_uses` computed in-process, what
    `static_score` and `contextual_score` were handed, and each stage's key
    payload."""
    import lscd.pipeline as pipeline_module

    tmp = tmp_path_factory.mktemp("handoff")
    bench = tmp / "bench"
    bench.mkdir()
    for name in ("corpus_t1.txt", "corpus_t2.txt", "gold.tsv", "gold_binary.tsv"):
        (bench / name).write_bytes((bench_dir / name).read_bytes())
    with open(bench / "corpus_t1.txt", "a", encoding="utf-8") as fh:
        fh.write("onlyold stands here\n")
    targets = (bench_dir / "targets.txt").read_text(encoding="utf-8")
    (bench / "targets.txt").write_text(targets + "onlyold\n", encoding="utf-8")
    config = load_config(
        write_config(tmp, bench), overrides={"gold": None, "binary_gold": None}
    )

    # The contextual branch runs in the static stage's helper process, so
    # every call and payload is appended to a file that both processes write.
    log = tmp / "log"
    log.mkdir()
    recorded = ("align_spaces", "extract_uses", "static_score", "contextual_score")

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with open(log / f"{name}.pickle", "ab") as fh:
                pickle.dump((args, result), fh)
            return result

        return wrapper

    def recording_key(payload):
        with open(log / "payloads.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")
        return key_of(payload)

    key_of = pipeline_module._key_of
    with pytest.MonkeyPatch.context() as mp:
        for name in recorded:
            mp.setattr(pipeline_module, name, recording(name, getattr(pipeline_module, name)))
        mp.setattr(pipeline_module, "_key_of", recording_key)
        pipeline = Pipeline(config)
        pipeline.run_all()
    calls: dict[str, list] = {name: [] for name in recorded}
    for name in recorded:
        with open(log / f"{name}.pickle", "rb") as fh:
            while fh.peek(1):
                calls[name].append(pickle.load(fh))
    payloads: dict[str, dict] = {}
    for line in (log / "payloads.jsonl").read_text(encoding="utf-8").splitlines():
        payload = json.loads(line)
        payloads[payload["stage"]] = payload
    return config, pipeline, calls, payloads


class TestArtifactHandoff:
    def test_scores_read_exactly_what_upstream_computed(self, handoff):
        _, _, calls, _ = handoff
        ((_, aligned),) = calls["align_spaces"]
        (((read, _), _),) = calls["static_score"]
        for computed, loaded in (
            (aligned.space_t1, read.space_t1),
            (aligned.space_t2, read.space_t2),
        ):
            assert loaded.words == computed.words
            assert np.array_equal(loaded.vectors, computed.vectors)
        assert np.array_equal(read.rotation, aligned.rotation)
        assert read.shared_vocabulary == aligned.shared_vocabulary

        extracted = [result for _, result in calls["extract_uses"]]
        (((pairs, _), _),) = calls["contextual_score"]
        for loaded, sets in zip(zip(*pairs), extracted):
            assert len(loaded) == len(sets)
            for got, want in zip(loaded, sets):
                assert (got.word, got.period) == (want.word, want.period)
                assert got.sentence_indices == want.sentence_indices
                assert got.vectors.shape == want.vectors.shape
                assert np.array_equal(got.vectors, want.vectors)

    def test_target_without_uses_round_trips_empty_and_is_median_filled(self, handoff):
        config, pipeline, _, _ = handoff
        index = pipeline.stages["uses"].path / f"uses_{T2}.index.tsv"
        assert "onlyold\t0\t" in index.read_text(encoding="utf-8").splitlines()
        scores = (pipeline.stages["scores"].path / "scores.tsv").read_text()
        rows = {tuple(r.split("\t")[:2]): r.split("\t")[3] for r in scores.splitlines()}
        assert rows["context_dependent", "onlyold"] == "unscorable(no t2 uses)"
        assert rows["context_free", "onlyold"] == "unscorable(missing in t2 vocabulary)"
        ranks = (pipeline.stages["ensemble"].path / "ranks.tsv").read_text()
        flags = {r.split("\t")[0]: r.split("\t")[4] for r in ranks.splitlines()[1:]}
        assert flags["onlyold"] == "context_free,context_dependent"
        graded = (config.output_dir / "answers" / "graded_ensemble.tsv").read_text()
        assert "onlyold" in [line.split("\t")[0] for line in graded.splitlines()]

    def test_parent_text_artifacts_rebuilt_not_misread(self, tmp_path, handoff):
        # Before the array layout, these stages had the same payloads without
        # the version and kept text files under those keys.
        import lscd.pipeline as pipeline_module

        config, first, calls, payloads = handoff

        def untagged_key(stage, **upstream):
            payload = {
                k: v for k, v in payloads[stage].items() if k not in ("version", "numpy")
            }
            return pipeline_module._key_of({**payload, **upstream})

        static_key = untagged_key("static")
        out = tmp_path / "out"
        old = {
            "static": out / "static" / static_key,
            "align": out / "align" / untagged_key("align", static=static_key),
            "uses": out / "uses" / untagged_key("uses"),
        }
        for directory in old.values():
            directory.mkdir(parents=True)

        def write_rows(path, labels, vectors, header=""):
            # The text formats of that layout: a label, then 9-digit values.
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header)
                for label, row in zip(labels, vectors):
                    fh.write(label + " ".join(format(x, ".9g") for x in row) + "\n")

        ((args, aligned),) = calls["align_spaces"]
        for directory, spaces in (
            (old["static"], args),
            (old["align"], (aligned.space_t1, aligned.space_t2)),
        ):
            for period, space in zip((T1, T2), spaces):
                write_rows(
                    directory / f"{period}.vec",
                    [f"{w} " for w in space.words],
                    space.vectors,
                    header=f"{len(space.words)} {space.dimension}\n",
                )
        np.savetxt(old["align"] / "rotation.tsv", aligned.rotation, "%.12g", "\t")
        (old["align"] / "shared_vocabulary.txt").write_text(
            "\n".join(aligned.shared_vocabulary) + "\n", encoding="utf-8"
        )
        for period, (_, sets) in zip((T1, T2), calls["extract_uses"]):
            write_rows(
                old["uses"] / f"uses_{period}.tsv",
                [f"{u.word}\t{period}\t{i}\t" for u in sets for i in u.sentence_indices],
                [row for u in sets for row in u.vectors],
            )

        pipeline = Pipeline(dataclasses.replace(config, output_dir=out))
        pipeline.score()
        for stage in ("static", "align", "uses", "scores"):
            assert not pipeline.stages[stage].cached
        for stage, directory in old.items():
            assert pipeline.stages[stage].path != directory
        assert (pipeline.stages["scores"].path / "scores.tsv").read_bytes() == (
            first.stages["scores"].path / "scores.tsv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "stage,name,reader,how",
        [
            pytest.param(*case, id="-".join(case[:3] if case[3] == "bytes" else case))
            for case in [
                ("align", f"{T1}.npy", "scores", "bytes"),
                ("align", f"{T2}.words.txt", "scores", "bytes"),
                ("uses", f"uses_{T1}.npy", "scores", "bytes"),
                ("uses", f"uses_{T2}.index.tsv", "scores", "bytes"),
                ("clf-model", "model.npz", "uses", "bytes"),
                ("clf-model", "metrics.tsv", "ensemble", "bytes"),
                ("scores", "scores.tsv", "ensemble", "bytes"),
                ("scores", "scores.tsv", "ensemble", "lines"),
                ("scores", "scores.tsv", "ensemble", "last-line"),
            ]
        ],
    )
    def test_truncated_artifact_fails_naming_stage_and_file(
        self, tmp_path, handoff, stage, name, reader, how
    ):
        config, first, _, _ = handoff
        out = tmp_path / "out"
        # Every stage up to `scores` is cached but `reader`, which reads the
        # cut file.
        for upstream in (
            "ingest", "static", "align", "clf-dataset", "clf-model", "uses", "scores"
        ):
            if upstream != reader:
                built = first.stages[upstream]
                shutil.copytree(built.path, out / upstream / built.key)
        path = out / stage / first.stages[stage].key / name
        path.write_bytes(cut(path.read_bytes(), how))
        with pytest.raises(StageError) as excinfo:
            Pipeline(dataclasses.replace(config, output_dir=out)).ensemble()
        assert excinfo.value.stage == reader
        assert isinstance(excinfo.value.cause, FormatError)
        assert str(path) in str(excinfo.value)


class TestCorpusMemo:
    def test_raw_corpora_parsed_once_shared_unmodified_and_freed(
        self, tmp_path, bench_dir, monkeypatch
    ):
        import lscd.pipeline as pipeline_module

        load_corpus = pipeline_module.load_corpus
        extract_uses = pipeline_module.extract_uses
        train_sgns = pipeline_module.train_sgns
        build_clf_dataset = pipeline_module.build_clf_dataset
        # With a helper, the static stage's helper process extracts the uses
        # and may train either space, so loads, extractions and trainings are
        # logged to files that both processes append to; fork keeps each
        # object's id(). On one core, everything runs in this process.
        for cores in (2, 1):
            run_dir = tmp_path / f"cores{cores}"
            run_dir.mkdir()
            loaded = {}
            datasets = []  # weak references to every dataset built
            log = run_dir / "loads.log"
            extract_log = run_dir / "extracted.log"
            sgns_log = run_dir / "trained.log"

            def counting_load(path, period):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{path}\t{period}\n")
                loaded[str(path), period] = load_corpus(path, period)
                return loaded[str(path), period]

            def recording_extract(model, corpus, targets):
                with open(extract_log, "a", encoding="utf-8") as fh:
                    fh.write(f"{id(corpus)}\n")
                return extract_uses(model, corpus, targets)

            def recording_dataset(*args, **kwargs):
                dataset = build_clf_dataset(*args, **kwargs)
                datasets.append(weakref.ref(dataset))
                return dataset

            def checked_sgns(corpus, config):
                # While SGNS trains, the process holds no memo entry and no
                # dataset: of the corpora, only the SGNS ones are alive.
                assert not pipeline._memo
                assert all(ref() is None for ref in datasets)
                with open(sgns_log, "a", encoding="utf-8") as fh:
                    fh.write(f"{id(corpus)}\n")
                return train_sgns(corpus, config)

            monkeypatch.setattr(pipeline_module, "load_corpus", counting_load)
            monkeypatch.setattr(pipeline_module, "extract_uses", recording_extract)
            monkeypatch.setattr(pipeline_module, "build_clf_dataset", recording_dataset)
            monkeypatch.setattr(pipeline_module, "train_sgns", checked_sgns)
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
            )
            # Unmasked, the dataset keeps the corpora's words, but in id arrays
            # of its own; the corpora must come out of the run unmodified.
            config = load_config(
                write_config(run_dir, bench_dir), overrides={"masked": False}
            )
            pipeline = Pipeline(config)
            pipeline.run_all()
            raw = [(str(config.corpus_t1), T1), (str(config.corpus_t2), T2)]
            calls = [tuple(line.split("\t")) for line in log.read_text().splitlines()]
            assert calls == raw  # each input parsed once; no file read back
            c1, c2 = loaded[raw[0]], loaded[raw[1]]
            extracted = list(map(int, extract_log.read_text().split()))
            assert extracted[0] == id(c1) and extracted[1] == id(c2)
            # No threshold applies, so SGNS trains on the very corpora parsed.
            trained = sorted(map(int, sgns_log.read_text().split()))
            assert trained == sorted((id(c1), id(c2)))
            if cores == 1:  # the dataset was built, and freed, in this process
                assert datasets and datasets[0]() is None
            assert not pipeline._memo
            for corpus, (path, period) in zip((c1, c2), raw):
                fresh = load_corpus(path, period)
                assert corpus.period == fresh.period
                assert corpus.sentences == fresh.sentences


class TestPipelineErrors:
    def test_stage_error_carries_stage_name(self, tmp_path, bench_dir):
        # A corpus file of blank lines passes config validation but fails
        # inside the ingest stage, which must tag the error with its name.
        config_path = write_config(tmp_path, bench_dir)
        blank = tmp_path / "blank.txt"
        blank.write_text("\n\n\n", encoding="utf-8")
        config = load_config(config_path, overrides={"corpus_t1": blank})
        pipeline = Pipeline(config)
        with pytest.raises(StageError, match="ingest") as excinfo:
            pipeline.ingest()
        assert excinfo.value.stage == "ingest"
        # Nothing was published for the failed stage, and no staging copy is left.
        assert not list(config.output_dir.glob("ingest/*"))
        assert not list(config.output_dir.glob(".staging/*"))

    def test_empty_target_file_fails_in_ingest(self, tmp_path, bench_dir):
        # Before any model trains: no static stage directory is made.
        empty = tmp_path / "targets.txt"
        empty.write_text("\n\n", encoding="utf-8")
        config = load_config(write_config(tmp_path, bench_dir), overrides={"targets": empty})
        with pytest.raises(StageError, match="ingest") as excinfo:
            Pipeline(config).run_all()
        assert excinfo.value.stage == "ingest"
        assert f"no targets in {empty}" in str(excinfo.value)
        assert not (config.output_dir / "static").exists()

    def test_worker_divergence_reaches_parent(self, tmp_path, bench_dir, monkeypatch):
        import lscd.pipeline as pipeline_module

        train_sgns = pipeline_module.train_sgns

        def diverging_t2(corpus, config):
            if corpus.period == T2:
                raise TrainingDivergedError("non-finite loss", step=7)
            return train_sgns(corpus, config)

        # The forked worker inherits the patched module global.
        monkeypatch.setattr(pipeline_module, "train_sgns", diverging_t2)
        config = load_config(write_config(tmp_path, bench_dir))
        with pytest.raises(StageError, match="static") as excinfo:
            Pipeline(config).train_static()
        assert excinfo.value.stage == "static"
        assert isinstance(excinfo.value.cause, TrainingDivergedError)
        assert excinfo.value.cause.step == 7
        assert not list(config.output_dir.glob("static/*"))
        assert not list(config.output_dir.glob(".staging/*"))

    # Each case runs `run_all` in its own process, under a timeout, so that
    # a deadlock between the static stage and its helper fails the test.
    FAULT_SCRIPT = """
import json, os, sys, time
import lscd.pipeline as pipeline_module
from lscd.errors import DatasetError, StageError, TrainingDivergedError
from lscd.pipeline import Pipeline, load_config

config_path, fault, pid_file = sys.argv[1:]
train_time_classifier = pipeline_module.train_time_classifier
train_sgns = pipeline_module.train_sgns

def classifier(*args, **kwargs):
    with open(pid_file + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pid_file + ".tmp", pid_file)
    if fault == "classifier":
        raise DatasetError("injected classifier failure")
    time.sleep(120)  # still busy when t1 fails
    return train_time_classifier(*args, **kwargs)

def sgns(corpus, config):
    if fault == "t1" and corpus.period == "t1":
        while not os.path.exists(pid_file):
            time.sleep(0.01)
        raise TrainingDivergedError("injected t1 failure", step=3)
    return train_sgns(corpus, config)

pipeline_module.train_time_classifier = classifier
pipeline_module.train_sgns = sgns
os.sched_getaffinity = lambda pid: {0, 1}  # fork the helper on any machine
try:
    Pipeline(load_config(config_path)).run_all()
    result = {"stage": None}
except StageError as exc:
    cause = exc.cause
    result = {"stage": exc.stage, "cause": type(cause).__name__, "message": str(cause)}
helper = int(open(pid_file).read())
try:
    os.kill(helper, 0)  # a zombie still takes signal 0
    result["helper_alive"] = True
except ProcessLookupError:
    result["helper_alive"] = False
result["helper_forked"] = helper != os.getpid()
print(json.dumps(result))
"""

    def run_fault(self, tmp_path, bench_dir, fault):
        config_path = write_config(tmp_path, bench_dir)
        argv = [sys.executable, "-c", self.FAULT_SCRIPT, str(config_path), fault,
                str(tmp_path / "helper.pid")]
        # In its own session, so that a hung run's helper is killed with it.
        with subprocess.Popen(
            argv, env=SRC_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                pytest.fail(f"run_all with a {fault} failure hung")
        assert proc.returncode == 0, err
        # One name per published key directory, and per staging copy left.
        published = sorted(p.parent.name for p in (tmp_path / "out").glob("*/*"))
        return json.loads(out.splitlines()[-1]), published

    def test_helper_classifier_failure_surfaces_after_static(self, tmp_path, bench_dir):
        result, published = self.run_fault(tmp_path, bench_dir, "classifier")
        assert result["stage"] == "clf-model"
        assert result["cause"] == "DatasetError"
        assert result["message"] == "injected classifier failure"
        assert result["helper_forked"] and not result["helper_alive"]
        # The static stage, trained beside the failed branch, is kept.
        assert published == ["clf-dataset", "ingest", "static"]

    def test_caller_t1_failure_stops_busy_helper(self, tmp_path, bench_dir):
        result, published = self.run_fault(tmp_path, bench_dir, "t1")
        assert result["stage"] == "static"
        assert result["cause"] == "TrainingDivergedError"
        assert result["message"] == "injected t1 failure"
        assert result["helper_forked"] and not result["helper_alive"]
        # Neither the helper's clf-model nor the static stage left a copy.
        assert published == ["clf-dataset", "ingest"]

    def test_evaluate_without_gold_rejected(self, tmp_path, bench_dir):
        config_path = write_config(tmp_path, bench_dir)
        config = load_config(config_path, overrides={"gold": None, "binary_gold": None})
        with pytest.raises(StageError, match="evaluate"):
            Pipeline(config).evaluate()

    @staticmethod
    def count_training(monkeypatch, log: Path) -> None:
        """Append one line to `log` per call of either trainer, in this
        process or in a forked helper."""
        import lscd.pipeline as pipeline_module

        for name in ("train_sgns", "train_time_classifier"):
            def counted(*args, _train=getattr(pipeline_module, name), _name=name, **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(_name + "\n")
                return _train(*args, **kwargs)

            monkeypatch.setattr(pipeline_module, name, counted)

    def test_dimension_above_shared_words_fails_before_training(
        self, tmp_path, bench_dir, monkeypatch
    ):
        log = tmp_path / "trained.log"
        self.count_training(monkeypatch, log)
        path = write_config(tmp_path, bench_dir)
        path.write_text(path.read_text().replace("dimension = 16", "dimension = 1000", 1))
        config = load_config(path)
        with pytest.raises(StageError) as excinfo:
            Pipeline(config).run_all()
        assert excinfo.value.stage == "static"
        assert isinstance(excinfo.value.cause, UnderdeterminedError)
        assert "[sgns] dimension = 1000" in str(excinfo.value)
        assert not log.exists()
        (stats,) = config.output_dir.glob("ingest/*/stats.json")
        shared = json.loads(stats.read_text())["shared_words"]
        assert f"exceeds the {shared} words shared" in str(excinfo.value)
        assert not list(config.output_dir.glob("static/*"))

    @pytest.mark.parametrize("key", ["gold", "binary_gold"])
    def test_gold_not_listing_targets_fails_before_training(
        self, tmp_path, bench_dir, monkeypatch, key
    ):
        log = tmp_path / "trained.log"
        self.count_training(monkeypatch, log)
        config = load_config(write_config(tmp_path, bench_dir))
        gold = tmp_path / "gold.tsv"
        text = getattr(config, key).read_text(encoding="utf-8")
        gold.write_text(text.replace("target00\t", "tagret00\t"), encoding="utf-8")
        config = dataclasses.replace(config, **{key: gold})
        with pytest.raises(StageError) as excinfo:
            Pipeline(config).run_all()
        assert excinfo.value.stage == "evaluate"
        assert isinstance(excinfo.value.cause, FormatError)
        message = str(excinfo.value)
        assert f"[paths] {key} = {gold}" in message
        assert "only in first: tagret00; only in second: target00" in message
        assert not log.exists()
        assert not (config.output_dir / "static").exists()

    def test_real_divergence_is_stage_tagged(self, tmp_path, bench_dir):
        # No injected error: SGNS overflows float32 at this learning rate.
        path = write_config(tmp_path, bench_dir)
        path.write_text(path.read_text().replace("[sgns]", "[sgns]\nlearning_rate = 1e30"))
        config = load_config(path)
        with pytest.raises(StageError) as excinfo:
            Pipeline(config).train_static()
        assert excinfo.value.stage == "static"
        assert isinstance(excinfo.value.cause, TrainingDivergedError)
        assert excinfo.value.cause.step >= 1
        assert not list(config.output_dir.glob("static/*"))


class TestStagePublish:
    # Each process waits inside the build until both are there, so both build
    # the stage and one of them finds it published when it renames its copy.
    RACE_SCRIPT = """
import os, sys, time
from lscd.pipeline import Pipeline, load_config

config_path, barrier = sys.argv[1:]
ingested = Pipeline._ingested

def waiting(self):
    open(os.path.join(barrier, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 30
    while len(os.listdir(barrier)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return ingested(self)

Pipeline._ingested = waiting
print(Pipeline(load_config(config_path)).ingest().cached)
"""

    def test_concurrent_builds_publish_one_directory(self, tmp_path, bench_dir):
        config_path = write_config(tmp_path, bench_dir)
        barrier = tmp_path / "barrier"
        barrier.mkdir()
        argv = [sys.executable, "-c", self.RACE_SCRIPT, str(config_path), str(barrier)]
        procs = [
            subprocess.Popen(argv, env=SRC_ENV, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        try:
            results = [proc.communicate(timeout=60) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        for proc, (out, err) in zip(procs, results):
            assert proc.returncode == 0, err
            assert out.split() == ["False"]  # each process built the stage
        assert len(os.listdir(barrier)) == 2
        out = tmp_path / "out"
        (published,) = (out / "ingest").iterdir()
        assert not list((out / ".staging").iterdir())
        alone = Pipeline(
            load_config(config_path, overrides={"output_dir": tmp_path / "alone"})
        ).ingest()
        assert published.name == alone.key
        assert sorted(p.name for p in published.iterdir()) == ["stats.json"]
        assert (published / "stats.json").read_bytes() == (
            alone.path / "stats.json"
        ).read_bytes()

    def test_failed_build_publishes_nothing_and_reruns(
        self, tmp_path, bench_dir, monkeypatch
    ):
        import lscd.pipeline as pipeline_module

        save_classifier = pipeline_module.save_classifier

        def write_then_fail(model, path):
            save_classifier(model, path)
            raise OSError("injected write failure")

        config = load_config(write_config(tmp_path, bench_dir))
        monkeypatch.setattr(pipeline_module, "save_classifier", write_then_fail)
        with pytest.raises(StageError, match="injected write failure") as excinfo:
            Pipeline(config).train_clf()
        assert excinfo.value.stage == "clf-model"
        assert not list(config.output_dir.glob("clf-model/*"))
        assert not list(config.output_dir.glob(".staging/*"))

        monkeypatch.undo()
        rebuilt = Pipeline(config).train_clf()
        assert not rebuilt.cached
        assert sorted(p.name for p in rebuilt.path.iterdir()) == ["metrics.tsv", "model.npz"]

    def test_failed_answer_copy_keeps_earlier_answers_whole(
        self, tmp_path, bench_dir, monkeypatch
    ):
        config = load_config(write_config(tmp_path, bench_dir))
        Pipeline(config).run_all()
        answers = config.output_dir / "answers"
        before = {p.name: p.read_bytes() for p in answers.iterdir()}
        assert len(before) == 4

        copyfile = shutil.copyfile
        copies = []

        def fail_third(source, target, *args, **kwargs):
            if Path(target).parent == answers:
                copies.append(target)
                if len(copies) == 3:
                    # Half the file is written when the copy fails.
                    data = Path(source).read_bytes()
                    Path(target).write_bytes(data[: len(data) // 2])
                    raise OSError("injected copy failure")
            return copyfile(source, target, *args, **kwargs)

        monkeypatch.setattr(shutil, "copyfile", fail_third)
        with pytest.raises(OSError, match="injected copy failure"):
            Pipeline(config).run_all()
        assert len(copies) == 3
        assert not (config.output_dir / "run.complete").exists()
        assert {p.name: p.read_bytes() for p in answers.iterdir()} == before

    def test_version_changes_every_key_and_no_artifact(
        self, tmp_path, run_dir, monkeypatch
    ):
        import lscd.pipeline as pipeline_module

        _, _, config, first = run_dir
        out = tmp_path / "out"
        shutil.copytree(config.output_dir, out)  # every stage of the old version
        monkeypatch.setattr(pipeline_module, "__version__", "0.0.0+other")
        pipeline = Pipeline(dataclasses.replace(config, output_dir=out))
        pipeline.run_all()
        assert set(pipeline.stages) == set(first.stages)
        for name, stage in pipeline.stages.items():
            old = first.stages[name]
            assert not stage.cached and stage.key != old.key
            assert (out / name / old.key).is_dir()  # kept, neither served nor overwritten
            assert {p.name: p.read_bytes() for p in stage.path.iterdir()} == {
                p.name: p.read_bytes() for p in old.path.iterdir()
            }

    def test_numpy_version_changes_every_key(self, tmp_path, run_dir, monkeypatch):
        # numpy's float paths may differ between releases: a run under another
        # numpy serves none of this one's stages.
        _, _, config, first = run_dir
        out = tmp_path / "out"
        shutil.copytree(config.output_dir, out)
        monkeypatch.setattr(np, "__version__", "0.0.0+other")
        pipeline = Pipeline(dataclasses.replace(config, output_dir=out))
        pipeline.run_all()
        assert set(pipeline.stages) == set(first.stages)
        for name, stage in pipeline.stages.items():
            assert not stage.cached and stage.key != first.stages[name].key


class TestCli:
    def test_gen_bench_and_single_stage(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main(
            ["gen-bench", "--out", str(bench), "--targets", "4", "--sentences", "300", "--seed", "1"]
        ) == 0
        config_path = write_config(tmp_path, bench)
        assert main(["ingest", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "ingest: built" in out
        # rerun is cached
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert "ingest: cached" in capsys.readouterr().out

    def test_run_all_and_no_mask(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        main(["gen-bench", "--out", str(bench), "--targets", "4", "--sentences", "300", "--seed", "2"])
        config_path = write_config(tmp_path, bench)
        assert main(["run-all", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "answers:" in out and "spearman" in out

        # --no-mask keeps corpus-unique tokens in the dataset
        assert main(["build-clf", "--config", str(config_path), "--no-mask"]) == 0
        out_dir = tmp_path / "out" / "clf-dataset"
        datasets = sorted(out_dir.iterdir())
        assert len(datasets) == 2  # masked and unmasked variants

        # --pair-budget flows through to the scoring stage (new cache key)
        assert main(["score", "--config", str(config_path), "--pair-budget", "50"]) == 0
        score_dirs = sorted((tmp_path / "out" / "scores").iterdir())
        assert len(score_dirs) == 2

    def test_override_flags_reach_their_fields(self, tmp_path, bench_dir):
        config_path = write_config(tmp_path, bench_dir)
        argv = ["run-all", "--config", str(config_path)]
        flags = ["--seed", "11", "--theta", "0.25", "--no-mask", "--pair-budget", "50"]
        assert main(argv + flags) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        config = manifest["config"]
        assert (config["seed"], config["theta"]) == (11, 0.25)
        assert (config["masked"], config["pair_budget"]) == (False, 50)
        # Absent flags override nothing: the file's values stand.
        args = build_parser().parse_args(argv)
        assert not {"seed", "theta", "masked", "pair_budget"} & set(vars(args))

    def test_import_leaves_process_pool_unloaded(self):
        # Only the static stage's build forks a helper; runs that find it
        # cached must not pay for importing multiprocessing.
        code = (
            "import sys, lscd.cli; "
            f"print(sorted(set({sorted(FORK_MODULES)!r}) & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_cli_error_exit_code(self, tmp_path, capsys):
        assert main(["run-all", "--config", str(tmp_path / "none.ini")]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_degrees_parsing(self, tmp_path):
        bench = tmp_path / "bench"
        assert main(
            [
                "gen-bench", "--out", str(bench), "--targets", "3",
                "--sentences", "200", "--seed", "3", "--degrees", "0,0.5,1",
            ]
        ) == 0
        gold = (bench / "gold.tsv").read_text().strip().splitlines()
        assert [line.split("\t")[1] for line in gold] == ["0", "0.5", "1"]

    def test_gen_bench_bad_degrees_entry_named(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main(["gen-bench", "--out", str(bench), "--degrees", "0,,1"]) == 1
        err = capsys.readouterr().err
        assert "--degrees entry '' of '0,,1' is not a number" in err
        assert not bench.exists()

    def test_gen_bench_degrees_set_target_count(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        argv = ["gen-bench", "--out", str(bench), "--sentences", "200", "--seed", "3"]
        assert main(argv + ["--degrees", "0,1"]) == 0
        assert (bench / "targets.txt").read_text().split() == ["target00", "target01"]
        capsys.readouterr()
        other = tmp_path / "other"
        argv[2] = str(other)
        assert main(argv + ["--degrees", "0,1", "--targets", "3"]) == 1
        err = capsys.readouterr().err
        assert "2 entries" in err and "n_targets is 3" in err
        assert not other.exists()
