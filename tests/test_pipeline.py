from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from lscd.cli import build_parser, main
from lscd.corpus import T1, T2
from lscd.errors import StageError
from lscd.pipeline import (
    Pipeline,
    PipelineConfig,
    derive_seed,
    load_config,
    run_benchmark_generation,
)

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
    run_benchmark_generation(path, n_targets=5, sentences=600, seed=3)
    return path


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
        assert config.align_steps == ("normalize", "center")
        assert config.pair_budget is None
        assert config.seed == 7

    def test_unknown_key_rejected(self, tmp_path, bench_dir):
        for section, key in (("[sgns]", "typo_key"), ("[run]", "deterministic")):
            path = write_config(tmp_path, bench_dir)
            text = path.read_text().replace(section, f"{section}\n{key} = true")
            path.write_text(text)
            with pytest.raises(ValueError, match=key):
                load_config(path)

    def test_unknown_section_rejected(self, tmp_path, bench_dir):
        path = write_config(tmp_path, bench_dir, extra="\n[mystery]\nx = 1\n")
        with pytest.raises(ValueError, match="mystery"):
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

    def test_readme_config_blocks_load(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        quick_start, reference = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench").mkdir()
        for name in ("corpus_t1.txt", "corpus_t2.txt", "targets.txt", "gold.tsv", "gold_binary.tsv"):
            (tmp_path / "bench" / name).touch()

        (tmp_path / "quick.ini").write_text(quick_start, encoding="utf-8")
        config = load_config("quick.ini")
        assert config.gold == Path("bench/gold.tsv")
        assert config.binary_gold == Path("bench/gold_binary.tsv")
        assert config.sgns.window == 5 and config.encoder.context_radius == 3

        # The reference block lists every key at its default.
        required = "corpus_t1 = bench/corpus_t1.txt\ncorpus_t2 = bench/corpus_t2.txt\n"
        required += "targets = bench/targets.txt\n"
        text = reference.replace("[paths]\n", "[paths]\n" + required, 1)
        (tmp_path / "reference.ini").write_text(text, encoding="utf-8")
        assert load_config("reference.ini") == PipelineConfig(
            corpus_t1=Path("bench/corpus_t1.txt"),
            corpus_t2=Path("bench/corpus_t2.txt"),
            targets=Path("bench/targets.txt"),
        )

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
        for field_name in (
            "corpus_t1",
            "corpus_t2",
            "targets",
            "gold",
            "binary_gold",
            "output_dir",
            "masked",
            "threshold",
            "sgns",
            "encoder",
            "align_steps",
            "pair_budget",
            "theta",
            "grid_step",
            "seed",
        ):
            assert field_name in manifest["config"]
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

    def test_interrupted_stage_rebuilt(self, run_dir):
        _, config_path, config, first = run_dir
        # Simulate a partial write: remove the sentinel of a cheap stage.
        stage_dir = first.stages["ensemble"].path
        (stage_dir / ".complete").unlink()
        pipeline = Pipeline(load_config(config_path))
        pipeline.run_all()
        assert not pipeline.stages["ensemble"].cached
        assert (stage_dir / ".complete").is_file()


class TestCorpusMemo:
    def test_raw_corpora_parsed_once_shared_unmodified_and_freed(
        self, tmp_path, bench_dir, monkeypatch
    ):
        import lscd.pipeline as pipeline_module

        calls, loaded, extracted = [], [], []
        load_corpus = pipeline_module.load_corpus
        extract_uses = pipeline_module.extract_uses
        train_sgns = pipeline_module.train_sgns

        def counting_load(path, period):
            calls.append((str(path), period))
            loaded.append(load_corpus(path, period))
            return loaded[-1]

        def recording_extract(model, corpus, targets):
            extracted.append(corpus)
            return extract_uses(model, corpus, targets)

        def checked_sgns(*args, **kwargs):
            assert pipeline._corpora is None  # never held while SGNS trains
            return train_sgns(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "load_corpus", counting_load)
        monkeypatch.setattr(pipeline_module, "extract_uses", recording_extract)
        monkeypatch.setattr(pipeline_module, "train_sgns", checked_sgns)
        # Unmasked, the dataset shares the corpus's sentence lists.
        config = load_config(
            write_config(tmp_path, bench_dir), overrides={"masked": False}
        )
        pipeline = Pipeline(config)
        pipeline.run_all()
        raw = [(str(config.corpus_t1), T1), (str(config.corpus_t2), T2)]
        assert [c for c in calls if c in raw] == raw
        assert len(calls) == 4  # plus the static stage's two ingest outputs
        c1, c2 = loaded[calls.index(raw[0])], loaded[calls.index(raw[1])]
        assert extracted[0] is c1 and extracted[1] is c2
        assert pipeline._corpora is None
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
        # no sentinel was written for the failed stage
        stage_root = config.output_dir / "ingest"
        assert not any(stage_root.rglob(".complete"))

    def test_evaluate_without_gold_rejected(self, tmp_path, bench_dir):
        config_path = write_config(tmp_path, bench_dir)
        config = load_config(config_path, overrides={"gold": None, "binary_gold": None})
        with pytest.raises(StageError, match="evaluate"):
            Pipeline(config).evaluate()


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
