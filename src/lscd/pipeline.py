"""Pipeline orchestration: configuration, staged execution with on-disk
caching, and the run manifest.

Every stage writes its artifacts under ``output_dir/<stage>/<key>/`` where
the key is a content hash over the stage's name, the package and numpy
versions and the stage's inputs (source file hashes, upstream stage keys,
the relevant configuration values and the derived seed). A stage is built
under ``output_dir/.staging/`` and published by one rename, so a directory
at a key exists only whole, and a cached one is never from other code. Stages
read their inputs back from the upstream artifact files, except for three
in-memory memos of a run, each built once: the raw corpora, the SGNS corpora
whose statistics `ingest` writes, and the classifier's dataset, whose mask
settings `clf-dataset` writes. A stage whose upstream is cached builds the
memo from the inputs, which with the configuration and seed fully determine
it, so a cached and a freshly built upstream feed downstream stages
identically. Spaces and use sets go between stages through
save_space/load_space and save_uses/load_uses, as `.npy` arrays, which
round-trip exactly. `run_all` publishes each answer file by a rename as
well, and writes ``run.complete`` after the last one and the manifest.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import os
import platform
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .align import AlignedPair, align as align_spaces
from .context import (
    EncoderConfig,
    UseSet,
    extract_uses,
    load_classifier,
    load_uses,
    save_classifier,
    save_uses,
    train_time_classifier,
)
from .corpus import (
    T1,
    T2,
    Corpus,
    TimeClfDataset,
    _load_array,
    _read_lines,
    apply_threshold,
    build_clf_dataset,
    build_vocabulary,
    frequency_threshold,
    load_corpus,
    load_targets,
)
from .ensemble import (
    CHANGED,
    Ranking,
    Theta,
    binarize,
    combine,
    grid_search_theta,
    ranks_from_scores,
    theta_from_accuracy,
)
from .errors import (
    FormatError,
    LscdError,
    StageError,
    TargetMismatchError,
    UnderdeterminedError,
)
from .evaluate import binary_accuracy, load_binary_gold, load_gold, spearman
from .scoring import (
    CONTEXT_DEPENDENT,
    CONTEXT_FREE,
    contextual_score,
    fill_unscorable,
    read_scores_tsv,
    static_score,
    write_scores_tsv,
)
from .sgns import SgnsConfig, load_space, save_space, train_sgns

ANSWER_DIR = "answers"
MANIFEST_NAME = "manifest.json"
RUN_SENTINEL = "run.complete"
STAGING_DIR = ".staging"

_FLOAT_FMT = ".9g"


@dataclass
class PipelineConfig:
    """Everything a run needs; mirrors the key=value config file."""

    corpus_t1: Path
    corpus_t2: Path
    targets: Path
    output_dir: Path = Path("out")
    gold: Path | None = None
    binary_gold: Path | None = None
    masked: bool = True
    threshold: str = "auto"  # "auto", "none" or an integer literal
    sgns: SgnsConfig = field(default_factory=SgnsConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pair_budget: int | None = None
    theta: float | None = None  # None: predict from classifier accuracy
    grid_step: float | None = None
    seed: int = 42

    def validate(self) -> None:
        for name in ("corpus_t1", "corpus_t2", "targets", "gold", "binary_gold"):
            path = getattr(self, name)
            if path is not None and not Path(path).is_file():
                raise FileNotFoundError(f"config path {name} = {path} does not exist")
        if not (self.threshold in ("auto", "none") or str(self.threshold).isdecimal()):
            raise ValueError(
                "[corpus] threshold must be auto, none or an integer >= 0, "
                f"got {self.threshold!r}"
            )
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta override must be in [0, 1]")
        if self.pair_budget is not None and self.pair_budget < 1:
            raise ValueError(
                f"[scoring] pair_budget must be >= 1, got {self.pair_budget}"
            )
        if self.grid_step is not None and not 0.0 < self.grid_step <= 0.5:
            raise ValueError(
                f"[ensemble] grid_step must be in (0, 0.5], got {self.grid_step}"
            )

    def threshold_for(self, total_sentences: int) -> int | None:
        if self.threshold == "auto":
            return frequency_threshold(total_sentences)
        if self.threshold == "none":
            return None
        return int(self.threshold)


def _optional(parse, unset=("", "none")):
    return lambda text: None if text.lower() in unset else parse(text)


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# The accepted config keys: [section] key -> (field it sets, parser of its
# text). Keys under [sgns] and [encoder] set SgnsConfig and EncoderConfig
# fields, all others PipelineConfig fields; the defaults live only there.
_CONFIG_KEYS = {
    "paths": {
        "corpus_t1": ("corpus_t1", Path),
        "corpus_t2": ("corpus_t2", Path),
        "targets": ("targets", Path),
        "gold": ("gold", _optional(Path)),
        "binary_gold": ("binary_gold", _optional(Path)),
        "output_dir": ("output_dir", Path),
    },
    "corpus": {"masked": ("masked", _boolean), "threshold": ("threshold", str)},
    "sgns": {
        "dimension": ("dimension", int),
        "window": ("window", int),
        "negatives": ("negatives", int),
        "epochs": ("epochs", int),
        "learning_rate": ("initial_learning_rate", float),
        "noise_exponent": ("noise_exponent", float),
        "subsample_threshold": ("subsample_threshold", _optional(float)),
    },
    "encoder": {
        "dimension": ("dimension", int),
        "context_radius": ("context_radius", int),
        "epochs": ("epochs", int),
        "learning_rate": ("learning_rate", float),
    },
    "scoring": {"pair_budget": ("pair_budget", _optional(int))},
    "ensemble": {
        "theta": ("theta", _optional(float, ("", "none", "auto"))),
        "grid_step": ("grid_step", _optional(float)),
    },
    "run": {"seed": ("seed", int)},
}


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read the key=value config file (section headers, one key per line,
    `;` comments).

    Every key has a documented default; unknown keys are rejected so typos
    cannot silently fall back to defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path} not found")

    values: dict[str, dict] = {"sgns": {}, "encoder": {}, "": {}}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        keys = _CONFIG_KEYS[section]
        unknown = set(parser[section]) - set(keys)
        if unknown:
            raise ValueError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
        for key, text in parser[section].items():
            name, parse = keys[key]
            values.get(section, values[""])[name] = parse(text)

    for required in ("corpus_t1", "corpus_t2", "targets"):
        if required not in values[""]:
            raise ValueError(f"config is missing [paths] {required}")
    config = PipelineConfig(
        **values[""],
        sgns=SgnsConfig(**values["sgns"]),
        encoder=EncoderConfig(**values["encoder"]),
    )
    if overrides:
        config = dataclasses.replace(config, **overrides)
    config.validate()
    return config


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed derived from the global seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _key_of(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class StageResult:
    name: str
    key: str
    path: Path
    cached: bool


class Pipeline:
    """Executes stages on demand, reusing cached artifacts when the inputs,
    configuration and seeds are unchanged."""

    def __init__(self, config: PipelineConfig):
        config.validate()
        self.cfg = config
        self.stages: dict[str, StageResult] = {}
        self._file_hashes: dict[str, str] = {}
        # The run's in-memory corpora and dataset (see the module docstring).
        self._memo: dict = {}

    # -- plumbing ---------------------------------------------------------

    def _hash(self, path: Path | None) -> str | None:
        if path is None:
            return None
        key = str(path)
        if key not in self._file_hashes:
            self._file_hashes[key] = _hash_file(path)
        return self._file_hashes[key]

    def _raw_corpora(self) -> tuple[Corpus, Corpus]:
        """Both input corpora, parsed once and shared by the stages that read
        them (none modifies them) until the memo is cleared."""
        if "corpora" not in self._memo:
            cfg = self.cfg
            corpora = load_corpus(cfg.corpus_t1, T1), load_corpus(cfg.corpus_t2, T2)
            self._memo["corpora"] = corpora
        return self._memo["corpora"]

    def _ingested(self) -> tuple[tuple[Corpus, Corpus], dict]:
        """The SGNS corpora (thresholded, if a threshold applies) and stats."""
        if "ingested" not in self._memo:
            cfg = self.cfg
            c1, c2 = self._raw_corpora()
            targets = load_targets(cfg.targets)
            vocab = build_vocabulary(c1, c2)
            total = c1.sentence_count + c2.sentence_count
            threshold = cfg.threshold_for(total)
            if threshold:
                f1 = apply_threshold(c1, vocab, threshold, targets)
                f2 = apply_threshold(c2, vocab, threshold, targets)
            else:
                f1, f2 = c1, c2
            stats = {
                "sentences_t1": c1.sentence_count,
                "sentences_t2": c2.sentence_count,
                "vocabulary_size": len(vocab),
                "threshold": threshold,
                "filtered_sentences_t1": f1.sentence_count,
                "filtered_sentences_t2": f2.sentence_count,
                "targets": len(targets),
                # SGNS gives every word of its corpus a vector, so these are
                # the words that align can fit its rotation on.
                "shared_words": len(set(f1.encoded.words) & set(f2.encoded.words)),
            }
            self._memo["ingested"] = (f1, f2), stats
        return self._memo["ingested"]

    def _clf_dataset(self) -> TimeClfDataset:
        """The classifier's dataset, built once from the raw corpora."""
        if "dataset" not in self._memo:
            self._memo["dataset"] = build_clf_dataset(
                *self._raw_corpora(),
                masked=self.cfg.masked,
                seed=derive_seed(self.cfg.seed, "clf-dataset"),
            )
        return self._memo["dataset"]

    def _ensure(self, name: str, payload: dict, build) -> StageResult:
        if name in self.stages:
            return self.stages[name]
        key = _key_of(
            {**payload, "stage": name, "version": __version__, "numpy": np.__version__}
        )
        directory = self.cfg.output_dir / name / key
        result = StageResult(name, key, directory, cached=directory.is_dir())
        if not result.cached:
            staging = self.cfg.output_dir / STAGING_DIR / f"{name}-{key}-{os.getpid()}"
            # Left by a run killed under this pid, it is overwritten file by file.
            staging.mkdir(parents=True, exist_ok=True)
            try:
                build(staging)
                directory.parent.mkdir(exist_ok=True)
                try:
                    os.rename(staging, directory)
                except OSError:
                    # Unless a concurrent run published the same bytes first.
                    if not directory.is_dir():
                        raise
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, exc) from exc
            finally:
                shutil.rmtree(staging, ignore_errors=True)
        self.stages[name] = result
        return result

    # -- stages -----------------------------------------------------------

    def ingest(self) -> StageResult:
        """Record the statistics of both corpora and of the frequency
        threshold applied to them for the static branch."""
        cfg = self.cfg
        payload = {
            "corpus_t1": self._hash(cfg.corpus_t1),
            "corpus_t2": self._hash(cfg.corpus_t2),
            "targets": self._hash(cfg.targets),
            "threshold": cfg.threshold,
        }

        def build(directory: Path):
            _, stats = self._ingested()
            (directory / "stats.json").write_text(
                json.dumps(stats, indent=2, sort_keys=True)
            )

        return self._ensure("ingest", payload, build)

    def train_static(self, beside=None) -> StageResult:
        """Train one SGNS space per period on the ingested corpora.

        `beside` is an optional stage method that reads the raw corpora
        (`score` passes `extract`). If this stage must be built, `beside` is
        built with it: in a helper process forked for the stage while this
        one trains, or first, in this process, when only one core is usable.
        While SGNS trains, a process keeps no dataset and only the SGNS corpora.
        """
        cfg = self.cfg
        ingest = self.ingest()
        seeds = {p: derive_seed(cfg.seed, f"sgns-{p}") for p in (T1, T2)}
        payload = {
            "ingest": ingest.key,
            "sgns": dataclasses.asdict(dataclasses.replace(cfg.sgns, seed=0)),
            "seeds": seeds,
        }
        beside_errors: list[Exception] = []

        def build(directory: Path):
            corpora, stats = self._ingested()
            # Checked before anything trains: align needs at least as many
            # shared words as dimensions.
            if stats["shared_words"] < cfg.sgns.dimension:
                raise UnderdeterminedError(
                    f"[sgns] dimension = {cfg.sgns.dimension} exceeds the "
                    f"{stats['shared_words']} words shared by both corpora, "
                    "too few for align to fit a rotation"
                )
            jobs = [
                (c, dataclasses.replace(cfg.sgns, seed=seeds[c.period]), directory)
                for c in corpora
            ]
            # Not every platform reports affinity; then count every CPU.
            if hasattr(os, "sched_getaffinity"):
                cores = len(os.sched_getaffinity(0))
            else:
                cores = os.cpu_count()
            if cores > 1:
                beside_errors.extend(_train_with_helper(self, jobs, beside))
                return
            # On one core a helper would only compete with this process.
            if beside is not None:
                beside()
            self._memo.clear()
            for job in jobs:
                _train_space(*job)

        static = self._ensure("static", payload, build)
        # The static stage is published even if the branch beside it failed.
        if beside_errors:
            raise beside_errors[0]
        return static

    def align(self) -> StageResult:
        static = self.train_static()
        payload = {"static": static.key}

        def build(directory: Path):
            pair = align_spaces(load_space(static.path, T1), load_space(static.path, T2))
            save_space(pair.space_t1, directory, T1)
            save_space(pair.space_t2, directory, T2)
            np.save(directory / "rotation.npy", pair.rotation, allow_pickle=False)
            (directory / "shared_vocabulary.txt").write_text(
                "\n".join(pair.shared_vocabulary) + "\n", encoding="utf-8"
            )

        return self._ensure("align", payload, build)

    def build_clf(self) -> StageResult:
        cfg = self.cfg
        payload = {
            "corpus_t1": self._hash(cfg.corpus_t1),
            "corpus_t2": self._hash(cfg.corpus_t2),
            "masked": cfg.masked,
            "seed": derive_seed(cfg.seed, "clf-dataset"),
        }

        def build(directory: Path):
            dataset = self._clf_dataset()
            meta = {"masked": dataset.masked, "mask_token": dataset.mask_token}
            (directory / "meta.json").write_text(
                json.dumps(meta, indent=2, sort_keys=True)
            )

        return self._ensure("clf-dataset", payload, build)

    def train_clf(self) -> StageResult:
        cfg = self.cfg
        dataset_stage = self.build_clf()
        seed = derive_seed(cfg.seed, "clf-train")
        payload = {
            "dataset": dataset_stage.key,
            "corpus_t1": self._hash(cfg.corpus_t1),
            "corpus_t2": self._hash(cfg.corpus_t2),
            "encoder": dataclasses.asdict(dataclasses.replace(cfg.encoder, seed=0)),
            "seed": seed,
        }

        def build(directory: Path):
            dataset = self._clf_dataset()
            # The full joint vocabulary (plus the mask token) means later
            # extraction over the raw corpora never meets OOV tokens.
            c1, c2 = self._raw_corpora()
            vocabulary = build_vocabulary(c1, c2).words + [dataset.mask_token]
            model, metrics = train_time_classifier(
                dataset,
                dataclasses.replace(cfg.encoder, seed=seed),
                vocabulary=vocabulary,
            )
            save_classifier(model, directory / "model.npz")
            rows = [
                ("accuracy", metrics.accuracy),
                ("accuracy_t1", metrics.per_label_accuracy[T1]),
                ("accuracy_t2", metrics.per_label_accuracy[T2]),
                ("test_count_t1", metrics.example_counts[T1]),
                ("test_count_t2", metrics.example_counts[T2]),
            ] + [
                (f"train_loss_epoch{k}", loss)
                for k, loss in enumerate(metrics.train_loss, start=1)
            ] + [("test_loss", metrics.test_loss)]
            with open(directory / "metrics.tsv", "w", encoding="utf-8") as fh:
                for name, value in rows:
                    fh.write(f"{name}\t{format(value, _FLOAT_FMT)}\n")

        return self._ensure("clf-model", payload, build)

    def extract(self) -> StageResult:
        cfg = self.cfg
        model_stage = self.train_clf()
        payload = {
            "model": model_stage.key,
            "corpus_t1": self._hash(cfg.corpus_t1),
            "corpus_t2": self._hash(cfg.corpus_t2),
            "targets": self._hash(cfg.targets),
        }

        def build(directory: Path):
            model = load_classifier(model_stage.path / "model.npz")
            targets = load_targets(cfg.targets)
            for period, corpus in zip((T1, T2), self._raw_corpora()):
                save_uses(extract_uses(model, corpus, targets), directory, period)

        return self._ensure("uses", payload, build)

    def score(self) -> StageResult:
        cfg = self.cfg
        # The static and the contextual branch share nothing until here: the
        # contextual one is built beside SGNS training if that must run. The
        # raw corpora are not read after it.
        self.train_static(beside=self.extract)
        uses_stage = self.extract()
        self._memo.clear()
        align_stage = self.align()
        seed = derive_seed(cfg.seed, "mpe")
        payload = {
            "align": align_stage.key,
            "uses": uses_stage.key,
            "targets": self._hash(cfg.targets),
            "pair_budget": cfg.pair_budget,
            "seed": seed,
        }

        def build(directory: Path):
            targets = load_targets(cfg.targets)
            pair = AlignedPair(
                space_t1=load_space(align_stage.path, T1),
                space_t2=load_space(align_stage.path, T2),
                rotation=_load_array(align_stage.path / "rotation.npy"),
                shared_vocabulary=_read_lines(align_stage.path / "shared_vocabulary.txt"),
            )
            cf = static_score(pair, targets)
            uses_t1 = _load_uses(uses_stage.path, T1, targets)
            uses_t2 = _load_uses(uses_stage.path, T2, targets)
            cd = contextual_score(
                list(zip(uses_t1, uses_t2)),
                targets,
                pair_budget=cfg.pair_budget,
                seed=seed,
            )
            write_scores_tsv([cf, cd], directory / "scores.tsv")

        return self._ensure("scores", payload, build)

    def ensemble(self) -> StageResult:
        cfg = self.cfg
        scores_stage = self.score()
        model_stage = self.train_clf()
        payload = {
            "scores": scores_stage.key,
            "model": model_stage.key,
            "theta": cfg.theta,
        }

        def build(directory: Path):
            path = scores_stage.path / "scores.tsv"
            by_model = read_scores_tsv(path)
            targets = sorted(load_targets(cfg.targets))
            for model in (CONTEXT_FREE, CONTEXT_DEPENDENT):
                if model not in by_model or sorted(by_model[model].targets) != targets:
                    raise FormatError(f"{path} does not score the run's targets by {model}")
            cf = fill_unscorable(by_model[CONTEXT_FREE])
            cd = fill_unscorable(by_model[CONTEXT_DEPENDENT])
            r_cf = ranks_from_scores(cf)
            r_cd = ranks_from_scores(cd)

            accuracy = _read_metric(model_stage.path / "metrics.tsv", "accuracy")
            if cfg.theta is not None:
                theta = Theta(value=cfg.theta, provenance="manual")
            else:
                theta = theta_from_accuracy(accuracy)
            combined = combine(r_cf, r_cd, theta)
            labels = binarize(combined)

            with open(directory / "theta.tsv", "w", encoding="utf-8") as fh:
                fh.write(f"theta\t{format(theta.value, _FLOAT_FMT)}\n")
                fh.write(f"provenance\t{theta.provenance}\n")
                fh.write(f"classifier_accuracy\t{format(accuracy, _FLOAT_FMT)}\n")

            flags = {
                w: ",".join(
                    m
                    for m, s in ((CONTEXT_FREE, cf), (CONTEXT_DEPENDENT, cd))
                    if w in s.unscorable
                )
                for w in r_cf.ranks
            }
            with open(directory / "ranks.tsv", "w", encoding="utf-8") as fh:
                fh.write("word\tcontext_free\tcontext_dependent\tensemble\tmedian_filled\n")
                for w in r_cf.ranks:
                    fh.write(
                        f"{w}\t{format(r_cf.ranks[w], '.6g')}"
                        f"\t{format(r_cd.ranks[w], '.6g')}"
                        f"\t{format(combined.ranks[w], '.6g')}"
                        f"\t{flags[w] or '-'}\n"
                    )

            _write_graded(directory / "graded_context_free.tsv", r_cf)
            _write_graded(directory / "graded_context_dependent.tsv", r_cd)
            _write_graded(directory / "graded_ensemble.tsv", combined)
            with open(directory / "binary_ensemble.tsv", "w", encoding="utf-8") as fh:
                for w in combined.ranks:
                    fh.write(f"{w}\t{1 if labels[w] == CHANGED else 0}\n")

        return self._ensure("ensemble", payload, build)

    def evaluate(self) -> StageResult:
        cfg = self.cfg
        if cfg.gold is None and cfg.binary_gold is None:
            raise StageError(
                "evaluate", ValueError("no gold file configured; nothing to evaluate")
            )
        # A gold file that does not list the targets fails before anything
        # trains. Ingest, built first, checks the target file itself.
        self.ingest()
        try:
            _check_gold(cfg)
        except LscdError as exc:
            raise StageError("evaluate", exc) from exc
        ensemble_stage = self.ensemble()
        payload = {
            "ensemble": ensemble_stage.key,
            "gold": self._hash(cfg.gold),
            "binary_gold": self._hash(cfg.binary_gold),
            "grid_step": cfg.grid_step,
        }

        def build(directory: Path):
            targets = load_targets(cfg.targets)
            rankings = _read_rankings(ensemble_stage.path / "ranks.tsv", targets)
            rows: list[tuple[str, str, float]] = []
            if cfg.gold is not None:
                gold = load_gold(cfg.gold)
                for model in (CONTEXT_FREE, CONTEXT_DEPENDENT, "ensemble"):
                    rows.append(
                        (model, "spearman", spearman(rankings[model], gold))
                    )
                if cfg.grid_step is not None:
                    best = grid_search_theta(
                        rankings[CONTEXT_FREE],
                        rankings[CONTEXT_DEPENDENT],
                        gold,
                        step=cfg.grid_step,
                    )
                    rows.append(("ensemble", "theta_grid_search", best.value))
            if cfg.binary_gold is not None:
                binary_gold = load_binary_gold(cfg.binary_gold)
                predicted = load_binary_gold(ensemble_stage.path / "binary_ensemble.tsv")
                rows.append(
                    ("ensemble", "binary_accuracy", binary_accuracy(predicted, binary_gold))
                )
            with open(directory / "report.tsv", "w", encoding="utf-8") as fh:
                fh.write("model\tmetric\tvalue\n")
                for model, metric, value in rows:
                    fh.write(f"{model}\t{metric}\t{format(value, _FLOAT_FMT)}\n")
            summary = [
                f"{model} {metric} = {format(value, '.4f')}"
                for model, metric, value in rows
            ]
            (directory / "summary.txt").write_text(
                "\n".join(summary) + "\n", encoding="utf-8"
            )

        return self._ensure("evaluate", payload, build)

    # -- whole runs -------------------------------------------------------

    def run_all(self) -> dict:
        """Execute the full pipeline, publish the answer files and write the
        run manifest. Returns a report of what ran and what was reused."""
        cfg = self.cfg
        if cfg.gold is not None or cfg.binary_gold is not None:
            self.evaluate()
        ensemble_stage = self.ensemble()

        run_sentinel = cfg.output_dir / RUN_SENTINEL
        run_sentinel.unlink(missing_ok=True)

        answers = cfg.output_dir / ANSWER_DIR
        answers.mkdir(parents=True, exist_ok=True)
        for name in (
            "graded_context_free.tsv",
            "graded_context_dependent.tsv",
            "graded_ensemble.tsv",
            "binary_ensemble.tsv",
        ):
            _copy_whole(ensemble_stage.path / name, answers / name)

        manifest = {
            "package_version": __version__,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "config": dataclasses.asdict(cfg),
            "inputs": {
                "corpus_t1": self._hash(cfg.corpus_t1),
                "corpus_t2": self._hash(cfg.corpus_t2),
                "targets": self._hash(cfg.targets),
                "gold": self._hash(cfg.gold),
                "binary_gold": self._hash(cfg.binary_gold),
            },
            "derived_seeds": {
                label: derive_seed(cfg.seed, label)
                for label in ("sgns-t1", "sgns-t2", "clf-dataset", "clf-train", "mpe")
            },
            "stages": {name: res.key for name, res in sorted(self.stages.items())},
        }
        (cfg.output_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        run_sentinel.touch()
        return self.report()

    def report(self) -> dict:
        return {
            "stages": {
                name: {"key": res.key, "cached": res.cached, "path": str(res.path)}
                for name, res in self.stages.items()
            },
            "output_dir": str(self.cfg.output_dir),
        }


def _copy_whole(source: Path, target: Path) -> None:
    """Copy `source` to `target` through a sibling temporary file and one
    rename, so that `target` is always a whole file, old or new."""
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        shutil.copyfile(source, temp)
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)


def _check_gold(cfg: PipelineConfig) -> None:
    """Raise FormatError, naming the file, if a gold file does not list
    exactly the run's targets."""
    targets = set(load_targets(cfg.targets))
    for key, load in (("gold", load_gold), ("binary_gold", load_binary_gold)):
        path = getattr(cfg, key)
        if path is not None and (words := set(load(path))) != targets:
            mismatch = TargetMismatchError(words - targets, targets - words)
            raise FormatError(
                f"[paths] {key} = {path} does not list the targets in {cfg.targets}: "
                f"{mismatch}"
            )


def _train_space(corpus: Corpus, config: SgnsConfig, directory: Path) -> None:
    """Train one period's SGNS space and save it."""
    save_space(train_sgns(corpus, config), directory, corpus.period)


# -- the helper process ------------------------------------------------------
#
# The static stage shares its SGNS jobs with one helper forked from the
# calling process; the helper inherits them, so no corpus is pickled. Both
# take job indices from one queue that holds each index, then one stop
# marker per process, so each job runs once, in whichever process frees
# first. Before it takes any, the helper builds the contextual branch, if
# asked to, from the raw corpora it inherited. It reports on a pipe: the
# contextual stages' results or error first, then one message per space.


def _train_with_helper(pipeline: Pipeline, jobs: list, beside) -> list[Exception]:
    """Train `jobs` beside a forked helper that first builds `beside`, if
    given. Adds the stages it built to `pipeline.stages` and returns its
    error, if any; an SGNS error is raised. The helper is joined first."""
    # Imported here so that runs which find the static stage cached, or run
    # on one core, never pay for the import.
    import multiprocessing

    # Fork, unlike spawn and forkserver, re-imports neither the caller's
    # __main__ nor numpy, and hands the helper the parsed corpora.
    context = multiprocessing.get_context("fork")
    queue = context.SimpleQueue()
    for index in [*range(len(jobs)), None, None]:  # one stop marker per process
        queue.put(index)
    reports, report = context.Pipe(duplex=False)
    helper = context.Process(
        target=_helper, args=(pipeline, beside, jobs, queue, report)
    )
    helper.start()
    report.close()
    pipeline._memo.clear()
    try:
        trained = 0
        while (index := queue.get()) is not None:
            _train_space(*jobs[index])
            trained += 1
        errors = []
        for _ in range(len(jobs) - trained + (beside is not None)):
            try:
                kind, value = reports.recv()
            except EOFError:
                helper.join()
                raise LscdError(
                    f"the helper process exited (code {helper.exitcode}) "
                    "before it reported all its work"
                ) from None
            if kind == "stages":
                pipeline.stages.update(value)
            elif kind == "beside":
                errors.append(value)
            elif value is not None:
                raise value
        return errors
    except BaseException:
        helper.terminate()
        raise
    finally:
        helper.join()
        reports.close()
        queue.close()
        # A terminated helper leaves the stage it was building unpublished.
        for leftover in (pipeline.cfg.output_dir / STAGING_DIR).glob(f"*-{helper.pid}"):
            shutil.rmtree(leftover, ignore_errors=True)


def _helper(pipeline: Pipeline, beside, jobs: list, queue, report) -> None:
    if beside is not None:
        built = set(pipeline.stages)
        try:
            beside()
        except Exception as exc:
            report.send(("beside", exc))
        else:
            new = {k: v for k, v in pipeline.stages.items() if k not in built}
            report.send(("stages", new))
    pipeline._memo.clear()
    while (index := queue.get()) is not None:
        try:
            _train_space(*jobs[index])
        except Exception as exc:
            report.send(("space", exc))
        else:
            report.send(("space", None))


def _load_uses(directory: Path, period: str, targets: list[str]) -> list[UseSet]:
    """One use set per target, in target order; a target without uses in
    `period` has an empty one."""
    use_sets = load_uses(directory, period)
    if [u.word for u in use_sets] != targets:
        path = directory / f"uses_{period}.index.tsv"
        raise FormatError(f"{path} does not list the run's targets in order")
    return use_sets


def _write_graded(path: Path, ranking: Ranking) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, rank in ranking.ranks.items():
            fh.write(f"{word}\t{format(rank, '.6g')}\n")


def _read_metric(path: Path, name: str) -> float:
    for i, line in enumerate(_read_lines(path), start=1):
        key, _, value = line.partition("\t")
        if key == name:
            try:
                return float(value)
            except ValueError as exc:
                raise FormatError(f"malformed metric row in {path}", line=i) from exc
    raise FormatError(f"metric {name!r} not found in {path}")


def _read_rankings(path: Path, targets: list[str]) -> dict[str, Ranking]:
    columns = {CONTEXT_FREE: {}, CONTEXT_DEPENDENT: {}, "ensemble": {}}
    for i, line in enumerate(_read_lines(path)[1:], start=2):  # after the header
        try:
            word, *values, _ = line.split("\t")
            for column, value in zip(columns.values(), values, strict=True):
                column[word] = float(value)
        except ValueError as exc:
            raise FormatError(f"malformed ranks row in {path}", line=i) from exc
    if sorted(columns["ensemble"]) != sorted(targets):
        raise FormatError(f"{path} does not rank the run's targets")
    return {name: Ranking(ranks=ranks, source=name) for name, ranks in columns.items()}
