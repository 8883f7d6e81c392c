"""Command-line entry point.

Each pipeline stage is a subcommand; a stage transparently runs (or reuses
from cache) everything upstream of it, so `lscd score --config run.ini` is
enough to go from raw corpora to a scores table. `run-all` executes the
whole pipeline and writes the answer files plus the run manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import benchmark
from .errors import LscdError
from .pipeline import Pipeline, PipelineConfig, load_config

_STAGE_COMMANDS = {
    "ingest": ("ingest", "Load, validate and frequency-threshold the corpora"),
    "train-static": ("train_static", "Train one static embedding space per corpus"),
    "align": ("align", "Normalize, center and rotate the t1 space onto t2"),
    "build-clf": ("build_clf", "Build the balanced time-classification dataset"),
    "train-clf": ("train_clf", "Train the sentence time classifier"),
    "extract": ("extract", "Extract per-use contextual vectors for the targets"),
    "score": ("score", "Compute context-free and context-dependent change scores"),
    "ensemble": ("ensemble", "Rank, combine and binarize the predictions"),
    "evaluate": ("evaluate", "Score the predictions against gold data"),
    "run-all": ("run_all", "Run the whole pipeline and write answers + manifest"),
}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the run config file")
    # Each override's dest is the PipelineConfig field it sets; an absent
    # flag leaves no attribute, so the config file's value stands.
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="override [run] seed"
    )
    parser.add_argument(
        "--theta",
        type=float,
        default=argparse.SUPPRESS,
        help="override the ensemble weight instead of predicting it",
    )
    parser.add_argument(
        "--no-mask",
        dest="masked",
        action="store_false",
        default=argparse.SUPPRESS,
        help="build the classification dataset without masking corpus-unique words",
    )
    parser.add_argument(
        "--pair-budget",
        type=int,
        default=argparse.SUPPRESS,
        help="subsample at most this many vector pairs per word in MPE scoring",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscd",
        description="Rank words by lexical semantic change between two corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _STAGE_COMMANDS.items():
        stage_parser = sub.add_parser(command, help=help_text)
        _add_common_options(stage_parser)

    gen = sub.add_parser(
        "gen-bench", help="Generate a synthetic benchmark with known shifts"
    )
    gen.add_argument("--out", required=True, help="directory for the benchmark files")
    gen.add_argument(
        "--targets",
        type=int,
        default=None,
        help="number of pseudo-targets (default: one per --degrees entry, else 8)",
    )
    gen.add_argument(
        "--sentences", type=int, default=20000, help="sentences per corpus"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--degrees",
        default=None,
        help="comma-separated true shift degrees in [0,1] (default: evenly spaced)",
    )
    return parser


def _degree(entry: str, flag_value: str) -> float:
    try:
        return float(entry)
    except ValueError:
        raise ValueError(
            f"--degrees entry {entry!r} of {flag_value!r} is not a number"
        ) from None


def _run_stage(command: str, args: argparse.Namespace) -> int:
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(PipelineConfig)
        if hasattr(args, f.name)
    }
    config = load_config(args.config, overrides=overrides)
    pipeline = Pipeline(config)
    method_name, _ = _STAGE_COMMANDS[command]
    getattr(pipeline, method_name)()
    for name, info in pipeline.report()["stages"].items():
        state = "cached" if info["cached"] else "built"
        print(f"{name}: {state} ({info['path']})")
    if command == "run-all":
        print(f"answers: {config.output_dir / 'answers'}")
        print(f"manifest: {config.output_dir / 'manifest.json'}")
    evaluate_stage = pipeline.stages.get("evaluate")
    if evaluate_stage is not None:
        summary = (evaluate_stage.path / "summary.txt").read_text(encoding="utf-8")
        print(summary, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-bench":
            degrees = None
            if args.degrees:
                degrees = [_degree(x, args.degrees) for x in args.degrees.split(",")]
            n_targets = args.targets
            if n_targets is None:
                n_targets = 8 if degrees is None else len(degrees)
            bench = benchmark.generate_shift_benchmark(
                n_targets=n_targets,
                degrees=degrees,
                base_sentences=args.sentences,
                seed=args.seed,
            )
            paths = benchmark.write_benchmark(bench, args.out)
            for name, path in paths.items():
                print(f"{name}: {path}")
            return 0
        return _run_stage(args.command, args)
    except (LscdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
