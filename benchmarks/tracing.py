"""Span tracer for the traced benchmark run, and the child process that uses it.

The traced run measures each layer from outside the program: before the
`lscd` command line runs, this module replaces the functions `lscd.pipeline`
calls (and the `Pipeline` stage methods) with wrappers that record a span per
call. Nothing under `src/` knows about it.

Run as a script, it executes one `lscd` command under the tracer and writes
the spans as JSON:

    python3 benchmarks/tracing.py SPANS.json run-all --config run.ini
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Pipeline method -> the stage name it builds (as `run-all` prints it).
_STAGE_METHODS = {
    "ingest": "ingest",
    "train_static": "static",
    "align": "align",
    "build_clf": "clf-dataset",
    "train_clf": "clf-model",
    "extract": "uses",
    "score": "scores",
    "ensemble": "ensemble",
    "evaluate": "evaluate",
}
STAGES = tuple(_STAGE_METHODS.values())


class Tracer:
    """Records one span per call of each wrapped function, in memory.

    A span is a dict with `name`, `start`, `end`, `parent` (index of the
    enclosing span or None) and `attrs` (counts an observer derived from the
    call's arguments and result, outside the timed interval).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace `owner.attr` by a traced wrapper. A name the program no
        longer has is recorded in `missing` instead of failing the run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = observe(bound.arguments, result)
            return result

        setattr(owner, attr, traced)


def self_times(spans: list[dict], counted) -> list[float]:
    """Self time of each span whose name is in `counted`, else 0.0.

    A span's self time is its duration minus the part of its interval covered
    by its nearest descendants that are also counted (spans of other names in
    between are looked through, so a stage's self time includes the library
    calls it makes but not the upstream stages it calls).
    """
    def counted_ancestor(i: int):
        parent = spans[i]["parent"]
        while parent is not None and spans[parent]["name"] not in counted:
            parent = spans[parent]["parent"]
        return parent

    children: dict[int, list[tuple[float, float]]] = {}
    for i, span in enumerate(spans):
        if span["name"] in counted:
            owner = counted_ancestor(i)
            if owner is not None:
                children.setdefault(owner, []).append((span["start"], span["end"]))

    result = []
    for i, span in enumerate(spans):
        if span["name"] not in counted:
            result.append(0.0)
            continue
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def _total(spans: list[dict], *names: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def _attr_sum(spans: list[dict], name: str, attr: str) -> float:
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)


def _last_attr(spans: list[dict], name: str, attr: str) -> float:
    values = [s["attrs"][attr] for s in spans if s["name"] == name and attr in s["attrs"]]
    return values[-1] if values else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced `run-all`; `wall_s` is the traced
    process's wall time, so the part no stage accounts for is reported."""
    stage_names = {f"pipeline.{s}" for s in STAGES}
    selfs = self_times(spans, stage_names)
    metrics: dict[str, float] = {}
    for stage in STAGES:
        metrics[f"pipeline.{stage}.self_s"] = sum(
            t for t, s in zip(selfs, spans) if s["name"] == f"pipeline.{stage}"
        )
    metrics["pipeline.unattributed_s"] = wall_s - sum(selfs)

    metrics["corpus.load_s"] = _total(spans, "corpus.load")
    metrics["corpus.load_calls"] = sum(1 for s in spans if s["name"] == "corpus.load")
    metrics["corpus.clf_dataset_s"] = _total(spans, "corpus.clf_dataset")

    sgns_s = _total(spans, "sgns.train")
    metrics["sgns.train_s"] = sgns_s
    metrics["sgns.tokens_per_s"] = _rate(_attr_sum(spans, "sgns.train", "token_epochs"), sgns_s)
    metrics["sgns.final_loss"] = _last_attr(spans, "sgns.train", "final_loss")

    metrics["svd.s"] = _total(spans, "svd.procrustes_rotation")
    metrics["align.s"] = _total(spans, "align.align")
    metrics["align.shared_vocab"] = _last_attr(spans, "align.align", "shared")
    metrics["align.residual"] = _last_attr(spans, "align.align", "residual")

    train_s = _total(spans, "context.train")
    extract_s = _total(spans, "context.extract")
    uses = _attr_sum(spans, "context.extract", "uses")
    metrics["context.train_s"] = train_s
    metrics["context.train_examples_per_s"] = _rate(
        _attr_sum(spans, "context.train", "example_epochs"), train_s
    )
    metrics["context.clf_accuracy"] = _last_attr(spans, "context.train", "accuracy")
    metrics["context.extract_s"] = extract_s
    metrics["context.uses"] = uses
    metrics["context.uses_per_s"] = _rate(uses, extract_s)

    mpe_s = _total(spans, "scoring.mpe")
    pairs = _attr_sum(spans, "scoring.mpe", "pairs")
    metrics["scoring.mpe_s"] = mpe_s
    metrics["scoring.mpe_pairs"] = pairs
    metrics["scoring.mpe_pairs_per_s"] = _rate(pairs, mpe_s)
    metrics["scoring.static_s"] = _total(spans, "scoring.static")

    io_uses = ("io.export_uses", "io.import_uses")
    uses_s = _total(spans, *io_uses)
    uses_bytes = sum(_attr_sum(spans, n, "bytes") for n in io_uses)
    metrics["io.vectors_s"] = _total(spans, "io.save_vectors", "io.load_vectors")
    metrics["io.uses_s"] = uses_s
    metrics["io.uses_mb_per_s"] = _rate(uses_bytes / 1e6, uses_s)
    metrics["io.dataset_s"] = _total(spans, "io.write_dataset", "io.read_dataset")

    metrics["ensemble.s"] = _total(
        spans, "ensemble.ranks", "ensemble.theta", "ensemble.combine", "ensemble.binarize"
    )
    metrics["evaluate.s"] = _total(spans, "evaluate.spearman", "evaluate.binary_accuracy")
    metrics["benchmark.generate_s"] = _total(spans, "benchmark.generate")
    metrics["benchmark.write_s"] = _total(spans, "benchmark.write")
    return metrics


# -- observers: counts derived from a call's arguments and result ----------


def _tokens(corpus) -> int:
    return sum(len(sentence) for sentence in corpus.sentences)


def _file_bytes(key: str):
    """Observer recording the size of the file passed as argument `key`."""
    return lambda args, _: {"bytes": os.path.getsize(args[key])}


def _observe_sgns(args, space):
    losses = space.epoch_losses or [0.0]
    return {
        "token_epochs": _tokens(args["corpus"]) * args["config"].epochs,
        "final_loss": float(losses[-1]),
    }


def _observe_align(args, pair):
    import numpy as np

    rows_t1 = [pair.space_t1.word_ids[w] for w in pair.shared_vocabulary]
    rows_t2 = [pair.space_t2.word_ids[w] for w in pair.shared_vocabulary]
    residual = pair.space_t1.vectors[rows_t1] @ pair.rotation - pair.space_t2.vectors[rows_t2]
    return {
        "shared": len(pair.shared_vocabulary),
        "residual": float(np.linalg.norm(residual)),
    }


def _observe_train(args, result):
    from lscd.corpus import TRAIN

    _, metrics = result
    return {
        "example_epochs": len(args["dataset"].indices(TRAIN)) * args["config"].epochs,
        "accuracy": float(metrics.accuracy),
    }


def _observe_extract(args, use_sets):
    return {"uses": sum(len(u.vectors) for u in use_sets)}


def _observe_mpe(args, _):
    pairs = len(args["uses_t1"]) * len(args["uses_t2"])
    budget = args["pair_budget"]
    return {"pairs": pairs if budget is None or pairs <= budget else budget}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the `lscd` package.

    Names are patched where the caller looks them up: the functions
    `lscd.pipeline` imported into its own namespace, the stage methods on
    `Pipeline`, and module globals for calls made inside a module. The
    package attribute `lscd.align` is the re-exported `align` function, not
    the module, so modules are taken from `sys.modules`.
    """
    import lscd.pipeline  # noqa: F401  (loads every module patched below)

    pipeline = sys.modules["lscd.pipeline"]
    for method, stage in _STAGE_METHODS.items():
        tracer.wrap(pipeline.Pipeline, method, f"pipeline.{stage}")

    for attr, name, observe in (
        ("load_corpus", "corpus.load", None),
        ("build_clf_dataset", "corpus.clf_dataset", None),
        ("write_dataset_tsv", "io.write_dataset", None),
        ("train_sgns", "sgns.train", _observe_sgns),
        ("save_vectors", "io.save_vectors", None),
        ("load_vectors", "io.load_vectors", None),
        ("align_spaces", "align.align", _observe_align),
        ("train_time_classifier", "context.train", _observe_train),
        ("extract_uses", "context.extract", _observe_extract),
        ("export_uses", "io.export_uses", _file_bytes("path")),
        ("import_uses", "io.import_uses", _file_bytes("path")),
        ("static_score", "scoring.static", None),
        ("ranks_from_scores", "ensemble.ranks", None),
        ("theta_from_accuracy", "ensemble.theta", None),
        ("combine", "ensemble.combine", None),
        ("binarize", "ensemble.binarize", None),
        ("spearman", "evaluate.spearman", None),
        ("binary_accuracy", "evaluate.binary_accuracy", None),
    ):
        tracer.wrap(pipeline, attr, name, observe)

    # `train_clf` imports read_dataset_tsv from lscd.corpus at call time.
    tracer.wrap(sys.modules["lscd.corpus"], "read_dataset_tsv", "io.read_dataset")
    tracer.wrap(sys.modules["lscd.align"], "procrustes_rotation", "svd.procrustes_rotation")
    tracer.wrap(sys.modules["lscd.scoring"], "mpe_distance", "scoring.mpe", _observe_mpe)
    benchmark = sys.modules["lscd.benchmark"]
    tracer.wrap(benchmark, "generate_shift_benchmark", "benchmark.generate")
    tracer.wrap(benchmark, "write_benchmark", "benchmark.write")


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from lscd.cli import main as lscd_main

    code = lscd_main(command)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
