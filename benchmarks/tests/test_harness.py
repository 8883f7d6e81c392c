"""Self-tests of the benchmark harness: span arithmetic, answer checks and a
toy-size run of every workload path.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracing import STAGES, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_subtracts_nearest_counted_descendants():
    spans = [
        span("pipeline.evaluate", 0.0, 10.0),  # 0
        span("pipeline.ensemble", 1.0, 6.0, parent=0),  # 1
        span("io.load_vectors", 2.0, 5.0, parent=1),  # 2: not counted, looked through
        span("pipeline.scores", 3.0, 4.5, parent=2),  # 3: counted child of 1
        span("pipeline.scores", 7.0, 7.25, parent=0),  # 4: a cached repeat call
    ]
    counted = {"pipeline.evaluate", "pipeline.ensemble", "pipeline.scores"}
    assert self_times(spans, counted) == pytest.approx([10 - 5 - 0.25, 5 - 1.5, 0.0, 1.5, 0.25])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("a", 4.0, 8.0, parent=0),
        span("a", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans, {"a"})[0] == pytest.approx(10 - 6 - 1)


def test_stage_self_times_and_remainder_add_up_to_wall_time():
    spans = [
        span("pipeline.evaluate", 1.0, 9.0),
        span("pipeline.ensemble", 1.5, 8.0, parent=0),
        span("sgns.train", 2.0, 7.0, parent=1, token_epochs=1000, final_loss=1.5),
        span("scoring.mpe", 7.0, 7.5, parent=1, pairs=50),
    ]
    metrics = layer_metrics(spans, wall_s=10.0)
    stage_total = sum(metrics[f"pipeline.{s}.self_s"] for s in STAGES)
    assert stage_total == pytest.approx(8.0)
    assert metrics["pipeline.unattributed_s"] == pytest.approx(2.0)
    assert metrics["sgns.tokens_per_s"] == pytest.approx(200.0)
    assert metrics["sgns.final_loss"] == 1.5
    assert metrics["scoring.mpe_pairs_per_s"] == pytest.approx(100.0)
    assert metrics["svd.s"] == 0.0


def test_stage_states_parses_run_all_output():
    out = "ingest: built (o/ingest/1)\nstatic: cached (o/static/2)\nanswers: o/answers\n"
    assert run.stage_states(out) == {"ingest": "built", "static": "cached"}


def write_answers(directory: Path, ranks: dict[str, float], binary: dict[str, int]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in run.ANSWER_FILES[:3]:
        (directory / name).write_text("".join(f"{w}\t{r}\n" for w, r in ranks.items()))
    (directory / "binary_ensemble.tsv").write_text(
        "".join(f"{w}\t{v}\n" for w, v in binary.items())
    )


def test_check_answers(tmp_path):
    ranks = {"a": 1.0, "b": 2.5, "c": 2.5}
    write_answers(tmp_path / "ok", ranks, {"a": 0, "b": 1, "c": 1})
    assert run.check_answers(tmp_path / "ok", ["a", "b", "c"]) == []

    assert run.check_answers(tmp_path / "ok", ["a", "b", "c", "d"])  # target missing
    write_answers(tmp_path / "lower", ranks, {"a": 1, "b": 1, "c": 0})
    assert "upper half" in run.check_answers(tmp_path / "lower", ["a", "b", "c"])[0]
    write_answers(tmp_path / "bad", ranks, {"a": 0, "b": 1, "c": 2})
    assert "malformed" in run.check_answers(tmp_path / "bad", ["a", "b", "c"])[0]
    for score in (float("nan"), float("inf")):
        write_answers(tmp_path / "nan", {**ranks, "c": score}, {"a": 0, "b": 1, "c": 1})
        problems = run.check_answers(tmp_path / "nan", ["a", "b", "c"])
        assert "malformed" in problems[0]


TOY_SENTENCES = {"uses-heavy": 600, "wide-d300": 1500}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "MIN_CYCLES", {0: 2, 1: 1})
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(
        run,
        "WORKLOADS",
        {
            name: dataclasses.replace(w, sentences=TOY_SENTENCES[name])
            for name, w in run.WORKLOADS.items()
        },
    )


def result_of(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TOY_SENTENCES))
def test_toy_run_of_each_workload(toy, capsys, workload):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    result = result_of(capsys)
    assert result["correct"] and result["failed"] == 0
    # gen-bench twice, then two cycles of four references, cold, warm and rescores
    assert result["attempted"] == 2 + 2 * (6 + run.RESCORES_PER_CYCLE)
    assert set(result["metrics"]) == set(run.declared_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_toy_traced_run(toy, capsys, tmp_path):
    argv = ["--workload", "uses-heavy", "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = result_of(capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.declared_units("per_layer"))
    assert metrics["pipeline.cache_hits.warm"] == 9
    assert metrics["pipeline.cache_hits.rescore"] == 6
    for positive in ("pipeline.static.self_s", "pipeline.cold_s", "reference.wall_s",
                     "sgns.train_s", "svd.s", "scoring.mpe_pairs",
                     "context.uses", "io.uses_s", "benchmark.generate_s", "corpus.load_calls"):
        assert metrics[positive] > 0, positive
    report = json.loads(
        (tmp_path / "reports" / "uses-heavy-seed3-trace1.json").read_text(encoding="utf-8")
    )
    assert report["warnings"] == []


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    argv = ["--workload", "uses-heavy", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
