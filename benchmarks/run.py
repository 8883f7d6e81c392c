"""The lscd benchmark: one workload per call, end to end or traced.

    python3 benchmarks/run.py --workload uses-heavy --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout. The benchmark generates the
workload's corpora with `lscd gen-bench --seed <seed>` (set-up), then repeats
a cycle of processes on one fresh output directory for about `--seconds`
seconds:

- reference: `reference.py`, a fixed workload that does not use lscd;
- cold: `lscd run-all` on an empty output directory, so every stage is built;
- reference again;
- warm: the same command again, so every stage must be read from the cache;
- reference again;
- rescore, three times: `--pair-budget 10**15`, then 10**15 + 1 and + 2.
  Each budget is above every m*n, so MPE still takes the exact path, but it
  is a new `scores` key: `scores`, `ensemble` and `evaluate` are rebuilt on
  top of cached upstream stages and the answers must equal the cold ones;
- reference again.

Every process's answers are checked; a process that fails a check counts as
a failed operation. With `--trace 0` the last line of stdout is a JSON object
holding the end-to-end metrics: medians over the cycles, with the cold and
rescore times divided by the median reference time of the same run, which
cancels the shared host's drift in speed between runs; with `--trace 1`
the run ends with one more cold `run-all` under the span tracer of
`tracing.py`, and the JSON holds the per-layer metrics. The full report,
environment and answer hashes included, is also written to
`.bench_work/reports/`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
from tracing import STAGES, layer_metrics  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """Input size for `gen-bench` plus the `[sgns]` config; the encoder runs
    at package defaults."""

    sentences: int
    targets: int
    sgns: dict


# Why each workload exists is in README.md; the sizes keep one cold run to a
# few seconds on 2 cores so that a run can take the median of several.
WORKLOADS = {
    # Few, frequent targets with light SGNS and the default encoder: the
    # classifier, use extraction, use-TSV I/O and exact MPE dominate.
    "uses-heavy": Workload(
        sentences=5000,
        targets=3,
        sgns={"dimension": 16, "window": 2, "negatives": 1, "epochs": 1},
    ),
    # SGNS at the default width (d=300, window 10) for one epoch; the
    # 306-word vocabulary exceeds d, so the d=300 Procrustes SVD runs.
    "wide-d300": Workload(
        sentences=1400,
        targets=36,
        sgns={"epochs": 1},
    ),
}

RUN_SEED = 929
# Each rescore of a cycle gets its own budget, all above every m*n, so each
# rebuilds `scores` and still takes the exact MPE path.
RESCORE_BUDGET = 10**15
RESCORES_PER_CYCLE = 3
SETUP_REPEATS = 3
MIN_CYCLES = {0: 3, 1: 2}
MAX_CYCLES = 50
RESCORE_REBUILT = {"scores", "ensemble", "evaluate"}
ANSWER_FILES = (
    "graded_context_free.tsv",
    "graded_context_dependent.tsv",
    "graded_ensemble.tsv",
    "binary_ensemble.tsv",
)
STAGE_LINE = re.compile(r"^(\S+): (built|cached) \(")


@dataclass
class Proc:
    """One finished child process, measured by the parent."""

    returncode: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """One BLAS thread: each process runs alone, and a second thread would
    only wait for a core on a shared host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_process(argv: list[str], cwd: Path, env: dict[str, str], log: Path) -> Proc:
    """Run `argv` to completion; wall time from the parent's clock, CPU time
    and peak RSS from the child's own rusage."""
    with open(log.with_suffix(".out"), "w+", encoding="utf-8") as out, open(
        log.with_suffix(".err"), "w+", encoding="utf-8"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read(),
        )


def sha256_of(path: Path) -> str:
    """Hex digest of a file, or "missing", which differs from every digest."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def stage_states(stdout: str) -> dict[str, str]:
    """Stage name -> 'built' or 'cached', from `run-all`'s output."""
    states = {}
    for line in stdout.splitlines():
        match = STAGE_LINE.match(line)
        if match:
            states[match.group(1)] = match.group(2)
    return states


def check_answers(answers: Path, targets: list[str]) -> list[str]:
    """Problems with the answer files: a missing file, a malformed row (a
    score that is not a finite number included), a target missing or repeated, or binary labels that are not the upper
    ceil(n/2) of the ensemble ranking (ties broken by word)."""
    problems = []
    parsed: dict[str, dict[str, float]] = {}
    for name in ANSWER_FILES:
        path = answers / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        rows: dict[str, float] = {}
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            parts = line.split("\t")
            try:
                if len(parts) != 2 or parts[0] in rows:
                    raise ValueError
                value = float(parts[1])
                if not math.isfinite(value):
                    raise ValueError
                if name.startswith("binary") and parts[1] not in ("0", "1"):
                    raise ValueError
            except ValueError:
                problems.append(f"{name}:{number}: malformed or repeated row {line!r}")
                continue
            rows[parts[0]] = value
        if set(rows) != set(targets):
            problems.append(f"{name}: targets differ: {sorted(set(targets) ^ set(rows))}")
        parsed[name] = rows
    ranks = parsed.get("graded_ensemble.tsv")
    binary = parsed.get("binary_ensemble.tsv")
    if not problems and ranks is not None and binary is not None:
        ordered = sorted(ranks, key=lambda w: (ranks[w], w))
        upper = set(ordered[len(ordered) - math.ceil(len(ordered) / 2) :])
        if {w for w, v in binary.items() if v == 1} != upper:
            problems.append("binary_ensemble.tsv: labels are not the upper half of the ensemble ranking")
    return problems


def answer_digests(out: Path) -> dict[str, str]:
    digests = {name: sha256_of(out / "answers" / name) for name in ANSWER_FILES}
    digests["manifest.json"] = sha256_of(out / "manifest.json")
    return digests


def read_quality(out: Path) -> dict[str, float]:
    """Answer quality of one run, from the evaluate and ensemble artifacts."""
    (report,) = (out / "evaluate").glob("*/report.tsv")
    values = {}
    for line in report.read_text(encoding="utf-8").splitlines()[1:]:
        model, metric, value = line.split("\t")
        values[(model, metric)] = float(value)
    (theta,) = (out / "ensemble").glob("*/theta.tsv")
    theta_rows = dict(line.split("\t") for line in theta.read_text(encoding="utf-8").splitlines())
    return {
        "evaluate.rho_ensemble": values[("ensemble", "spearman")],
        "evaluate.rho_cf": values[("context_free", "spearman")],
        "evaluate.rho_cd": values[("context_dependent", "spearman")],
        "evaluate.binary_accuracy": values[("ensemble", "binary_accuracy")],
        "ensemble.theta": float(theta_rows["theta"]),
    }


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def steal_ticks() -> int:
    """Machine-wide CPU steal ticks so far (read-only, from /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


@dataclass
class Bench:
    """One benchmark run of one workload: its processes, checks and samples."""

    workload: Workload
    seed: int
    nproc: int
    work: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    cold_digests: dict[str, str] | None = None
    quality: dict[str, float] = field(default_factory=dict)
    reference_output: str | None = None

    def __post_init__(self):
        self.env = child_env()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def run(self, argv: list[str], cwd: Path) -> Proc:
        self.attempted += 1
        return run_process(argv, cwd, self.env, self.work / "logs" / f"{self.attempted:03d}")

    def fail(self, what: str, proc: Proc | None = None) -> None:
        """Record a failed check of the operation that ran last."""
        detail = f" (exit {proc.returncode}: {proc.stderr.strip()[-300:]})" if proc else ""
        self.failures.append(what + detail)
        self.failed_ops.add(self.attempted)

    # -- set-up -------------------------------------------------------------

    def gen_argv(self, out: Path) -> list[str]:
        return [
            "gen-bench",
            "--out",
            str(out),
            "--sentences",
            str(self.workload.sentences),
            "--targets",
            str(self.workload.targets),
            "--seed",
            str(self.seed),
        ]

    def setup(self, traced: bool) -> dict[str, float]:
        """Generate the inputs into `work/in`. Untraced: SETUP_REPEATS
        times, timing each and checking that the same seed gives the same
        files. Traced: once, under the tracer, for the generator's layers."""
        inputs = self.work / "in"
        if traced:
            spans = self.work / "gen-spans.json"
            proc = self.run(
                [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans)] + self.gen_argv(inputs),
                self.work,
            )
            if proc.returncode != 0:
                self.fail("gen-bench (traced) failed", proc)
                return {}
            data = json.loads(spans.read_text(encoding="utf-8"))
            metrics = layer_metrics(data["spans"], proc.wall_s)
            return {k: metrics[k] for k in ("benchmark.generate_s", "benchmark.write_s")}

        digests = None
        for i in range(SETUP_REPEATS):
            target = self.work / f"in{i}"
            proc = self.run([sys.executable, "-m", "lscd.cli"] + self.gen_argv(target), self.work)
            self.sample("setup_s", proc.wall_s)
            if proc.returncode != 0:
                self.fail("gen-bench failed", proc)
                continue
            current = {p.name: sha256_of(p) for p in sorted(target.iterdir())}
            if digests is None:
                digests = current
                target.rename(inputs)
            else:
                if current != digests:
                    self.fail("gen-bench: same seed gave different inputs")
                shutil.rmtree(target)
        return {}

    def targets(self) -> list[str]:
        return (self.work / "in" / "targets.txt").read_text(encoding="utf-8").split()

    def input_stats(self) -> dict[str, int]:
        stats = {}
        for period in ("t1", "t2"):
            path = self.work / "in" / f"corpus_{period}.txt"
            stats[f"corpus_{period}_bytes"] = path.stat().st_size
            with open(path, encoding="utf-8") as fh:
                stats[f"corpus_{period}_tokens"] = sum(len(line.split()) for line in fh)
        return stats

    # -- one cycle ------------------------------------------------------------

    def write_config(self, cycle_dir: Path) -> None:
        lines = ["[paths]"]
        for key, name in (
            ("corpus_t1", "corpus_t1.txt"),
            ("corpus_t2", "corpus_t2.txt"),
            ("targets", "targets.txt"),
            ("gold", "gold.tsv"),
            ("binary_gold", "gold_binary.tsv"),
        ):
            lines.append(f"{key} = ../in/{name}")
        lines.append("output_dir = out")
        lines.append("[sgns]")
        lines.extend(f"{k} = {v}" for k, v in self.workload.sgns.items())
        lines += ["[run]", f"seed = {RUN_SEED}"]
        cycle_dir.mkdir(parents=True)
        (cycle_dir / "run.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def reference_run(self) -> None:
        """One run of the fixed reference workload, which gauges the
        machine's speed in this cycle."""
        proc = self.run([sys.executable, str(BENCH_DIR / "reference.py")], self.work)
        self.sample("reference.wall_s", proc.wall_s)
        if proc.returncode != 0:
            self.fail("reference workload failed", proc)
        elif self.reference_output is None:
            self.reference_output = proc.stdout
        elif proc.stdout != self.reference_output:
            self.fail("reference workload: output differs from its first run")

    def check_cold(self, proc: Proc, out: Path, label: str) -> bool:
        """Checks shared by the untraced and the traced cold run."""
        if proc.returncode != 0:
            self.fail(f"{label}: run-all failed", proc)
            return False
        states = stage_states(proc.stdout)
        if states != {s: "built" for s in STAGES}:
            self.fail(f"{label}: expected every stage built on an empty output dir, got {states}")
            return False
        problems = check_answers(out / "answers", self.targets())
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
            return False
        digests = answer_digests(out)
        if self.cold_digests is None:
            self.cold_digests = digests
        elif digests != self.cold_digests:
            self.fail(f"{label}: answers or manifest differ from the first cold run")
            return False
        return True

    def cycle(self, index: int) -> float:
        """cold, warm and rescore on one fresh output dir; returns the cold
        wall time (or 0.0 if cold failed)."""
        cycle_dir = self.work / f"c{index}"
        self.write_config(cycle_dir)
        out = cycle_dir / "out"
        run_all = [sys.executable, "-m", "lscd.cli", "run-all", "--config", "run.ini"]

        # Reference runs bracket the cold run and the rescores.
        self.reference_run()
        cold = self.run(run_all, cycle_dir)
        self.reference_run()
        self.sample("pipeline.cold_s", cold.wall_s)
        self.sample("peak_rss_mb", cold.max_rss_mb)
        self.sample("process.cpu_s", cold.cpu_s)
        if not self.check_cold(cold, out, f"cycle {index} cold"):
            shutil.rmtree(cycle_dir)
            return 0.0
        self.sample("pipeline.artifact_bytes", float(tree_bytes(out)))
        if not self.quality:
            self.quality = read_quality(out)

        warm = self.run(run_all, cycle_dir)
        self.sample("pipeline.warm_s", warm.wall_s)
        states = stage_states(warm.stdout)
        self.sample("pipeline.cache_hits.warm", float(sum(v == "cached" for v in states.values())))
        if warm.returncode != 0:
            self.fail(f"cycle {index} warm: run-all failed", warm)
        elif states != {s: "cached" for s in STAGES}:
            self.fail(f"cycle {index} warm: expected every stage cached, got {states}")

        expected = {s: "built" if s in RESCORE_REBUILT else "cached" for s in STAGES}
        self.reference_run()
        cold_answers = {k: v for k, v in self.cold_digests.items() if k in ANSWER_FILES}
        for budget in range(RESCORE_BUDGET, RESCORE_BUDGET + RESCORES_PER_CYCLE):
            rescore = self.run(run_all + ["--pair-budget", str(budget)], cycle_dir)
            self.sample("pipeline.rescore_s", rescore.wall_s)
            states = stage_states(rescore.stdout)
            self.sample(
                "pipeline.cache_hits.rescore", float(sum(v == "cached" for v in states.values()))
            )
            if rescore.returncode != 0:
                self.fail(f"cycle {index} rescore: run-all failed", rescore)
            elif states != expected:
                self.fail(f"cycle {index} rescore: expected {expected}, got {states}")
            elif {k: v for k, v in answer_digests(out).items() if k in ANSWER_FILES} != cold_answers:
                self.fail(f"cycle {index} rescore: answers differ from cold")
        self.reference_run()
        shutil.rmtree(cycle_dir)
        return cold.wall_s

    def measure(self, seconds: float, traced: bool) -> None:
        """Repeat cycles for about `seconds`: stop before a cycle that would
        end past the deadline (the traced run also reserves one cold run)."""
        start = time.perf_counter()
        longest_cycle = longest_cold = 0.0
        for index in range(MAX_CYCLES):
            elapsed = time.perf_counter() - start
            reserve = longest_cycle + (1.2 * longest_cold if traced else 0.0)
            if index >= MIN_CYCLES[int(traced)] and elapsed + reserve > seconds:
                break
            began = time.perf_counter()
            longest_cold = max(longest_cold, self.cycle(index))
            longest_cycle = max(longest_cycle, time.perf_counter() - began)

    def traced_cold(self) -> dict[str, float]:
        """One cold `run-all` under the span tracer; its per-layer metrics."""
        cycle_dir = self.work / "traced"
        self.write_config(cycle_dir)
        spans = cycle_dir / "spans.json"
        proc = self.run(
            [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), "run-all", "--config", "run.ini"],
            cycle_dir,
        )
        if not self.check_cold(proc, cycle_dir / "out", "traced cold"):
            return {}
        data = json.loads(spans.read_text(encoding="utf-8"))
        self.warnings += [f"layer boundary {name} not found; its spans are 0" for name in data["missing"]]
        metrics = layer_metrics(data["spans"], proc.wall_s)
        metrics["trace.cold_s"] = proc.wall_s
        cold = self.samples.get("pipeline.cold_s")
        metrics["trace.overhead_s"] = proc.wall_s - statistics.median(cold) if cold else 0.0
        shutil.rmtree(cycle_dir)
        return metrics


def environment(bench: Bench) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    )
    src = ROOT / "src" / "lscd"
    return {
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": bench.nproc,
        "blas_threads": bench.env["OPENBLAS_NUM_THREADS"],
        "src_lscd_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py"))
        ),
        **(bench.input_stats() if (bench.work / "in").is_dir() else {}),
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for `kind` ("end_to_end" or "per_layer"), as
    BENCHMARK.json at the repository root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lscd" / "cli.py").is_file():
        print(f"error: no lscd sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    traced = bool(args.trace)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    bench = Bench(
        workload=WORKLOADS[args.workload],
        seed=args.seed,
        nproc=len(os.sched_getaffinity(0)),
        work=work,
    )

    steal_before = steal_ticks()
    layers = bench.setup(traced)
    if (work / "in").is_dir():
        bench.measure(args.seconds, traced)
        if traced:
            layers = {**bench.traced_cold(), **layers}
    env = environment(bench)
    env["steal_ticks"] = steal_ticks() - steal_before

    medians = {k: statistics.median(v) for k, v in bench.samples.items()}
    if "reference.wall_s" in medians:
        for name in ("cold", "rescore"):
            if f"pipeline.{name}_s" in medians:
                medians[f"{name}_ref"] = medians[f"pipeline.{name}_s"] / medians["reference.wall_s"]
    if traced:
        medians.update(bench.quality)
        medians["corpus.tokens"] = float(
            env.get("corpus_t1_tokens", 0) + env.get("corpus_t2_tokens", 0)
        )
        medians.update(layers)
    units = declared_units("per_layer" if traced else "end_to_end")
    metrics = {
        name: {"value": float(medians.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "answer_sha256": bench.cold_digests,
        "quality": bench.quality,
        "samples": bench.samples,
        "failures": bench.failures,
        "warnings": bench.warnings,
        "metrics": metrics,
    }
    reports = WORK / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    for name, digest in (bench.cold_digests or {}).items():
        print(f"  sha256 {name}: {digest}")
    for name, value in bench.quality.items():
        print(f"  quality {name}: {value:.4f}")
    for name, metric in metrics.items():
        values = bench.samples.get(name, [])
        spread = f"  (median of {len(values)}: {min(values):.4g}..{max(values):.4g})" if len(values) > 1 else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{spread}")
    for warning in bench.warnings:
        print(f"  warning: {warning}")
    for failure in bench.failures:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not bench.failures,
                "attempted": bench.attempted,
                "failed": len(bench.failed_ops),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
