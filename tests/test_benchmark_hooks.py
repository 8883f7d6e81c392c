"""The names in `lscd` that the benchmark's tracer (`benchmarks/tracing.py`)
wraps and reads.

The tracer patches functions where `lscd.pipeline` looks them up and derives
counts from their arguments and results. A rename under `src/` does not fail
a run: the tracer lists the name under `missing`, or its observer raises on
the first traced call. This test fails instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lscd

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# Functions the tracer still wraps that the stage hand-off no longer uses.
GONE = {
    "write_dataset_tsv", "save_vectors", "load_vectors",
    "export_uses", "import_uses", "read_dataset_tsv",
}

# Installs the tracer, then trains one tiny SGNS space and one tiny time
# classifier through the names it wrapped, and prints what it recorded.
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, install
from lscd import pipeline
from lscd.context import EncoderConfig
from lscd.corpus import T1, T2, Corpus, build_clf_dataset
from lscd.sgns import SgnsConfig

tracer = Tracer()
install(tracer)
sentences = [[f"w{(3 * i + j) % 7}" for j in range(2 + i % 4)] for i in range(40)]
c1, c2 = Corpus(sentences, T1), Corpus(sentences[::-1], T2)
pipeline.train_sgns(c1, SgnsConfig(dimension=4, window=2, epochs=2, seed=1))
dataset = build_clf_dataset(c1, c2, masked=False, seed=2)
pipeline.train_time_classifier(dataset, EncoderConfig(dimension=4, epochs=3, seed=3))
print(json.dumps({
    "missing": tracer.missing,
    "spans": {s["name"]: s["attrs"] for s in tracer.spans},
    "tokens": len(c1.encoded.ids),
    "train": len(dataset.indices("train")),
}))
"""


def test_tracer_finds_its_names_and_observes_training():
    env = dict(os.environ, PYTHONPATH=str(Path(lscd.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCHMARKS)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert {name.rsplit(".", 1)[-1] for name in got["missing"]} <= GONE
    sgns, train = got["spans"]["sgns.train"], got["spans"]["context.train"]
    assert sgns["token_epochs"] == 2 * got["tokens"]
    assert sgns["final_loss"] > 0
    assert train["example_epochs"] == 3 * got["train"]
    assert 0.0 <= train["accuracy"] <= 1.0
