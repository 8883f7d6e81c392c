"""Byte identity of one small cold `run_all`.

The sha256 of every answer file, the manifest and the artifacts that carry
trained numbers are pinned. A change that is meant to leave the numbers
alone (a faster encoding, a new data layout) must keep all of them; one that
changes them on purpose updates the table and says why. A change that
re-records the hash of any artifact or answer file also bumps
`lscd.__version__` (and the version in pyproject.toml with it): the version
is part of every stage key, so output directories of the old code are
rebuilt instead of served.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

import lscd
from lscd.benchmark import generate_shift_benchmark, write_benchmark
from lscd.pipeline import Pipeline, load_config

# The manifest records both versions, and numpy's float paths may differ
# between releases, so the table holds for this pair only.
NUMPY_VERSION = "2.4.6"
PYTHON_VERSION = "3.11.7"

CONFIG = """
[paths]
corpus_t1 = bench/corpus_t1.txt
corpus_t2 = bench/corpus_t2.txt
targets = bench/targets.txt
gold = bench/gold.tsv
binary_gold = bench/gold_binary.tsv
output_dir = out

[sgns]
dimension = 16
window = 3
negatives = 2
epochs = 2

[encoder]
dimension = 16
context_radius = 2

[ensemble]
grid_step = 0.25

[run]
seed = 11
"""

# Sentences added to the generated corpora: tokens found in one corpus only
# (masked in the classifier's dataset), one-token sentences (no SGNS pair)
# and a sentence made of one repeated token.
EXTRA = {
    "corpus_t1.txt": "solo\nonly_t1 w001 target00 w001 only_t1\nw002 w002 w002\n",
    "corpus_t2.txt": "only_t2 target01 w003\nsolo\n",
}

GOLDEN = {
    "answers/binary_ensemble.tsv": "dbf9aa9a31f1637f0e3a248e73989f906c32b46f2b769f420ba25f16c3a84c2c",
    "answers/graded_context_dependent.tsv": "6fdab56f4a28da21a0aeece3f3f9c726fb9e5292cb68bf981b260d45609d1437",
    "answers/graded_context_free.tsv": "d3c665ff218f46efaeff0485af462fe3c84e5c3a83c25cf7433ede4273cd0f5b",
    "answers/graded_ensemble.tsv": "d3c665ff218f46efaeff0485af462fe3c84e5c3a83c25cf7433ede4273cd0f5b",
    "manifest.json": "3384aa8c17bfd1917d47c532adcb4e81d7b757ce2fdd533dabf32d54cc6227d1",
    "clf-dataset/meta.json": "aab095a66fc4e0cae9edfd1df867518815aeaffdfa0a8201039e28c0238e5ead",
    "clf-model/metrics.tsv": "40879d8a0078eac7f3a55c92ef040a9b4b629b6bb8b39c340b4bdab62b4c3445",
    "clf-model/model.npz": "f5765e48bf3584dbac34df03c0de42ed85eaea24e4b88b3513f8ade779c0a843",
    "static/t1.npy": "9817c4340076ce14616b2bae3d494140758bdfc42790d6282a3095eac7c8ea60",
    "static/t2.npy": "a7cdaec5c66fb15316a1ce41f6b2807b61a6c10062bbeecd7bbc4feea8510dfe",
    "align/t1.npy": "72e02831174fcf82c67a824420214edda9e2586f86a36e0e5c8ad088538418bf",
    "align/t2.npy": "cae97db34b2dfc2d112e703541c1f8be4df74c6d680cd27fcaaa0e8d74460a40",
    "align/rotation.npy": "d018d80515443965250952a8ae778c887b6f6625e12d8232007818fbe91ffc38",
    "uses/uses_t1.npy": "6626bde683f97a96e9df1339efee0b169b47d91b42d57b1288c8834ff6db5394",
    "uses/uses_t2.npy": "2d343c3b0baeb3805d364590dff0cc0fc01bdf42035e031690096404e86ed843",
    "uses/uses_t1.index.tsv": "d9caa6e7bc3dccfe39b358ce6ed8931a472478b8d9d21b78cc6cb2c3c8bd12e9",
    "uses/uses_t2.index.tsv": "9031f0283baea8ddd5bd0a3b4874be0cff9eea89077bd422118147f877e0c571",
    "scores/scores.tsv": "940c75814467be685b7431f4cbe86790a6ac2bd0743ac105ca0ba44d3bc0b1e1",
    "evaluate/report.tsv": "de3f09ee2d71407d99e7e91f882989d32f17ba97228faeb1912b8844da9107ff",
}


def run_digests() -> dict[str, str]:
    """Build the fixture in the working directory, run it cold, and hash
    the files."""
    bench = generate_shift_benchmark(
        n_targets=5, degrees=None, base_sentences=2000, seed=5
    )
    write_benchmark(bench, "bench")
    for name, text in EXTRA.items():
        with open(Path("bench", name), "a", encoding="utf-8") as fh:
            fh.write(text)
    Path("run.ini").write_text(CONFIG, encoding="utf-8")
    Pipeline(load_config("run.ini")).run_all()
    out = Path("out")
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    digests = {}
    for name in GOLDEN:
        head, _, tail = name.partition("/")
        path = out / name if head in ("answers", "manifest.json") else (
            out / head / stages[head] / tail
        )
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.skipif(
    (np.__version__, platform.python_version()) != (NUMPY_VERSION, PYTHON_VERSION),
    reason=f"hashes recorded under numpy {NUMPY_VERSION} and Python "
    f"{PYTHON_VERSION}, which the manifest names and the float paths follow",
)
def test_cold_run_byte_identical_to_golden(tmp_path, monkeypatch):
    # Relative paths keep the manifest free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    assert run_digests() == GOLDEN


def test_version_declared_once():
    # Only lscd.__version__ reaches the stage keys; the package metadata
    # must name the same version.
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lscd.__version__
