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
    "manifest.json": "ae38c77f853224a74535aba2bca9383718e65081931524adde264c5468766219",
    "clf-dataset/meta.json": "aab095a66fc4e0cae9edfd1df867518815aeaffdfa0a8201039e28c0238e5ead",
    "clf-model/metrics.tsv": "b8a0644c246e9bbd580e88671041cb3e48a4311b54791b4a7829c1b59393c2bc",
    "clf-model/model.npz": "fca8195c03535ec42b28051092c2fc281ec1e647d217f57921ac01379c81197f",
    "static/t1.npy": "fc76dbc5c7212129b485267173f6595ad31c3d47df4e7993683cb573fdf3b721",
    "static/t2.npy": "a7b1f5ca19a8bd4315d7443143a7ee08e959aaa59917f4c5c6295389d0bad1da",
    "align/t1.npy": "f90462c82e0a65b9c5f2b0416365e094f8dabe2b7cb2cf372b3fd41717e5e112",
    "align/t2.npy": "6cfd375091567474be807a04ef8f500c5beef02b56efb3a4534296102aa55db1",
    "align/rotation.npy": "c7264a1a3fb1b4e726a6c1549b75e4dde8f099cf7757d1783a0619268871b339",
    "uses/uses_t1.npy": "70162482f191582e7faf6605f6397e988b3efbd6361f79f4a5f4915efd9fe9e2",
    "uses/uses_t2.npy": "751bac0ca1b06410db160d53cb3d0bbc09d9b2953f885c6b04d044c23a8a0680",
    "uses/uses_t1.index.tsv": "d9caa6e7bc3dccfe39b358ce6ed8931a472478b8d9d21b78cc6cb2c3c8bd12e9",
    "uses/uses_t2.index.tsv": "9031f0283baea8ddd5bd0a3b4874be0cff9eea89077bd422118147f877e0c571",
    "scores/scores.tsv": "7e4873e5149f8f7abe7359e865ac8963fe05c46ba15073d8bf9c0dcbb6060f55",
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
