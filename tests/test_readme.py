"""The README's "Library use" example runs as written against the package."""

from __future__ import annotations

import re
from pathlib import Path

from lscd.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return block


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    assert main(["gen-bench", "--out", str(tmp_path), "--sentences", "2000"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    rho = float(capsys.readouterr().out)
    assert -1.0 <= rho <= 1.0
    assert (tmp_path / "t1.npy").is_file() and (tmp_path / "t1.words.txt").is_file()
