"""The README's "Library use" example runs as written against the package,
and its configuration reference lists every key at its default."""

from __future__ import annotations

import configparser
import re
from pathlib import Path

from lscd.cli import main
from lscd.pipeline import _CONFIG_KEYS, PipelineConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The one `language` code block under the README section `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)
    return block


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    assert main(["gen-bench", "--out", str(tmp_path), "--sentences", "2000"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("Library use", "python"), str(README), "exec"), {})
    rho = float(capsys.readouterr().out)
    assert -1.0 <= rho <= 1.0
    assert (tmp_path / "t1.npy").is_file() and (tmp_path / "t1.words.txt").is_file()


def test_config_reference_lists_every_key_at_its_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    required = {name: f"{name}.txt" for name in ("corpus_t1", "corpus_t2", "targets")}
    for path in required.values():
        Path(path).touch()
    lines = "".join(f"{name} = {path}\n" for name, path in required.items())
    text = readme_block("Configuration reference", "ini")
    text = text.replace("[paths]\n", "[paths]\n" + lines, 1)
    Path("reference.ini").write_text(text, encoding="utf-8")

    assert load_config("reference.ini") == PipelineConfig(
        **{name: Path(path) for name, path in required.items()}
    )
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(text)
    assert {s: set(parser[s]) for s in parser.sections()} == {
        s: set(keys) for s, keys in _CONFIG_KEYS.items()
    }
