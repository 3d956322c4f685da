"""The README's scenario example and CLI lines run as written, and its
[defaults] key list is the config schema's."""

import re
import shlex
from pathlib import Path

from ramac.cli import main
from ramac.config import DEFAULTS_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(lang):
    """The bodies of the README's fenced blocks tagged lang."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```$", README,
                                             re.M | re.S) if tag == lang]


def test_readme_scenario_example_bounds(tmp_path, capsys):
    example = next(b for b in _blocks("ini") if "[scenario]" in b)
    path = tmp_path / "example.cfg"
    path.write_text(example)
    assert main(["bound", "--config", str(path), "--out-dir",
                 str(tmp_path)]) == 0, capsys.readouterr().err


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the lines name configs relative to the root
    lines = [line for block in _blocks("") for line in block.splitlines()
             if line.startswith("ramac ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        argv[argv.index("--out-dir") + 1] = str(tmp_path)
        assert main(argv) == 0, (line, capsys.readouterr().err)
    capsys.readouterr()


def test_readme_lists_every_defaults_key():
    lead = "`[defaults]` keys, each optional:\n\n"
    listed = README.split(lead, 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(DEFAULTS_SCHEMA)
