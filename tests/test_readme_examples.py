"""Every command of the README's CLI block runs and exits 0."""
import shlex
from pathlib import Path

import pytest

from widecount.cli import run
from widecount.quasipoly import write_sequence_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines():
    """The `widecount ...` lines of the sh block under "## The CLI"."""
    block = README.read_text().split("## The CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("widecount ")]


def test_the_cli_block_is_found():
    assert len(_cli_lines()) >= 9


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line, comments=True)[1:]
    if argv[0] == "fit":
        # the README fits a CSV of the user's; give it one that has a form
        write_sequence_csv(tmp_path / "seq.csv", {n: n // 2 + 1 for n in range(31)})
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--no-timing"]) == 0, capsys.readouterr().err
