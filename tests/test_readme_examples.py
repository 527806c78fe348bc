"""Every command of the README's CLI block runs and exits 0, and the Python
quick tour gives the values its comments state."""
import ast
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from widecount.cli import run
from widecount.quasipoly import Quasipolynomial, write_sequence_csv

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


def _quick_tour_values():
    """Run the python block under "## Library quick tour" and return the
    value of each of its expression lines, in order."""
    block = README.read_text().split("## Library quick tour", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return values


def test_readme_quick_tour_values():
    counts, closed_form, direct, stratified, groupoid, fitted = _quick_tour_values()
    assert counts == [1, 1, 2, 2, 3, 3, 4, 4]
    # period 2: (n+2)/2 on even n, (n+1)/2 on odd n
    half = Fraction(1, 2)
    period_two = Quasipolynomial(2, [(Fraction(1), half), (half, half)])
    assert closed_form == period_two
    assert direct == stratified == 19
    assert len(groupoid.objects) == 1 and len(groupoid.arrows) == 3
    assert fitted.qp == period_two and fitted.onset == 0
