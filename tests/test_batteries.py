"""The batteries: one check list per command, and the budgets that a
refusal and a test both read."""
import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import batteries, cli

CLI_SOURCE = Path(cli.__file__).read_text()


def test_cli_imports_no_check():
    # every check runs inside a battery; the CLI only parses, refuses and reports
    imported = [
        getattr(cli, alias.asname or alias.name)
        for node in ast.walk(ast.parse(CLI_SOURCE))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    checks = [
        obj.__name__
        for obj in imported
        if inspect.isfunction(obj) and inspect.signature(obj).return_annotation == "CheckResult"
    ]
    assert imported and checks == []


@pytest.mark.parametrize(
    "config, message",
    [
        ((3, 10, 10, 1), "B(20) in Z^3 has 11521 points, 66360960 pairs per sweep, over budget 4194304"),
        ((3, 6, 6, 6), "the battery may check |B(6)| |B(6)|^2 = 53582633 cases in Z^3, over budget 4194304"),
    ],
)
def test_gromov_budget_refuses(config, message):
    with pytest.raises(ValueError) as refused:
        batteries.check_gromov_budget(*config)
    assert str(refused.value) == message


@pytest.mark.parametrize("config", [(2, 8, 8, 3), (2, 8, 8, 8), (3, 5, 4, 2), (1, 16, 16, 16)])
def test_gromov_budget_admits(config):
    assert batteries.check_gromov_budget(*config) is None


def test_det_budget_is_ten_d_c_over_n():
    assert batteries.det_budget(3, Fraction(19, 20), 1024) == Fraction(30 * 19, 20 * 1024)
    assert batteries.det_budget(2, 0, 1024) == 0
