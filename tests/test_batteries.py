"""The batteries: one check list per command, and the budgets that a
refusal and a test both read."""
import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import batteries, cli, linalg
from orbitlab.mapspace import (
    FloorMapSeed,
    TruncatedMapSpace,
    build_translate_space,
    check_action_law,
    force_freeness,
)
from orbitlab.odometer import OdometerSpace
from orbitlab.shears import realize_bilipschitz

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
        ((700, 1, 0, 1), "the seed rows on B(2) in Z^700 hold 686980700 coordinates, over budget 4194304"),
    ],
)
def test_gromov_budget_refuses(config, message):
    with pytest.raises(ValueError) as refused:
        batteries.check_gromov_budget(*config)
    assert str(refused.value) == message


@pytest.mark.parametrize("config", [(2, 8, 8, 3), (2, 8, 8, 8), (3, 5, 4, 2), (1, 16, 16, 16), (11, 1, 1, 1)])
def test_gromov_budget_admits(config):
    assert batteries.check_gromov_budget(*config) is None


def test_det_budget_is_ten_d_c_over_n():
    assert batteries.det_budget(3, Fraction(19, 20), 1024) == Fraction(30 * 19, 20 * 1024)
    assert batteries.det_budget(2, 0, 1024) == 0


def test_realize_battery_refuses_entries_past_the_float_range(monkeypatch):
    # det exactly 1, but the report would take float(C / n) of a constant
    # past the float range; refused before the matrix is realized
    monkeypatch.setattr(batteries, "realized_morphism", lambda *_: pytest.fail("realized"))
    matrix = linalg.as_matrix([["1e400", 0], [0, "1e-400"]])
    with pytest.raises(ValueError, match="^a matrix entry is too large for a report float$"):
        batteries.realize_battery(matrix, 1024, 8, 2, Fraction(1, 10**9))
    with pytest.raises(ValueError, match="^--tol is too large for a report float$"):
        batteries.realize_battery(linalg.identity(2), 1024, 8, 2, Fraction(10**400))


def test_translate_battery_acts_once_per_member_and_element(monkeypatch):
    # gromov-check 8/8/3 on the half shear: orbit equality calls act_source
    # once per slice member and element of B(W); the action law, the
    # cocycle identity and forced freeness act on the stacked slice.  The
    # action law makes one stacked act per h, one per distinct product g h
    # (the 85 points of B(6)) and one per pair: 25 + 85 + 625
    f = realize_bilipschitz(linalg.parse_matrix("1 0.5; 0 1"), Fraction("1e-9"))
    space = build_translate_space(FloorMapSeed(f), 8, 8, offset_radius=3)
    calls, stacked = [], []
    honest, honest_rows = TruncatedMapSpace.act_source, TruncatedMapSpace.act_source_rows

    def counting(self, g, germ):
        calls.append(g)
        return honest(self, g, germ)

    def counting_rows(self, g, rows, radius):
        stacked.append(g)
        return honest_rows(self, g, rows, radius)

    monkeypatch.setattr(TruncatedMapSpace, "act_source", counting)
    monkeypatch.setattr(TruncatedMapSpace, "act_source_rows", counting_rows)
    assert check_action_law(space, 3).passed
    assert len(stacked) == 25 + 85 + 625 == 735
    assert force_freeness(space, OdometerSpace((2,) * 4, 3), 3).passed
    assert calls == []
    checks, _ = batteries.translate_battery(space, 3)
    assert all(check.passed for check in checks)
    assert sum(check.checked for check in checks) == 2912
    ball = space.source_gens.ball(3)
    assert len(calls) == len(space.slice_members) * len(ball) == 50
