import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from orbitlab import cli
from orbitlab.cli import main
from orbitlab.groups import BudgetExceeded
from orbitlab.mapspace import TruncationError

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN = [
    (
        "odometer_p2_d3_s20_seed5.json",
        ["odometer", "--p", "2", "--depth", "3", "--samples", "20", "--seed", "5"],
    ),
    (
        "functoriality_constant_p2_d3_n64.json",
        ["functoriality", "--matrix", "0 -1; 1 0", "--matrix", "1 1; 0 1",
         "--p", "2", "--depth", "3", "--n", "64"],
    ),
    (
        "gromov_shear_r4_t3_w1.json",
        ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "4",
         "--translate-radius", "3", "--window", "1"],
    ),
    (
        "realize_half_shear_n1024_r25.json",
        ["realize", "--matrix", "1 0.5; 0 1", "--n", "1024", "--radius", "25"],
    ),
]


def invoke_refused(runner, monkeypatch, argv):
    """Run a command with every entry point of real work patched to fail."""

    def work_started(*_args, **_kwargs):
        raise AssertionError("work started before the preconditions were checked")

    for name in (
        "bijectivity_check_at_depth", "bounded_distance_constant", "build_translate_space",
        "matrix_morphism", "realize_bilipschitz",
    ):
        monkeypatch.setattr(cli, name, work_started)
    return runner.invoke(main, argv)


@pytest.fixture
def runner():
    return CliRunner()


class TestRealize:
    def test_half_shear_passes(self, runner):
        result = runner.invoke(main, ["realize", "--matrix", "1 0.5; 0 1", "--n", "1024", "--radius", "25"])
        assert result.exit_code == 0, result.output
        assert "matrix-recovery" in result.output

    def test_identity_exact(self, runner):
        result = runner.invoke(main, ["realize", "--matrix", "1 0; 0 1", "--radius", "10", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["pass"] is True
        assert report["invariant"]["matrix"] == [["1", "0"], ["0", "1"]]

    def test_det_two_is_config_error(self, runner):
        result = runner.invoke(main, ["realize", "--matrix", "2 0; 0 1"])
        assert result.exit_code == 2

    def test_malformed_matrix_is_config_error(self, runner):
        result = runner.invoke(main, ["realize", "--matrix", "1 0.5; 0"])
        assert result.exit_code == 2


class TestGromovCheck:
    def test_identity_seed_small(self, runner):
        result = runner.invoke(
            main,
            ["gromov-check", "--dimension", "1", "--radius", "3",
             "--translate-radius", "3", "--window", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "lipschitz-closure" in result.output

    def test_shear_seed(self, runner):
        result = runner.invoke(
            main,
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "4",
             "--translate-radius", "3", "--window", "1", "--json"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        ids = {c["id"] for c in report["checks"]}
        assert {"lipschitz-closure", "cocycle-identity", "fundamental-domain",
                "inverse-identities", "forced-freeness"} <= ids

    def test_corruption_injection_fails_targeted(self, runner):
        result = runner.invoke(
            main,
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "4",
             "--translate-radius", "3", "--window", "1", "--inject-corruption", "--json"],
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        failed = {c["id"] for c in report["checks"] if not c["pass"]}
        assert failed == {"cocycle-identity"}


class TestOdometer:
    def test_default_battery(self, runner):
        result = runner.invoke(
            main, ["odometer", "--p", "2", "--depth", "3", "--samples", "50"]
        )
        assert result.exit_code == 0, result.output
        assert "depth-bijectivity" in result.output
        assert "constant-invariant-exact" in result.output

    def test_det_zero_rejected(self, runner):
        result = runner.invoke(main, ["odometer", "--matrix", "1 1; 1 1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--depth", "9"], "3^(9*2) = 387420489 points, over budget 1048576"),
            (["--p", "1"], "all bases must be >= 2"),
            (["--depth", "0"], "depth must be >= 1"),
            (["--matrix", "2 0; 0 1"], "integer matrix with det +-1"),
            (["--samples", "0"], "samples must be >= 1"),
            (["--window", "-1"], "window must lie in [0, 32]"),
        ],
    )
    def test_invalid_configuration_exits_2_before_any_sweep(self, runner, monkeypatch, args, message):
        result = invoke_refused(runner, monkeypatch, ["odometer", *args])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert message in result.stderr


class TestFunctoriality:
    def test_constant_mode(self, runner):
        result = runner.invoke(
            main,
            ["functoriality", "--matrix", "0 -1; 1 0", "--matrix", "1 1; 0 1",
             "--p", "2", "--depth", "3", "--n", "64"],
        )
        assert result.exit_code == 0, result.output

    def test_realized_mode(self, runner):
        result = runner.invoke(
            main,
            ["functoriality", "--matrix", "1 0.5; 0 1", "--matrix", "1 0; 0.25 1",
             "--n", "1024", "--json"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["mode"] == "realized"

    def test_needs_two_matrices(self, runner):
        result = runner.invoke(main, ["functoriality", "--matrix", "1 0; 0 1"])
        assert result.exit_code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gromov-check", "--radius", "2", "--window", "3"], "window 3 exceeds the germ radius 2"),
        (["gromov-check", "--window", "-1"], "window must be >= 0"),
        (
            ["gromov-check", "--radius", "40", "--translate-radius", "2", "--window", "1"],
            "radius + translate radius = 42 exceeds the ball budget 32",
        ),
        (
            ["functoriality", "--matrix", "0 -1; 1 0", "--matrix", "1 1; 0 1", "--samples", "0"],
            "samples must be >= 1",
        ),
        (
            ["functoriality", "--matrix", "1 0.5; 0 1", "--matrix", "1 0; 0.25 1", "--samples", "0"],
            "samples must be >= 1",
        ),
        (
            ["functoriality", "--matrix", "1 0.5; 0 1", "--matrix", "1 0; 0.25 1", "--n", "0"],
            "growth scale n must be >= 1",
        ),
        (["realize", "--matrix", "1 0.5; 0 1", "--samples", "0"], "samples must be >= 1"),
        (["realize", "--matrix", "1 0.5; 0 1", "--n", "0"], "growth scale n must be >= 1"),
        (["realize", "--matrix", "1 0.5; 0 1", "--radius", "-1"], "radius must be >= 0"),
    ],
)
def test_invalid_configuration_exits_2_before_any_space(runner, monkeypatch, argv, message):
    result = invoke_refused(runner, monkeypatch, argv)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


@pytest.mark.parametrize("error", [TruncationError, BudgetExceeded])
def test_error_raised_mid_run_exits_2(runner, monkeypatch, error):
    def refuse(*_args, **_kwargs):
        raise error("refused mid-run")

    monkeypatch.setattr(cli, "check_fundamental_domain", refuse)
    result = runner.invoke(
        main,
        ["gromov-check", "--radius", "1", "--translate-radius", "1", "--window", "1"],
    )
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: refused mid-run\n"


class TestReports:
    def test_byte_identical_given_seed(self, runner, tmp_path):
        args = ["odometer", "--p", "2", "--depth", "3", "--samples", "20", "--seed", "5"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert runner.invoke(main, args + ["--out", str(first)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(second)]).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("fixture, args", GOLDEN)
    def test_report_matches_golden(self, runner, fixture, args):
        # The fixtures pin the report bytes, including every value drawn from
        # the seeded random stream.
        result = runner.invoke(main, args + ["--json"])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == (FIXTURES / fixture).read_bytes()

    def test_schema_fields(self, runner):
        result = runner.invoke(
            main, ["odometer", "--p", "2", "--depth", "3", "--samples", "10", "--json"]
        )
        report = json.loads(result.output)
        assert report["schema"] == "orbitlab-report/2"
        assert report["command"] == "odometer"
        assert isinstance(report["config"], dict)
        assert all("id" in c and "pass" in c for c in report["checks"])

    @pytest.mark.parametrize("fixture, args", GOLDEN, ids=[args[0] for _, args in GOLDEN])
    def test_every_check_entry_has_one_shape(self, runner, fixture, args):
        result = runner.invoke(main, args + ["--json"])
        report = json.loads(result.output)
        assert report["checks"]
        for entry in report["checks"]:
            assert set(entry) == {"id", "pass", "checked", "witnesses", "coverage", "notes"}, entry
