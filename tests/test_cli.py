import ast
import inspect
import json
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from orbitlab import batteries, cli
from orbitlab.cli import main
from orbitlab.groups import BudgetExceeded
from orbitlab.mapspace import TruncationError

FIXTURES = Path(__file__).parent / "fixtures"
# Every golden report; report_digests.json holds digests, not a report.
REPORT_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "report_digests.json")

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

# The realization layer's box sweeps, on each integer width.
SWEEP_GOLDEN = [
    # a 19-digit coefficient: both box sweeps run on exact Python integers
    (
        "realize_wide_decimal_r25.json",
        ["realize", "--matrix", "1 0.1234567890123456789; 0 1", "--radius", "25"],
    ),
    # the README's realized route
    (
        "functoriality_realized_half_quarter_n1024.json",
        ["functoriality", "--matrix", "1 0.5; 0 1", "--matrix", "1 0; 0.25 1"],
    ),
    # the first 3x3 acceptance matrix at the default radius: an int32 sweep
    # of 101^3 points
    (
        "realize_acceptance_3x3_r50.json",
        ["realize", "--matrix", "-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5"],
    ),
]

# gromov-check at the benchmark's configuration, on identity seeds in rank 2,
# 3 and 11, across the translate boundary and past int64.
TRANSLATE_GOLDEN = [
    # the translate-battery benchmark's invocation
    (
        "gromov_shear_r8_t8_w3.json",
        ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "8",
         "--translate-radius", "8", "--window", "3"],
    ),
    (
        "gromov_identity_d2_r3_t3_w2.json",
        ["gromov-check", "--dimension", "2", "--radius", "3",
         "--translate-radius", "3", "--window", "2"],
    ),
    (
        "gromov_identity_d3_r3_t2_w2.json",
        ["gromov-check", "--dimension", "3", "--radius", "3",
         "--translate-radius", "2", "--window", "2"],
    ),
    # the first 3x3 acceptance matrix: members on the translate boundary
    # have source hits whose provenance lies outside B(R_t)
    (
        "gromov_acceptance_3x3_r3_t2_w1.json",
        ["gromov-check", "--matrix", "-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5",
         "--radius", "3", "--translate-radius", "2", "--window", "1"],
    ),
    # seed values past int64: germ rows take the exact object path
    (
        "gromov_huge_shear_r2_t1_w1.json",
        ["gromov-check", "--matrix", "1 100000000000000000000; 0 1", "--radius", "2",
         "--translate-radius", "1", "--window", "1"],
    ),
    # rank 11: the germ tables of a lattice of any rank
    (
        "gromov_identity_d11_r1_t1_w1.json",
        ["gromov-check", "--dimension", "11", "--radius", "1",
         "--translate-radius", "1", "--window", "1"],
    ),
]

# realize in dimension 1: a certificate box with no trailing coordinates, at
# the default radius and at radius 0
LINE_GOLDEN = [
    ("realize_minus_one_r50.json", ["realize", "--matrix", "-1"]),
    ("realize_minus_one_r0.json", ["realize", "--matrix", "-1", "--radius", "0"]),
]

# Negative controls: each report exits 1 and pins which cocycle value the
# override corrupts and every witness it leaves.
CORRUPTED = [
    (
        f"gromov_shear_r{r}_t{t}_w{w}_corrupted.json",
        ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", str(r),
         "--translate-radius", str(t), "--window", str(w), "--inject-corruption"],
    )
    for r, t, w in ((4, 3, 1), (3, 3, 3))
]


def invoke_refused(runner, monkeypatch, argv):
    """Run a command with every entry point of real work patched to fail."""

    def work_started(*_args, **_kwargs):
        raise AssertionError("work started before the preconditions were checked")

    for name in (
        "build_translate_space", "realize_bilipschitz", "realize_battery",
        "odometer_battery", "functoriality_battery", "translate_battery",
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

    def test_tiny_exact_pivot_is_realized(self, runner):
        # det is exactly 1; an exact pivot of 10^-13 is not zero
        result = runner.invoke(main, ["realize", "--matrix", "0.0000000000001 0; 0 10000000000000", "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["pass"] is True

    def test_zero_pivot_is_config_error(self, runner):
        # |det| = 0 is within --tol 1 of 1, so only the zero pivot refuses it
        result = runner.invoke(main, ["realize", "--matrix", "0 0; 0 1", "--tol", "1"])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: zero pivot; the matrix is singular\n"


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

    @pytest.mark.parametrize("radius, translate_radius, window", [(3, 3, 3), (2, 2, 2), (3, 1, 3)])
    def test_sweep_past_germ_radius_passes(self, runner, radius, translate_radius, window):
        # 2W > R: the cocycle sweep reads values past a germ's radius, where
        # they come from the germ's provenance rather than its table
        result = runner.invoke(
            main,
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", str(radius),
             "--translate-radius", str(translate_radius), "--window", str(window), "--json"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert all(c["pass"] for c in report["checks"]), report["checks"]

    def test_one_point_ball_passes_with_constant_1(self, runner):
        # R = R_t = 0 compares no pair of B(0); the half shear is a bijection
        result = runner.invoke(
            main,
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "0",
             "--translate-radius", "0", "--window", "0", "--json"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["space"]["lipschitz_constant"] == 1
        assert len(report["checks"]) == 9 and all(c["pass"] for c in report["checks"])

    def test_dimension_given_next_to_a_matrix_must_match_it(self, runner):
        # the default --dimension 1 is not read with a matrix; an explicit
        # one equal to the matrix size is accepted and echoed in config
        argv = ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "2",
                "--translate-radius", "1", "--window", "1", "--json"]
        default = runner.invoke(main, argv)
        explicit = runner.invoke(main, argv + ["--dimension", "2"])
        assert default.exit_code == explicit.exit_code == 0, explicit.output
        assert json.loads(explicit.output)["config"]["dimension"] == 2
        assert json.loads(default.output)["config"]["dimension"] == 1

    def test_corruption_past_germ_radius_fails_with_witness(self, runner):
        result = runner.invoke(
            main,
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "3",
             "--translate-radius", "3", "--window", "3", "--inject-corruption", "--json"],
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [c["id"] for c in failed] == ["cocycle-identity"]
        assert failed[0]["witnesses"]

    @pytest.mark.parametrize("seed", [[], ["--matrix", "1 0.5; 0 1"]], ids=["identity", "half-shear"])
    def test_window_8_passes_forced_freeness(self, runner, seed):
        # the freeness odometer is deep enough that no g != e of B(8) fixes
        # its zero; at depth 3, (+-8, ...) did
        result = runner.invoke(
            main,
            ["gromov-check", *seed, "--radius", "8", "--translate-radius", "8", "--window", "8", "--json"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert all(c["pass"] for c in report["checks"]), report["checks"]


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
            # 2^20 points pass the depth budget; B(32) of Z^4 crossed with the
            # samples and the Haar draws does not pass the window budget
            (
                ["--matrix", "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1", "--p", "2", "--depth", "5",
                 "--window", "32"],
                "window sweeps need |B(32)| (samples + 40) = 776090640 steps in Z^4, over budget 4194304",
            ),
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

    @pytest.mark.parametrize("argv", [
        ["functoriality", "--matrix", "1 1e400; 0 1", "--matrix", "1 0; 0 1"],
        ["odometer", "--matrix", "1 1e400; 0 1", "--samples", "20", "--window", "1"],
    ], ids=["functoriality", "odometer"])
    def test_exact_integer_routes_take_entries_past_the_float_range(self, runner, argv):
        # only the realization route reports floats of the entries
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output


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
        (
            ["realize", "--matrix", "1 0.5; 0 1", "--radius", "100000"],
            "box [-100000, 100000]^2 has 40000400001 points, over budget 1048576",
        ),
        (
            ["functoriality", "--matrix", "1 0.5 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1",
             "--matrix", "1 0 0 0; 0.25 1 0 0; 0 0 1 0; 0 0 0 1"],
            "box [-50, 50]^4 has 104060401 points, over budget 1048576",
        ),
        (
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--dimension", "3"],
            "--dimension 3 does not match the 2x2 matrix",
        ),
        (
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--dimension", "1"],
            "--dimension 1 does not match the 2x2 matrix",
        ),
        (
            ["gromov-check", "--dimension", "3", "--radius", "10", "--translate-radius", "10",
             "--window", "1"],
            "B(20) in Z^3 has 11521 points, 66360960 pairs per sweep, over budget 4194304",
        ),
        (["gromov-check", "--tol", "1e-9"], "--tol is read only with --matrix"),
        (
            ["gromov-check", "--radius", "2", "--translate-radius", "2", "--window", "0",
             "--inject-corruption"],
            "--inject-corruption needs --window >= 1",
        ),
        *(
            (["functoriality", "--matrix", "1 0.5; 0 1", "--matrix", "1 0; 0.25 1", option, value],
             f"{option} is not read by the realized route")
            for option, value in (("--seed", "3"), ("--p", "2"), ("--depth", "3"), ("--samples", "4"))
        ),
        (
            ["functoriality", "--matrix", "0 -1; 1 0", "--matrix", "1 1; 0 1", "--tol", "1e-6"],
            "--tol is not read by the constant route",
        ),
        (
            ["gromov-check", "--matrix", "-0.5 0 1; 0.5625 -1 -1.625; 0.75 0 0.5",
             "--radius", "6", "--translate-radius", "6", "--window", "6"],
            "the battery may check |B(6)| |B(6)|^2 = 53582633 cases in Z^3, over budget 4194304",
        ),
        (
            ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "16", "--translate-radius", "16",
             "--window", "16"],
            "the battery may check |B(16)| |B(16)|^2 = 161878625 cases in Z^2, over budget 4194304",
        ),
        # zero denominators, in a matrix entry or in --tol
        (["realize", "--matrix", "1/0 0; 0 1"], "zero denominator in '1/0'"),
        (["realize", "--matrix", "1 0; 0 1", "--tol", "1/0"], "zero denominator in '1/0'"),
        (
            ["gromov-check", "--matrix", "1 1/0; 0 1", "--radius", "2", "--translate-radius", "1",
             "--window", "1"],
            "zero denominator in '1/0'",
        ),
        (["functoriality", "--matrix", "1 0; 0 1", "--matrix", "1 0; 0 0/0"], "zero denominator in '0/0'"),
        # an entry or --tol past the float range of a report, det +-1 or not
        (["realize", "--matrix", "1e400 0; 0 1"], "a matrix entry is too large for a report float"),
        (["realize", "--matrix", "1e400 0; 0 1e-400"], "a matrix entry is too large for a report float"),
        (["gromov-check", "--matrix", "1e400 0; 0 1"], "a matrix entry is too large for a report float"),
        (
            ["functoriality", "--matrix", "1 1e400; 0 1", "--matrix", "1 0.5; 0 1"],
            "a matrix entry is too large for a report float",
        ),
        (["realize", "--matrix", "1 0; 0 1", "--tol", "1e400"], "--tol is too large for a report float"),
        (["gromov-check", "--matrix", "1 0.5; 0 1", "--tol", "1e400"], "--tol is too large for a report float"),
        # a negative radius or --tol is refused under its own name
        (["gromov-check", "--radius", "-1"], "--radius must be >= 0"),
        (["gromov-check", "--translate-radius", "-1"], "--translate-radius must be >= 0"),
        (["realize", "--matrix", "1 0.5; 0 1", "--tol", "-1"], "--tol must be >= 0"),
        # B(1) and its pairs pass; the seed rows on B(2R + R_t) would hold
        # 981,401 points of 700 coordinates
        (
            ["gromov-check", "--dimension", "700", "--radius", "1", "--translate-radius", "0",
             "--window", "1"],
            "the seed rows on B(2) in Z^700 hold 686980700 coordinates, over budget 4194304",
        ),
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

    monkeypatch.setattr(batteries, "check_fundamental_domain", refuse)
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

    @pytest.mark.parametrize("fixture, args", GOLDEN + SWEEP_GOLDEN + TRANSLATE_GOLDEN + LINE_GOLDEN)
    def test_report_matches_golden(self, runner, fixture, args):
        # The fixtures pin the report bytes, including every value drawn from
        # the seeded random stream.
        result = runner.invoke(main, args + ["--json"])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == (FIXTURES / fixture).read_bytes()

    @pytest.mark.parametrize("fixture, args", CORRUPTED)
    def test_corrupted_report_matches_golden(self, runner, fixture, args):
        result = runner.invoke(main, args + ["--json"])
        assert result.exit_code == 1, result.output
        assert result.stdout_bytes == (FIXTURES / fixture).read_bytes()

    def test_readme_gromov_check_matches_golden(self, runner):
        # the README's gromov-check command at its defaults (R=6, R_t=6, W=2)
        result = runner.invoke(main, ["gromov-check", "--matrix", "1 0.5; 0 1", "--json"])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == (FIXTURES / "gromov_shear_r6_t6_w2.json").read_bytes()

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


class TestReportContract:
    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_every_parameter_is_read(self, name):
        # An option the command body never reads could only echo into the
        # report's config, so copying it into a hand-built ``config`` dict
        # does not count as a read.
        body = main.commands[name].callback.__wrapped__
        tree = ast.parse(textwrap.dedent(inspect.getsource(body)))
        function = next(node for node in tree.body if isinstance(node, ast.FunctionDef))
        read = {
            node.id
            for statement in function.body
            if not (
                isinstance(statement, ast.Assign)
                and any(getattr(t, "id", None) == "config" for t in statement.targets)
            )
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert {arg.arg for arg in function.args.args} - read == set()

    @pytest.mark.parametrize("fixture", REPORT_FIXTURES)
    def test_config_is_the_declared_options(self, fixture):
        # every declared option but --json and --out
        report = json.loads((FIXTURES / fixture).read_text())
        declared = {param.name for param in main.commands[report["command"]].params}
        assert set(report["config"]) == declared - {"as_json", "out"}

    @pytest.mark.parametrize("fixture", REPORT_FIXTURES)
    def test_verdict_is_the_absence_of_witnesses(self, fixture):
        report = json.loads((FIXTURES / fixture).read_text())
        for entry in report["checks"]:
            assert entry["pass"] == (entry["witnesses"] == []), entry
        assert report["pass"] == all(entry["pass"] for entry in report["checks"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["realize", "--matrix", "1 0.5; 0 1", "--seed", "0"],
            ["gromov-check", "--seed", "0"],
            ["odometer", "--tol", "1e-9"],
        ],
    )
    def test_undeclared_option_is_refused(self, runner, monkeypatch, argv):
        result = invoke_refused(runner, monkeypatch, argv)
        assert result.exit_code == 2, result.output
        assert "No such option" in result.stderr

    def test_functoriality_takes_seed_and_tol(self, runner):
        # each route takes its own option: --seed the constant, --tol the realized
        constant = runner.invoke(
            main,
            ["functoriality", "--matrix", "0 -1; 1 0", "--matrix", "1 1; 0 1",
             "--p", "2", "--depth", "3", "--n", "64", "--seed", "3", "--json"],
        )
        realized = runner.invoke(
            main,
            ["functoriality", "--matrix", "1 0.5; 0 1", "--matrix", "1 0; 0.25 1",
             "--tol", "1e-6", "--json"],
        )
        assert constant.exit_code == 0, constant.output
        assert realized.exit_code == 0, realized.output
        assert json.loads(constant.output)["config"]["seed"] == 3
        assert json.loads(realized.output)["config"]["tol"] == "1e-6"
