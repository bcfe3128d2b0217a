"""The benchmark's per-layer tracer installs against this source tree, and
every traced layer is still called.

``bench/layers.Tracer.install`` raises when a traced name no longer resolves
or when a module still binds an unwrapped original, so renaming or
re-importing a traced function breaks the traced benchmark run; the first
test shows it without running a workload.  The traced benchmark also fails
when a layer records no call on a workload listed in its ``exercised_by``;
the second test runs a small command per workload and checks the same.
The third reads the same run's ``shears.apply_array.points``, which must
count points, not coordinates, the fourth its germ counters and the fifth
its pair counter.  All five only read ``bench/``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import orbitlab
from layers import Tracer
Tracer().install()
print(orbitlab.__file__)
"""


# One small command per benchmark workload; prints the exit codes, the
# (workload, traced name) pairs that recorded no call on their command, and
# per workload the calls of every traced name and the derived counters.
EXERCISE = """
import contextlib, io, json
from layers import ODOMETER, REALIZE, TRACED, TRANSLATE, Tracer
tracer = Tracer()
tracer.install()
from orbitlab.cli import main
COMMANDS = {
    TRANSLATE: ["gromov-check", "--matrix", "1 0.5; 0 1", "--radius", "4",
                "--translate-radius", "3", "--window", "1"],
    ODOMETER: ["odometer", "--p", "2", "--depth", "3", "--samples", "20"],
    REALIZE: ["realize", "--matrix", "1 0.25; 0 1", "--radius", "10"],
}
codes = {}
idle = []
calls = {}
derived = {}
for workload, argv in COMMANDS.items():
    before = {name: tracer.stats[name][0] for name in TRACED}
    derived_before = dict(tracer.derived)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main.main(args=argv, prog_name="orbitlab")
        except SystemExit as exc:
            codes[workload] = exc.code
    idle += [
        [workload, name]
        for name, spec in TRACED.items()
        if workload in spec.exercised_by and tracer.stats[name][0] == before[name]
    ]
    calls[workload] = {name: tracer.stats[name][0] - before[name] for name in TRACED}
    derived[workload] = {
        name: value - derived_before[name] for name, value in tracer.derived.items()
    }
print(json.dumps({"codes": codes, "idle": idle, "calls": calls, "derived": derived}))
"""


def run_with_bench(script):
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_tracer_installs_on_every_traced_name():
    location = run_with_bench(SCRIPT)
    assert Path(location).resolve().is_relative_to(ROOT / "src")


@pytest.fixture(scope="module")
def exercised():
    return json.loads(run_with_bench(EXERCISE))


def test_every_traced_layer_is_called_on_its_workloads(exercised):
    assert set(exercised["codes"].values()) == {0}, exercised["codes"]
    assert exercised["idle"] == []


def test_apply_array_points_count_box_points(exercised):
    # ``realize --radius 10`` on the quarter shear sweeps one period per
    # coordinate of the 21^2 box: periods (1, 4), so min(1, 21) * min(4, 21)
    # = 4 points.  The tracer counts ``len(points)``, so a (d, M) array
    # passed to ``apply_array`` would read d = 2 here and change what the
    # benchmark's layer metric means; the whole box would read 21^2
    assert exercised["derived"]["realize-recovery"]["shears.apply_array.points"] == 1 * 4


def test_germ_counters_keep_their_meaning(exercised):
    # ``gromov-check`` 4/3/1 on the half shear: the members, their table
    # entries and the germ operations per member, as counted when germs were
    # dicts; the translate battery evaluates its seed point by point, so it
    # makes no ``apply_array`` call.  ``act_source`` is called once per
    # slice member and element of B(1) by orbit equality (2 members, 5
    # elements); the action law, the cocycle identity and forced freeness
    # act on the stacked slice and call it not at all
    derived = exercised["derived"]["translate-battery"]
    calls = exercised["calls"]["translate-battery"]
    assert derived["mapspace.members"] == 10
    assert derived["mapspace.germ_entries"] == 410
    assert calls["mapspace.act_source"] == 10
    assert calls["mapspace.act_target"] == 10
    assert calls["mapspace.find_slice_match"] == 18
    assert calls["shears.apply_array"] == 0


def test_sweep_pairs_are_still_counted(exercised):
    # ``gromov-check`` 4/3/1: the closure certificate sweeps the 113 points
    # of B(7) in Z^2, 113 * 112 / 2 pairs, whether pair by pair or in arrays
    derived = exercised["derived"]["translate-battery"]
    assert derived["groups.is_bilipschitz_on_ball.pairs"] == 6328
