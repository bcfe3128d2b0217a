"""The benchmark's per-layer tracer installs against this source tree, and
every traced layer is still called.

``bench/layers.Tracer.install`` raises when a traced name no longer resolves
or when a module still binds an unwrapped original, so renaming or
re-importing a traced function breaks the traced benchmark run; the first
test shows it without running a workload.  The traced benchmark also fails
when a layer records no call on a workload listed in its ``exercised_by``;
the second test runs a small command per workload and checks the same.
Both only read ``bench/``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import orbitlab
from layers import Tracer
Tracer().install()
print(orbitlab.__file__)
"""


# One small command per benchmark workload; prints the exit codes and the
# (workload, traced name) pairs that recorded no call on their command.
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
    REALIZE: ["realize", "--matrix", "1 0.5; 0 1", "--radius", "10"],
}
codes = {}
idle = []
for workload, argv in COMMANDS.items():
    before = {name: tracer.stats[name][0] for name in TRACED}
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
print(json.dumps({"codes": codes, "idle": idle}))
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


def test_every_traced_layer_is_called_on_its_workloads():
    outcome = json.loads(run_with_bench(EXERCISE))
    assert set(outcome["codes"].values()) == {0}, outcome["codes"]
    assert outcome["idle"] == []
