"""The benchmark's per-layer tracer installs against this source tree.

``bench/layers.Tracer.install`` raises when a traced name no longer resolves
or when a module still binds an unwrapped original, so renaming or
re-importing a traced function breaks the traced benchmark run; this test
shows it without running a workload.
"""
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


def test_tracer_installs_on_every_traced_name():
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve().is_relative_to(ROOT / "src")
