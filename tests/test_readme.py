"""The README's library example runs as written."""
import re
from pathlib import Path

from orbitlab import linalg

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_recovers_the_matrix_within_c_over_n(capsys):
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert "'matrix'" in capsys.readouterr().out
    invariant, cert = namespace["invariant"], namespace["cert"]
    gap = linalg.max_abs_diff(invariant.matrix, linalg.as_matrix(namespace["matrix"]))
    assert gap <= cert.constant / 1024
    assert invariant.provenance["cocycle"] == "orbit-forward"
