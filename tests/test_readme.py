"""The README's library example and every line of its CLI block run as
written, and its module table names only code that exists."""
import functools
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from orbitlab import linalg
from orbitlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# A backticked name, dotted or not, optionally called with arguments.
NAME = re.compile(r"([A-Za-z_][\w.]*)(\(.*\))?")
# Math written like a name: a letter with a one-character subscript, F_k.
SUBSCRIPT = re.compile(r"[A-Za-z]_\w")


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


def cli_lines() -> list:
    """The ``orbitlab`` invocations of the README's CLI block, comments dropped."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("orbitlab ")]


def test_the_cli_block_has_every_command():
    assert sorted({argv[0] for argv in cli_lines()}) == ["functoriality", "gromov-check", "odometer", "realize"]


@pytest.mark.parametrize("argv", cli_lines(), ids=" ".join)
def test_cli_block_line_passes(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output


def code_names(contents: str) -> list:
    """The backticked names in a table row that name code: those with an
    underscore or an uppercase first letter, math such as F_k excepted."""
    names = []
    for token in re.findall(r"`([^`]+)`", contents):
        match = NAME.fullmatch(token)
        if match is None:
            continue
        name = match.group(1)
        if ("_" in name or name[0].isupper()) and not SUBSCRIPT.fullmatch(name):
            names.append(name)
    return names


def resolves(module, name: str) -> bool:
    """``name`` is an attribute path of the module or of one of its classes."""
    owners = [module, *(v for v in vars(module).values() if inspect.isclass(v))]
    for owner in owners:
        try:
            functools.reduce(getattr, name.split("."), owner)
        except AttributeError:
            continue
        return True
    return False


def test_module_table_names_only_code_that_exists():
    rows = re.findall(r"^\| `(orbitlab\.\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert rows
    checked = []
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in code_names(contents):
            checked.append(name)
            if not resolves(module, name):
                missing.append((module_name, name))
    assert missing == []
    assert len(checked) >= 20
