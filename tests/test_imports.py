"""Every name a library module imports is used in that module, and so is
every private name it defines at its top level.  No module imports a
private name from another orbitlab module: what two modules share is public.

``__init__.py`` only re-exports, so the usage and reach guards leave it out.  A
name counts as used when it is read as a bare name anywhere in the module,
the root of an attribute chain included, or inside a quoted annotation.  A private name
(``_helper``, ``_CONSTANT``) that its own module never reads is left over.

Every public top-level function or class is read by some library module,
or it is named in ``TEST_REFERENCES`` with the reason the tests need it: a
checker that no command can reach runs in no report.  Every public method of
a library class runs: a call enters it while the CLI runs the golden-fixture
invocations of ``test_cli`` in process, under a call-only ``sys.settrace``,
or ``TEST_REFERENCES`` names it as ``Class.method`` or names its class.  A
method counts by what runs, not by its name, so a method that shares its
name with one the library calls is still seen.
"""
import ast
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from test_cli import CORRUPTED, GOLDEN, LINE_GOLDEN, SWEEP_GOLDEN, TRANSLATE_GOLDEN

import orbitlab
from orbitlab.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbitlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name a top-level def, class or assignment binds, with
    its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "groups.py", "mapspace.py", "shears.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    }
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from typing import Sequence\nimport math\n\ndef f(x: 'Sequence'):\n    return x\n")
    assert {n for n in imported_names(tree) if n not in used_names(tree)} == {"math"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {
        name: line
        for name, line in private_definitions(tree).items()
        if name not in used_names(tree)
    }
    assert unused == {}, f"{path.name} defines private names it never uses: {unused}"


def test_the_guard_sees_an_unused_private_name():
    tree = ast.parse(
        "_LIMIT = 3\n_SPARE: int = 4\n\ndef _helper(x):\n    return x\n\n"
        "def _left():\n    return _helper(_LIMIT)\n\nclass _Shape:\n    pass\n"
    )
    unused = {n for n in private_definitions(tree) if n not in used_names(tree)}
    assert unused == {"_SPARE", "_left", "_Shape"}


def private_imports(tree: ast.Module) -> dict[str, int]:
    """Each private name imported from an orbitlab module (a relative import
    or one from ``orbitlab``), with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "orbitlab"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    names[alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_imports(tree) == {}, f"{path.name} imports private names: {private_imports(tree)}"


def test_the_guard_sees_a_private_import():
    tree = ast.parse(
        "from .groups import _LIMIT, ball\nfrom orbitlab.odometer import _helper\n"
        "from . import _shared, linalg\nfrom typing import _Final\n"
    )
    assert set(private_imports(tree)) == {"_LIMIT", "_helper", "_shared"}


# Public library names, and public methods, that only the tests read or
# run, each with its reason; a class entry covers all of its methods.
TEST_REFERENCES = {
    "box_points": "the reference order of the certificate box, which the distance sweep walks in blocks",
    "TableSeed": "a seed given by a finite table: free-group and hand-made translate spaces in the tests",
    "identity_morphism": "the trivial cocycle: a fake system for invariant and composition tests",
    "FreeGroup": "the free group of the Nielsen F2 translate space, the non-amenable case, which no command runs",
    "FreeWord": "a reduced word of the Nielsen F2 space, parsed from letters for seeds and hand-built words",
    "InducedAlgebraMap.corrupted": "an induced map with one wrong entry: the negative control of functoriality",
    "MapGerm.from_dict": "a hand-made or corrupted germ from its values, for the germ and battery controls",
    "OdometerSpace.all_points": "every point at the depth, the reference order of the residue arrays",
}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public top-level function or class, with its line number; a
    function registered as a click command is reached through its group."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            registered = any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
                for d in node.decorator_list
            )
            if not node.name.startswith("_") and not registered:
                names[node.name] = node.lineno
    return names


def module_reads(tree: ast.Module, modules: set) -> set[str]:
    """The names a module reads: bare names, and attributes of a package
    module bound under its own name (``linalg.det``)."""
    reads = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add(node.attr)
    return reads


def unreached(sources: dict[str, str]) -> dict[str, str]:
    """Each public definition of ``sources`` (module name -> text) that no
    module reads and that ``TEST_REFERENCES`` does not name, as
    ``module:line``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = set().union(*(module_reads(tree, set(trees)) for tree in trees.values()))
    return {
        name: f"{module}:{line}"
        for module, tree in trees.items()
        for name, line in public_definitions(tree).items()
        if name not in reads and name not in TEST_REFERENCES
    }


def public_methods(tree: ast.Module) -> dict[str, int]:
    """Each public method of a top-level class, as ``Class.method``, with
    its line number."""
    return {
        f"{node.name}.{item.name}": item.lineno
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    }


# Every golden-fixture invocation, with the exit code its report pins.
INVOCATIONS = [
    (args, 0) for _, args in GOLDEN + SWEEP_GOLDEN + TRANSLATE_GOLDEN + LINE_GOLDEN
] + [(args, 1) for _, args in CORRUPTED]


def executed(invocations) -> set[tuple[str, str]]:
    """The (module, qualified name) of every package function that a call
    enters while the CLI runs ``invocations`` (argv, exit code) in process,
    under a trace that sees call events only."""
    codes = set()
    runner = CliRunner()
    previous = sys.gettrace()
    # set.add returns None: no frame gets a local trace function
    sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))
    try:
        exits = [runner.invoke(main, args + ["--json"]).exit_code for args, _ in invocations]
    finally:
        sys.settrace(previous)
    assert exits == [code for _, code in invocations]
    root = Path(orbitlab.__file__).resolve().parent
    return {
        (Path(code.co_filename).stem, code.co_qualname)
        for code in codes
        if Path(code.co_filename).parent == root
    }


def unrun_methods(sources: dict[str, str], entered: set) -> dict[str, str]:
    """Each public method of ``sources`` (module name -> text) that is not
    in ``entered`` and that ``TEST_REFERENCES`` names neither as
    ``Class.method`` nor by its class, as ``module:line``."""
    return {
        name: f"{module}:{line}"
        for module, text in sources.items()
        for name, line in public_methods(ast.parse(text)).items()
        if (module, name) not in entered
        and name not in TEST_REFERENCES
        and name.split(".")[0] not in TEST_REFERENCES
    }


@pytest.fixture(scope="module")
def golden_run() -> set:
    return executed(INVOCATIONS)


def test_every_public_name_is_read_by_the_library():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreached(sources) == {}


def test_every_public_method_runs_in_a_golden_invocation(golden_run):
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unrun_methods(sources, golden_run) == {}


def test_every_test_reference_exists():
    sources = {path.stem: path.read_text() for path in MODULES}
    defined = set()
    for text in sources.values():
        tree = ast.parse(text)
        defined |= set(public_definitions(tree)) | set(public_methods(tree))
    assert set(TEST_REFERENCES) <= defined


def test_the_guard_sees_an_unread_public_name():
    sources = {
        "alpha": "import click\n\ndef helper():\n    return 1\n\ndef spare():\n    return 2\n\n"
                 "class Shape:\n    pass\n\n@click.group()\ndef main():\n    pass\n\n"
                 "@main.command()\ndef run():\n    return helper()\n",
        "beta": "from . import alpha\n\ndef box_points():\n    return alpha.Shape\n\ndef left():\n    return 0\n",
    }
    assert unreached(sources) == {"spare": "alpha:6", "left": "beta:6"}


def test_the_guard_sees_an_unrun_method():
    # the odometer battery builds no translate space, so no source action runs
    odometer = [(args, 0) for _, args in GOLDEN if args[0] == "odometer"]
    sources = {path.stem: path.read_text() for path in MODULES}
    assert "TruncatedMapSpace.act_source" in unrun_methods(sources, executed(odometer))


# The one module that may write an integer width limit: the home of the
# ladder that every array layer reads its dtype from.
LADDER_HOME = "linalg"
WIDTH_EXPONENTS = {30, 62, 63}


def is_width_limit(node: ast.AST) -> bool:
    """``1 << k`` or ``2 ** k`` for a width exponent k, or an integer literal
    of at least 2^30."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value >= 1 << 30
    if not (isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant)):
        return False
    base = {ast.LShift: 1, ast.Pow: 2}.get(type(node.op))
    return (
        isinstance(node.left, ast.Constant) and node.left.value == base
        and node.right.value in WIDTH_EXPONENTS
    )


def width_limits(sources: dict[str, str], home: str = LADDER_HOME) -> dict[str, list[int]]:
    """The lines of each module but ``home`` (module name -> text) that write
    a width limit or read a name that some module binds to an expression
    holding one, bare or as an attribute (``groups.INT64_SAFE``)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    bound = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if any(is_width_limit(n) for n in ast.walk(node.value)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    found = {}
    for name, tree in trees.items():
        if name == home:
            continue
        lines = sorted({
            node.lineno
            for node in ast.walk(tree)
            if is_width_limit(node)
            or (isinstance(node, ast.Name) and node.id in bound)
            or (isinstance(node, ast.Attribute) and node.attr in bound)
            or (isinstance(node, ast.alias) and node.name in bound)
        })
        if lines:
            found[name] = lines
    return found


def test_only_the_ladder_home_writes_a_width_limit():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert LADDER_HOME in sources
    assert width_limits(sources) == {}


def test_the_guard_sees_a_width_limit():
    sources = {
        "linalg": "RUNGS = ((1, 1 << 30), (2, 1 << 62))\n",
        "alpha": "LIMIT = 1 << 62\n\ndef fits(x):\n    return x < LIMIT\n",
        "beta": "from .alpha import LIMIT\nfrom . import linalg\n\nBIG = 2**63\nSMALL = 2**22\n"
                "ROWS = linalg.RUNGS\nPLAIN = 1073741824\nSHIFT = 1 << 20\n",
        "gamma": "from . import alpha\n\ndef wide(x):\n    return x >= alpha.LIMIT\n",
    }
    assert width_limits(sources) == {"alpha": [1, 4], "beta": [1, 4, 6, 7], "gamma": [4]}
