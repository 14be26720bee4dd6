"""Checks on the package as a whole: its public functions and the README example."""

import ast
import inspect
import re
from pathlib import Path
from types import FunctionType

import orthosym

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orthosym"


def imported_names(path):
    """The names a file imports with ``from ... import``."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return {a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names}


def names_read(node):
    """Every name and attribute name read under an AST node."""
    names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    return names | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def names_used_in_package():
    """Every name read in ``src/orthosym`` outside ``__init__.py``, a top-level
    function's own name not counted inside its own ``def``."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = names_read(node)
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
            used |= names
    return used


def test_every_public_function_has_a_caller():
    # a public function that no module calls and the acceptance suite does not
    # import is a layer nothing runs
    exported = {
        name
        for name in imported_names(PACKAGE / "__init__.py")
        if inspect.isfunction(getattr(orthosym, name))
    }
    called = names_used_in_package() | imported_names(ROOT / "tests" / "test_acceptance.py")
    dead = sorted(exported - called)
    assert not dead, f"public functions with no caller: {', '.join(dead)}"


def test_every_public_method_has_a_reader():
    # a public method or property of an exported class that no module and not
    # the acceptance suite reads is API nothing runs.  The check goes by name
    # alone, so a read of the same name anywhere hides a dead member: np.trace
    # in a module would hide a dead ComplexOperator.trace
    read = names_used_in_package()
    read |= names_read(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    members = (property, classmethod, staticmethod, FunctionType)
    dead = sorted(
        f"{name}.{attr}"
        for name in imported_names(PACKAGE / "__init__.py")
        if inspect.isclass(cls := getattr(orthosym, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, members) and attr not in read
    )
    assert not dead, f"public methods with no reader: {', '.join(dead)}"


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks
    exec(compile(blocks[0], "README.md", "exec"), {})
