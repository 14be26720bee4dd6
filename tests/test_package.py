"""Checks on the package as a whole: its public functions, its layering, the owners of
its argument rules and the README example."""

import ast
import builtins
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

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


def string_constants_in_package():
    """Every string literal in ``src/orthosym``: check names, CSV columns, messages."""
    return {
        node.value
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def readme_code_names():
    """The names of the backticked spans of README.md outside fenced blocks: each
    ``name(`` called in a span, and each span that is one snake_case name."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        names.update(re.findall(r"([A-Za-z_][\w.]*)\(", span))
        if re.fullmatch(r"[A-Za-z_][\w.]*", span) and "_" in span:
            names.add(span)
    return names


def test_readme_names_are_defined():
    # a README that names a deleted function documents API that is gone
    modules = {
        path.stem: importlib.import_module(f"orthosym.{path.stem}")
        for path in PACKAGE.glob("*.py")
        if not path.stem.startswith("__")  # importing __main__ would run the CLI
    }
    roots = {**modules, "orthosym": orthosym, "np": np, "numpy": np}
    scopes = [orthosym, *modules.values(), np, np.linalg, builtins]
    strings = string_constants_in_package()

    def defined(name):
        head, *rest = name.split(".")
        if head in roots and rest:
            obj = roots[head]
            for attr in rest:
                obj = getattr(obj, attr, None)
            return obj is not None
        return name in strings or any(hasattr(scope, name) for scope in scopes)

    names = readme_code_names()
    assert {"pt_map_rows", "c_matrix", "sep_bound"} <= names  # the scan found the spans
    missing = sorted(name for name in names if not defined(name))
    assert not missing, f"README names undefined: {', '.join(missing)}"


def run_script(script):
    """Exit code, stdout and stderr of ``python -c script`` with ``src`` on the path: a
    fresh child has its own sys.modules."""
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_loads_no_fractions_or_decimal():
    # together about 3 ms of every start-up
    script = "import sys, orthosym.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert run_script(script) == (0, "[]\n", "")


def test_cli_import_loads_no_numpy_random():
    # about 15 ms of every start-up; verify imports it when it first draws
    script = "import orthosym.cli, sys; assert 'numpy.random' not in sys.modules"
    assert run_script(script) == (0, "", "")


def private_numpy_names(path):
    """The ``_``-prefixed numpy names a file imports, or reads through an attribute chain
    rooted at ``np`` or ``numpy``: numpy may drop any of them in a minor release."""

    def private(dotted):
        return any(p.startswith("_") and not p.endswith("__") for p in dotted.split("."))

    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node := node.value, ast.Attribute):
                chain.append(node.attr)
            if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
                found.add(".".join([node.id, *reversed(chain)]))
    return sorted(name for name in found if private(name))


def test_no_private_numpy_names():
    # a private name is no interface: without it, verify ends in an ImportError
    found = {path.name: private_numpy_names(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(found.values()), f"private numpy names read: {found}"


def imported_modules(path):
    """The modules a file imports, relative ones with their leading dots: ``from . import
    jsonio`` counts as ``.jsonio``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules.add(base)
            if not node.module:
                modules.update(base + a.name for a in node.names)
    return modules


def test_numeric_core_has_no_file_format():
    # the file formats live in cli alone: the numeric core neither imports a
    # JSON module nor gives its exported classes a JSON form
    for name in ("dense", "projectors", "simplex", "verify"):
        found = sorted(
            m
            for m in imported_modules(PACKAGE / f"{name}.py")
            if m.split(".")[0] == "json" or m in (".jsonio", "orthosym.jsonio")
        )
        assert not found, f"{name}.py imports {', '.join(found)}"
    formats = sorted(
        f"{name}.{attr}"
        for name in dir(orthosym)
        if inspect.isclass(cls := getattr(orthosym, name))
        for attr in ("to_json", "from_json")
        if attr in vars(cls)
    )
    assert not formats, f"exported classes with a JSON form: {', '.join(formats)}"


def owners(predicate):
    """The (module, function) pairs of ``src/orthosym`` with a node that ``predicate``
    accepts, each node owned by its innermost enclosing function (None at module level)."""
    found = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if predicate(node):
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def message_template(node):
    """A string literal as it is, an f-string with ``{}`` for each field, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def raises(template):
    """A predicate for a ``raise`` of an exception whose message is ``template``."""

    def accept(node):
        return (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and any(message_template(arg) == template for arg in node.exc.args)
        )

    return accept


@pytest.mark.parametrize(
    "template",
    [
        "local dimension must be >= 2",
        "dimension {} exceeds the cap {}",
        "{} requires state-valued coordinates",
        "pair count must be >= 1",
        "dimension must be >= 1",
        "mask must be {} binary digits, got {}",
        "seed must be a non-negative integer, got {}",
    ],
)
def test_each_argument_rule_is_raised_by_one_function(template):
    # a rule stated at every call site drifts apart one copy at a time
    found = owners(raises(template))
    assert len(found) == 1, f"{template!r} is raised by {sorted(found, key=str)}"


CORE = ("dense", "projectors", "simplex", "verify")


def test_no_message_is_raised_by_two_core_functions():
    templates = {
        message_template(arg)
        for name in CORE
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        for arg in node.exc.args
    } - {None}
    shared = {}
    for template in sorted(templates):
        found = sorted(pair for pair in owners(raises(template)) if pair[0] in CORE)
        if len(found) > 1:
            shared[template] = found
    assert not shared, f"messages raised by two core functions: {shared}"


def test_capped_power_size_test_lives_in_is_power():
    # size == base ** min(exp, size.bit_length()): the one place that says why
    def capped_power(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Call)
            and isinstance(node.right.func, ast.Name)
            and node.right.func.id == "min"
            and any(
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "bit_length"
                for arg in node.right.args
            )
        )

    def size_test(node):
        return isinstance(node, ast.Compare) and any(map(capped_power, ast.walk(node)))

    assert owners(size_test) == {("simplex", "_is_power")}
