"""Checks on the package as a whole: its public functions, its layering, the owners of
its argument rules and the README example."""

import ast
import builtins
import dataclasses
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
        "local dimension must be an integer, got {}",
        "local dimension must be >= 2",
        "dimension {} exceeds the cap {}",
        "{} requires state-valued coordinates",
        "pair count must be an integer, got {}",
        "pair count must be >= 1",
        "reduction requires K >= 2",
        "tolerance must be a finite number >= 0, got {}",
        "dimension must be >= 1",
        "mask must be {} binary digits, got {}",
        "{} must be a non-negative integer, got {}",
        "grid resolution must be >= 1, got {}",
    ],
)
def test_each_argument_rule_is_raised_by_one_function(template):
    # a rule stated at every call site drifts apart one copy at a time
    found = owners(raises(template))
    assert len(found) == 1, f"{template!r} is raised by {sorted(found, key=str)}"


def test_cli_parses_and_leaves_the_value_rules_to_their_owners():
    # argparse turns text into an int or a float; a type function that judged the
    # value as well was a second copy of an owner's rule, and drifted from it
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    type_errors = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "ArgumentTypeError" in names_read(node)
    ]
    types = {
        ast.unparse(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "type"
    }
    assert not type_errors
    assert types <= {"int", "float"}, f"argument types other than int and float: {types}"


def test_integer_test_lives_in_the_owners():
    # d, K, seeds and counts are each checked by their owner, never at a call site; the
    # local dimensions of a ComplexOperator follow their own rule, as they may be 1
    def reads_is_integer(node):  # a call, or the function handed on, as to map()
        return isinstance(node, ast.Name) and node.id == "_is_integer"

    assert owners(reads_is_integer) == {
        ("dense", "_check_local_dimension"),
        ("dense", "_check_pair_count"),
        ("dense", "__post_init__"),
        ("verify", "_check_nonnegative"),
    }


#: Every public function that takes a local dimension d, at K = 1 (K = 2 to reduce).
D_ENTRY_POINTS = {
    "c_matrix": lambda d: orthosym.c_matrix(d),
    "hull_generators": lambda d: orthosym.hull_generators(d),
    "pair_projectors": lambda d: orthosym.pair_projectors(d),
    "bipartite_traces": lambda d: orthosym.bipartite_traces(d),
    "multipartite_trace": lambda d: orthosym.multipartite_trace(d, (0,)),
    "intersection_point": lambda d: orthosym.intersection_point(d),
    "hull_vertices": lambda d: orthosym.hull_vertices(d, 1),
    "coordinate_bounds": lambda d: orthosym.coordinate_bounds(d, 1),
    "classify_lattice": lambda d: list(orthosym.classify_lattice(d, 1, 3)),
    "FidelityVector": lambda d: orthosym.FidelityVector(d, 1, [1.0, 0.0, 0.0]),
    "reconstruct_rows": lambda d: orthosym.reconstruct_rows(np.array([[1.0, 0.0, 0.0]]), d, 1),
    "twirl_rows": lambda d: orthosym.twirl_rows(np.eye(9)[None] / 9, d, 1),
    "check_family_budget": lambda d: orthosym.check_family_budget(d, 1),
    "projector_family": lambda d: orthosym.projector_family(d, 1),
    "build_multipartite": lambda d: orthosym.build_multipartite(d, 1, (0,)),
    "verify_c_matrix": lambda d: orthosym.verify_c_matrix(d),
    "verify_coplanarity": lambda d: orthosym.verify_coplanarity(d),
    "verify_resolution": lambda d: orthosym.verify_resolution(d, 1),
    "verify_invariance": lambda d: orthosym.verify_invariance(d, 1, 2),
    "verify_pt_consistency": lambda d: orthosym.verify_pt_consistency(d, 1, 2),
    "verify_product_fidelities": lambda d: orthosym.verify_product_fidelities(d, 1, 2),
    "verify_reduction": lambda d: orthosym.verify_reduction(d, 2, 2),
    "run_suite": lambda d: orthosym.run_suite(combos=((d, 1),), trials=2, samples=2),
}
#: Every public function that takes a pair count K, at d = 2.
K_ENTRY_POINTS = {
    "all_masks": lambda K: orthosym.all_masks(K),
    "all_multi_indices": lambda K: orthosym.all_multi_indices(K),
    "bob_subsystems": lambda K: orthosym.bob_subsystems((1, 0), K),
    "check_scan_budget": lambda K: orthosym.check_scan_budget(3, K),
    "check_vertex_budget": lambda K: orthosym.check_vertex_budget(K),
    "FidelityVector": lambda K: orthosym.FidelityVector(2, K, np.full(9, 1 / 9)),
    "hull_vertices": lambda K: orthosym.hull_vertices(2, K),
    "coordinate_bounds": lambda K: orthosym.coordinate_bounds(2, K),
    "default_grid_resolution": lambda K: orthosym.default_grid_resolution(K),
    "classify_lattice": lambda K: list(orthosym.classify_lattice(2, K, 3)),
    "reduce_rows": lambda K: orthosym.reduce_rows(np.full((1, 9), 1 / 9), K, 0),
    "pt_map_masks": lambda K: orthosym.pt_map_masks(np.full((1, 9), 1 / 9), np.eye(3), K),
    "reconstruct_rows": lambda K: orthosym.reconstruct_rows(np.full((1, 9), 1 / 9), 2, K),
    "twirl_rows": lambda K: orthosym.twirl_rows(np.eye(16)[None] / 16, 2, K),
    "check_family_budget": lambda K: orthosym.check_family_budget(2, K),
    "projector_family": lambda K: orthosym.projector_family(2, K),
    "build_multipartite": lambda K: orthosym.build_multipartite(2, K, (0, 0)),
    "verify_resolution": lambda K: orthosym.verify_resolution(2, K),
    "verify_invariance": lambda K: orthosym.verify_invariance(2, K, 2),
    "verify_pt_consistency": lambda K: orthosym.verify_pt_consistency(2, K, 2),
    "verify_product_fidelities": lambda K: orthosym.verify_product_fidelities(2, K, 2),
    "verify_reduction": lambda K: orthosym.verify_reduction(2, K, 2),
    "run_suite": lambda K: orthosym.run_suite(combos=((2, K),), trials=2, samples=2),
}


def no_draws(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("drew before d and K were checked")

    monkeypatch.setattr(np.random, "default_rng", draw)
    monkeypatch.setattr(np.random, "SeedSequence", draw)


@pytest.mark.parametrize("d", [2.5, 2.0, True, np.float64(3)], ids=repr)
@pytest.mark.parametrize("call", D_ENTRY_POINTS.values(), ids=D_ENTRY_POINTS)
def test_non_integer_local_dimension_rejected(monkeypatch, call, d):
    # c_matrix(2.5), hull_vertices(2.5, 1) and the lattice verdicts gave numbers for a
    # dimension that does not exist, bipartite_traces(2.5) the traces (3.0, 1.0, 1)
    no_draws(monkeypatch)
    with pytest.raises(ValueError) as exc:
        call(d)
    assert (exc.type, str(exc.value)) == (ValueError, f"local dimension must be an integer, got {d!r}")


@pytest.mark.parametrize(
    "K, message",
    [
        (1.5, "pair count must be an integer, got 1.5"),
        (True, "pair count must be an integer, got True"),
        (0, "pair count must be >= 1"),
    ],
    ids=repr,
)
@pytest.mark.parametrize("call", K_ENTRY_POINTS.values(), ids=K_ENTRY_POINTS)
def test_non_integer_or_zero_pair_count_rejected(monkeypatch, call, K, message):
    # projector_family(2, True) built a K = 1 family, and K = 0 ended in an IndexError
    # from an empty Kronecker chain; all_masks(True) listed the K = 1 masks, and
    # check_scan_budget(3, 1.5) raised a TypeError from range()
    no_draws(monkeypatch)
    with pytest.raises(ValueError) as exc:
        call(K)
    assert (exc.type, str(exc.value)) == (ValueError, message)


def content(value):
    """A result as nested (shape, dtype, bytes) triples, integers widened to int64."""
    if value is None:
        return None
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = sorted(value.items())
    if isinstance(value, (list, tuple)):
        return [content(v) for v in value]
    array = np.asarray(value)
    if array.dtype.kind in "iu":
        array = array.astype(np.int64)
    return array.shape, array.dtype.str, array.tobytes()


@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda t: t.__name__)
@pytest.mark.parametrize(
    "call, value",
    [(call, 3) for call in D_ENTRY_POINTS.values()]
    + [(call, 2) for call in K_ENTRY_POINTS.values()],
    ids=[f"d-{name}" for name in D_ENTRY_POINTS] + [f"K-{name}" for name in K_ENTRY_POINTS],
)
def test_numpy_integers_give_the_python_int_result(call, value, kind):
    assert content(call(kind(value))) == content(call(value))


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


def test_input_is_decoded_only_in_the_fall_back_of_loads():
    # the CLI hands jsonio.loads the file's bytes: the whole input is decoded only
    # where loads falls back to json.loads, and otherwise only the skeleton, whose
    # text the public decoder parses
    def decode_call(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "decode"
        )

    assert owners(decode_call) == {("jsonio", "loads")}
    tree = ast.parse((PACKAGE / "jsonio.py").read_text())
    (loads,) = [node for node in tree.body if getattr(node, "name", None) == "loads"]
    assert sorted(ast.unparse(sub) for sub in ast.walk(loads) if decode_call(sub)) == [
        "data.decode()",
        "json.JSONDecoder(parse_constant=constant).decode(skeleton.decode())",
        "skeleton.decode()",
    ]


def json_internal_names(path):
    """The names under ``json.decoder`` or ``json.scanner`` that a file imports, or
    reads through an attribute chain rooted at ``json``: the modules behind the
    public ``json`` names, whose hooks may change in any release."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node := node.value, ast.Attribute):
                chain.append(node.attr)
            if isinstance(node, ast.Name) and node.id == "json":
                found.add(".".join([node.id, *reversed(chain)]))
    internal = (["json", "decoder"], ["json", "scanner"])
    return sorted(name for name in found if name.split(".")[:2] in internal)


def test_json_is_read_through_its_public_names():
    # jsonio reaches the scanner through JSONDecoder's arguments alone: it reads
    # no json.decoder or json.scanner name and sets no attribute on any object
    found = {path.name: json_internal_names(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(found.values()), f"json internals read: {found}"
    stores = [
        ast.unparse(node)
        for node in ast.walk(ast.parse((PACKAGE / "jsonio.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("setattr", "object.__setattr__")
    ]
    assert not stores, f"jsonio assigns attributes: {stores}"
