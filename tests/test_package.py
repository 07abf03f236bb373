"""The package holds only what the program runs.

Every public top-level function and public method of `src/bhvphylo`
must be referenced somewhere in the package or in `perfbench/` outside
its own definition.  A helper that only tests call belongs in
`tests/conftest.py` (hooks into the program) or `tests/oracles.py`
(independent references).  References are matched by name: identifiers,
attribute names, imported names and string constants such as the
entries of `__all__` and the names `perfbench` patches.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bhvphylo"


def _definitions(module: ast.Module):
    """(name, first line, last line) of public functions and methods."""
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def _references(module: ast.Module):
    """(name, line) of every name the module mentions."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreferenced_definitions() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    modules = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path, module in modules.items():
        for name, line in _references(module):
            seen.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(modules[path]):
            if node.name.startswith("_"):
                continue
            outside = [
                (where, line)
                for where, line in seen.get(node.name, [])
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                missing.append(f"{path.name}:{node.lineno} {node.name}")
    return missing


def test_every_public_function_is_used_by_the_program():
    assert unreferenced_definitions() == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _package_imports(module: ast.Module):
    """The `from <package module> import ...` statements of a module."""
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "bhvphylo"
        ):
            yield node


def private_imports() -> list[str]:
    """`from <package module> import _name` lines in the package: a name
    with one leading underscore belongs to its own module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _package_imports(ast.parse(path.read_text(), str(path))):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []


def private_attribute_reads() -> list[str]:
    """`X._name` in the package where X is bound by an import from another
    package module: the attribute belongs to the module that defines X."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name for node in _package_imports(module) for alias in node.names
        }
        for node in ast.walk(module):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
                and _is_private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_a_private_attribute_of_an_import():
    assert private_attribute_reads() == []


def squares_by_power() -> list[str]:
    """`x ** 2` in the package.  A square is written `x * x`, which is
    correctly rounded and so exact under a power-of-two scale; libm's
    pow(x, 2) is not always."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_squares_with_a_power():
    assert squares_by_power() == []


def geodesic_norm_calls() -> list[str]:
    """`math.sqrt`, `math.ldexp` or `math.frexp` in `geodesic.py`: every
    norm and path length there is one `math.hypot`, which scales by a power
    of two itself, so a hand-scaled sum of squares is a second path."""
    path = PACKAGE / "geodesic.py"
    return [
        f"{path.name}:{node.lineno} math.{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
        and node.attr in {"sqrt", "ldexp", "frexp"}
    ]


def test_geodesic_takes_every_norm_with_hypot():
    assert geodesic_norm_calls() == []


def untraceable_sites() -> list[str]:
    """The (module, attribute) sites of perfbench/tracing.py that do not
    name a callable once the command line is imported.  The tracer wraps
    each site; a moved or renamed function silently drops its metrics."""
    importlib.import_module("bhvphylo.cli")
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    sites.append(tracing.STEP_TARGET[:2])
    return [
        f"{module}.{attr}"
        for module, attr in sites
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]


def test_every_tracer_site_names_a_callable():
    assert untraceable_sites() == []
