"""Every public name of a kstab module, and every public method or property
of a class it exports, has a user outside the tests, every function the
benchmark tracer wraps exists in ``src/``, and no module in ``src/`` has an
``assert`` statement."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "kstab").glob("*.py"))
SOURCES = {p: p.read_text().splitlines() for d in ("src", "demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))}


def _public_names(path):
    """The names in a module's ``__all__`` and the line numbers of that list."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value), range(node.lineno, node.end_lineno + 1)
    return [], range(0)


@pytest.mark.parametrize("module", [p for p in MODULES if _public_names(p)[0]], ids=lambda p: p.stem)
def test_public_names_are_used_outside_the_tests(module):
    names, listing = _public_names(module)
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(
            word.search(line) and not definition.match(line) and not (path == module and i in listing)
            for path, lines in SOURCES.items()
            for i, line in enumerate(lines, 1)
        ):
            unused.append(name)
    assert unused == [], f"{module.stem}: public names that only the tests read"


def _public_methods(path):
    """(class, method, line number) of each public method or property defined
    in the body of a class in the module's ``__all__``; dataclass fields are
    not methods, so they are not listed."""
    names, _ = _public_names(path)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno


@pytest.mark.parametrize("module", [p for p in MODULES if list(_public_methods(p))], ids=lambda p: p.stem)
def test_public_methods_are_used_outside_the_tests(module):
    unused = []
    for cls, name, lineno in _public_methods(module):
        attribute = re.compile(rf"\.{re.escape(name)}\b")
        if not any(
            attribute.search(line) and not (path == module and i == lineno)
            for path, lines in SOURCES.items()
            for i, line in enumerate(lines, 1)
        ):
            unused.append(f"{cls}.{name}")
    assert unused == [], f"{module.stem}: public methods that only the tests read"


def _traced_targets():
    """(module, attribute path) of each entry of ``bench/tracing.py``'s TARGETS."""
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise LookupError("bench/tracing.py has no TARGETS list")


@pytest.mark.parametrize("module, path", _traced_targets())
def test_traced_targets_resolve_in_src(module, path):
    # the tracer reads owner.__dict__[attr], so the attribute must be defined
    # on its owner itself, in a module under src/
    *owners, attr = path.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module}.{path} is not defined where the tracer looks"
    target = vars(owner)[attr]
    assert inspect.isfunction(target), (
        f"{module}.{path} is a {type(target).__name__}, not a plain function: "
        "keep any cache in a private helper that it calls"
    )
    source = Path(inspect.getsourcefile(target)).resolve()
    assert (ROOT / "src") in source.parents


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_assert_statements(module):
    # python -O removes them, so a check written as one would pass unchecked
    lines = [n.lineno for n in ast.walk(ast.parse(module.read_text())) if isinstance(n, ast.Assert)]
    assert lines == [], f"{module.stem}: assert statements on lines {lines}"
