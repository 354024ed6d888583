"""Every public name of a kstab module has a user outside the tests."""

import ast
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
