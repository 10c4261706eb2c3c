"""No module imports a name it never uses.  No linter is a test
dependency, so this walks the syntax tree: a name bound by an import in
``src/qthresh/*.py`` or ``tests/*.py`` must be read somewhere else in the
same file.  ``__init__``'s imports are its re-exports and are skipped."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for path in [*ROOT.glob("src/qthresh/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.path, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
