"""Every name a package module imports is used in that module.

``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import urbanmorph

PACKAGE = Path(urbanmorph.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """``<module>:<line> <name>`` for each name imported in ``path`` and never
    read there; a ``from __future__`` import is no name."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for p in modules for entry in unused_imports(p)] == []


def test_names_module_and_line_of_each_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os.path, sys\n"
                    "from .a import (\n    b,\n    c as d,\n)\nprint(os.sep, b)\n")
    assert unused_imports(path) == ["mod.py:2 sys", "mod.py:5 d"]
