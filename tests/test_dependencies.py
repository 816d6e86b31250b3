"""motr declares numpy as its only dependency; the scan below keeps an
import of another installed package (scipy, say) from passing unnoticed."""

import ast
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "motr"


def _absolute_imports():
    """(file name, top-level module) of every absolute import in motr."""
    found = set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found.update((path.name, module.split(".")[0]) for module in modules)
    return found


def test_motr_imports_only_numpy_and_the_standard_library():
    found = _absolute_imports()
    assert ("core.py", "numpy") in found          # the scan sees imports at all
    foreign = sorted((name, module) for name, module in found
                     if module != "numpy" and module not in sys.stdlib_module_names)
    assert foreign == []
