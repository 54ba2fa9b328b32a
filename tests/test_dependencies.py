"""numpy is the only runtime dependency: every module of the package imports
only from the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import defectcost

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "defectcost"}


def absolute_imports(path):
    """(line, top-level module) of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(Path(defectcost.__file__).parent.rglob("*.py"))
    imports = {(path, line, name) for path in modules for line, name in absolute_imports(path)}
    assert {name for _, _, name in imports} >= {"numpy", "__future__"}
    assert sorted(f"{path}:{line}: {name}" for path, line, name in imports if name not in ALLOWED) == []


def test_every_export_resolves():
    """A deleted helper cannot linger in ``__all__`` as a stale export."""
    from defectcost import learners

    for package in (defectcost, learners):
        assert [name for name in package.__all__ if not hasattr(package, name)] == []
