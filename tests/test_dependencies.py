"""numpy is the only runtime dependency: every module of the package imports
only from the standard library, numpy and the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defectcost
from defectcost.cli import main

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


@pytest.fixture(scope="module")
def modules_after_runs(tmp_path_factory):
    """Modules loaded by one process after a serial bootstrap and a cross-project run."""
    out = tmp_path_factory.mktemp("runs")
    script = f"""
import sys
from defectcost.cli import main
out = {str(out)!r}
main(["synth", "--seed", "3", "--projects", "2", "--releases", "3", "--artifacts", "60,80", "-o", out + "/corpus"])
common = ["--data", out + "/corpus", "--min-instances", "10", "--min-defects", "2"]
main(["bootstrap", *common, "--samples", "1", "--trees", "5", "--jobs", "1", "-o", out + "/bootstrap"])
main(["cross-project", *common, "--model", "gnb", "--transfer", "camargo_cruz", "-o", out + "/cross"])
print(" ".join(sorted(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(defectcost.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert (out / "bootstrap" / "records.csv").is_file()
    assert len((out / "cross" / "records.csv").read_text().splitlines()) > 1
    return set(run.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def modules_after_reports(tmp_path_factory):
    """Modules loaded by one process after ``analyze`` and ``sensitivity`` on
    records written beforehand."""
    out = tmp_path_factory.mktemp("reports")
    assert main(["synth", "--seed", "7", "--projects", "2", "--releases", "2", "--artifacts", "100,120",
                 "--features", "4", "--signal", "1.5", "-o", str(out / "corpus")]) == 0
    assert main(["bootstrap", "--data", str(out / "corpus"), "--samples", "3", "--seed", "5", "--model", "gnb",
                 "-o", str(out / "run")]) == 0
    script = f"""
import sys
from defectcost.cli import main
out = {str(out)!r}
assert main(["analyze", "--records", out + "/run/records.csv", "--trees", "10", "-o", out + "/report"]) == 0
assert main(["sensitivity", "--records", out + "/run/records.csv", "--eval-records", out + "/run/records.jsonl",
             "--trees", "10", "-o", out + "/sensitivity"]) == 0
print(" ".join(sorted(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(defectcost.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(run.stdout.splitlines()[-1].split())


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x imports numpy.ma at import time")
def test_runs_do_not_import_numpy_ma(modules_after_runs, modules_after_reports):
    """``np.unique`` without return options imports numpy.ma on first use in
    numpy 2.x, about 25 ms of a command, and so do np.median and
    np.nanmedian; no run or report path should need it."""
    for modules in (modules_after_runs, modules_after_reports):
        assert sorted(name for name in modules if name == "numpy.ma" or name.startswith("numpy.ma.")) == []


def test_serial_runs_do_not_import_the_process_pool(modules_after_runs):
    """The process pool (15-20 ms to import) serves only ``--jobs`` above 1,
    and ``statistics`` only the report's Q-Q points."""
    assert {"concurrent.futures.process", "multiprocessing", "statistics"} & modules_after_runs == set()


def test_experiment_runs_do_not_import_analysis(modules_after_runs, modules_after_reports):
    """``analysis`` (10-13 ms to import) serves only ``analyze`` and ``sensitivity``."""
    assert "defectcost.analysis" not in modules_after_runs
    assert "defectcost.analysis" in modules_after_reports


def is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_every_dataclass_has_its_own_docstring():
    """``dataclass`` gives a class without a docstring one built from
    ``inspect.signature`` at import, which every process pays for."""
    classes, missing = 0, []
    for path in sorted(Path(defectcost.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list)):
                classes += 1
                if ast.get_docstring(node) is None:
                    missing.append(f"{path.name}:{node.lineno}: {node.name}")
    assert classes > 30
    assert missing == []
