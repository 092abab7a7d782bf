"""Package metadata, and the library names the benchmark job reads."""

import ast
import importlib
import re
from pathlib import Path

import hilb3

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
JOB = ROOT / "perfbench" / "job.py"


def _project_field(name):
    # A regex, not tomllib: tomllib is missing on Python 3.10, the oldest
    # Python the package supports.
    match = re.search(rf'^{name} = "([^"]*)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match, f"no {name} in pyproject.toml"
    return match.group(1)


def test_distribution_is_named_after_the_package():
    assert _project_field("name") == "hilb3"


def test_pyproject_version_is_the_package_version():
    assert _project_field("version") == hilb3.__version__


def _job_names():
    """The ``(module, name)`` pairs ``perfbench/job.py`` takes from ``hilb3``."""
    names = []
    for node in ast.walk(ast.parse(JOB.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hilb3":
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.name, None) for alias in node.names if alias.name.startswith("hilb3")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "fock"
        ):
            names.append(("hilb3.fock", node.attr))
    return names


def test_every_library_name_the_benchmark_job_reads_exists():
    # A refactor that drops one of these fails every benchmark job, and only
    # there, unless this test catches it.
    names = _job_names()
    assert ("hilb3", "fock") in names and ("hilb3.fock", "one_point") in names
    for module, name in names:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{module}.{name}"


def test_the_caches_the_benchmark_job_reads_exist():
    from hilb3.graphs import enumerate_graphs
    from hilb3.localization import edge_euler, forbidden_weights, graph_sum

    for cached in (graph_sum, edge_euler, enumerate_graphs, forbidden_weights):
        assert callable(cached.cache_info) and callable(cached.cache_clear), cached.__name__


def _unused_imports(tree):
    """The names a module imports and never reads; a name in ``__all__`` is read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {element.value for element in node.value.elts}
    return sorted(imported - read)


def test_the_unused_import_check_sees_reads_and_all():
    tree = ast.parse(
        "import os.path\nfrom a import b, c as d, e\n__all__ = ['e']\nprint(os, d)\n"
    )
    assert _unused_imports(tree) == ["b"]


def test_no_module_imports_a_name_it_never_reads():
    # No linter runs in CI, so this is the check for unused imports.
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}
