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
