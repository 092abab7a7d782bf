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
    modules = [
        path
        for folder in ("src", "tests", "checks")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


def _reads(node):
    """The names a node reads: every name and attribute it loads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _import_time(body):
    """The nodes of a module or class body that run when it is imported:
    every statement but the bodies of its functions, whose decorators and
    default values do run."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from node.decorator_list
            yield from node.args.defaults
            yield from filter(None, node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            yield from node.decorator_list + node.bases + node.keywords
            yield from _import_time(node.body)
        else:
            yield node


def _unreached(trees, roots):
    """The functions and methods defined in ``trees`` that no name read from
    ``roots``, from import-time statements or from the body of a dunder
    method, which Python calls itself, reaches through the bodies of the
    functions it names.  Names are followed across modules and classes."""
    defs = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(node)
    reached = set(roots) | {name for name in defs if name.startswith("__") and name.endswith("__")}
    for tree in trees:
        for node in _import_time(tree.body):
            reached |= _reads(node)
    todo = list(reached)
    while todo:
        for node in defs.get(todo.pop(), ()):
            new = _reads(node) - reached
            reached |= new
            todo += new
    return sorted(set(defs) - reached)


def test_the_reachability_check_follows_reads_from_every_root():
    tree = ast.parse(
        "def main():\n    helper()\n"
        "def helper():\n    return thing.method\n"
        "class C:\n"
        "    size = sized()\n"
        "    def method(self):\n        pass\n"
        "    def unused(self):\n        orphan()\n"
        "    def __len__(self):\n        return counted()\n"
        "def sized():\n    pass\n"
        "def counted():\n    pass\n"
        "def read_by_job():\n    pass\n"
        "def orphan():\n    pass\n"
    )
    assert _unreached([tree], {"main", "read_by_job"}) == ["orphan", "unused"]


def test_every_library_function_runs_in_a_command_or_the_benchmark_job():
    # A function that only tests call is a reference route, and belongs in
    # tests/oracles.py.  edge_character is exempt: it is an lru_cache that
    # perfbench's test_every_engine_cache_is_found_and_cleared requires the
    # benchmark job to find and clear, so it stays until that test drops it.
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))]
    unreached = _unreached(trees, {"main"} | _reads(ast.parse(JOB.read_text())))
    assert [name for name in unreached if name != "edge_character"] == []
