"""Package metadata: one name and one version for the distribution."""

import re
from pathlib import Path

import hilb3

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
