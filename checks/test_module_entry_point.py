"""The ``hilb3`` command line run as a user runs it.

The golden tests in ``tests/`` call ``main()`` in process and never see an
exit code.  Here each command goes through the module entry point,
``python -m hilb3.cli``: every golden command, plain and ``--json``, must
exit 0 and print its golden bytes, a degree past the bounds table must exit
2, and every ``hilb3`` line of the README's usage block must exit 0.  At the
CLI's point bound, with the real pass cache, ``invariant --d 1 --points
1000`` must run each of its 8 curve systems once per point.

Run from the repository root: ``python -m pytest checks``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hilb3 import localization
from hilb3.cli import main
from hilb3.localization import _stored_pass, graph_sum

from oracles import COMMANDS, GOLDEN

ROOT = Path(__file__).resolve().parent.parent


def _hilb3(argv, **kwargs):
    """Run ``python -m hilb3.cli`` with ``argv`` from the repository root."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hilb3.cli", *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, timeout=300, **kwargs,
    )


def test_every_golden_file_has_a_command():
    recorded = {path.name for path in GOLDEN.glob("*.txt")}
    assert recorded == {f"{name}{suffix}.txt" for name in COMMANDS for suffix in ("", ".json")}
    assert len(recorded) == 18


@pytest.mark.parametrize("suffix, extra", [("", []), (".json", ["--json"])], ids=["plain", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_command_through_the_module_exits_0(name, suffix, extra):
    run = _hilb3([*COMMANDS[name], *extra], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"{name}{suffix}.txt").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dmax", "9"],
        ["graphs", "--family", "pair", "--i", "0", "--j", "1", "--d", "9"],
        ["invariant", "--d", "41", "--points", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_degree_past_the_bounds_table_exits_2(argv):
    assert _hilb3(argv, capture_output=True).returncode == 2


def _readme_examples():
    """Every ``hilb3`` line of the README's "Command-line usage" section, up
    to the next section, with its comment stripped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command-line usage\n", 1)[1].split("\n## ", 1)[0]
    return [
        re.sub(r" *#.*", "", line)
        for line in section.splitlines()
        if line.startswith("hilb3 ")
    ]


def test_every_readme_usage_example_exits_0():
    examples = _readme_examples()
    assert examples
    failed = [
        example
        for example in examples
        if _hilb3(example.split()[1:], stdin=subprocess.DEVNULL,
                  stdout=subprocess.DEVNULL).returncode
    ]
    assert not failed, f"README examples exit non-zero: {failed}"


def test_invariant_at_the_point_bound_runs_one_pass_per_curve_system_and_point(
    monkeypatch, capsys
):
    graph_sum.cache_clear()
    _stored_pass.cache_clear()
    passes = []
    recursion_pass = localization._recursion_pass

    def counted(curves, top, points):
        passes.append(len(points))
        return recursion_pass(curves, top, points)

    monkeypatch.setattr(localization, "_recursion_pass", counted)
    assert main(["invariant", "--d", "1", "--points", "1000"]) == 0
    capsys.readouterr()
    assert sum(passes) == 8000
