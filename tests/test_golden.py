"""Golden stdout: the heavy subcommands print exactly the recorded bytes.

The files under ``tests/golden`` hold the stdout of each command at seed 7,
plain and ``--json``.  Any change to the engine that moves a value, an
ordering or a line of output fails here byte for byte.
"""

from pathlib import Path

import pytest

from hilb3.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify": ["verify", "--dmax", "4", "--specs", "5"],
    "reproduce": ["reproduce"],
    "table": ["table", "--dmax", "4"],
    "invariant": ["invariant", "--d", "6", "--points", "2"],
}


@pytest.mark.parametrize("json_flag", ["", "--json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(capsys, name, json_flag):
    argv = COMMANDS[name] + ["--seed", "7"] + ([json_flag] if json_flag else [])
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}{'.json' if json_flag else ''}.txt").read_text()
    assert capsys.readouterr().out == expected
