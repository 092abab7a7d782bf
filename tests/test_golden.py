"""Golden stdout: every subcommand prints exactly the recorded bytes.

The files under ``tests/golden`` hold the stdout of each command, plain and
``--json``; the commands that sample specializations run at seed 7.  Any
change to the engine that moves a value, an ordering or a line of output
fails here byte for byte.
"""

import pytest

from hilb3 import cli
from hilb3.cli import main

from oracles import COMMANDS, GOLDEN


@pytest.mark.parametrize("json_flag", ["", "--json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(capsys, name, json_flag):
    argv = COMMANDS[name] + ([json_flag] if json_flag else [])
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}{'.json' if json_flag else ''}.txt").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("json_flag", ["", "--json"])
def test_table_of_one_kind_builds_no_other_table(capsys, monkeypatch, json_flag):
    def refuse(*args, **kwargs):
        raise AssertionError("table --kind two built a table it does not print")

    monkeypatch.setattr(cli, "one_point", refuse)
    monkeypatch.setattr(cli, "three_point_table", refuse)
    argv = COMMANDS["table_two"] + ([json_flag] if json_flag else [])
    assert main(argv) == 0
    expected = (GOLDEN / f"table_two{'.json' if json_flag else ''}.txt").read_text()
    assert capsys.readouterr().out == expected
