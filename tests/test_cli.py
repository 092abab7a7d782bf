"""Command-line behavior: exit codes, output shape and determinism."""

import argparse
import json
from fractions import Fraction

import pytest

from hilb3 import cli, invariants
from hilb3.cli import build_parser, main
from hilb3.invariants import IdentityCheck
from hilb3.localization import forbidden_weights
from hilb3.scalars import sample_specializations


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_catalog_plain(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert "fixed points: 21" in out
    assert "invariant curves: 15" in out


def test_catalog_json(capsys):
    code, out = run_cli(capsys, "catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["summary"]["fixed_points"] == 21
    assert len(payload["curves"]) == 15


def test_invariant_plain(capsys):
    code, out = run_cli(capsys, "invariant", "--d", "1")
    assert code == 0
    assert "invariant = -27" in out


def test_invariant_json_shape(capsys):
    code, out = run_cli(capsys, "invariant", "--d", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["ab"] == "81/2"
    assert payload["invariant"] == "27/2"
    assert payload["verified_constant"] is True
    assert len(payload["specializations"]) == 3
    for row in payload["specializations"]:
        assert set(row) == {"w", "z", "total"}
        assert row["total"] == "81/2"


def test_invariant_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "invariant", "--d", "1", "--json")
    _, second = run_cli(capsys, "invariant", "--d", "1", "--json")
    assert first == second


def test_graphs_empty_listing_is_success(capsys):
    # The far-stratum family has no graphs in degree one; an empty listing
    # is an answer, not an error.
    code, out = run_cli(
        capsys, "graphs", "--family", "T", "--i", "0", "--j", "1", "--k", "2", "--d", "1"
    )
    assert code == 0
    assert "0 stable graphs" in out


def test_graphs_json_counts(capsys):
    code, out = run_cli(
        capsys, "graphs", "--family", "pair", "--i", "0", "--j", "1", "--d", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert len(payload["graphs"]) == 3
    orders = sorted(g["automorphisms"] for g in payload["graphs"])
    assert orders == [1, 1, 2]


def test_graphs_alias_matches_long_name(capsys):
    _, alias = run_cli(
        capsys, "graphs", "--family", "S", "--i", "0", "--j", "1", "--d", "2", "--json"
    )
    _, full = run_cli(
        capsys, "graphs", "--family", "pair", "--i", "0", "--j", "1", "--d", "2", "--json"
    )
    assert alias == full


def test_graphsum_json(capsys):
    code, out = run_cli(
        capsys, "graphsum", "--family", "pair", "--i", "0", "--j", "1", "--d", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"family", "d", "specialization", "value"}
    assert "/" in payload["value"] or payload["value"].lstrip("-").isdigit()


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--dmax", "1")
    assert code == 0
    assert "FAIL" not in out
    assert "identities hold" in out


def test_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--dmax", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_table_markdown(capsys):
    code, out = run_cli(capsys, "table", "--dmax", "2", "--markdown")
    assert code == 0
    assert "| class |" in out or "| first class |" in out
    assert "f(1) = -27" in out
    assert "f(2) = 27" in out


def test_table_json_selects_kind(capsys):
    code, out = run_cli(capsys, "table", "--dmax", "1", "--kind", "two", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "two_point" in payload
    assert "one_point" not in payload
    assert payload["two_point"]["zero_pairs"] == 27


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["graphs", "--family", "pair", "--i", "0", "--d", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["graphs", "--family", "nope", "--i", "0", "--j", "1", "--d", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["invariant", "--d", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["table", "--dmax", "9"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_pair_family_rejects_extra_stratum():
    with pytest.raises(SystemExit) as info:
        main(["graphs", "--family", "pair", "--i", "0", "--j", "1", "--k", "2", "--d", "1"])
    assert info.value.code == 2


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return info.value.code, captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariant", "--d", "0"], "--d must be a positive integer"),
        (["graphs", "--family", "pair", "--i", "0", "--j", "0", "--d", "1"],
         "no pair curve for charts (0,0)"),
        (["graphsum", "--family", "punctual", "--i", "0", "--j", "1", "--d", "1"],
         "punctual family needs --i (chart) and --j --k (strata)"),
    ],
)
def test_usage_errors_of_the_cli_checks_name_the_subcommand(capsys, argv, message):
    # argparse reports a missing option with the subcommand's usage; the
    # bounds and family checks must print the same usage and prefix.
    command = argv[0]
    _, own = _usage_error(capsys, command)
    code, err = _usage_error(capsys, *argv)
    assert code == 2
    assert err.startswith(f"usage: hilb3 {command} ")
    assert err.split("error:")[0] == own.split("error:")[0]
    assert err.endswith(f"hilb3 {command}: error: {message}\n")


def test_graphs_degree_zero_is_usage_error(capsys):
    code, err = _usage_error(capsys, "graphs", "--family", "pair", "--i", "0", "--j", "1", "--d", "0")
    assert code == 2
    assert "--d must be a positive integer" in err


def test_graphs_degree_past_the_bound_is_usage_error_before_enumeration(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_graphs", lambda family, d: pytest.fail("enumerated"))
    degree = str(cli.MAX_GRAPH_DEGREE + 1)
    code, err = _usage_error(capsys, "graphs", "--family", "pair", "--i", "0", "--j", "1",
                             "--d", degree)
    assert code == 2
    assert err.endswith(f"hilb3 graphs: error: --d must be at most {cli.MAX_GRAPH_DEGREE}\n")


def test_graphs_enumerates_up_to_the_bound(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_graphs", lambda family, d: ())
    code, out = run_cli(capsys, "graphs", "--family", "pair", "--i", "0", "--j", "1",
                        "--d", str(cli.MAX_GRAPH_DEGREE))
    assert code == 0
    assert out == f"family pair(0,1), degree {cli.MAX_GRAPH_DEGREE}: 0 stable graphs\n"


@pytest.mark.parametrize(
    "argv, handler",
    [(["graphsum", "--family", "pair", "--i", "0", "--j", "1"], "_cmd_graphsum"),
     (["invariant"], "_cmd_invariant")],
)
def test_the_graph_degree_bound_is_for_graphs_alone(capsys, monkeypatch, argv, handler):
    monkeypatch.setattr(cli, handler, lambda args: ({"d": args.d}, [f"d = {args.d}"]))
    code, out = run_cli(capsys, *argv, "--d", str(cli.MAX_GRAPH_DEGREE + 1))
    assert (code, out) == (0, f"d = {cli.MAX_GRAPH_DEGREE + 1}\n")


class _Reached(Exception):
    """Raised where a command would start computing."""


def _never_compute(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize(
    "argv",
    [["graphsum", "--family", "pair", "--i", "0", "--j", "1"], ["invariant", "--points", "2"]],
    ids=["graphsum", "invariant"],
)
def test_degree_past_the_bound_is_usage_error_before_any_pass(capsys, monkeypatch, argv):
    for name in ("two_point_pairing", "graph_sum", "_draw"):
        monkeypatch.setattr(cli, name, _never_compute)
    code, err = _usage_error(capsys, *argv, "--d", str(cli.MAX_DEGREE + 1))
    assert cli.MAX_DEGREE == 40
    assert code == 2
    assert err.endswith(f"hilb3 {argv[0]}: error: --d must be at most 40\n")
    with pytest.raises(_Reached):
        main([*argv, "--d", str(cli.MAX_DEGREE)])


def test_graphsum_degree_zero_is_usage_error(capsys):
    code, err = _usage_error(
        capsys, "graphsum", "--family", "pair", "--i", "0", "--j", "1", "--d", "0"
    )
    assert code == 2
    assert "--d must be a positive integer" in err


def test_invariant_zero_points_is_usage_error(capsys):
    code, err = _usage_error(capsys, "invariant", "--d", "1", "--points", "0")
    assert code == 2
    assert "--points must be a positive integer" in err


def test_invariant_points_past_the_sampler_is_usage_error(capsys):
    code, err = _usage_error(capsys, "invariant", "--d", "1", "--points", "10001")
    assert code == 2
    assert "--points must be at most 1000" in err


def test_verify_specs_past_the_sampler_is_usage_error(capsys):
    code, err = _usage_error(capsys, "verify", "--dmax", "1", "--specs", "10001")
    assert code == 2
    assert "--specs must be at most 1000" in err


def test_sampler_meets_the_point_bound():
    forbidden = forbidden_weights(4)
    assert len(sample_specializations(cli.MAX_POINTS, seed=0, forbidden=forbidden)) == cli.MAX_POINTS


def test_verify_zero_specs_is_usage_error(capsys):
    code, err = _usage_error(capsys, "verify", "--dmax", "1", "--specs", "0")
    assert code == 2
    assert "--specs must be a positive integer" in err


def test_verify_negative_specs_is_usage_error(capsys):
    code, err = _usage_error(capsys, "verify", "--dmax", "1", "--specs", "-3")
    assert code == 2
    assert "--specs must be a positive integer" in err


def test_invariant_single_point_does_not_claim_constancy(capsys):
    code, out = run_cli(capsys, "invariant", "--d", "1", "--points", "1")
    assert code == 0
    assert "invariant = -27" in out
    assert "constant across" not in out
    assert "constancy not checked" in out


def test_invariant_single_point_json_is_not_verified(capsys):
    code, out = run_cli(capsys, "invariant", "--d", "1", "--points", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_constant"] is False
    assert len(payload["specializations"]) == 1


def test_invariant_two_points_output_is_pinned(capsys):
    code, out = run_cli(capsys, "invariant", "--d", "2", "--points", "2")
    assert code == 0
    assert out == (
        "degree 2: invariant = 27/2\n"
        "raw two-point pairing = 81/2\n"
        "constant across 2 specializations (seed 0): yes\n"
    )


MIXED_CHECKS = [
    IdentityCheck("holds", True),
    IdentityCheck("breaks with a reason", False, "1 != 2"),
    IdentityCheck("breaks silently", False),
]


@pytest.mark.parametrize(
    "argv, source, summary",
    [
        (["verify", "--dmax", "1"], "verify_identities", "1/3 identities hold"),
        (["reproduce"], "reproduce", "1/3 checks passed"),
    ],
    ids=["verify", "reproduce"],
)
def test_failing_checks_print_fail_lines_and_exit_one(
    capsys, monkeypatch, argv, source, summary
):
    monkeypatch.setattr(cli, source, lambda *args, **kwargs: MIXED_CHECKS)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out == (
        "PASS holds\n"
        "FAIL breaks with a reason (1 != 2)\n"
        "FAIL breaks silently\n"
        f"{summary}\n"
    )
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["checks"] == [
        {"name": "holds", "passed": True, "detail": ""},
        {"name": "breaks with a reason", "passed": False, "detail": "1 != 2"},
        {"name": "breaks silently", "passed": False, "detail": ""},
    ]


# Each subcommand's options with their defaults and whether they are
# required.  Shared options come from parent parsers; no command may gain
# or lose one through them.
OPTIONS = {
    "catalog": {"--json": (False, False)},
    "graphs": {
        "--family": (None, True),
        "--i": (None, False),
        "--j": (None, False),
        "--k": (None, False),
        "--d": (None, True),
        "--json": (False, False),
    },
    "graphsum": {
        "--family": (None, True),
        "--i": (None, False),
        "--j": (None, False),
        "--k": (None, False),
        "--d": (None, True),
        "--json": (False, False),
        "--seed": (0, False),
    },
    "invariant": {
        "--d": (None, True),
        "--points": (3, False),
        "--seed": (0, False),
        "--json": (False, False),
    },
    "verify": {
        "--dmax": (4, False),
        "--specs": (5, False),
        "--seed": (0, False),
        "--json": (False, False),
    },
    "table": {
        "--kind": ("all", False),
        "--dmax": (4, False),
        "--seed": (0, False),
        "--json": (False, False),
        "--markdown": (False, False),
    },
    "reproduce": {"--seed": (0, False), "--json": (False, False)},
}


def test_each_subcommand_keeps_its_options_and_defaults():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {
            option: (action.default, action.required)
            for action in command._actions
            if action.dest != "help"
            for option in action.option_strings
        }
        for name, command in sub.choices.items()
    }
    assert declared == OPTIONS


@pytest.mark.parametrize(
    "dmax, message",
    [("5", "--dmax must be at most 4"), ("0", "--dmax must be a positive integer")],
)
@pytest.mark.parametrize("command", ["verify", "table"])
def test_dmax_outside_the_recorded_degrees_is_usage_error(capsys, command, dmax, message):
    code, err = _usage_error(capsys, command, "--dmax", dmax)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "indices, message",
    [
        (["--family", "pair", "--i", "0", "--j", "0"], "no pair curve for charts (0,0)"),
        (["--family", "S", "--i", "0", "--j", "3"], "no pair curve for charts (0,3)"),
        (["--family", "punctual", "--i", "3", "--j", "0", "--k", "1"],
         "no punctual curve for (3;0,1)"),
        (["--family", "T", "--i", "0", "--j", "2", "--k", "1"], "need 0 <= j < k <= 2, got (2,1)"),
    ],
)
@pytest.mark.parametrize("command", ["graphs", "graphsum"])
def test_family_indices_the_library_rejects_are_usage_errors(capsys, command, indices, message):
    code, err = _usage_error(capsys, command, *indices, "--d", "1")
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--d", "1"],
        ["table", "--dmax", "1"],
        ["invariant", "--d", "1", "--json"],
        ["table", "--dmax", "1", "--json"],
    ],
    ids=["invariant", "table", "invariant-json", "table-json"],
)
def test_varying_totals_print_a_fail_line_and_exit_one(capsys, monkeypatch, argv):
    evaluated = []

    def varying_total(d, point):
        evaluated.append(point)
        return Fraction(len(evaluated))

    monkeypatch.setattr(invariants, "two_point_total", varying_total)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    message = "two-point total varies across specializations in degree 1: "
    if "--json" in argv:
        payload = json.loads(out)
        assert sorted(payload) == ["error", "schema"]
        assert payload["schema"] == "1"
        assert payload["error"].startswith(message)
    else:
        assert out.startswith("FAIL: " + message)
        assert out.count("\n") == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
def test_varying_totals_are_printed_exactly_with_their_points(capsys, monkeypatch, json_flag):
    evaluated = []

    def varying_total(d, point):
        evaluated.append(point)
        return Fraction(83 if len(evaluated) == 1 else 85, 2)

    monkeypatch.setattr(invariants, "two_point_total", varying_total)
    code, out = run_cli(capsys, "invariant", "--d", "1", "--points", "2", *json_flag)
    assert code == 1
    text = json.loads(out)["error"] if json_flag else out
    assert "Fraction(" not in text
    assert len(evaluated) == 2
    first, second = (point.as_strings() for point in evaluated)
    assert f"83/2 at w={first[0]}, z={first[1]}; 85/2 at w={second[0]}, z={second[1]}" in text


def test_a_pairing_that_varies_fails_reproduce_and_exits_one(capsys, monkeypatch):
    # Degree 2's pairing raises, so its two pins and every check that reads
    # all four pairings are left out: 55 records become 39, and only the
    # degree-2 record fails.
    real_total = invariants.two_point_total
    evaluated = []

    def varying_at_degree_2(d, point):
        if d != 2:
            return real_total(d, point)
        evaluated.append(point)
        return Fraction(len(evaluated))

    monkeypatch.setattr(invariants, "two_point_total", varying_at_degree_2)
    checks = invariants.reproduce()
    assert len(checks) == 39
    failing = [c for c in checks if not c.passed]
    assert [c.name for c in failing] == ["degree 2 invariant computes"]
    assert failing[0].detail.startswith(
        "two-point total varies across specializations in degree 2: "
    )
    code, out = run_cli(capsys, "reproduce")
    assert code == 1
    assert "FAIL degree 2 invariant computes (two-point total varies" in out
    assert out.endswith("38/39 checks passed\n")
