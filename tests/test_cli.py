"""Command-line behavior: exit codes, output shape and determinism."""

import json

import pytest

from hilb3 import cli
from hilb3.cli import main
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


def test_graphs_degree_zero_is_usage_error(capsys):
    code, err = _usage_error(capsys, "graphs", "--family", "pair", "--i", "0", "--j", "1", "--d", "0")
    assert code == 2
    assert "--d must be a positive integer" in err


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
