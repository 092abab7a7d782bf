"""Command-line surface for the curve-count engine and its tables.

Exit codes: 0 on success, 1 when a verification or reproduction check
fails, 2 on usage errors.  All rational numbers are printed exactly,
as ``p/q`` strings; JSON payloads carry a ``schema`` field and identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fock import (
    _basis_monomials,
    format_monomial,
    one_point,
    three_point_table,
    two_point_table,
)
from .graphs import (
    Family,
    catalog_summary,
    enumerate_graphs,
    automorphism_order,
    pair_family,
    punctual_family,
)
from .geometry import curve_catalog, fixed_points
from .invariants import (
    ConsistencyError,
    IdentityCheck,
    RECORDED_TOP_DEGREE,
    reproduce,
    two_point_pairing,
    verify_identities,
)
from .localization import forbidden_weights, graph_sum
from .scalars import format_rational, sample_specializations

SCHEMA = "1"

# The most specializations one run may ask for.  The sampler draws from
# about 1.4 million points and rejects few: 1000 points at degree 12 took
# 1012 distinct draws at seed 0, far inside its budget of 10 000.
MAX_POINTS = 1000

# Every bounded option takes integers from 1 up to its most, if it has one.
_BOUNDS = {"d": None, "points": MAX_POINTS, "specs": MAX_POINTS, "dmax": RECORDED_TOP_DEGREE}


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    _emit(json.dumps(payload, indent=2, sort_keys=True))


def _resolve_family(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Family:
    """The family that ``--family``, ``--i``, ``--j`` and ``--k`` name.

    The library rejects charts and strata that name no family; that
    ``ValueError`` becomes the usage error.
    """
    kind = {"S": "pair", "T": "punctual"}.get(args.family, args.family)
    if kind not in ("pair", "punctual"):
        parser.error(f"unknown family {args.family!r}; use pair or punctual")
    if kind == "pair":
        if args.i is None or args.j is None:
            parser.error("pair family needs --i and --j chart indices")
        if args.k is not None:
            parser.error("pair family takes no --k")
        make, indices = pair_family, (args.i, args.j)
    else:
        if args.i is None or args.j is None or args.k is None:
            parser.error("punctual family needs --i (chart) and --j --k (strata)")
        make, indices = punctual_family, (args.i, args.j, args.k)
    try:
        return make(*indices)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_catalog(args: argparse.Namespace) -> int:
    summary = catalog_summary()
    points = fixed_points()
    curves = curve_catalog()
    if args.json:
        _emit_json(
            {
                "summary": summary,
                "fixed_points": [str(p) for p in points],
                "curves": [
                    {
                        "name": c.name,
                        "kind": c.kind,
                        "contracted_class_multiple": c.beta,
                        "endpoints": [str(p) for p in c.endpoints],
                    }
                    for c in curves
                ],
            }
        )
        return 0
    _emit(f"fixed points: {summary['fixed_points']}")
    for p in points:
        _emit(f"  {p}")
    _emit(
        f"invariant curves: {summary['curves']} "
        f"({summary['pair_curves']} pair, {summary['punctual_curves']} punctual)"
    )
    for c in curves:
        ends = ", ".join(str(p) for p in c.endpoints)
        _emit(f"  {c.name}: class multiple {c.beta}, endpoints {ends}")
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    graphs = enumerate_graphs(args.family, args.d)
    if args.json:
        _emit_json(
            {
                "family": args.family.name,
                "d": args.d,
                "count": len(graphs),
                "graphs": [
                    {
                        "vertices": [str(v) for v in g.vertices],
                        "marks": list(g.marks),
                        "edges": [
                            {
                                "head": e.head,
                                "tail": e.tail,
                                "curve": e.curve.name,
                                "degree": e.degree,
                            }
                            for e in g.edges
                        ],
                        "automorphisms": automorphism_order(g),
                    }
                    for g in graphs
                ],
            }
        )
        return 0
    _emit(f"family {args.family.name}, degree {args.d}: {len(graphs)} stable graphs")
    for n, g in enumerate(graphs, start=1):
        edges = "; ".join(
            f"v{e.head} --[{e.curve.name} x{e.degree}]-- v{e.tail}" for e in g.edges
        )
        labels = ", ".join(f"v{idx} = {point}" for idx, point in enumerate(g.vertices))
        marks = ", ".join(f"v{idx}" for idx in g.marks)
        _emit(f"  #{n} |A| = {automorphism_order(g)}")
        _emit(f"     {labels}")
        _emit(f"     edges: {edges}; marks at {marks}")
    return 0


def _cmd_graphsum(args: argparse.Namespace) -> int:
    point = sample_specializations(1, seed=args.seed, forbidden=forbidden_weights(args.d))[0]
    value = graph_sum(args.family, args.d, point)
    w, z = point.as_strings()
    if args.json:
        _emit_json(
            {
                "family": args.family.name,
                "d": args.d,
                "seed": args.seed,
                "specialization": {"w": w, "z": z},
                "value": format_rational(value),
            }
        )
        return 0
    _emit(f"family {args.family.name}, degree {args.d}")
    _emit(f"specialization: w = {w}, z = {z} (seed {args.seed})")
    _emit(f"graph sum = {format_rational(value)}")
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    result = two_point_pairing(args.d, num_points=args.points, seed=args.seed)
    rows = [
        {
            "w": pt.as_strings()[0],
            "z": pt.as_strings()[1],
            "total": format_rational(result.value),
        }
        for pt in result.points
    ]
    if args.json:
        _emit_json(
            {
                "d": args.d,
                "ab": format_rational(result.value),
                "invariant": format_rational(result.invariant),
                "specializations": rows,
                "verified_constant": result.verified_constant,
            }
        )
        return 0
    _emit(f"degree {args.d}: invariant = {format_rational(result.invariant)}")
    _emit(f"raw two-point pairing = {format_rational(result.value)}")
    if result.verified_constant:
        _emit(f"constant across {len(rows)} specializations (seed {args.seed}): yes")
    else:
        _emit(
            f"constancy not checked: {len(rows)} specialization (seed {args.seed}); "
            "use --points 2 or more"
        )
    return 0


def _report_checks(
    args: argparse.Namespace, checks: list[IdentityCheck], payload: dict, summary: str
) -> int:
    """Print check records as PASS/FAIL lines or as JSON; exit 1 on any failure."""
    failures = sum(1 for c in checks if not c.passed)
    if args.json:
        _emit_json(
            {
                **payload,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in checks
                ],
                "all_passed": not failures,
            }
        )
        return 1 if failures else 0
    for c in checks:
        if c.passed:
            _emit(f"PASS {c.name}")
        else:
            _emit(f"FAIL {c.name}" + (f" ({c.detail})" if c.detail else ""))
    _emit(f"{len(checks) - failures}/{len(checks)} {summary}")
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_identities(d_max=args.dmax, num_specs=args.specs, seed=args.seed)
    payload = {"dmax": args.dmax, "specializations": args.specs, "seed": args.seed}
    return _report_checks(args, checks, payload, "identities hold")


def _one_point_rows(dmax: int) -> list[dict]:
    return [
        {
            "class": format_monomial(mono),
            "values": [format_rational(one_point(mono, d)) for d in range(1, dmax + 1)],
        }
        for mono in _basis_monomials(4)
    ]


def _nonzero_rows(tables: list[dict]) -> tuple[list[dict], int]:
    """Rows of the keys nonzero in some degree's table, and the count of the rest.

    ``tables`` holds one table per degree, in degree order, all on the same keys.
    """
    keys = sorted(key for key in tables[0] if any(table[key] != 0 for table in tables))
    rows = [
        {
            "classes": [format_monomial(m) for m in key],
            "values": [format_rational(table[key]) for table in tables],
        }
        for key in keys
    ]
    return rows, len(tables[0]) - len(keys)


def _render_table(title: str, header: list[str], rows: list[list[str]], markdown: bool) -> None:
    if markdown:
        _emit(f"### {title}")
        _emit("| " + " | ".join(header) + " |")
        _emit("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            _emit("| " + " | ".join(row) + " |")
        _emit("")
        return
    _emit(title)
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    _emit("  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        _emit("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)))
    _emit("")


def _cmd_table(args: argparse.Namespace) -> int:
    dmax = args.dmax
    degrees = range(1, dmax + 1)
    # Top degree first: its recursion pass on each curve system and point
    # then serves every lower degree.
    results = {d: two_point_pairing(d, seed=args.seed) for d in reversed(degrees)}
    f_values = [results[d].scaled for d in degrees]
    degree_header = [f"d={d}" for d in degrees]
    one_rows = _one_point_rows(dmax)
    two_tables = [two_point_table(d, f_values[d - 1]) for d in degrees]
    three_tables = [three_point_table(d, f_values[:d]) for d in degrees]
    two_rows, two_zeros = _nonzero_rows(two_tables)
    three_rows, three_zeros = _nonzero_rows(three_tables)
    if args.json:
        payload = {
            "dmax": dmax,
            "f": [format_rational(v) for v in f_values],
        }
        if args.kind in ("one", "all"):
            payload["one_point"] = one_rows
        if args.kind in ("two", "all"):
            payload["two_point"] = {"nonzero": two_rows, "zero_pairs": two_zeros}
        if args.kind in ("three", "all"):
            payload["three_point"] = {"nonzero": three_rows, "zero_triples": three_zeros}
        _emit_json(payload)
        return 0
    md = args.markdown
    _emit(
        "scaled two-point values: "
        + ", ".join(f"f({d}) = {format_rational(v)}" for d, v in enumerate(f_values, start=1))
    )
    _emit("")
    if args.kind in ("one", "all"):
        _render_table(
            "one-point counts (middle-degree classes)",
            ["class", *degree_header],
            [[r["class"], *r["values"]] for r in one_rows],
            md,
        )
    if args.kind in ("two", "all"):
        _render_table(
            f"two-point counts (nonzero rows; {two_zeros} of {len(two_tables[0])} pairs vanish)",
            ["first class", "second class", *degree_header],
            [[r["classes"][0], r["classes"][1], *r["values"]] for r in two_rows],
            md,
        )
    if args.kind in ("three", "all"):
        _render_table(
            f"three-point counts (nonzero rows; {three_zeros} of {len(three_tables[0])} "
            "triples vanish)",
            ["classes", *degree_header],
            [[" , ".join(r["classes"]), *r["values"]] for r in three_rows],
            md,
        )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    return _report_checks(args, reproduce(args.seed), {"seed": args.seed}, "checks passed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilb3",
        description=(
            "Exact curve counts on the Hilbert scheme of three points in the "
            "plane, via torus localization over stable graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, help="pair or punctual")
    family.add_argument("--i", type=int, default=None, help="principal chart")
    family.add_argument("--j", type=int, default=None, help="second chart, or first stratum")
    family.add_argument("--k", type=int, default=None, help="second stratum (punctual only)")
    family.add_argument("--d", type=int, required=True, help="total degree")
    degrees = argparse.ArgumentParser(add_help=False)
    degrees.add_argument("--dmax", type=int, default=RECORDED_TOP_DEGREE, help="top degree")

    def command(name, handler, helptext, *parents):
        p = sub.add_parser(name, help=helptext, parents=[*parents, json_out])
        p.set_defaults(handler=handler, parser=p)
        return p

    command("catalog", _cmd_catalog, "list torus-fixed points and invariant curves")
    command("graphs", _cmd_graphs, "enumerate the stable graphs of one family and degree", family)
    command(
        "graphsum",
        _cmd_graphsum,
        "evaluate one family's graph sum at a sampled specialization",
        family,
        seeded,
    )
    p = command("invariant", _cmd_invariant, "compute the two-point invariant in one degree", seeded)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--points", type=int, default=3, help="specializations to compare")
    p = command("verify", _cmd_verify, "check every closed-form identity pointwise", degrees, seeded)
    p.add_argument("--specs", type=int, default=5, help="specializations per identity")
    p = command("table", _cmd_table, "regenerate the count tables from the engine", degrees, seeded)
    p.add_argument("--kind", choices=("one", "two", "three", "all"), default="all")
    p.add_argument("--markdown", action="store_true")
    command("reproduce", _cmd_reproduce, "re-derive every recorded number and report", seeded)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    parser = args.parser  # the subcommand's, as for argparse's own errors
    for name, most in _BOUNDS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < 1:
            parser.error(f"--{name} must be a positive integer")
        if most is not None and value > most:
            parser.error(f"--{name} must be at most {most}")
    if "family" in args:
        args.family = _resolve_family(parser, args)
    try:
        return args.handler(args)
    except ConsistencyError as exc:
        if args.json:
            _emit_json({"error": str(exc)})
        else:
            _emit(f"FAIL: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
