"""Command-line surface for the curve-count engine and its tables.

Each command returns its JSON payload and its plain-text lines; ``main``
alone prints one of them and sets the exit code: 0 on success, 1 when a
verification or reproduction check fails, 2 on usage errors.  All
rational numbers are printed exactly, as ``p/q`` strings; JSON payloads
carry a ``schema`` field and identical invocations produce byte-identical
output.
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
    _draw,
    reproduce,
    two_point_pairing,
    verify_identities,
)
from .localization import graph_sum
from .scalars import format_rational

SCHEMA = "1"

# The most specializations one run may ask for.  The sampler draws from
# about 1.4 million points and rejects few: 1000 points at degree 12 took
# 1012 distinct draws at seed 0, far inside its budget of 10 000.
MAX_POINTS = 1000

# The highest degree ``invariant`` and ``graphsum`` compute.  A pass's time
# grows about as d^3.3 and its memory with it, so the bound keeps a run at
# any accepted degree to minutes rather than hours; it stays near the
# headline degree, the largest that two points reach within 60 s.
MAX_DEGREE = 40

# The highest degree ``graphs`` enumerates.  The graph count grows about
# fivefold per degree: punctual(0;0,1) has 47 876 graphs at degree 8, listed
# in about a second, 232 769 at 9 (123 MiB) and 1 135 583 at 10 (540 MiB).
MAX_GRAPH_DEGREE = 8

# Every bounded option takes integers from 1 up to its most; a command may
# set its own most for an option.
_BOUNDS = {
    "d": MAX_DEGREE, "points": MAX_POINTS, "specs": MAX_POINTS, "dmax": RECORDED_TOP_DEGREE,
}
_COMMAND_BOUNDS = {"graphs": {"d": MAX_GRAPH_DEGREE}}

# What a command returns: its JSON payload and its plain-text stdout lines.
Output = tuple[dict, list[str]]


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


def _cmd_catalog(args: argparse.Namespace) -> Output:
    summary = catalog_summary()
    points = fixed_points()
    curves = curve_catalog()
    payload = {
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
    lines = [f"fixed points: {summary['fixed_points']}", *(f"  {p}" for p in points)]
    lines.append(
        f"invariant curves: {summary['curves']} "
        f"({summary['pair_curves']} pair, {summary['punctual_curves']} punctual)"
    )
    for c in curves:
        ends = ", ".join(str(p) for p in c.endpoints)
        lines.append(f"  {c.name}: class multiple {c.beta}, endpoints {ends}")
    return payload, lines


def _cmd_graphs(args: argparse.Namespace) -> Output:
    graphs = enumerate_graphs(args.family, args.d)
    orders = [automorphism_order(g) for g in graphs]
    payload = {
        "family": args.family.name,
        "d": args.d,
        "count": len(graphs),
        "graphs": [
            {
                "vertices": [str(v) for v in g.vertices],
                "marks": list(g.marks),
                "edges": [
                    {"head": e.head, "tail": e.tail, "curve": e.curve.name, "degree": e.degree}
                    for e in g.edges
                ],
                "automorphisms": order,
            }
            for g, order in zip(graphs, orders)
        ],
    }
    lines = [f"family {args.family.name}, degree {args.d}: {len(graphs)} stable graphs"]
    for n, (g, order) in enumerate(zip(graphs, orders), start=1):
        edges = "; ".join(
            f"v{e.head} --[{e.curve.name} x{e.degree}]-- v{e.tail}" for e in g.edges
        )
        labels = ", ".join(f"v{idx} = {point}" for idx, point in enumerate(g.vertices))
        marks = ", ".join(f"v{idx}" for idx in g.marks)
        lines += [f"  #{n} |A| = {order}", f"     {labels}",
                  f"     edges: {edges}; marks at {marks}"]
    return payload, lines


def _cmd_graphsum(args: argparse.Namespace) -> Output:
    point = _draw(1, args.d, args.seed)[0]
    value = format_rational(graph_sum(args.family, args.d, point))
    w, z = point.as_strings()
    payload = {
        "family": args.family.name,
        "d": args.d,
        "seed": args.seed,
        "specialization": {"w": w, "z": z},
        "value": value,
    }
    lines = [
        f"family {args.family.name}, degree {args.d}",
        f"specialization: w = {w}, z = {z} (seed {args.seed})",
        f"graph sum = {value}",
    ]
    return payload, lines


def _cmd_invariant(args: argparse.Namespace) -> Output:
    result = two_point_pairing(args.d, num_points=args.points, seed=args.seed)
    value, invariant = format_rational(result.value), format_rational(result.invariant)
    rows = [{"w": w, "z": z, "total": value} for w, z in (p.as_strings() for p in result.points)]
    payload = {
        "d": args.d,
        "ab": value,
        "invariant": invariant,
        "specializations": rows,
        "verified_constant": result.verified_constant,
    }
    lines = [f"degree {args.d}: invariant = {invariant}", f"raw two-point pairing = {value}"]
    if result.verified_constant:
        lines.append(f"constant across {len(rows)} specializations (seed {args.seed}): yes")
    else:
        lines.append(
            f"constancy not checked: {len(rows)} specialization (seed {args.seed}); "
            "use --points 2 or more"
        )
    return payload, lines


def _check_report(checks: list[IdentityCheck], payload: dict, summary: str) -> Output:
    """The check records in ``payload`` with ``all_passed``, and as PASS/FAIL lines."""
    failures = sum(1 for c in checks if not c.passed)
    payload = {
        **payload,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "all_passed": not failures,
    }
    lines = [
        f"PASS {c.name}" if c.passed
        else f"FAIL {c.name}" + (f" ({c.detail})" if c.detail else "")
        for c in checks
    ]
    lines.append(f"{len(checks) - failures}/{len(checks)} {summary}")
    return payload, lines


def _cmd_verify(args: argparse.Namespace) -> Output:
    checks = verify_identities(d_max=args.dmax, num_specs=args.specs, seed=args.seed)
    payload = {"dmax": args.dmax, "specializations": args.specs, "seed": args.seed}
    return _check_report(checks, payload, "identities hold")


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


def _render_table(
    title: str, header: list[str], rows: list[list[str]], markdown: bool
) -> list[str]:
    if markdown:
        return [
            f"### {title}",
            "| " + " | ".join(header) + " |",
            "|" + "|".join(" --- " for _ in header) + "|",
            *("| " + " | ".join(row) + " |" for row in rows),
            "",
        ]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    return [
        title,
        "  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        *("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows),
        "",
    ]


def _cmd_table(args: argparse.Namespace) -> Output:
    """The scaled values f(d) and the count tables that ``--kind`` names."""
    degrees = range(1, args.dmax + 1)
    # Top degree first: its recursion pass on each curve system and point
    # then serves every lower degree.
    results = {d: two_point_pairing(d, seed=args.seed) for d in reversed(degrees)}
    f_values = [results[d].scaled for d in degrees]
    header = [f"d={d}" for d in degrees]
    kinds = ("one", "two", "three") if args.kind == "all" else (args.kind,)
    payload = {"dmax": args.dmax, "f": [format_rational(v) for v in f_values]}
    lines = [
        "scaled two-point values: "
        + ", ".join(f"f({d}) = {format_rational(v)}" for d, v in enumerate(f_values, start=1)),
        "",
    ]
    if "one" in kinds:
        rows = [
            {
                "class": format_monomial(mono),
                "values": [format_rational(one_point(mono, d)) for d in degrees],
            }
            for mono in _basis_monomials(4)
        ]
        payload["one_point"] = rows
        lines += _render_table(
            "one-point counts (middle-degree classes)",
            ["class", *header],
            [[r["class"], *r["values"]] for r in rows],
            args.markdown,
        )
    if "two" in kinds:
        tables = [two_point_table(d, f_values[d - 1]) for d in degrees]
        rows, zeros = _nonzero_rows(tables)
        payload["two_point"] = {"nonzero": rows, "zero_pairs": zeros}
        lines += _render_table(
            f"two-point counts (nonzero rows; {zeros} of {len(tables[0])} pairs vanish)",
            ["first class", "second class", *header],
            [[*r["classes"], *r["values"]] for r in rows],
            args.markdown,
        )
    if "three" in kinds:
        tables = [three_point_table(d, f_values[:d]) for d in degrees]
        rows, zeros = _nonzero_rows(tables)
        payload["three_point"] = {"nonzero": rows, "zero_triples": zeros}
        lines += _render_table(
            f"three-point counts (nonzero rows; {zeros} of {len(tables[0])} triples vanish)",
            ["classes", *header],
            [[" , ".join(r["classes"]), *r["values"]] for r in rows],
            args.markdown,
        )
    return payload, lines


def _cmd_reproduce(args: argparse.Namespace) -> Output:
    return _check_report(reproduce(args.seed), {"seed": args.seed}, "checks passed")


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
    for name, most in {**_BOUNDS, **_COMMAND_BOUNDS.get(args.command, {})}.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < 1:
            parser.error(f"--{name} must be a positive integer")
        if value > most:
            parser.error(f"--{name} must be at most {most}")
    if "family" in args:
        args.family = _resolve_family(parser, args)
    try:
        payload, lines = args.handler(args)
        failed = payload.get("all_passed") is False
    except ConsistencyError as exc:
        payload, lines, failed = {"error": str(exc)}, [f"FAIL: {exc}"], True
    if args.json:
        text = json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    sys.stdout.write(text + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
