"""One benchmark job, run in a fresh interpreter by ``perfbench/run.py``.

Usage: ``python3 perfbench/job.py '<job spec as JSON>'`` with ``src`` on
``PYTHONPATH``.  The spec names one command:

* ``invariant``, ``verify``, ``reproduce``, ``table``: the ``hilb3`` command
  line, called as ``hilb3.cli.main(argv)`` exactly as the installed
  executable calls it; its stdout goes to this process's stdout.
* ``enumerate``: ``enumerate_graphs`` for every family at one degree, then
  ``automorphism_order`` of every graph.
* ``probe``: nothing; it only measures set-up.

Nothing runs before ``import hilb3.cli``, so the ``ready`` stamp marks the
end of interpreter start-up plus import; the parent times the job from there
until the process has exited.  After the job, one line starting with
``RECORD_TAG`` goes to stderr: the ready stamp, the resident-set peak and
what the job drew and evaluated.

With ``"trace": true`` the job is run layer by layer from the bottom up:
each layer's inputs are computed first, inside spans of their own, so when a
layer is called every layer below it is already cached and its span measures
its own work.  The spans go into the record.
"""

import sys
import time

import hilb3.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the ready stamp on purpose)
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from hilb3 import fock  # noqa: E402
from hilb3.graphs import (  # noqa: E402
    all_pair_families,
    all_punctual_families,
    automorphism_order,
    enumerate_graphs,
    pair_family,
    punctual_family,
)
from hilb3.invariants import (  # noqa: E402
    punctual_mark_factor,
    two_point_pairing,
    verify_identities,
)
from hilb3.localization import edge_euler, forbidden_weights, graph_sum  # noqa: E402
from hilb3.scalars import sample_specializations  # noqa: E402

RECORD_TAG = "PERFBENCH-RECORD "

FAMILIES = all_pair_families() + tuple(
    family for i in range(3) for family in all_punctual_families(i)
)


def engine_caches() -> dict:
    """Every ``lru_cache`` in the ``hilb3`` modules, found by scanning them.

    Module-level functions and class attributes are both scanned, so a cache
    added later is found without listing it here.
    """
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name != "hilb3" and not name.startswith("hilb3."):
            continue
        for attr, value in vars(module).items():
            holders = [(attr, value)]
            if isinstance(value, type) and value.__module__ == name:
                holders += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            for label, obj in holders:
                if (
                    callable(getattr(obj, "cache_info", None))
                    and callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == name
                ):
                    found[f"{name}.{label}"] = obj
    return found


def clear_engine_caches() -> list[str]:
    """Empty every engine cache and check that each one is empty."""
    caches = engine_caches()
    for cache in caches.values():
        cache.cache_clear()
    full = [name for name, cache in caches.items() if cache.cache_info().currsize]
    if full:
        raise RuntimeError(f"caches still hold entries after clearing: {full}")
    return sorted(caches)


def bits(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """In-memory spans ``[name, start, end, parent, job, arg]``."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, arg: str = ""):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent, self.job_id, arg])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.monotonic()


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name: str, arg: str = ""):
        yield


def cli_argv(spec: dict) -> list[str]:
    command = spec["command"]
    argv = [command]
    if command == "invariant":
        argv += ["--d", str(spec["d"]), "--points", str(spec["points"])]
    elif command == "verify":
        argv += ["--dmax", str(spec["dmax"]), "--specs", str(spec["specs"])]
    elif command == "table":
        argv += ["--dmax", str(spec["dmax"])]
    return argv + ["--seed", str(spec["seed"])]


def plan(spec: dict) -> tuple[list, list]:
    """The pairings and identity checks a CLI command makes.

    Returns ``(pairings, verifications)``: ``two_point_pairing(d, n, seed)``
    calls as ``(d, n, seed)`` and ``verify_identities(dmax, specs, seed)``
    calls as ``(dmax, specs, seed)``.  Each one draws its points with
    ``sample_specializations(n, seed, forbidden_weights(d))``.
    """
    command, seed = spec["command"], spec["seed"]
    if command == "invariant":
        return [(spec["d"], spec["points"], seed)], []
    if command == "verify":
        return [], [(spec["dmax"], spec["specs"], seed)]
    if command == "reproduce":
        return [(d, 3, seed) for d in range(1, 5)], [(4, 5, seed)]
    if command == "table":
        return [(d, 3, seed) for d in range(1, spec["dmax"] + 1)], []
    raise ValueError(f"unknown command {command!r}")


def draw(d: int, count: int, seed: int) -> list:
    return sample_specializations(count, seed=seed, forbidden=forbidden_weights(d))


def graph_sum_keys(spec: dict, points: dict) -> list[tuple]:
    """The distinct ``graph_sum`` calls the command makes, in first-use order.

    ``points`` maps each draw ``(d, count, seed)`` to its points.
    ``two_point_total`` skips a punctual family whose mark factor vanishes;
    ``verify_identities`` evaluates all fifteen families.
    """
    pairings, verifications = plan(spec)
    keys: dict[tuple, None] = {}
    for d, count, seed in pairings:
        for point in points[(d, count, seed)]:
            for i in range(3):
                for j in range(3):
                    if i != j:
                        keys[(pair_family(i, j), d, point)] = None
                for j, k in ((0, 1), (0, 2), (1, 2)):
                    if punctual_mark_factor(i, j, k, point) != 0:
                        keys[(punctual_family(i, j, k), d, point)] = None
    for dmax, count, seed in verifications:
        for d in range(1, dmax + 1):
            for point in points[(dmax, count, seed)]:
                for family in FAMILIES:
                    keys[(family, d, point)] = None
    return list(keys)


def fock_tables(spec: dict, f_values: list[Fraction]) -> None:
    """The ``hilb3.fock`` calls behind the reproduce and table commands."""
    monomials = [v.items()[0][0] for v in fock.basis(4)]
    dmax = len(f_values)
    reproduce = spec["command"] == "reproduce"
    if reproduce:
        fock.dual_basis(4)
        for k in range(0, 13, 2):
            fock.invert_matrix(fock.gram_matrix(k))
        fock.pairing(fock.point_class(), fock.fundamental_class())
        fock.pairing(fock.taut_divisor(0), fock.contracted_class())
        fock.one_point(monomials[1], 2)
    else:
        for mono in monomials:
            for d in range(1, dmax + 1):
                fock.one_point(mono, d)
    for d in range(1, dmax + 1):
        fock.two_point_table(d, f_values[d - 1])
        fock.three_point_table(d, f_values[:d])
        if reproduce:
            fock.wdvv_consistency(d, f_values[:d])


def run_cli(spec: dict, tracer) -> dict:
    """Run one CLI command; traced, warm its layers bottom-up first."""
    if not isinstance(tracer, Tracer):
        rc = hilb3.cli.main(cli_argv(spec))
        sys.stdout.flush()
        return {"rc": rc}
    pairings, verifications = plan(spec)
    all_draws = pairings + verifications
    degrees = sorted({d for d, _, _ in all_draws})
    for d in degrees:
        with tracer.span("localization.forbidden", f"d={d}"):
            forbidden_weights(d)
    points = {}
    for key in all_draws:
        with tracer.span("scalars.sample", "n={1} seed={2} d={0}".format(*key)):
            points[key] = draw(*key)
    keys = graph_sum_keys(spec, points)
    enumerated = list(dict.fromkeys((family, d) for family, d, _ in keys))
    for family, d in enumerated:
        with tracer.span("graphs.enumerate", f"{family.name} d={d}"):
            enumerate_graphs(family, d)
    enum_misses = enumerate_graphs.cache_info().misses
    value_bits = 0
    for family, d, point in keys:
        with tracer.span("localization.graph_sum", f"{family.name} d={d}"):
            value = graph_sum(family, d, point)
        value_bits = max(value_bits, bits(value))
    warm = graph_sum.cache_info().misses
    euler = edge_euler.cache_info()
    f_values = []
    for d, count, seed in pairings:
        with tracer.span("invariants.pairing", f"d={d}"):
            f_values.append(d * two_point_pairing(d, num_points=count, seed=seed).value / 3)
    for dmax, count, seed in verifications:
        with tracer.span("invariants.verify", f"dmax={dmax}"):
            verify_identities(d_max=dmax, num_specs=count, seed=seed)
    if spec["command"] in ("reproduce", "table"):
        with tracer.span("fock.tables"):
            fock_tables(spec, f_values)
    with tracer.span("cli.main"):
        rc = hilb3.cli.main(cli_argv(spec))
        sys.stdout.flush()
    return {
        "rc": rc,
        "forbidden_forms": sum(len(forbidden_weights(d)) for d in degrees),
        "graphs": sum(len(enumerate_graphs(f, d)) for f, d in enumerated),
        "contributions": sum(len(enumerate_graphs(f, d)) for f, d, _ in keys),
        "value_bits": value_bits,
        "edge_euler_hits": euler.hits,
        "edge_euler_calls": euler.hits + euler.misses,
        "warm_graph_sums": warm,
        "graph_sum_after_warm": graph_sum.cache_info().misses - warm,
        "enumerate_after_warm": enumerate_graphs.cache_info().misses - enum_misses,
    }


def run_enumerate(spec: dict, tracer) -> dict:
    families = list(FAMILIES)
    random.Random(spec["seed"]).shuffle(families)
    d = spec["d"]
    count = aut_total = 0
    for family in families:
        with tracer.span("graphs.enumerate", f"{family.name} d={d}"):
            count += len(enumerate_graphs(family, d))
    for family in families:
        with tracer.span("graphs.aut", f"{family.name} d={d}"):
            aut_total += sum(automorphism_order(g) for g in enumerate_graphs(family, d))
    return {"rc": 0, "graphs": count, "aut_total": aut_total}


def observe(spec: dict) -> dict:
    """What the job drew and evaluated, read after it ran (a few milliseconds)."""
    if spec["command"] == "enumerate":
        return {"points": [], "point_bits": 0}
    misses = graph_sum.cache_info().misses
    pairings, verifications = plan(spec)
    points = [[str(p.w), str(p.z)] for key in pairings + verifications for p in draw(*key)]
    unique = [list(p) for p in dict.fromkeys(map(tuple, points))]
    return {
        "graph_sum_misses": misses,
        "points": unique,
        "point_bits": max(bits(Fraction(x)) for p in unique for x in p),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    caches = clear_engine_caches()
    if spec["command"] == "probe":
        sys.stderr.write(RECORD_TAG + json.dumps({"ready": READY, "caches": caches}) + "\n")
        return 0
    tracer = Tracer(spec["job_id"]) if spec.get("trace") else _NoTracer()
    with tracer.span("job"):
        if spec["command"] == "enumerate":
            stats = run_enumerate(spec, tracer)
        else:
            stats = run_cli(spec, tracer)
    record = {
        "ready": READY,
        "caches": caches,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **stats,
        **observe(spec),
    }
    if isinstance(tracer, Tracer):
        record["spans"] = tracer.spans
    sys.stderr.write(RECORD_TAG + json.dumps(record) + "\n")
    return stats["rc"]


if __name__ == "__main__":
    sys.exit(main())
