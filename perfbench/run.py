"""The hilb3 benchmark: whole jobs timed end to end, layers timed in a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload invariant-d6 --seed 1 --seconds 42 --trace 0

Workloads (closed loop, one client, one job at a time; every job process is
a fresh interpreter, so every cache starts cold):

* ``invariant-d6``: ``hilb3 invariant --d 6 --points 2 --seed S``.
* ``audit-d4``: one pass of ``hilb3 verify --dmax 4 --specs 20``,
  ``hilb3 reproduce`` and ``hilb3 table --dmax 4``, one process each.
* ``enumerate-d7``: ``enumerate_graphs`` for all 15 families at d = 7, then
  ``automorphism_order`` of every graph.

Job seeds are drawn from ``--seed``, one per job, so a run averages over
several inputs and the same ``--seed`` repeats the same inputs.  Jobs start
while at least three quarters of the next one is predicted to fit within
``--seconds``; at least one job always runs.  Every job is checked exactly (see ``EXPECTED``); a job
that fails counts as taking at least the whole window.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates an untraced job and a traced one on the same seed and prints
the per-layer metrics (see ``job.py`` for how a traced job is laid out).
``--smoke`` runs every workload at a tiny size through the same gates.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
RECORD_TAG = "PERFBENCH-RECORD "  # as in job.py, which this process never imports

# Hard cap on one run, below the 180 s a run may take.
RUN_LIMIT_S = 165.0
# Set-up-only processes per run, on top of one untimed warm-up import.
SETUP_PROBES = 9

# Exact expected values.  f(d) = d * invariant; the raw pairing is 3 * invariant.
EXPECTED = {
    "f": {1: -27, 2: 27, 3: 54, 4: 27, 5: -27, 6: -54, 7: -27},
    # verify: the mark-factor check, then 5 identities at d = 1 and 7 at d >= 2.
    "identities": {dmax: 1 + 5 * dmax + 2 * (dmax - 1) for dmax in range(1, 5)},
    "reproduce_checks": 55,
    # Graph counts over all 15 families, and the sum of their automorphism
    # orders (pinned from the enumeration at this revision).
    "graphs": {3: 201, 7: 84612},
    "aut_total": {3: 321, 7: 367884},
}

SIZES = {
    False: {"d": 6, "points": 2, "dmax": 4, "specs": 20, "enum_d": 7},
    True: {"d": 2, "points": 2, "dmax": 2, "specs": 2, "enum_d": 3},
}

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mib": "MiB", "success_rate": "ratio"}

PER_LAYER_UNITS = {
    "localization.graph_sum_s": "s",
    "localization.graph_sum_calls": "count",
    "localization.contributions": "count",
    "localization.contributions_per_s": "1/s",
    "localization.edge_euler_hit_ratio": "ratio",
    "localization.edge_euler_calls": "count",
    "localization.value_bits": "bits",
    "localization.forbidden_s": "s",
    "localization.forbidden_forms": "count",
    "scalars.sample_s": "s",
    "scalars.points": "count",
    "scalars.point_bits": "bits",
    "graphs.enumerate_s": "s",
    "graphs.count": "count",
    "graphs.aut_s": "s",
    "graphs.per_graph_us": "us",
    "invariants.pairing_self_s": "s",
    "invariants.verify_self_s": "s",
    "fock.tables_s": "s",
    "cli.self_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> per-layer metric holding the sum of that span's self time.
SPAN_METRICS = {
    "localization.graph_sum": "localization.graph_sum_s",
    "localization.forbidden": "localization.forbidden_s",
    "scalars.sample": "scalars.sample_s",
    "graphs.enumerate": "graphs.enumerate_s",
    "graphs.aut": "graphs.aut_s",
    "invariants.pairing": "invariants.pairing_self_s",
    "invariants.verify": "invariants.verify_self_s",
    "fock.tables": "fock.tables_s",
    "cli.main": "cli.self_s",
}


def fmt(value: Fraction) -> str:
    """``hilb3.scalars.format_rational``; this process never imports hilb3."""
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------- workloads


def invariant_specs(size: dict, seed: int) -> list[dict]:
    return [{"command": "invariant", "d": size["d"], "points": size["points"], "seed": seed}]


def audit_specs(size: dict, seed: int) -> list[dict]:
    return [
        {"command": "verify", "dmax": size["dmax"], "specs": size["specs"], "seed": seed},
        {"command": "reproduce", "seed": seed},
        {"command": "table", "dmax": size["dmax"], "seed": seed},
    ]


def enumerate_specs(size: dict, seed: int) -> list[dict]:
    return [{"command": "enumerate", "d": size["enum_d"], "seed": seed}]


def _all_passed(lines: list[str], count: int, summary: str) -> str:
    if len(lines) != count + 1 or any(not line.startswith("PASS ") for line in lines[:-1]):
        return f"expected {count} PASS lines"
    if lines[-1] != f"{count}/{count} {summary}":
        return f"last line {lines[-1]!r}"
    return ""


def check_output(spec: dict, stdout: str, record: dict, expect: dict) -> str:
    """Exact check of one process's answer; returns "" or why it failed."""
    command = spec["command"]
    lines = stdout.splitlines()
    if command == "invariant":
        d, points, seed = spec["d"], spec["points"], spec["seed"]
        invariant = Fraction(expect["f"][d], d)
        want = (
            f"degree {d}: invariant = {fmt(invariant)}\n"
            f"raw two-point pairing = {fmt(3 * invariant)}\n"
            f"constant across {points} specializations (seed {seed}): yes\n"
        )
        return "" if stdout == want else f"stdout {stdout!r} != {want!r}"
    if command == "verify":
        return _all_passed(lines, expect["identities"][spec["dmax"]], "identities hold")
    if command == "reproduce":
        return _all_passed(lines, expect["reproduce_checks"], "checks passed")
    if command == "table":
        f = expect["f"]
        want = "scaled two-point values: " + ", ".join(
            f"f({d}) = {fmt(f[d])}" for d in range(1, spec["dmax"] + 1)
        )
        return "" if lines[:1] == [want] else f"first line {lines[:1]} != {want!r}"
    if command == "enumerate":
        d = spec["d"]
        got = (record["graphs"], record["aut_total"])
        want = (expect["graphs"][d], expect["aut_total"][d])
        return "" if got == want else f"graphs, aut total {got} != {want}"
    return f"unknown command {command!r}"


def wrong_expectations(expect: dict) -> dict:
    """Every expected value moved by one, for the negative control."""
    return {
        key: {k: v + 1 for k, v in value.items()} if isinstance(value, dict) else value + 1
        for key, value in expect.items()
    }


WORKLOADS = {
    "invariant-d6": invariant_specs,
    "audit-d4": audit_specs,
    "enumerate-d7": enumerate_specs,
}


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    spec: dict
    spawn: float
    end: float
    rc: int | None
    stdout: str = ""
    stderr: str = ""
    record: dict | None = None

    @property
    def setup_s(self) -> float | None:
        return self.record["ready"] - self.spawn if self.record else None

    @property
    def work_s(self) -> float:
        """From the end of set-up until the process has exited."""
        return self.end - (self.record["ready"] if self.record else self.spawn)


@dataclass
class Job:
    seed: int
    traced: bool
    procs: list[Proc] = field(default_factory=list)
    failure: str = ""

    @property
    def work_s(self) -> float:
        return sum(p.work_s for p in self.procs)


def job_env() -> dict:
    """The caller's environment with the engine's own knobs pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HILB3_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_proc(spec: dict, env: dict, deadline: float) -> Proc:
    spawn = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(JOB), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired as exc:
        return Proc(spec, spawn, time.monotonic(), None, stderr=f"timed out after {exc.timeout:.0f} s")
    proc = Proc(spec, spawn, time.monotonic(), done.returncode, done.stdout, done.stderr)
    for line in done.stderr.splitlines():
        if line.startswith(RECORD_TAG):
            proc.record = json.loads(line[len(RECORD_TAG):])
    return proc


def run_job(specs: list[dict], job_id: str, traced: bool, env: dict, deadline: float, expect: dict) -> Job:
    job = Job(specs[0]["seed"], traced)
    for n, spec in enumerate(specs):
        spec = {**spec, "job_id": f"{job_id}/{n}", "trace": traced}
        proc = run_proc(spec, env, deadline)
        job.procs.append(proc)
        job.failure = process_failure(proc, expect)
        if job.failure:
            break
    return job


def process_failure(proc: Proc, expect: dict) -> str:
    """Why a process counts as failed, or "" if it passed every gate."""
    if proc.rc is None:
        return proc.stderr
    if proc.rc != 0:
        return f"exit code {proc.rc}: {proc.stderr.strip()[-500:]}"
    if "Traceback" in proc.stderr or "ConsistencyError" in proc.stdout + proc.stderr:
        return f"error output: {proc.stderr.strip()[-500:]}"
    if proc.record is None:
        return "no record from the job process"
    return check_output(proc.spec, proc.stdout, proc.record, expect)


# ---------------------------------------------------------------- metrics


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of each span name's self time: duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job, _arg in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent, _job, _arg) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def layer_metrics(traced: Job, untraced: Job) -> dict[str, float]:
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    hits = 0
    for proc in traced.procs:
        record = proc.record
        for name, seconds in self_times(record["spans"]).items():
            if name in SPAN_METRICS:
                values[SPAN_METRICS[name]] += seconds
        values["localization.graph_sum_calls"] += record.get("warm_graph_sums", 0)
        values["localization.contributions"] += record.get("contributions", 0)
        values["localization.edge_euler_calls"] += record.get("edge_euler_calls", 0)
        hits += record.get("edge_euler_hits", 0)
        values["localization.value_bits"] = max(values["localization.value_bits"], record.get("value_bits", 0))
        values["localization.forbidden_forms"] += record.get("forbidden_forms", 0)
        values["scalars.points"] += len(record["points"])
        values["scalars.point_bits"] = max(values["scalars.point_bits"], record["point_bits"])
        values["graphs.count"] += record.get("graphs", 0)
    if values["localization.graph_sum_s"] > 0:
        values["localization.contributions_per_s"] = (
            values["localization.contributions"] / values["localization.graph_sum_s"]
        )
    if values["localization.edge_euler_calls"]:
        values["localization.edge_euler_hit_ratio"] = hits / values["localization.edge_euler_calls"]
    if values["graphs.count"]:
        values["graphs.per_graph_us"] = (
            1e6 * (values["graphs.enumerate_s"] + values["graphs.aut_s"]) / values["graphs.count"]
        )
    values["trace.untraced_job_s"] = untraced.work_s
    values["trace.overhead_s"] = traced.work_s - untraced.work_s
    return values


def trace_mismatch(traced: Job, untraced: Job) -> str:
    """The traced job must evaluate exactly the graph sums the untraced one does."""
    for t, u in zip(traced.procs, untraced.procs):
        if t.spec["command"] == "enumerate":
            continue
        warm, used = t.record["warm_graph_sums"], u.record["graph_sum_misses"]
        if warm != used:
            return f"{t.spec['command']}: traced run warmed {warm} graph sums, untraced evaluated {used}"
        late = t.record["graph_sum_after_warm"] + t.record["enumerate_after_warm"]
        if late:
            return f"{t.spec['command']}: {late} graph sums or enumerations missed the warm-up"
    return ""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def job_seed(workload: str, seed: int, k: int) -> int:
    return random.Random(f"{workload}/{seed}/{k}").randrange(1, 2**31)


def emit(label: str, payload) -> None:
    print(f"{label} {json.dumps(payload, sort_keys=True)}", flush=True)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, expect: dict = EXPECTED) -> dict:
    """One benchmark run; prints its lines and returns the result object."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    specs_for = WORKLOADS[workload]
    size = SIZES[smoke]
    env = job_env()
    emit("meta", {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    })

    problems: list[str] = []
    warm = run_proc({"command": "probe"}, env, deadline)
    if warm.record is None:
        problems.append(f"warm-up import failed: {warm.stderr.strip()[-500:]}")
    probes = [run_proc({"command": "probe"}, env, deadline) for _ in range(SETUP_PROBES)]
    setups = [p.setup_s for p in probes if p.record]

    jobs: list[Job] = []
    pairs: list[tuple[Job, Job]] = []
    walls: list[float] = []
    k = 0
    while not problems and time.monotonic() < deadline:
        # Start another job while at least three quarters of it is predicted
        # to fit in the window, so the last job overruns it by at most a quarter.
        if k and time.monotonic() - started + 0.75 * statistics.median(walls) > seconds:
            break
        specs = specs_for(size, job_seed(workload, seed, k))
        first = time.monotonic()
        untraced = run_job(specs, f"{workload}/{seed}/{k}", False, env, deadline, expect)
        jobs.append(untraced)
        if trace and not untraced.failure:
            traced = run_job(specs, f"{workload}/{seed}/{k}/traced", True, env, deadline, expect)
            jobs.append(traced)
            if not traced.failure:
                mismatch = trace_mismatch(traced, untraced)
                if mismatch:
                    problems.append(mismatch)
                pairs.append((traced, untraced))
        walls.append(time.monotonic() - first)
        k += 1

    # Negative control: the first job's own output, checked against wrong
    # expected values, must fail the gate.
    if jobs and not jobs[0].failure:
        wrong = wrong_expectations(expect)
        if not any(process_failure(p, wrong) for p in jobs[0].procs):
            problems.append("negative control passed: the gate accepted a wrong expected value")

    for n, job in enumerate(jobs):
        setups += [p.setup_s for p in job.procs if p.record]
        emit("job", {
            "n": n,
            "seed": job.seed,
            "traced": job.traced,
            "ok": not job.failure,
            "failure": job.failure[:500],
            "work_s": job.work_s,
            "setup_s": [p.setup_s for p in job.procs],
            "rss_mib": [p.record["rss_kib"] / 1024 for p in job.procs if p.record],
            "points": [p.record.get("points") for p in job.procs if p.record],
            "point_bits": max((p.record.get("point_bits", 0) for p in job.procs if p.record), default=0),
        })
    for problem in problems:
        emit("problem", problem)

    failed = sum(1 for job in jobs if job.failure)
    attempted = max(1, len(jobs))
    if trace:
        metrics = per_layer(pairs)
        if pairs:
            write_spans(workload, seed, [t for t, _ in pairs])
    else:
        # A failed job counts as taking at least the whole window.
        times = [max(job.work_s, seconds) if job.failure else job.work_s for job in jobs]
        metrics = {
            "setup_s": statistics.median(setups) if setups else float(RUN_LIMIT_S),
            "job_s": statistics.median(times) if times else float(RUN_LIMIT_S),
            "peak_rss_mib": max(
                (p.record["rss_kib"] / 1024 for job in jobs for p in job.procs if p.record),
                default=0.0,
            ),
            "success_rate": (attempted - failed) / attempted if jobs else 0.0,
        }
        emit("samples", {"job_s": len(times), "setup_s": len(setups), "error_rate": failed / attempted})
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": bool(jobs) and not failed and not problems,
        "attempted": attempted,
        "failed": failed if jobs else attempted,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def per_layer(pairs: list[tuple[Job, Job]]) -> dict[str, float]:
    """Median over traced jobs of each per-layer metric."""
    rows = [layer_metrics(traced, untraced) for traced, untraced in pairs]
    if not rows:
        return dict.fromkeys(PER_LAYER_UNITS, 0.0)
    return {name: statistics.median(row[name] for row in rows) for name in PER_LAYER_UNITS}


def write_spans(workload: str, seed: int, traced: list[Job]) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    spans = [span for job in traced for p in job.procs for span in p.record["spans"]]
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "job", "arg"],
        "spans": spans,
    }))
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same gates")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hilb3" / "cli.py").is_file():
        print(f"error: no hilb3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
