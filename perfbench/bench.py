"""Rounds, output checks and metrics; imported once ``src`` is on the path."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback

from instances import Builder, Instance, normalise
from rankcert import bruteforce
from rankcert.elimination import pluq_crp
from rankcert.protocols import wire
from rankcert.protocols.base import InteractiveChallenges
from spans import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
SEAL_EQUIV = ("det", "crp", "rrp", "rpm", "tri-equiv-lower", "tri-equiv-upper")
SPAN_METRICS = {  # span name -> which of call count and self time to report
    "field.draw": ("calls", "self_s"),
    "matrix.dot_mod": ("calls", "self_s"),
    "matrix.matvec": ("calls", "self_s"),
    "matrix.matmul": ("calls", "self_s"),
    "elimination.pluq_crp": ("calls", "self_s"),
    "elimination.pluq_rpm": ("calls", "self_s"),
    "elimination.lu_nopivot": ("calls", "self_s"),
    "elimination.ldup": ("calls", "self_s"),
    "elimination.solve_consistent": ("calls", "self_s"),
    "elimination.trsv": ("calls", "self_s"),
    "base.deliver": ("calls", "self_s"),
    "base.drive": ("self_s",),
    "base.fs_init": ("self_s",),
    "base.fs_absorb": ("self_s",),
    "base.fs_draw": ("calls", "self_s"),
    "wire.build_header": ("self_s",),
    "wire.parse_header": ("self_s",),
    "wire.split_frames": ("self_s",),
    "protocols.prover_init": ("self_s",),
    "protocols.find_unit_triangular_witness": ("self_s",),
    "protocols.solve_gamma": ("self_s",),
}


class Round:
    """What one pass over the instances did."""

    def __init__(self):
        self.time = {"run": 0.0, "seal": 0.0, "check": 0.0}
        self.ok = {"run": 0, "seal": 0, "check": 0}
        self.attempted = 0
        self.failed = 0
        self.seal_s: list[float] = []  # per instance, for seal_equiv
        self.cert_bytes = 0
        self.comm = 0
        self.meter = {"messages": 0, "verifier_matvecs": 0, "verifier_field_ops": 0}
        self.wall = 0.0

    def call(self, kind: str, inst: Instance, fn, *args):
        """Time one operation, check its result; the output if it is right."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failed operation is counted; the run goes on
            out = None
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        self.time[kind] += dt
        if kind == "seal":
            self.seal_s.append(dt)
        if out is not None and matches(kind, inst, out):
            self.ok[kind] += 1
            return out
        self.failed += 1
        return None


def matches(kind: str, inst: Instance, out) -> bool:
    """Whether an output carries the instance's answer and the paper's costs."""
    if kind == "check":
        protocol, _, result = out
        if protocol != inst.protocol:
            return False
    else:
        result = out[1] if kind == "seal" else out
    try:
        value = normalise(inst.protocol, result.value)
    except (AttributeError, TypeError, ValueError):  # a malformed value is a mismatch
        return False
    return (
        result.verdict.accepted
        and value == inst.answer
        and result.meter.communication_total == inst.comm
        and result.meter.verifier_matvecs == inst.matvecs
    )


def interactive(inst: Instance):
    challenges = InteractiveChallenges(inst.challenge_seed)
    return wire.runner(inst.protocol)(inst.matrices, challenges, None)


def run_round(instances: list[Instance], checks: int, run=interactive) -> Round:
    """Each instance once interactively, once sealed, ``checks`` times checked."""
    rnd = Round()
    start = time.perf_counter()
    for inst in instances:
        rnd.call("run", inst, run, inst)
        sealed = rnd.call("seal", inst, wire.seal, inst.protocol, *inst.matrices)
        if sealed is None:  # nothing to check; the checks still count
            rnd.attempted += checks
            rnd.failed += checks
            continue
        blob, result = sealed
        rnd.cert_bytes += len(blob)
        rnd.comm += result.meter.communication_total
        for key in rnd.meter:
            rnd.meter[key] += getattr(result.meter, key)
        for _ in range(checks):
            rnd.call("check", inst, wire.check, blob)
    rnd.wall = time.perf_counter() - start
    return rnd


def oracle_agrees(inst: Instance) -> bool:
    """The constructed answer against rankcert.bruteforce, where one applies."""
    a, proto, want = inst.matrices[0], inst.protocol, inst.answer
    if proto == "det":
        return bruteforce.oracle_det(a) == want
    if proto == "rank-upper":
        return bruteforce.oracle_rank(a) == want
    if proto in ("rank-lower", "crp"):
        return tuple(bruteforce.oracle_crp(a)) == want
    if proto == "rrp":
        return tuple(bruteforce.oracle_rrp(a)) == want
    if proto == "grp":
        return bruteforce.has_grp(a)
    if proto in ("rpm", "rpm-inv", "ldup"):
        pos = bruteforce.oracle_rpm(a).positions
        if proto == "rpm":
            return pos == want
        images = tuple(i for i, _ in sorted(pos, key=lambda ij: ij[1]))
        if proto == "rpm-inv":
            return images == want
        return (images, bruteforce.oracle_det(a)) == want
    return True  # freivalds and tri-equiv instances hold by construction


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_metric(values, unit: str) -> dict:
    return metric(float(statistics.median(values)), unit)


def until(seconds: float, step) -> list:
    """Whole rounds, at least one, until ``seconds`` have passed."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(step())
    return out


def end_to_end(workload, instances, seconds, setup_s) -> tuple[list[Round], dict]:
    rounds = until(seconds, lambda: run_round(instances, workload.checks))

    def rate(kind):
        spent = sum(r.time[kind] for r in rounds)
        # no time spent means no call was made: every seal before it failed
        return metric(sum(r.ok[kind] for r in rounds) / spent if spent else 0.0, "1/s")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rounds, {
        "seals_per_s": rate("seal"),
        "checks_per_s": rate("check"),
        "runs_per_s": rate("run"),
        "cert_bytes": metric(rounds[0].cert_bytes, "bytes"),
        "comm_elems": metric(rounds[0].comm, "elements"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(workload, instances, seconds, trace_path) -> tuple[list[Round], dict]:
    # the prover cost unit: one untraced pluq_crp on the same matrix
    unit = {}
    for k, inst in enumerate(instances):
        if inst.protocol in SEAL_EQUIV:
            t0 = time.perf_counter()
            pluq_crp(inst.matrices[0])
            unit[k] = time.perf_counter() - t0
    plain = until(seconds, lambda: run_round(instances, workload.checks))

    tracer = Tracer()
    run = tracer.wrap("wire.run", interactive)
    starts = []

    def traced_round():
        starts.append(time.perf_counter_ns())
        return run_round(instances, workload.checks, run)

    tracer.install()
    try:
        rounds = until(seconds, traced_round)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    trace_path.parent.mkdir(exist_ok=True)
    spans.save(trace_path)

    metrics = {}
    self_s = spans.self_ns / 1e9
    for span, kinds in SPAN_METRICS.items():
        mask = spans.name_mask(span)
        if "calls" in kinds:
            metrics[f"{span}.calls"] = median_metric(spans.per_round(starts, mask), "count")
        if "self_s" in kinds:
            metrics[f"{span}.self_s"] = median_metric(
                spans.per_round(starts, mask, self_s), "s"
            )
    metrics["elimination.in_check.calls"] = median_metric(
        spans.per_round(starts, spans.in_check_eliminations()), "count"
    )
    for proto in SEAL_EQUIV:
        ratios = [
            statistics.median(r.seal_s[k] for r in plain) / u
            for k, u in unit.items()
            if instances[k].protocol == proto
        ]
        # 0 marks a protocol the workload does not run
        metrics[f"elimination.seal_equiv.{proto}"] = median_metric(ratios or [0.0], "ratio")
    for key, value in plain[0].meter.items():
        metrics[f"meter.{key}"] = metric(value, "count")
    overhead = statistics.median(r.wall for r in rounds) - statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return plain + rounds, metrics


def main(args, import_s: float, trace_dir) -> int:
    workload = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = workload.build(Builder((args.seed, 0), workload.modulus), True)
        warm = workload.build(Builder((args.seed, 1), workload.modulus), False)
        run_round(warm, workload.checks)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        path = trace_dir / f"{args.workload}-seed{args.seed}.npz"
        rounds, metrics = per_layer(workload, instances, args.seconds, path)
    else:
        rounds, metrics = end_to_end(workload, instances, args.seconds, setup_s)
    correct = all(oracle_agrees(inst) for inst in warm)
    for name, m in metrics.items():
        print(f"{name:44} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0
