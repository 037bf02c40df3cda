"""Command line front end.

Subcommands:
  gen     write a test matrix in the text format
  run     interactive protocol run with a seeded challenger
  seal    produce a non-interactive certificate file
  check   replay a certificate file
  attack  measure a cheating prover's empirical acceptance rate, or every
          prover's against its ceiling

Exit status: 0 accepted, 1 rejected (or attack over budget), 2 aborted
run, unusable input, or a protocol order violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

import numpy as np

from . import __version__
from .adversaries import ATTACKS, measure
from .elimination import random_rank_deficient, random_unit_lower, random_unit_upper
from .field import DEFAULT_MODULUS, PrimeField
from .matrix import (
    DenseMatrix,
    Diagonal,
    Permutation,
    RankProfileMatrix,
    dump_matrix,
    load_matrix,
)
from .protocols.base import (
    CostMeter,
    InteractiveChallenges,
    ProtocolAbort,
    RunResult,
)
from .protocols import wire

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ABORT = 2


def _value_json(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Permutation):
        return {"permutation": list(value.images)}
    if isinstance(value, Diagonal):
        return {"diagonal": list(value.entries)}
    if isinstance(value, RankProfileMatrix):
        return {
            "ones": [list(pos) for pos in value.positions],
            "rank": value.rank,
            "shape": [value.m, value.n],
        }
    if isinstance(value, tuple):
        return [_value_json(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    return repr(value)


def _meter_json(meter: CostMeter):
    return {
        "field_elements": meter.field_elems_total,
        "integers": meter.integers_total,
        "communication": meter.communication_total,
        "messages": meter.messages,
        "verifier_field_ops": meter.verifier_field_ops,
        "verifier_matvecs": meter.verifier_matvecs,
    }


def _result_json(protocol: str, result: RunResult):
    return {
        "protocol": protocol,
        "accepted": result.verdict.accepted,
        "reason": result.verdict.reason,
        "value": _value_json(result.value),
        "meter": _meter_json(result.meter),
    }


def _emit(payload, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    for key, val in payload.items():
        sys.stdout.write(f"{key}: {json.dumps(val, sort_keys=True)}\n")


def _read_matrix(path: str) -> DenseMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return load_matrix(fh.read())


def _digest_rng(a: DenseMatrix) -> random.Random:
    digest = hashlib.sha256(dump_matrix(a).encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _freivalds_companions(a: DenseMatrix, rng: random.Random) -> tuple[DenseMatrix, ...]:
    b = DenseMatrix.random(a.field, a.n, a.n, rng)
    return (b, a @ b)


# each protocol with companion matrices -> how a bare invocation derives
# them from A and a generator seeded by A's digest
COMPANIONS = {
    "freivalds": _freivalds_companions,
    "tri-equiv-lower": lambda a, rng: (a @ random_unit_lower(a.field, a.n, rng),),
    "tri-equiv-upper": lambda a, rng: (a @ random_unit_upper(a.field, a.n, rng),),
}


def _companions(protocol: str, a: DenseMatrix, given: list[str]) -> tuple[DenseMatrix, ...]:
    """Companion matrices from --with files, or derived from A's digest
    so a bare invocation still demonstrates a true statement."""
    want = len(wire.PROTOCOLS[protocol].shapes) - 1
    if given:
        if len(given) != want:
            sys.stderr.write(f"error: {protocol} takes {want} --with file(s), got {len(given)}\n")
            raise SystemExit(EXIT_ABORT)
        return tuple(_read_matrix(path) for path in given)
    if want == 0:
        return ()
    return COMPANIONS[protocol](a, _digest_rng(a))


# Subcommands -------------------------------------------------------------------


# --kind -> the m x n matrix, from the field, --rank and a generator seeded
# by --seed
GEN_KINDS = {
    "random": lambda f, m, n, rank, rng: DenseMatrix.random(f, m, n, rng),
    "identity": lambda f, m, n, rank, rng: DenseMatrix(f, np.eye(n, dtype=np.int64)),
    "swap": lambda f, m, n, rank, rng: DenseMatrix(f, np.eye(n, dtype=np.int64)[::-1].copy()),
    "rankdef": lambda f, m, n, rank, rng: random_rank_deficient(
        f, m, n, max(min(m, n) // 2, 1) if rank is None else rank, rng
    ),
}


def cmd_gen(args) -> int:
    m = args.rows
    n = m if args.cols is None else args.cols
    if m < 1 or n < 1:
        raise ValueError(f"--rows and --cols must be at least 1, got {m}x{n}")
    if args.kind in ("identity", "swap") and m != n:
        raise ValueError(f"--kind {args.kind} is square, got {m}x{n}")
    mat = GEN_KINDS[args.kind](PrimeField(args.modulus), m, n, args.rank, random.Random(args.seed))
    text = dump_matrix(mat)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_ACCEPT


def cmd_run(args) -> int:
    a = _read_matrix(args.matrix)
    mats = (a,) + _companions(args.protocol, a, args.companions)
    challenges = InteractiveChallenges(args.seed)
    result = wire.runner(args.protocol)(mats, challenges, None)
    _emit(_result_json(args.protocol, result) | {"seed": args.seed}, args.json)
    return EXIT_ACCEPT if result.verdict.accepted else EXIT_REJECT


def cmd_seal(args) -> int:
    a = _read_matrix(args.matrix)
    mats = (a,) + _companions(args.protocol, a, args.companions)
    blob, result = wire.seal(args.protocol, *mats)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    _emit(
        {
            "protocol": args.protocol,
            "certificate": args.out,
            "bytes": len(blob),
            "value": _value_json(result.value),
            "meter": _meter_json(result.meter),
        },
        args.json,
    )
    return EXIT_ACCEPT


def cmd_check(args) -> int:
    with open(args.certificate, "rb") as fh:
        blob = fh.read()
    protocol, mats, result = wire.check(blob)
    payload = _result_json(protocol, result)
    if args.matrix:
        stated = _read_matrix(args.matrix)
        if stated != mats[0]:
            payload["accepted"] = False
            payload["reason"] = "instance-mismatch"
            _emit(payload, args.json)
            return EXIT_REJECT
    _emit(payload, args.json)
    return EXIT_ACCEPT if result.verdict.accepted else EXIT_REJECT


def _report_payload(report) -> dict:
    return {
        "attack": report.name,
        "trials": report.trials,
        "hits": report.hits,
        "rate": report.rate,
        "bound": report.bound,
        "threshold": report.threshold,
        "within_bound": report.within_bound,
    }


def _emit_sweep(reports, unavailable, args) -> None:
    """Every measured attack's rate, ceiling and 3-sigma threshold, the
    attacks the field has no instance for, and the worst rate/ceiling ratio."""
    worst = max(r.rate / r.bound for r in reports)
    if args.json:
        _emit({"modulus": args.modulus, "seed": args.seed, "trials": args.trials,
               "attacks": [_report_payload(r) for r in reports], "unavailable": unavailable,
               "worst_ratio": worst}, True)
        return
    print(f"p = {args.modulus}, trials = {args.trials}, seed = {args.seed}")
    print(f"{'attack':<12} {'hits':>6} {'rate':>9} {'ceiling':>9} {'3-sigma':>9}  verdict")
    for r in reports:
        print(f"{r.name:<12} {r.hits:>6} {r.rate:>9.5f} {r.bound:>9.5f} {r.threshold:>9.5f}"
              f"  {'ok' if r.within_bound else 'OVER'}")
    for name, error in unavailable.items():
        print(f"{name:<12} none over this field: {error}")
    print(f"worst rate/ceiling ratio: {worst:.3f}")


def cmd_attack(args) -> int:
    field = PrimeField(args.modulus)
    attacks, unavailable = [], {}
    for name in [args.name] if args.name else sorted(ATTACKS):
        try:
            attacks.append(ATTACKS[name](field, seed=args.instance_seed))
        except ValueError as exc:  # the sweep goes on past an attack the field lacks
            if args.name:
                raise
            unavailable[name] = str(exc)
    reports = [measure(attack, args.trials, args.seed) for attack in attacks]
    if args.name:
        _emit(_report_payload(reports[0]), args.json)
    else:
        _emit_sweep(reports, unavailable, args)
    return EXIT_ACCEPT if all(r.within_bound for r in reports) else EXIT_REJECT


# Parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankcert",
        description="interactive and sealed certificates for exact linear algebra "
        "over a prime field",
    )
    parser.add_argument("--version", action="version", version=f"rankcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    protocols = sorted(wire.PROTOCOL_IDS)

    g = sub.add_parser("gen", help="write a test matrix")
    g.add_argument("--kind", choices=tuple(GEN_KINDS), default="random")
    g.add_argument("--rows", type=int, default=8)
    g.add_argument("--cols", type=int, default=None, help="defaults to --rows")
    g.add_argument("--rank", type=int, default=None, help="target rank for rankdef")
    g.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="interactive run with a seeded challenger")
    r.add_argument("protocol", choices=protocols)
    r.add_argument("--matrix", required=True)
    r.add_argument("--with", dest="companions", action="append", default=[],
                   metavar="FILE", help="companion matrix file (repeatable)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("seal", help="write a non-interactive certificate")
    s.add_argument("protocol", choices=protocols)
    s.add_argument("--matrix", required=True)
    s.add_argument("--with", dest="companions", action="append", default=[],
                   metavar="FILE", help="companion matrix file (repeatable)")
    s.add_argument("--out", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_seal)

    c = sub.add_parser("check", help="replay a certificate file")
    c.add_argument("certificate")
    c.add_argument("--matrix", default=None, help="require the certificate to be about this matrix")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_check)

    a = sub.add_parser("attack", help="measure a cheating prover, or every one")
    a.add_argument("name", nargs="?", choices=sorted(ATTACKS),
                   help="the attack to measure; without it, every attack runs")
    a.add_argument("--trials", type=int, default=10_000)
    a.add_argument("--seed", type=int, default=42)
    a.add_argument("--instance-seed", type=int, default=20260815)
    a.add_argument("--modulus", type=int, default=101)
    a.add_argument("--json", action="store_true")
    a.set_defaults(fn=cmd_attack)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProtocolAbort as exc:
        sys.stderr.write(f"aborted: {exc}\n")
        return EXIT_ABORT
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
