"""The gate: end-to-end promises the package makes as a whole.

Every test here pins one externally visible contract, with its
tolerance written into the assertion: honest runs always accept,
certified outputs agree with brute force, communication and matvec
budgets are exact, the shipped attacks stay below their soundness
ceilings, the minor-identity self-test never fails, serialized
certificates survive round-trips but not byte flips, out-of-turn
challenges abort without a verdict, and the verifier stays
asymptotically cheaper than the prover.
"""

import hashlib
import math
import random
import time

import numpy as np
import pytest

from rankcert.adversaries import ATTACKS, measure
from rankcert.bruteforce import (
    check_dodgson,
    has_grp,
    oracle_crp,
    oracle_det,
    oracle_rank,
    oracle_rpm,
    oracle_rrp,
)
from rankcert.elimination import (
    SingularPivotError,
    lu_nopivot,
    pluq_crp,
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
    random_unit_upper,
)
from rankcert.field import PrimeField, SampleSet
from rankcert.matrix import DenseMatrix
from rankcert.protocols import wire
from rankcert.protocols.base import (
    Channel,
    CostMeter,
    InteractiveChallenges,
    ProtocolAbort,
    ProtocolOrderError,
    VERIFIER,
)
from rankcert.protocols.equivalence import (
    TriangularEquivalenceProver,
    TriangularEquivalenceVerifier,
)
from rankcert.protocols.grp import GrpProver, GrpVerifier
from rankcert.protocols.ldup import LdupProver, LdupVerifier
from rankcert.protocols.profiles import (
    CrpStreamProver,
    CrpStreamVerifier,
    RpmInvertibleProver,
    RpmInvertibleVerifier,
)

F2 = PrimeField(2)
F7 = PrimeField(7)
F101 = PrimeField(101)
FBIG = PrimeField(131071)


def _run(protocol, mats, seed):
    return wire.runner(protocol)(tuple(mats), InteractiveChallenges(seed), None)


def _tiny_matrices():
    # every 3x3 matrix over the two-element field, in a fixed order
    for bits in range(512):
        arr = np.array([(bits >> k) & 1 for k in range(9)], dtype=np.int64)
        yield bits, DenseMatrix(F2, arr.reshape(3, 3))


# -- honest runs always accept -------------------------------------------------


def test_honest_runs_always_accept():
    """Acceptance is total: exhaustively over tiny matrices and on a
    thousand seeded random instances, every protocol whose precondition
    holds accepts the honest prover.  Zero tolerance, bounded runtime."""
    started = time.perf_counter()
    runs = 0

    for bits, a in _tiny_matrices():
        rng = random.Random(bits)
        b = DenseMatrix.random(F2, 3, 3, rng)
        protocols = [
            ("freivalds", (a, b, a @ b)),
            ("rank-upper", (a,)),
            ("rank-lower", (a,)),
            ("crp", (a,)),
            ("rrp", (a,)),
            ("rpm", (a,)),
            ("det", (a,)),
            ("tri-equiv-lower", (a, a @ random_unit_lower(F2, 3, rng))),
            ("tri-equiv-upper", (a, a @ random_unit_upper(F2, 3, rng))),
        ]
        if oracle_rank(a) == 3:
            protocols += [("ldup", (a,)), ("rpm-inv", (a,))]
            if has_grp(a):
                protocols.append(("grp", (a,)))
        for protocol, mats in protocols:
            result = _run(protocol, mats, bits)
            assert result.verdict.accepted, (protocol, bits, result.verdict.reason)
            runs += 1
    assert runs > 512 * 9

    for i in range(1000):
        rng = random.Random(40_000 + i)
        n = rng.randrange(2, 17)
        shape = i % 3
        if shape == 0:
            a = DenseMatrix.random(FBIG, n, n, rng)
        elif shape == 1:
            m = rng.randrange(2, 17)
            a = DenseMatrix.random(FBIG, m, n, rng)
        else:
            r = rng.randrange(1, n)
            a = random_rank_deficient(FBIG, n, n, r, rng)
        b = DenseMatrix.random(FBIG, a.n, rng.randrange(2, 9), rng)
        protocols = [
            ("freivalds", (a, b, a @ b)),
            ("rank-upper", (a,)),
            ("rank-lower", (a,)),
            ("crp", (a,)),
            ("rrp", (a,)),
            ("rpm", (a,)),
        ]
        if a.m == a.n:
            protocols += [
                ("det", (a,)),
                ("tri-equiv-lower", (a, a @ random_unit_lower(FBIG, n, rng))),
                ("tri-equiv-upper", (a, a @ random_unit_upper(FBIG, n, rng))),
            ]
            if pluq_crp(a).r == n:
                protocols += [("ldup", (a,)), ("rpm-inv", (a,))]
                try:
                    lu_nopivot(a)
                except SingularPivotError:
                    pass
                else:
                    protocols.append(("grp", (a,)))
        for protocol, mats in protocols:
            result = _run(protocol, mats, i)
            assert result.verdict.accepted, (protocol, i, result.verdict.reason)
            runs += 1

    assert runs > 10_000
    assert time.perf_counter() - started < 120


# -- certified outputs agree with brute force ----------------------------------


def _certified_values(a, seed):
    """Certified rank, column profile, row profile, profile matrix and
    determinant (square only), via the interactive and the serialized
    route; both must accept."""
    out = {}
    protocols = ["rank-upper", "rank-lower", "crp", "rrp", "rpm"]
    if a.m == a.n:
        protocols.append("det")
    for protocol in protocols:
        live = _run(protocol, (a,), seed)
        assert live.verdict.accepted, (protocol, live.verdict.reason)
        blob, sealed = wire.seal(protocol, a)
        name, mats, replayed = wire.check(blob)
        assert name == protocol and mats[0] == a
        assert replayed.verdict.accepted
        assert replayed.value == live.value == sealed.value
        out[protocol] = live.value
    return out


def test_certified_outputs_match_brute_force_exhaustive():
    started = time.perf_counter()
    for bits, a in _tiny_matrices():
        got = _certified_values(a, bits)
        r = oracle_rank(a)
        assert got["rank-upper"] == r
        assert len(got["rank-lower"]) == r
        assert got["crp"] == oracle_crp(a)
        assert got["rrp"] == oracle_rrp(a)
        assert got["rpm"] == oracle_rpm(a)
        assert got["det"] == oracle_det(a)
    assert time.perf_counter() - started < 120


def test_certified_outputs_match_brute_force_random():
    started = time.perf_counter()
    for i in range(1000):
        rng = random.Random(70_000 + i)
        a = DenseMatrix.random(F7, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        got = _certified_values(a, i)
        r = oracle_rank(a)
        assert got["rank-upper"] == r
        assert len(got["rank-lower"]) == r
        assert got["crp"] == oracle_crp(a)
        assert got["rrp"] == oracle_rrp(a)
        assert got["rpm"] == oracle_rpm(a)
        if a.m == a.n:
            assert got["det"] == oracle_det(a)
    assert time.perf_counter() - started < 120


# -- exact communication budgets ------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_communication_budgets_are_exact(n):
    rng = random.Random(500 + n)
    a = random_nonsingular(FBIG, n, rng)

    for variant, mk in (("lower", random_unit_lower), ("upper", random_unit_upper)):
        res = _run(f"tri-equiv-{variant}", (a, a @ mk(FBIG, n, rng)), n)
        assert res.verdict.accepted
        assert res.meter.field_elems_total == 2 * n
        assert res.meter.integers_total == 0

    res = _run("grp", (random_grp_matrix(FBIG, n, rng),), n)
    assert res.verdict.accepted
    assert res.meter.field_elems_verifier_to_prover == 3 * n
    assert res.meter.field_elems_prover_to_verifier == 3 * n
    assert res.meter.integers_total == 0

    res = _run("ldup", (a,), n)
    assert res.verdict.accepted
    assert res.meter.integers_total == n
    assert res.meter.field_elems_total == 7 * n - 6
    assert res.meter.communication_total < 8 * n

    ranks = [n] if n == 2 else [n, max(1, n // 2)]
    for r in ranks:
        mat = a if r == n else random_rank_deficient(FBIG, n, n, r, rng)
        res = _run("crp", (mat,), n + r)
        assert res.verdict.accepted
        assert res.meter.communication_total == 2 * n + 4 * r

        res = _run("rpm", (mat,), n + r)
        assert res.verdict.accepted
        assert res.meter.communication_total == 3 * n + 17 * r - 6
        assert res.meter.communication_total <= (3 * n + 16 * r) + 2 * (2 * n + 4 * r)

    res = _run("rpm-inv", (a,), n)
    assert res.verdict.accepted
    assert res.meter.communication_total == 10 * n - 6
    assert res.meter.communication_total <= 10 * n


# -- exact verifier matvec counts ------------------------------------------------


@pytest.mark.parametrize("n", [5, 16])
def test_verifier_matvec_counts_are_exact(n):
    rng = random.Random(900 + n)
    nonsing = random_nonsingular(FBIG, n, rng)
    deficient = random_rank_deficient(FBIG, n, n, n // 2, rng)

    assert _run("grp", (random_grp_matrix(FBIG, n, rng),), n).meter.verifier_matvecs == 1
    assert _run("ldup", (nonsing,), n).meter.verifier_matvecs == 1
    assert _run("det", (nonsing,), n).meter.verifier_matvecs == 1
    assert _run("crp", (nonsing,), n).meter.verifier_matvecs == 2
    assert _run("crp", (deficient,), n).meter.verifier_matvecs == 2
    assert _run("rpm", (nonsing,), n).meter.verifier_matvecs == 4
    assert _run("rpm", (deficient,), n).meter.verifier_matvecs == 4


# -- measured soundness of the shipped attacks -----------------------------------

ATTACK_CEILINGS = {
    "freivalds": 1 / 101,
    "tri-equiv": 1 / 101,
    "grp": 1 / 101,
    "crp": 1 / 101,
    "ldup": 2 / 101,
    "det": 1 - (1 - 1 / 101) ** 3,
}
ATTACK_INSTANCE_SEED = 20260815
ATTACK_MEASURE_SEED = 42
ATTACK_TRIALS = 10_000


def test_shipped_attacks_stay_below_their_ceilings():
    """Each attack's empirical acceptance over ten thousand seeded trials
    must stay within three binomial standard deviations of its ceiling."""
    started = time.perf_counter()
    assert set(ATTACK_CEILINGS) == set(ATTACKS)
    for name in sorted(ATTACKS):
        attack = ATTACKS[name](F101, ATTACK_INSTANCE_SEED)
        report = measure(attack, ATTACK_TRIALS, ATTACK_MEASURE_SEED)
        bound = ATTACK_CEILINGS[name]
        sigma = math.sqrt(bound * (1 - bound) / ATTACK_TRIALS)
        assert report.trials == ATTACK_TRIALS
        assert report.rate <= bound + 3 * sigma, (name, report.hits)
        # the attack's own declared ceiling must never be tighter than
        # what the measurement was held to here
        assert attack.bound() >= bound
    assert time.perf_counter() - started < 300


# -- minor-identity self-test -----------------------------------------------------


def test_minor_identity_holds_on_random_and_degenerate_matrices():
    count = 0
    for field in (F7, FBIG):
        for i in range(5000):
            rng = random.Random(field.p * 1_000_003 + i)
            n = rng.randrange(2, 7)
            a = DenseMatrix.random(field, n, n, rng)
            if i % 5 == 0:
                # force a repeated row so the degenerate branches are hit
                arr = a.array.copy()
                arr[rng.randrange(n)] = arr[rng.randrange(n)]
                a = DenseMatrix(field, arr)
            assert check_dodgson(a), (field.p, i)
            count += 1
    assert count == 10_000


# -- serialized certificates: round-trip yes, byte flips no ------------------------


def _sealable_instances(protocol, count):
    """Seeded instance streams, all over the large field, sizes 2..5."""
    out = []
    for i in range(count):
        rng = random.Random(wire.PROTOCOL_IDS[protocol] * 100_000 + i)
        n = rng.randrange(2, 6)
        if protocol == "freivalds":
            a = DenseMatrix.random(FBIG, n, rng.randrange(2, 6), rng)
            b = DenseMatrix.random(FBIG, a.n, rng.randrange(2, 6), rng)
            out.append((a, b, a @ b))
        elif protocol.startswith("tri-equiv"):
            a = random_nonsingular(FBIG, n, rng)
            mk = random_unit_lower if protocol.endswith("lower") else random_unit_upper
            out.append((a, a @ mk(FBIG, n, rng)))
        elif protocol == "grp":
            out.append((random_grp_matrix(FBIG, n, rng),))
        elif protocol in ("ldup", "det", "rpm-inv"):
            out.append((random_nonsingular(FBIG, n, rng),))
        else:
            m = rng.randrange(2, 6)
            out.append((DenseMatrix.random(FBIG, m, n, rng),))
    return out


def _never_accepts(blob):
    try:
        _, _, res = wire.check(blob)
    except ProtocolAbort:
        return True
    return not res.verdict.accepted


@pytest.mark.parametrize("protocol", sorted(wire.PROTOCOL_IDS))
def test_sealed_certificates_survive_round_trips_but_not_byte_flips(protocol):
    instances = _sealable_instances(protocol, 100)

    # first instance: flip every single byte of the blob, one at a time
    blob, sealed = wire.seal(protocol, *instances[0])
    name, mats, replayed = wire.check(blob)
    assert name == protocol
    assert replayed.verdict.accepted and replayed.value == sealed.value
    for i in range(len(blob)):
        bad = bytearray(blob)
        bad[i] ^= (i % 255) + 1
        assert _never_accepts(bytes(bad)), (protocol, i)

    # the rest: round-trip plus one seeded byte flip each
    for k, mats_in in enumerate(instances[1:], start=1):
        blob, sealed = wire.seal(protocol, *mats_in)
        name, mats, replayed = wire.check(blob)
        assert name == protocol
        assert all(x == y for x, y in zip(mats, mats_in))
        assert replayed.verdict.accepted
        assert replayed.value == sealed.value
        rng = random.Random(k)
        bad = bytearray(blob)
        pos = rng.randrange(len(bad))
        bad[pos] ^= 1 + rng.randrange(255)
        assert _never_accepts(bytes(bad)), (protocol, k, pos)


GOLDEN_DET_ROWS = [[2, 7, 1], [8, 2, 8], [1, 8, 2]]
GOLDEN_DET_SHA = "810e4a09969779ecd039b8e52742383846873cb492359476329e85b4e40040c5"
GOLDEN_RPM_ROWS = [[3, 0], [4, 9]]
GOLDEN_RPM_SHA = "1a29af5c81c448efcd408316903514c9b1722b2b377488aca182ec8d7d3ca9ac"


def test_certificate_byte_layout_matches_golden_fixtures():
    f = PrimeField(101)
    a = DenseMatrix(f, np.array(GOLDEN_DET_ROWS, dtype=np.int64))
    blob, sealed = wire.seal("det", a)
    assert blob[:4] == b"RKC1"
    assert blob[4] == wire.PROTOCOL_IDS["det"]
    assert int.from_bytes(blob[5:13], "little") == 101
    assert int.from_bytes(blob[13:17], "little") == 3  # rows
    assert int.from_bytes(blob[17:21], "little") == 3  # cols
    assert int.from_bytes(blob[21:29], "little") == 2  # first entry
    assert len(blob) == 237
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DET_SHA
    assert sealed.value == 88

    b = DenseMatrix(f, np.array(GOLDEN_RPM_ROWS, dtype=np.int64))
    blob, _ = wire.seal("rpm", b)
    assert len(blob) == 294
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_RPM_SHA


# -- turn order: an early challenge aborts, it never decides -----------------------


def _step_until_prover_has_reply(prover, verifier, channel):
    guard = 0
    while True:
        challenged = any(m.sender == VERIFIER for m in channel.transcript)
        if prover._outbox and challenged:
            return
        msg = verifier.next_message()
        if msg is not None:
            channel.deliver(msg, prover)
        else:
            msg = prover.next_message()
            assert msg is not None, "protocol finished before the prover queued a reply"
            channel.deliver(msg, verifier)
        guard += 1
        assert guard < 1000


def _assert_early_redelivery_aborts(prover, verifier, channel):
    _step_until_prover_has_reply(prover, verifier, channel)
    last_challenge = [m for m in channel.transcript if m.sender == VERIFIER][-1]
    with pytest.raises(ProtocolOrderError):
        channel.deliver(last_challenge, prover)
    assert verifier.verdict is None, "an order violation must never reach a verdict"


def _session():
    meter = CostMeter()
    ch = InteractiveChallenges(77)
    return meter, ch, Channel(meter, ch)


def test_out_of_turn_challenge_aborts_every_stateful_protocol():
    rng = random.Random(4242)

    a = random_nonsingular(FBIG, 5, rng)
    b = a @ random_unit_lower(FBIG, 5, rng)
    meter, ch, channel = _session()
    _assert_early_redelivery_aborts(
        TriangularEquivalenceProver(a, b, "lower"),
        TriangularEquivalenceVerifier(a, b, SampleSet(FBIG), meter, ch, "lower"),
        channel,
    )

    g = random_grp_matrix(FBIG, 5, rng)
    meter, ch, channel = _session()
    _assert_early_redelivery_aborts(
        GrpProver(g), GrpVerifier(g, SampleSet(FBIG), meter, ch), channel
    )

    meter, ch, channel = _session()
    _assert_early_redelivery_aborts(
        LdupProver(a), LdupVerifier(a, SampleSet(FBIG), meter, ch), channel
    )

    d = random_rank_deficient(FBIG, 5, 6, 3, rng)
    cols = oracle_crp(d)
    meter, ch, channel = _session()
    _assert_early_redelivery_aborts(
        CrpStreamProver(d, cols),
        CrpStreamVerifier(d, cols, SampleSet(FBIG), meter, ch),
        channel,
    )

    meter, ch, channel = _session()
    _assert_early_redelivery_aborts(
        RpmInvertibleProver(a),
        RpmInvertibleVerifier(a, SampleSet(FBIG), meter, ch),
        channel,
    )


# -- the verifier stays asymptotically cheaper than the prover ---------------------


def test_verifier_time_and_communication_stay_sublinear_in_the_work():
    """At n = 2048 the determinant checker must cost under a tenth of one
    elimination, and certificate size must grow linearly in n while the
    factorization it replaces grows quadratically."""
    started = time.perf_counter()
    comm = {}
    for n in (256, 1024, 2048):
        a = DenseMatrix.random(FBIG, n, n, random.Random(n))
        if n == 2048:
            t0 = time.perf_counter()
            fact = pluq_crp(a)
            t_eliminate = time.perf_counter() - t0
            assert fact.r == n

            blob, sealed = wire.seal("det", a)
            t0 = time.perf_counter()
            _, _, replayed = wire.check(blob)
            t_check = time.perf_counter() - t0
            assert replayed.verdict.accepted
            assert replayed.value == sealed.value != 0
            assert t_check < 0.10 * t_eliminate, (t_check, t_eliminate)
            print(f"\ncheck/eliminate time ratio at n=2048: {t_check / t_eliminate:.4f}")
        else:
            blob, sealed = wire.seal("det", a)
        comm[n] = sealed.meter.communication_total

    for n, c in comm.items():
        assert c <= 9 * n  # linear with a one-digit constant
        assert 10 * c <= n * n  # well under shipping a factorization
    # growth over an 8x size step matches the linear class, not the quadratic
    assert comm[2048] < 9 * comm[256]
    assert time.perf_counter() - started < 300
