"""Sealed certificates: byte format, replay, and tamper resistance."""

import dataclasses
import hashlib
import random
import re
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankcert.bruteforce import (
    has_grp,
    oracle_crp,
    oracle_det,
    oracle_rank,
    oracle_rpm,
    oracle_rrp,
)
from rankcert.elimination import (
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
)
from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix, DimensionError, RankProfileMatrix
from rankcert.protocols.base import (
    PART_TAGS,
    PART_WIDTHS,
    PROVER,
    Channel,
    FiatShamirChallenges,
    InteractiveChallenges,
    MalformedCertificate,
    Message,
    Part,
    ProtocolAbort,
    WitnessUnavailable,
)
from rankcert.protocols.wire import (
    MAX_DIM,
    PROTOCOL_IDS,
    PROTOCOLS,
    ReplayProver,
    _parts,
    build_header,
    check,
    parse_header,
    runner,
    seal,
    split_frames,
)

F = PrimeField(131071)
F101 = PrimeField(101)


def _instances(field, seed=11):
    r = random.Random(seed)
    a = random_nonsingular(field, 4, r)
    adef = random_rank_deficient(field, 5, 4, 2, r)
    agrp = random_grp_matrix(field, 4, r)
    b = DenseMatrix.random(field, 4, 3, r)
    t = random_unit_lower(field, 4, r)
    return {
        "freivalds": (a, b, a @ b),
        "rank-upper": (adef,),
        "rank-lower": (adef,),
        "tri-equiv-lower": (a, a @ t),
        "tri-equiv-upper": (a, a @ t.transpose()),
        "grp": (agrp,),
        "ldup": (a,),
        "det": (a,),
        "crp": (adef,),
        "rrp": (adef,),
        "rpm-inv": (a,),
        "rpm": (adef,),
    }


def test_every_protocol_round_trips_deterministically():
    for name, mats in _instances(F).items():
        blob1, sealed = seal(name, *mats)
        blob2, _ = seal(name, *mats)
        assert blob1 == blob2, name
        proto, parsed, replayed = check(blob1)
        assert proto == name
        assert parsed == mats
        assert replayed.verdict.accepted, (name, replayed.verdict.reason)
        assert replayed.value == sealed.value, name


def test_every_protocol_round_trips_at_the_largest_modulus():
    """p = 2**31 - 1, where vector products go through 16-bit limbs, and
    p = 67108859, the largest prime below 2**26, where int64 products sum
    blocks of about 2**11 terms; rank deficient inputs, certified values
    against the brute-force oracles."""
    for p in (2**31 - 1, 67108859):
        _round_trip_every_protocol(PrimeField(p))


def _round_trip_every_protocol(f):
    r = random.Random(29)
    wide = random_rank_deficient(f, 5, 7, 3, r)
    square = random_rank_deficient(f, 5, 5, 3, r)
    a = random_nonsingular(f, 5, r)
    agrp = random_grp_matrix(f, 5, r)
    b = DenseMatrix.random(f, 5, 3, r)
    t = random_unit_lower(f, 5, r)

    def perm_rpm(perm):
        return RankProfileMatrix(5, 5, [(perm(j), j) for j in range(5)])

    cases = {
        "freivalds": ((a, b, a @ b), lambda v: v is True),
        "rank-upper": ((wide,), lambda v: v == oracle_rank(wide)),
        "rank-lower": ((wide,), lambda v: v == oracle_crp(wide)),
        "tri-equiv-lower": ((square, square @ t), lambda v: v is True),
        "tri-equiv-upper": ((square, square @ t.transpose()), lambda v: v is True),
        "grp": ((agrp,), lambda v: v is True and has_grp(agrp)),
        "ldup": ((a,), lambda v: (v[1].product() * v[0].sign()) % f.p == oracle_det(a)),
        "det": ((square,), lambda v: v == oracle_det(square) == 0),
        "crp": ((wide,), lambda v: v == oracle_crp(wide)),
        "rrp": ((wide,), lambda v: v == oracle_rrp(wide)),
        "rpm-inv": ((a,), lambda v: perm_rpm(v) == oracle_rpm(a)),
        "rpm": ((wide,), lambda v: v == oracle_rpm(wide)),
    }
    assert set(cases) == set(PROTOCOL_IDS)
    for name, (mats, agrees) in cases.items():
        blob, sealed = seal(name, *mats)
        assert agrees(sealed.value), (name, f.p)
        _, _, replayed = check(blob)
        assert replayed.verdict.accepted, (name, f.p, replayed.verdict.reason)
        assert replayed.value == sealed.value, (name, f.p)
    blob, sealed = seal("det", a)
    assert sealed.value == oracle_det(a) and check(blob)[2].value == sealed.value


def test_replay_pays_the_same_bill_as_the_interactive_run():
    for name, mats in _instances(F).items():
        blob, sealed = seal(name, *mats)
        _, _, replayed = check(blob)
        assert replayed.meter.communication_total == sealed.meter.communication_total
        assert replayed.meter.verifier_matvecs == sealed.meter.verifier_matvecs


UNSCHEDULED = {
    "det": ["det-mode", "ldup-commit"],
    "rpm": [
        "col-claim",
        "rank-lower-combination",
        "rank-lower-coefficients",
        "crp-mask",
        "col-claim",
        "crp-mask",
        "ldup-commit",
    ],
}


@pytest.mark.parametrize("protocol", sorted(UNSCHEDULED))
def test_a_seal_delivers_only_its_unscheduled_messages(protocol, monkeypatch):
    """Every scheduled round of a seal runs in lockstep, off the engine, so
    the same messages pass through ``Channel.deliver`` at n = 8 and 64,
    while the meter still counts every round."""
    deliveries = []
    deliver = Channel.deliver

    def counted(self, msg, recipient):
        deliveries.append(msg.kind)
        deliver(self, msg, recipient)

    monkeypatch.setattr(Channel, "deliver", counted)
    for n in (8, 64):
        rng = random.Random(n)
        if protocol == "det":
            a = random_nonsingular(F, n, rng)
        else:
            a = random_rank_deficient(F, n, n, 3 * n // 4, rng)
        deliveries.clear()
        blob, sealed = seal(protocol, a)
        assert deliveries == UNSCHEDULED[protocol], n
        engine = runner(protocol)((a,), InteractiveChallenges(n), None)
        assert sealed.meter.messages == engine.meter.messages > 2 * n
        assert check(blob)[2].verdict.accepted


def test_seal_refuses_false_statements():
    r = random.Random(3)
    a = random_nonsingular(F, 3, r)
    b = random_nonsingular(F, 3, r)
    wrong = (a @ b).array.copy()
    wrong[0, 0] = (wrong[0, 0] + 1) % F.p
    with pytest.raises(ValueError):
        seal("freivalds", a, b, DenseMatrix(F, wrong))


def test_header_layout_and_parse():
    a = DenseMatrix(F101, np.array([[1, 2], [3, 4]], dtype=np.int64))
    header = build_header("ldup", (a,))
    assert header[:4] == b"RKC1"
    assert header[4] == PROTOCOL_IDS["ldup"]
    assert int.from_bytes(header[5:13], "little") == 101
    proto, mats, pos = parse_header(header)
    assert proto == "ldup" and mats == (a,) and pos == len(header)


def test_companion_counts_are_enforced():
    a = DenseMatrix(F101, np.array([[1, 2], [3, 4]], dtype=np.int64))
    with pytest.raises(ValueError):
        build_header("freivalds", (a,))
    with pytest.raises(ValueError):
        build_header("ldup", (a, a))
    with pytest.raises(ValueError):
        build_header("no-such-protocol", (a,))
    with pytest.raises(ValueError):
        runner("no-such-protocol")


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, MAX_DIM + 1)])
def test_seal_refuses_a_matrix_check_would_refuse(shape):
    a = DenseMatrix(F101, np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError, match="cannot bind"):
        seal("rank-upper", a)
    # the same sizes written by hand abort the check
    blob = b"RKC1" + bytes([PROTOCOL_IDS["rank-upper"]]) + (101).to_bytes(8, "little")
    blob += shape[0].to_bytes(4, "little") + shape[1].to_bytes(4, "little")
    with pytest.raises(MalformedCertificate, match="implausible matrix dimensions"):
        check(blob)


# one statement per protocol whose shapes constrain its matrices, with
# sizes that break the letters of its row in ``PROTOCOLS``
_MISSHAPED = {
    "freivalds": ((3, 4), (3, 2), (3, 2)),
    "tri-equiv-lower": ((4, 4), (4, 3)),
    "tri-equiv-upper": ((3, 4), (4, 3)),
    "grp": ((3, 4),),
    "ldup": ((4, 3),),
    "det": ((2, 3),),
    "rpm-inv": ((5, 1),),
}


def test_every_constrained_protocol_has_a_misshaped_statement():
    assert set(_MISSHAPED) == {n for n, spec in PROTOCOLS.items() if spec.shapes != ("mn",)}


def _hand_header(protocol, mats):
    """The header of ``mats`` written field by field, past every check."""
    blob = b"RKC1" + bytes([PROTOCOL_IDS[protocol]]) + mats[0].field.p.to_bytes(8, "little")
    for mat in mats:
        blob += mat.m.to_bytes(4, "little") + mat.n.to_bytes(4, "little")
        blob += mat.array.astype("<i8").tobytes()
    return blob


@pytest.mark.parametrize("protocol", sorted(_MISSHAPED))
def test_a_misshaped_statement_is_refused_alike_on_every_route(protocol):
    """``check_statement`` refuses the statement for a seal and for an
    interactive run, and the same statement written by hand aborts the
    check with the same text."""
    r = random.Random(4)
    mats = tuple(DenseMatrix.random(F, m, n, r) for m, n in _MISSHAPED[protocol])
    with pytest.raises(DimensionError) as sealed:
        seal(protocol, *mats)
    with pytest.raises(DimensionError) as ran:
        runner(protocol)(mats, InteractiveChallenges(1), None)
    text = str(sealed.value)
    assert str(ran.value) == text and text.startswith(f"{protocol} binds shapes")
    assert _abort_text(check, _hand_header(protocol, mats)) == (
        f"certificate contradicts itself: {text}"
    )


# A = [[3, 5], [6, 4]] over p = 101 with B and C over p = 7: A.B = C holds
# mod 7 and not mod 101
_TWO_MODULI = (
    DenseMatrix(F101, np.array([[3, 5], [6, 4]], dtype=np.int64)),
    DenseMatrix(PrimeField(7), np.array([[3, 1], [2, 0]], dtype=np.int64)),
    DenseMatrix(PrimeField(7), np.array([[5, 3], [5, 6]], dtype=np.int64)),
)


def test_a_statement_over_two_moduli_is_refused():
    with pytest.raises(ValueError, match=r"over one field, got moduli \[7, 101\]"):
        seal("freivalds", *_TWO_MODULI)
    with pytest.raises(ValueError, match=r"over one field, got moduli \[7, 101\]"):
        runner("freivalds")(_TWO_MODULI, InteractiveChallenges(0), None)


def test_readme_lists_the_protocols_of_the_table_in_order():
    """README's "What can be certified" table has one row per protocol of
    ``PROTOCOLS``, in its order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What can be certified", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)
    assert rows == list(PROTOCOLS)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XKC1" + b[4:],                      # magic
        lambda b: b[:4] + bytes([99]) + b[5:],          # unknown protocol id
        lambda b: b[:5] + (100).to_bytes(8, "little") + b[13:],  # composite modulus
        lambda b: b[:40],                               # truncated entries
        lambda b: b + b"\x05",                          # dangling frame length
    ],
)
def test_structurally_broken_blobs_are_malformed(mutate):
    a = DenseMatrix(F101, np.array([[5, 1], [2, 3]], dtype=np.int64))
    blob, _ = seal("ldup", a)
    with pytest.raises(MalformedCertificate):
        check(mutate(blob))


def test_out_of_range_entry_is_malformed():
    a = DenseMatrix(F101, np.array([[5, 1], [2, 3]], dtype=np.int64))
    blob, _ = seal("ldup", a)
    # first matrix entry lives right after the 8-byte dims that follow the modulus
    pos = 13 + 8
    bad = blob[:pos] + (101).to_bytes(8, "little") + blob[pos + 8 :]
    with pytest.raises(MalformedCertificate):
        check(bad)


@pytest.mark.parametrize("entry", [101, -1, 2**62])
def test_out_of_range_decoded_matrix_entry_aborts_with_its_reason(entry):
    """A decoded header matrix is range-checked like any outside array."""
    a = DenseMatrix(F101, np.array([[5, 1], [2, 3]], dtype=np.int64))
    blob, _ = seal("ldup", a)
    pos = 13 + 8 + 3 * 8  # the last entry of the 2 x 2 header matrix
    bad = blob[:pos] + entry.to_bytes(8, "little", signed=True) + blob[pos + 8 :]
    with pytest.raises(MalformedCertificate, match="matrix entry out of range"):
        check(bad)


def test_trailing_frames_are_malformed():
    a = DenseMatrix(F101, np.array([[5, 1], [2, 3]], dtype=np.int64))
    blob, _ = seal("ldup", a)
    with pytest.raises(MalformedCertificate):
        check(blob + (0).to_bytes(4, "little"))


# Seals and checks that fail


def _failure(fn, *args):
    """The type and text of what ``fn`` raises, else the reason its run
    was rejected for."""
    try:
        return fn(*args)[-1].verdict.reason
    except (ProtocolAbort, ValueError) as exc:
        return type(exc), str(exc)


def _broken(blob, pos):
    """Damage of each kind to a det certificate with a header of ``pos``
    bytes, which ends in a one-value answer frame."""
    return {
        "truncated frame": blob[:-3],
        "truncated header": blob[: pos - 8],
        "frame value out of range": blob[:-8] + F.p.to_bytes(8, "little"),
        "header entry out of range": blob[:21] + F.p.to_bytes(8, "little") + blob[29:],
        "composite modulus": blob[:5] + (100).to_bytes(8, "little") + blob[13:],
        "trailing frame": blob + bytes(4),
        "flipped answer": blob[:-8] + ((int.from_bytes(blob[-8:], "little") + 1) % F.p).to_bytes(8, "little"),
    }


def test_a_broken_large_certificate_fails_on_its_first_fault():
    blob, _ = seal("det", random_nonsingular(F, 363, random.Random(363)))
    failed = {kind: _failure(check, b) for kind, b in _broken(blob, parse_header(blob)[2]).items()}
    assert failed["truncated frame"] == (MalformedCertificate, "truncated frame")
    assert failed["truncated header"] == (MalformedCertificate, "truncated matrix entries")
    assert failed["frame value out of range"] == (MalformedCertificate, "field element out of range")
    assert failed["header entry out of range"] == (MalformedCertificate, "matrix entry out of range")
    assert failed["composite modulus"][1].startswith("bad modulus")
    assert failed["trailing frame"] == (MalformedCertificate, "certificate has trailing frames")
    assert failed["flipped answer"] == "final-check"


def test_a_seal_of_a_false_statement_raises():
    r = random.Random(8)
    a, b = random_nonsingular(F, 3, r), random_nonsingular(F, 3, r)
    wrong = (a @ b).array.copy()
    wrong[0, 0] = (wrong[0, 0] + 1) % F.p
    no_grp = DenseMatrix(F, np.array([[0, 1], [1, 0]], dtype=np.int64))
    assert _failure(seal, "freivalds", a, b, DenseMatrix(F, wrong))[0] is ValueError
    assert _failure(seal, "grp", no_grp)[0] is WitnessUnavailable


def test_every_single_byte_matters():
    """Exhaustive one-byte corruption of one small certificate: no
    mutation may be accepted."""
    a = DenseMatrix(F101, np.array([[0, 1, 2], [0, 2, 4], [3, 0, 1]], dtype=np.int64))
    blob, _ = seal("crp", a)
    outcomes = {"reject": 0, "abort": 0}
    for i in range(len(blob)):
        mutated = bytearray(blob)
        mutated[i] ^= 0x01
        try:
            _, _, res = check(bytes(mutated))
            assert not res.verdict.accepted, f"byte {i} accepted after mutation"
            outcomes["reject"] += 1
        except ProtocolAbort:
            outcomes["abort"] += 1
    assert outcomes["reject"] + outcomes["abort"] == len(blob)
    # both failure modes occur: value corruption rejects, structure corruption aborts
    assert outcomes["reject"] > 0 and outcomes["abort"] > 0


def test_frame_decoding_validates_residues():
    good = (13).to_bytes(4, "little") + bytes([1]) + (1).to_bytes(4, "little") + (7).to_bytes(8, "little")
    frames = split_frames(F101, good, 0)
    assert list(frames) == [good[4:]]
    assert ReplayProver(frames).next_message().parts == (Part("field", (7,)),)
    overflow = (13).to_bytes(4, "little") + bytes([1]) + (1).to_bytes(4, "little") + (101).to_bytes(8, "little")
    with pytest.raises(MalformedCertificate):
        split_frames(F101, overflow, 0)
    unknown_tag = (6).to_bytes(4, "little") + bytes([9]) + (0).to_bytes(4, "little") + b"\x00"
    with pytest.raises(MalformedCertificate):
        split_frames(F101, unknown_tag, 0)
    # a field part may be empty; the range check then has nothing to read
    empty = (5).to_bytes(4, "little") + bytes([1]) + (0).to_bytes(4, "little")
    assert list(split_frames(F101, empty, 0)) == [empty[4:]]
    with pytest.raises(MalformedCertificate):
        split_frames(F101, empty + unknown_tag, 0)
    # the first fault in the bytes is the one reported
    with pytest.raises(MalformedCertificate, match="field element out of range"):
        split_frames(F101, overflow + unknown_tag, 0)


def test_replay_prover_feeds_frames_in_order():
    claim = bytes([5]) + (1).to_bytes(4, "little") + (3).to_bytes(8, "little")
    flag = bytes([4]) + (1).to_bytes(4, "little") + b"\x01"
    replay = ReplayProver(deque([claim, flag]))
    first = replay.next_message()
    assert first.kind is None and first.parts == (Part("claim", (3,)),)
    assert replay.next_message().parts == (Part("flag", (1,)),)
    assert replay.next_message() is None


# Golden fixtures: these pin the full byte format, including the hash
# derivation of the challenges.  If one of these moves, every certificate
# in the wild silently broke.

GOLDEN_DET = {
    "matrix": [[2, 7, 1], [8, 2, 8], [1, 8, 2]],
    "p": 101,
    "length": 237,
    "sha256": "810e4a09969779ecd039b8e52742383846873cb492359476329e85b4e40040c5",
    "value": 88,
}

GOLDEN_RPM = {
    "matrix": [[3, 0], [4, 9]],
    "p": 101,
    "length": 294,
    "sha256": "1a29af5c81c448efcd408316903514c9b1722b2b377488aca182ec8d7d3ca9ac",
}


def test_golden_det_certificate():
    f = PrimeField(GOLDEN_DET["p"])
    a = DenseMatrix(f, np.array(GOLDEN_DET["matrix"], dtype=np.int64))
    blob, sealed = seal("det", a)
    assert len(blob) == GOLDEN_DET["length"]
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DET["sha256"]
    assert sealed.value == GOLDEN_DET["value"] == oracle_det(a)
    assert blob[:4] == b"RKC1"
    _, _, replayed = check(blob)
    assert replayed.verdict.accepted and replayed.value == GOLDEN_DET["value"]


def test_golden_rpm_certificate():
    f = PrimeField(GOLDEN_RPM["p"])
    a = DenseMatrix(f, np.array(GOLDEN_RPM["matrix"], dtype=np.int64))
    blob, sealed = seal("rpm", a)
    assert len(blob) == GOLDEN_RPM["length"]
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_RPM["sha256"]
    assert sealed.value == oracle_rpm(a)


# One small certificate per protocol at p = 101, recorded before the provers
# were changed to factor each matrix once.  Covers a singular det, rank
# deficient crp, rrp, rank-upper, rpm and tri-equiv-upper, and a full column
# rank tri-equiv-lower (where the witness is unique).

GOLDEN_PROTOCOLS = {
    "freivalds": (
        "freivalds",
        (
            [[0, 3, 5], [2, 0, 7], [4, 1, 1]],
            [[53, 67], [93, 78], [27, 39]],
            [[10, 25], [93, 3], [29, 82]],
        ),
        205,
        "9d1fa19e92ef723cf595b9c853594754f60e3cac846f6337a00df7f7f42dc3ad",
    ),
    "rank-upper": (
        "rank-upper",
        ([[0, 0, 4, 8, 1], [0, 0, 2, 4, 7], [0, 0, 6, 12, 9]],),
        207,
        "2e9add7e7b583053d6fcf5b1adf64cb2df074ba755f0af3efd25066bd5febb5d",
    ),
    "rank-lower": (
        "rank-lower",
        (
            [
                [9, 51, 3, 96, 65],
                [11, 14, 19, 55, 59],
                [80, 29, 77, 1, 73],
                [41, 60, 76, 50, 11],
            ],
        ),
        223,
        "4ff8773c7a70c4d293277f82728e9ae29da3358d8c19756a7469623221f1682b",
    ),
    "tri-equiv-lower": (
        "tri-equiv-lower",
        (
            [[100, 52, 94], [32, 89, 92], [83, 70, 37], [25, 0, 70]],
            [[51, 43, 94], [9, 63, 92], [69, 31, 37], [99, 90, 70]],
        ),
        272,
        "7868b38a09ec8f1271e4165b91ff96da9500ec0f11e2e57206b40b0fae2b3f67",
    ),
    "tri-equiv-upper": (
        "tri-equiv-upper",
        (
            [[0, 1, 2, 0], [0, 3, 6, 1], [0, 5, 10, 4], [0, 2, 4, 2]],
            [[0, 1, 97, 78], [0, 3, 89, 33], [0, 5, 81, 91], [0, 2, 93, 57]],
        ),
        353,
        "3bb5bbc3f70e2de4dde2941b90f1225ca9001c277d1156d263cfdb3fbc773ab4",
    ),
    "grp": (
        "grp",
        ([[26, 41, 54], [62, 43, 60], [82, 58, 61]],),
        219,
        "d909549c7a7d4c6af3c6cd2e1b1af1cb60fed2652f0f202272890a646f2db485",
    ),
    "ldup": (
        "ldup",
        ([[0, 3, 5], [2, 0, 7], [4, 1, 1]],),
        227,
        "b62a2effbcd91c97f4a5e0cc0ce237c200ba4992a2f5e336d49a7b2ed2920aee",
    ),
    "det-singular": (
        "det",
        ([[1, 2, 3], [2, 4, 6], [0, 5, 1]],),
        153,
        "07a2da3dfa063a0578c5a2a8262030913b3ebc702023a8e06ae670d1f5eeeaad",
    ),
    "crp": (
        "crp",
        ([[0, 0, 4, 8, 1], [0, 0, 2, 4, 7], [0, 0, 6, 12, 9]],),
        217,
        "f06543f222259f3e99a97c86067613a8916310bfc7c3251076c3ea58fa49958f",
    ),
    "rrp": (
        "rrp",
        ([[0, 0, 0], [0, 0, 0], [4, 2, 6], [8, 4, 12], [1, 7, 9]],),
        217,
        "6c3cda1d6da77d61f9d26c3fb78a52ee8447ff68d439bbbaf58d72ae378f8941",
    ),
    "rpm-inv": (
        "rpm-inv",
        ([[0, 3, 5], [2, 0, 7], [4, 1, 1]],),
        278,
        "2aa18a0c82a230da5dd5a76487ec3adfeb7b29127167f50b409dbacc21dadc1d",
    ),
    "rpm-deficient": (
        "rpm",
        ([[0, 0, 1, 2, 0], [0, 3, 0, 0, 1], [0, 6, 2, 4, 2], [0, 0, 0, 0, 0]],),
        422,
        "f2c6fb4c4b140f69f7c4170e6084328961d7c940aeaeb374ff85742a655b621a",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PROTOCOLS))
def test_golden_protocol_certificates(case):
    protocol, rows, length, digest = GOLDEN_PROTOCOLS[case]
    mats = tuple(DenseMatrix(F101, np.array(m, dtype=np.int64)) for m in rows)
    blob, sealed = seal(protocol, *mats)
    assert len(blob) == length
    assert hashlib.sha256(blob).hexdigest() == digest
    _, _, replayed = check(blob)
    assert replayed.verdict.accepted and replayed.value == sealed.value


# Mutation fuzz: a damaged certificate ends in exactly one of three ways.

def _frame_spans(blob):
    """(start, end) of each length-prefixed frame, prefix included."""
    _, _, pos = parse_header(blob)
    spans = []
    while pos < len(blob):
        end = pos + 4 + int.from_bytes(blob[pos : pos + 4], "little")
        spans.append((pos, end))
        pos = end
    return spans


_SEALED = {name: seal(name, *mats) for name, mats in _instances(F101).items()}


def _mutate(data):
    """A sealed certificate's name and run, the kind of damage, and the
    damaged bytes."""
    name = data.draw(st.sampled_from(sorted(_SEALED)))
    blob, sealed = _SEALED[name]
    spans = _frame_spans(blob)
    kind = data.draw(st.sampled_from(("truncate", "splice", "insert", "length", "flip")))
    if kind == "truncate":
        mutated = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "splice":
        donor = _SEALED[data.draw(st.sampled_from(sorted(_SEALED)))][0]
        donor_spans = _frame_spans(donor)
        lo = data.draw(st.integers(0, len(spans)))
        hi = data.draw(st.integers(lo, len(spans)))
        dlo = data.draw(st.integers(0, len(donor_spans)))
        dhi = data.draw(st.integers(dlo, len(donor_spans)))

        def cut(b, s, i, j):
            start = s[i][0] if i < len(s) else len(b)
            end = s[j - 1][1] if j > i else start
            return start, end

        start, end = cut(blob, spans, lo, hi)
        dstart, dend = cut(donor, donor_spans, dlo, dhi)
        mutated = blob[:start] + donor[dstart:dend] + blob[end:]
    elif kind == "insert":
        at = data.draw(st.integers(0, len(blob)))
        mutated = blob[:at] + data.draw(st.binary(min_size=1, max_size=16)) + blob[at:]
    elif kind == "length" and spans:
        start, end = spans[data.draw(st.integers(0, len(spans) - 1))]
        length = data.draw(st.integers(0, 2 * (end - start)))
        mutated = blob[:start] + length.to_bytes(4, "little") + blob[start + 4 :]
    else:
        mutated = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 6))):
            at = data.draw(st.integers(0, len(blob) - 1))
            mutated[at] ^= data.draw(st.integers(1, 255))
        mutated = bytes(mutated)
    return name, sealed, kind, mutated


@settings(max_examples=4000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_certificates_are_accepted_unchanged_rejected_or_aborted(data):
    name, sealed, kind, mutated = _mutate(data)
    try:
        _, _, res = check(mutated)
    except ProtocolAbort:
        return
    if res.verdict.accepted:
        assert res.value == sealed.value, (name, kind)


# Both paths of a check: the verifier replaying its round schedules off the
# frames, and every round going over the message engine.


def _engine_check(blob):
    """``check`` with the frames left off the challenge source."""
    protocol, mats, pos = parse_header(blob)
    frames = split_frames(mats[0].field, blob, pos)
    prover = ReplayProver(frames)
    try:
        res = runner(protocol)(mats, FiatShamirChallenges(blob[:pos]), prover)
    except (ValueError, IndexError) as exc:
        raise MalformedCertificate(str(exc)) from exc
    if res.verdict.accepted and frames:
        raise MalformedCertificate("certificate has trailing frames")
    return res


def _outcome(blob, run):
    """Verdict, reason, value and meter of a check, or its abort class."""
    try:
        res = run(blob)
    except ProtocolAbort as exc:
        return type(exc).__name__
    value = res.value
    return (res.verdict, repr(value), type(value), dataclasses.astuple(res.meter))


def _assert_paths_agree(blob):
    replayed = _outcome(blob, lambda b: check(b)[2])
    assert replayed == _outcome(blob, _engine_check)
    return replayed


def test_engine_and_replay_agree_on_golden_certificates():
    goldens = [(GOLDEN_DET, "det"), (GOLDEN_RPM, "rpm")]
    blobs = [
        seal(name, DenseMatrix(PrimeField(g["p"]), np.array(g["matrix"], dtype=np.int64)))[0]
        for g, name in goldens
    ]
    for protocol, rows, _, _ in GOLDEN_PROTOCOLS.values():
        mats = tuple(DenseMatrix(F101, np.array(m, dtype=np.int64)) for m in rows)
        blobs.append(seal(protocol, *mats)[0])
    for blob in blobs:
        assert _assert_paths_agree(blob)[0].accepted


def test_scheduled_answers_with_an_extra_part_abort_on_both_paths():
    """Each answer of grp's schedule, given an empty field part or a claim
    after its own, no longer has the answer's shape."""
    blob, _ = _SEALED["grp"]
    for start, end in _frame_spans(blob):
        for extra in (bytes([1]) + bytes(4), bytes([5]) + (1).to_bytes(4, "little") + bytes(8)):
            frame = blob[start + 4 : end] + extra
            mutated = blob[:start] + len(frame).to_bytes(4, "little") + frame + blob[end:]
            assert _assert_paths_agree(mutated) == "MalformedCertificate"


# One rule per value on every route: a prover value the certificate route
# refuses stops the interactive run, the engine check and the replay alike,
# with the same text.

RAISED = {
    # per protocol, the kinds of prover message whose first field value is
    # raised by p: a scheduled answer, and a value outside every schedule
    # where the protocol has one
    "rank-upper": ["rank-upper-witness"],
    "rank-lower": ["rank-lower-coefficients"],
    "tri-equiv-lower": ["tri-response"],
    "tri-equiv-upper": ["tri-response"],
    "grp": ["grp-response-pair", "grp-weight-response"],
    "ldup": ["ldup-commit", "ldup-response-pair"],
    "det": ["ldup-commit", "ldup-weight-response"],
    "crp": ["rank-lower-coefficients", "crp-y"],
    "rrp": ["rank-lower-coefficients", "crp-y"],
    "rpm-inv": ["ldup-commit", "rpm-f"],
    "rpm": ["rank-lower-coefficients", "rpm-f"],
}
_SINGULAR = random_rank_deficient(F, 4, 4, 2, random.Random(4))


class _Tampered:
    """The honest prover with the first ``tag`` value of its first
    ``kind`` message replaced by ``change(value)``."""

    def __init__(self, honest, kind, tag, change):
        self.honest, self.kind, self.tag, self.change = honest, kind, tag, change

    def next_message(self):
        msg = self.honest.next_message()
        if msg is not None and msg.kind == self.kind and self.change:
            i = next(k for k, part in enumerate(msg.parts) if part.tag == self.tag)
            values = msg.parts[i].values
            part = Part(self.tag, (self.change(values[0]),) + values[1:])
            msg = Message(msg.sender, msg.kind, msg.index, msg.parts[:i] + (part,) + msg.parts[i + 1 :])
            self.change = None
        return msg

    def receive(self, msg):
        self.honest.receive(msg)


def _tampered_certificate(protocol, mats, kind, tag, change):
    """The sealed certificate with the same value changed: the frame of the
    prover's first ``kind`` message, found by its place in the honest
    interactive run."""
    blob, _ = seal(protocol, *mats)
    sent = [m for m in runner(protocol)(mats, InteractiveChallenges(0), None).transcript if m.sender == PROVER]
    spans = _frame_spans(blob)
    assert [m.encode_payload()[:5] for m in sent] == [blob[a + 4 : a + 9] for a, _ in spans]
    start = spans[[m.kind for m in sent].index(kind)][0] + 4
    at = start + next(at for t, _, at in _parts(blob[start:]) if t == tag)
    width = PART_WIDTHS[tag]
    value = change(int.from_bytes(blob[at : at + width], "little"))
    return blob[:at] + value.to_bytes(width, "little") + blob[at + width :]


def _abort_text(fn, *args):
    with pytest.raises(MalformedCertificate) as exc:
        fn(*args)
    return str(exc.value)


def _abort_text_on_every_route(protocol, mats, kind, tag, change):
    """The abort text of the interactive run, the engine check and the
    replayed check, each given the same changed value."""
    honest = PROTOCOLS[protocol].prover(*mats)
    blob = _tampered_certificate(protocol, mats, kind, tag, change)
    routes = [
        lambda: runner(protocol)(mats, InteractiveChallenges(3), _Tampered(honest, kind, tag, change)),
        lambda: _engine_check(blob),
        lambda: check(blob),
    ]
    return [_abort_text(route) for route in routes]


@pytest.mark.parametrize(
    "protocol, kind",
    [(name, kind) for name, kinds in RAISED.items() for kind in kinds] + [("det", "rank-upper-witness")],
)
def test_a_field_value_raised_by_p_aborts_alike_on_every_route(protocol, kind):
    mats = (_SINGULAR,) if kind == "rank-upper-witness" and protocol == "det" else _instances(F)[protocol]
    texts = _abort_text_on_every_route(protocol, mats, kind, "field", lambda v: v + F.p)
    assert texts == ["field element out of range"] * 3


@pytest.mark.parametrize("singular", [False, True])
def test_a_det_mode_flag_of_two_aborts_alike_on_every_route(singular):
    mats = (_SINGULAR,) if singular else _instances(F)["det"]
    texts = _abort_text_on_every_route("det", mats, "det-mode", "flag", lambda v: 2)
    assert texts == ["flag out of range"] * 3


def _header_faults(blob, second):
    """Single faults in the header of a certificate binding two 4 x 4
    matrices, the second one's dimensions at ``second``, each with the text
    it aborts with, grouped as ``parse_header`` checks them: the magic and
    the length, the id, the dimensions and entry counts, then the modulus
    and the entries."""

    def put(at, value, width=8):
        return blob[:at] + value.to_bytes(width, "little", signed=True) + blob[at + width :]

    return [
        (b"XKC1" + blob[4:], "bad magic"),
        (blob[:3], "bad magic"),
        (blob[:12], "truncated header"),
        (put(4, 0, 1), "unknown protocol id 0"),
        (put(4, 99, 1), "unknown protocol id 99"),
        (blob[:19], "truncated matrix header"),
        (blob[: second + 7], "truncated matrix header"),
        (put(13, 0, 4), "implausible matrix dimensions"),
        (put(second + 4, MAX_DIM + 1, 4), "implausible matrix dimensions"),
        (blob[: 13 + 8 + 8], "truncated matrix entries"),
        (blob[: second + 8 + 15 * 8], "truncated matrix entries"),
        (put(5, 100), "bad modulus: modulus 100 is not prime"),
        (put(5, 1), "bad modulus: modulus must satisfy 2 <= p < 2**31, got 1"),
        (put(5, 2**31), f"bad modulus: modulus must satisfy 2 <= p < 2**31, got {2**31}"),
        (put(21, F.p), "matrix entry out of range"),
        (put(second + 8 + 15 * 8, -1), "matrix entry out of range"),
    ]


def test_a_header_fault_reads_the_same_from_parse_header_and_check():
    """``parse_header`` reads the header for ``check``, so every single
    fault in a header gives one text; of two faults, one in the dimensions
    or the length comes before one in the modulus, and that one before
    one in the entries."""
    r = random.Random(6)
    a, t = random_nonsingular(F, 4, r), random_unit_lower(F, 4, r)
    blob, _ = seal("tri-equiv-lower", a, a @ t)
    second = 13 + 8 + 16 * 8
    for bad, text in _header_faults(blob, second):
        assert _abort_text(parse_header, bad) == _abort_text(check, bad) == text
    bad_modulus = blob[:5] + (100).to_bytes(8, "little") + blob[13:]
    bad_entry = blob[: second + 8] + (F.p).to_bytes(8, "little") + blob[second + 16 :]
    for first, then, text in [
        (blob[: second + 8 + 15 * 8], bad_modulus, "truncated matrix entries"),
        (blob[:second] + (0).to_bytes(4, "little") + blob[second + 4 :], bad_modulus,
         "implausible matrix dimensions"),
        (blob[: second + 8 + 15 * 8], bad_entry, "truncated matrix entries"),
        (bad_modulus, bad_entry, "bad modulus: modulus 100 is not prime"),
    ]:
        both = bytes(x if x != y else z for x, y, z in zip(first, blob, then))
        assert _abort_text(parse_header, both) == text


def _reshape(data):
    """A sealed certificate with the parts of one frame re-shaped: an extra
    part after the frame's own, or an empty field part at a part boundary."""
    blob = data.draw(st.sampled_from([b for b, _ in _SEALED.values() if _frame_spans(b)]))
    start, end = data.draw(st.sampled_from(_frame_spans(blob)))
    frame = blob[start + 4 : end]
    if data.draw(st.booleans()):
        tag = data.draw(st.sampled_from(sorted(PART_TAGS)))
        top = 1 if tag == "flag" else 100
        values = data.draw(st.lists(st.integers(0, top), max_size=3))
        frame += Part(tag, tuple(values)).encode()
    else:
        bounds = [at - 5 for _, _, at in _parts(frame)] + [len(frame)]
        at = data.draw(st.sampled_from(bounds))
        frame = frame[:at] + Part("field", ()).encode() + frame[at:]
    return blob[:start] + len(frame).to_bytes(4, "little") + frame + blob[end:]


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_engine_and_replay_agree_on_reshaped_frames(data):
    # a frame of the wrong shape aborts, a claim frame included
    assert _assert_paths_agree(_reshape(data)) == "MalformedCertificate"


@settings(max_examples=4000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_engine_and_replay_agree_on_mutated_certificates(data):
    _assert_paths_agree(_mutate(data)[3])
