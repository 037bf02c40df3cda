"""Transcript fixtures: the order, kind and shape of every message in an
interactive run, with the meter totals, for all protocols.

Golden certificates hold only prover frames; these also pin each verifier
message, so a dropped or reordered challenge shows here.  Each protocol
runs once on a rank-deficient input (nonsingular where the protocol needs
it, and both for det) and once on a zero matrix, where a protocol without
a witness for it records the abort instead.  Print fresh fixtures with
``PYTHONPATH=src python tests/test_transcripts.py``.
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from rankcert.elimination import (
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
)
from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix
from rankcert.protocols.base import (
    FiatShamirChallenges,
    InteractiveChallenges,
    PROVER,
    ProtocolAbort,
    VERIFIER,
)
from rankcert.protocols.wire import PROTOCOL_IDS, build_header, runner, seal

F = PrimeField(101)


def _cases():
    r = random.Random(20261018)
    wide = random_rank_deficient(F, 5, 7, 3, r)
    square = random_rank_deficient(F, 5, 5, 3, r)
    full = random_nonsingular(F, 5, r)
    b = DenseMatrix.random(F, 7, 3, r)
    t = random_unit_lower(F, 5, r)
    zero = DenseMatrix(F, np.zeros((5, 5), dtype=np.int64))
    zero_wide = DenseMatrix(F, np.zeros((4, 6), dtype=np.int64))
    some = {
        "freivalds": (wide, b, wide @ b),
        "rank-upper": (wide,),
        "rank-lower": (wide,),
        "tri-equiv-lower": (square, square @ t),
        "tri-equiv-upper": (square, square @ t.transpose()),
        "grp": (random_grp_matrix(F, 5, r),),
        "ldup": (full,),
        "det": (square,),
        "crp": (wide,),
        "rrp": (wide,),
        "rpm-inv": (full,),
        "rpm": (wide,),
    }
    zeros = {
        "freivalds": (zero, zero, zero),
        "tri-equiv-lower": (zero, zero),
        "tri-equiv-upper": (zero, zero),
        "crp": (zero_wide,),
        "rrp": (zero_wide,),
    }
    cases = {}
    for name, mats in some.items():
        cases[f"{name}/some"] = (name, mats)
        cases[f"{name}/zero"] = (name, zeros.get(name, (zero,)))
    # det's other route, the factorization
    cases["det/full"] = ("det", (full,))
    return cases


def fingerprint(protocol, mats):
    """sha256 of the (sender, kind, index, shape) sequence plus the meter,
    or the name of the abort the honest prover raises."""
    try:
        res = runner(protocol)(mats, InteractiveChallenges(7), None)
    except ProtocolAbort as exc:
        return type(exc).__name__
    assert res.verdict.accepted, (protocol, res.verdict.reason)
    steps = repr([(m.sender, m.kind, m.index, m.shape()) for m in res.transcript])
    return (hashlib.sha256(steps.encode()).hexdigest(), dataclasses.astuple(res.meter))


# recorded with the per-phase runners, before the phases shared one session
TRANSCRIPTS = {
    "crp/some": ("f9f9b7ce3dfa1b2f22b5b62b2e92fb5615b734437a8d2dd757e2e02d737bcc66", (6, 15, 3, 0, 10, 144, 2)),
    "crp/zero": ("a623ac7c814bd364d1a4b65c001ead9c3883cf7c13be9dc6c684771215d3d4c8", (0, 10, 0, 0, 4, 95, 2)),
    "det/full": ("c381f417a3febc09d9e5d20ebb3a3af3ddc8e69343b4be4859b3d0c678dfa683", (17, 12, 6, 0, 18, 110, 1)),
    "det/some": ("d0ac348b2e508afd27f4ac24735ff86a9bc467e7bf73dd3c65d40a3141f65102", (5, 5, 2, 0, 4, 90, 2)),
    "det/zero": ("d0ac348b2e508afd27f4ac24735ff86a9bc467e7bf73dd3c65d40a3141f65102", (5, 5, 2, 0, 4, 90, 2)),
    "freivalds/some": ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", (0, 0, 0, 0, 0, 125, 3)),
    "freivalds/zero": ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", (0, 0, 0, 0, 0, 135, 3)),
    "grp/some": ("83d8f8aafdcd5b29da1ab7541fd55b80d62a36d81a138dc8f0bb7193dd60b7ec", (15, 15, 0, 0, 20, 81, 1)),
    "grp/zero": "WitnessUnavailable",
    "ldup/some": ("a576f91fe87a4d6810b8195434651d3e7e1c98ba49ad72475b4f80109fe83bcb", (17, 12, 5, 0, 17, 106, 1)),
    "ldup/zero": "WitnessUnavailable",
    "rank-lower/some": ("9533daac452b2c4e7e386979dc445a0d0e28569f57f16c0a3b5fdbb63e552968", (3, 5, 3, 0, 3, 65, 1)),
    "rank-lower/zero": ("e76e88d54b5a739f52a285ce58f51a106b10cdecaac70775fccd0c71a0811dd3", (0, 5, 0, 0, 3, 45, 1)),
    "rank-upper/some": ("848963528b8012a06ce704e363b61ca052c81b66446009e486d8af4a74c2744a", (7, 5, 1, 0, 3, 130, 2)),
    "rank-upper/zero": ("bd4b2650e477711225e27f772ae35598340e54b13b8a0b0b556e8c892db7794c", (5, 5, 1, 0, 3, 90, 2)),
    "rpm-inv/some": ("53227ff41ce1a41ccbdb06525c804229e073ff8855c6b4e61714966c6b823166", (22, 17, 5, 0, 27, 124, 1)),
    "rpm-inv/zero": "WitnessUnavailable",
    "rpm/some": ("f19414f06f0f46696193c2b592fb44d96f081f24a16a9a6ed414379bfb69d028", (21, 32, 9, 0, 33, 279, 4)),
    "rpm/zero": ("f084841e5efffccfebac0ff1449aa67844818b04f712c1926d98d427cca77e29", (0, 15, 0, 0, 6, 147, 3)),
    "rrp/some": ("24e1c0b47f7f0b553996b3728ed33287f44c1af8ffb7dab3304ead40ac7b04e2", (6, 15, 3, 0, 10, 138, 2)),
    "rrp/zero": ("7bff13cbf49a012b413892bb06dc9a7fe7201d2a1a10295b4b9dcdb5958a22e9", (0, 10, 0, 0, 4, 89, 2)),
    "tri-equiv-lower/some": ("706d36db77311f9cac2b80a3eb6b257c72303601866e4b4a6a6887b816c07617", (5, 5, 0, 0, 10, 90, 2)),
    "tri-equiv-lower/zero": ("706d36db77311f9cac2b80a3eb6b257c72303601866e4b4a6a6887b816c07617", (5, 5, 0, 0, 10, 90, 2)),
    "tri-equiv-upper/some": ("9e9ade293288e63fa74fbe2641658d82a0d952f7705315ec16a1ee7148cb413d", (5, 5, 0, 0, 10, 90, 2)),
    "tri-equiv-upper/zero": ("9e9ade293288e63fa74fbe2641658d82a0d952f7705315ec16a1ee7148cb413d", (5, 5, 0, 0, 10, 90, 2)),
}


def test_fixtures_cover_every_protocol_twice():
    assert set(TRANSCRIPTS) == set(_cases())
    assert {name.split("/")[0] for name in TRANSCRIPTS} == set(PROTOCOL_IDS)


@pytest.mark.parametrize("case", sorted(TRANSCRIPTS))
def test_transcript_matches_fixture(case):
    protocol, mats = _cases()[case]
    assert fingerprint(protocol, mats) == TRANSCRIPTS[case]


@pytest.mark.parametrize("case", sorted(TRANSCRIPTS))
def test_seal_in_lockstep_matches_an_engine_run_on_the_same_header(case):
    """A seal runs its round schedules in lockstep with the verifier; a
    Fiat-Shamir run on the same header that is not a seal sends them over
    the engine.  Both give the same frames and meter, or the same abort."""
    protocol, mats = _cases()[case]
    header = build_header(protocol, mats)
    try:
        engine = runner(protocol)(mats, FiatShamirChallenges(header), None)
    except ProtocolAbort as exc:
        with pytest.raises(type(exc)):
            seal(protocol, *mats)
        return
    assert engine.verdict.accepted
    frames = [m.encode_payload() for m in engine.transcript if m.sender == PROVER]
    blob = header + b"".join(len(f).to_bytes(4, "little") + f for f in frames)
    sealed_blob, sealed = seal(protocol, *mats)
    assert sealed_blob == blob
    assert sealed.meter == engine.meter
    assert sealed.value == engine.value


def test_rpm_on_a_zero_matrix_still_sends_each_profile_mask():
    """Both profile runs finish at r = 0 inside their stream verifier, and
    each still sends its mask before the next phase starts."""
    a = DenseMatrix(F, np.zeros((5, 5), dtype=np.int64))
    res = runner("rpm")((a,), InteractiveChallenges(7), None)
    assert res.verdict.accepted and res.value.rank == 0
    kinds = [m.kind for m in res.transcript]
    assert kinds == [
        "col-claim",
        "rank-lower-combination",
        "rank-lower-coefficients",
        "crp-mask",
        "col-claim",
        "crp-mask",
    ]
    assert [m.sender == VERIFIER for m in res.transcript].count(True) == 3
    assert res.meter.messages == 6 and res.meter.field_elems_total == 15


if __name__ == "__main__":
    for case, (protocol, mats) in sorted(_cases().items()):
        print(f"    {case!r}: {fingerprint(protocol, mats)!r},".replace("'", '"'))
