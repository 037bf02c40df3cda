"""Channel, meter, ordering and challenge-stream behavior."""

import gc
import hashlib
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from rankcert.field import PrimeField, SampleSet
from rankcert.protocols.base import (
    Channel,
    CostMeter,
    EngineError,
    FiatShamirChallenges,
    InteractiveChallenges,
    MalformedCertificate,
    Message,
    Part,
    PROVER,
    ProtocolOrderError,
    ProverMachine,
    VERIFIER,
    VerifierMachine,
    chain,
    claim_part,
    drive,
    field_part,
    flag_part,
    indices_part,
    perm_part,
)

F = PrimeField(101)


# Parts and messages -----------------------------------------------------------


def test_part_encoding_widths():
    assert field_part((5, 6)).encode() == bytes([1]) + (2).to_bytes(4, "little") + (
        5
    ).to_bytes(8, "little") + (6).to_bytes(8, "little")
    assert perm_part((1, 0)).encode()[0] == 2
    assert len(perm_part((1, 0)).encode()) == 1 + 4 + 2 * 4
    assert len(indices_part((3,)).encode()) == 1 + 4 + 4
    assert len(flag_part(True).encode()) == 1 + 4 + 1
    assert len(claim_part(9).encode()) == 1 + 4 + 8


def test_part_rejects_unknown_tag():
    with pytest.raises(ValueError):
        Part("mystery", (1,))


def test_message_counts_and_shape():
    msg = Message(PROVER, "demo", 0, (field_part((1, 2, 3)), indices_part((0, 2))))
    assert msg.field_count == 3
    assert msg.int_count == 2
    assert msg.shape() == (("field", 3), ("indices", 2))


# Meter -------------------------------------------------------------------------


def test_meter_directional_counts():
    meter = CostMeter()
    meter.count_message(Message(PROVER, "a", None, (field_part((1, 2)),)))
    meter.count_message(Message(VERIFIER, "b", None, (field_part((1,)), claim_part(7))))
    assert meter.field_elems_prover_to_verifier == 2
    assert meter.field_elems_verifier_to_prover == 1
    assert meter.integers_verifier_to_prover == 1
    assert meter.integers_prover_to_verifier == 0
    assert meter.communication_total == 4
    assert meter.messages == 2


def test_meter_verifier_work():
    meter = CostMeter()
    meter.count_matvec(3, 5)
    assert meter.verifier_matvecs == 1
    assert meter.verifier_field_ops == 2 * 3 * 5 - 3
    meter.count_dot(4)
    assert meter.verifier_field_ops == 27 + 7
    meter.count_dot(0)  # empty dot is free
    assert meter.verifier_field_ops == 34
    meter.count_vector_op(10)
    assert meter.verifier_field_ops == 44


# Ordering contract --------------------------------------------------------------


class OneShotVerifier(VerifierMachine):
    """Sends one challenge, accepts any single-field reply."""

    def __init__(self, meter, challenges):
        super().__init__(meter, challenges)
        self._send("ping", 0, field_part((7,)))
        self._await("pong", 0, (("field", 1),), lambda msg: self._accept(msg.part().values[0]))


class EchoProver(ProverMachine):
    def __init__(self):
        super().__init__()
        self._await("ping", 0, (("field", 1),), self._on_ping)

    def _on_ping(self, msg):
        self._send("pong", 0, field_part((msg.part().values[0],)))


def _session():
    meter = CostMeter()
    challenges = InteractiveChallenges(0)
    return EchoProver(), OneShotVerifier(meter, challenges), Channel(meter, challenges)


def test_drive_happy_path():
    prover, verifier, channel = _session()
    verdict = drive(prover, verifier, channel)
    assert verdict.accepted
    assert verifier.result_value == 7
    assert [m.kind for m in channel.transcript] == ["ping", "pong"]


def test_receive_with_queued_reply_is_an_order_violation():
    prover, verifier, channel = _session()
    # the verifier's challenge is still queued; delivering to it now is early
    with pytest.raises(ProtocolOrderError):
        channel.deliver(Message(PROVER, "pong", 0, (field_part((1,)),)), verifier)


def test_receive_wrong_kind_is_an_order_violation():
    prover, verifier, channel = _session()
    channel.deliver(verifier.next_message(), prover)
    with pytest.raises(ProtocolOrderError):
        channel.deliver(Message(PROVER, "pong", 1, (field_part((1,)),)), verifier)


def test_receive_unexpected_message_is_an_order_violation():
    prover, verifier, channel = _session()
    drive(prover, verifier, channel)
    # the run is over; nobody expects anything more
    with pytest.raises(ProtocolOrderError):
        channel.deliver(Message(PROVER, "pong", 0, (field_part((1,)),)), verifier)


def test_wrong_shape_is_malformed_even_with_matching_kind():
    prover, verifier, channel = _session()
    channel.deliver(verifier.next_message(), prover)
    prover.next_message()  # drop the queued reply so the outbox check passes
    with pytest.raises(MalformedCertificate):
        channel.deliver(Message(PROVER, "pong", 0, (field_part((1, 2)),)), verifier)


def test_anonymous_frame_skips_kind_check_but_not_shape():
    prover, verifier, channel = _session()
    channel.deliver(verifier.next_message(), prover)
    prover.next_message()
    channel.deliver(Message(PROVER, None, None, (field_part((9,)),)), verifier)
    assert verifier.verdict.accepted and verifier.result_value == 9


class TwoPhaseVerifier(VerifierMachine):
    """Two OneShotVerifier phases; accepts with both replies."""

    def __init__(self, meter, challenges):
        super().__init__(meter, challenges)
        self._delegate(OneShotVerifier(meter, challenges), self._on_first)

    def _on_first(self, first):
        self._delegate(
            OneShotVerifier(self.meter, self.challenges),
            lambda second: self._accept((first, second)),
        )


def test_delegated_phases_run_in_turn_over_one_channel():
    meter = CostMeter()
    challenges = InteractiveChallenges(0)
    channel = Channel(meter, challenges)
    verifier = TwoPhaseVerifier(meter, challenges)
    assert drive(chain(EchoProver(), EchoProver()), verifier, channel).accepted
    assert verifier.result_value == (7, 7)
    assert [m.kind for m in channel.transcript] == ["ping", "pong", "ping", "pong"]
    assert meter.messages == 4


def test_a_finished_delegating_verifier_is_freed_without_the_cycle_collector():
    meter = CostMeter()
    challenges = InteractiveChallenges(0)
    verifier = TwoPhaseVerifier(meter, challenges)
    gc.disable()
    try:
        drive(chain(EchoProver(), EchoProver()), verifier, Channel(meter, challenges))
        ref = weakref.ref(verifier)
        del verifier
        assert ref() is None
    finally:
        gc.enable()


def test_a_rejecting_phase_rejects_the_whole_run():
    class NoPhaseVerifier(VerifierMachine):
        def __init__(self, meter, challenges):
            super().__init__(meter, challenges)
            self._reject("inner-says-no")

    class Outer(VerifierMachine):
        def __init__(self, meter, challenges):
            super().__init__(meter, challenges)
            self._delegate(NoPhaseVerifier(meter, challenges), self._accept)

    meter = CostMeter()
    challenges = InteractiveChallenges(0)
    verdict = drive(ProverMachine(), Outer(meter, challenges), Channel(meter, challenges))
    assert not verdict.accepted and verdict.reason == "inner-says-no"


def test_chained_prover_keeps_the_first_phase_turn_order():
    prover = chain(EchoProver(), EchoProver())
    # the first phase awaits ping[0]; a message of another kind is early
    with pytest.raises(ProtocolOrderError):
        prover.receive(Message(VERIFIER, "pong", 0, (field_part((1,)),)))


def test_stall_raises_engine_error():
    class SilentProver(ProverMachine):
        def __init__(self):
            super().__init__()
            self._await("ping", 0, None, lambda msg: None)  # never replies

    meter = CostMeter()
    challenges = InteractiveChallenges(0)
    verifier = OneShotVerifier(meter, challenges)
    with pytest.raises(EngineError):
        drive(SilentProver(), verifier, Channel(meter, challenges))


def test_double_await_is_an_engine_bug():
    prover = EchoProver()
    with pytest.raises(EngineError):
        prover._await("x", 0, None, lambda m: None)


# Round schedules -------------------------------------------------------------------

TOY_ROUNDS = [
    ("toy-pair", 2, 2, "toy-pair-answer", 2),
    ("toy-one", 1, 1, "toy-one-answer", 1),
    ("toy-one", 0, 1, "toy-one-answer", 0),
]


class ToyVerifier(VerifierMachine):
    """Accepts when every answer is twice its challenge."""

    def __init__(self, meter, challenges):
        super().__init__(meter, challenges)
        self.sample_set = SampleSet(F)
        self.us, self.vs, self.xs, self.ys = np.zeros((4, 3), dtype=np.int64)
        self._ask(
            TOY_ROUNDS,
            {
                "toy-pair": (self.us, self.vs),
                "toy-pair-answer": (self.xs, self.ys),
                "toy-one": (self.us,),
                "toy-one-answer": (self.xs,),
            },
        )

    def _final_check(self):
        doubled = np.array_equal(self.xs, 2 * self.us % F.p)
        if doubled and self.ys[2] == 2 * self.vs[2] % F.p:
            self._accept(tuple(self.xs))
        else:
            self._reject("final-check")


class ToyProver(ProverMachine):
    def __init__(self):
        super().__init__()
        us, vs = np.zeros((2, 3), dtype=np.int64)
        self._answer(
            TOY_ROUNDS,
            {"toy-pair": (us, vs), "toy-one": (us,)},
            {
                "toy-pair": lambda i: (2 * us[i] % F.p, 2 * vs[i] % F.p),
                "toy-one": lambda i: (2 * us[i] % F.p,),
            },
        )


def _toy_session():
    meter = CostMeter()
    challenges = InteractiveChallenges(0)
    return ToyProver(), ToyVerifier(meter, challenges), Channel(meter, challenges)


def test_both_parties_run_the_schedule_in_order():
    prover, verifier, channel = _toy_session()
    assert drive(prover, verifier, channel).accepted
    assert [(m.sender, m.kind, m.index, m.shape()) for m in channel.transcript] == [
        (VERIFIER, "toy-pair", 2, (("field", 2),)),
        (PROVER, "toy-pair-answer", 2, (("field", 2),)),
        (VERIFIER, "toy-one", 1, (("field", 1),)),
        (PROVER, "toy-one-answer", 1, (("field", 1),)),
        (VERIFIER, "toy-one", 0, (("field", 1),)),
        (PROVER, "toy-one-answer", 0, (("field", 1),)),
    ]
    assert verifier.result_value == tuple(2 * verifier.us % F.p)


def test_a_sealed_schedule_gives_the_frames_and_meter_of_the_engine():
    """Marked as a seal, the toy schedule runs in lockstep, delivering no
    message; the absorbed frames, the meter and the verdict match an
    unmarked run."""
    runs = []
    for sealed in (None, []):
        meter = CostMeter()
        challenges = FiatShamirChallenges(b"toy")
        challenges.sealed = sealed
        channel = Channel(meter, challenges)
        verifier = ToyVerifier(meter, challenges)
        assert drive(ToyProver(), verifier, channel).accepted
        if sealed is None:
            sealed = [m.encode_payload() for m in channel.transcript if m.sender == PROVER]
        else:
            assert channel.transcript == []
        runs.append((sealed, meter, verifier.result_value))
    assert runs[0] == runs[1]
    assert len(runs[1][0]) == len(TOY_ROUNDS)


class HandProver(ProverMachine):
    """Answers the toy schedule one ``_await`` at a time, without ``_answer``."""

    def __init__(self):
        super().__init__()
        self._left = list(TOY_ROUNDS)
        self._expect()

    def _expect(self):
        if self._left:
            kind, i, width, _, _ = self._left[0]
            self._await(kind, i, (("field", width),), self._on_challenge)

    def _on_challenge(self, msg):
        _, _, _, answer, j = self._left.pop(0)
        self._send(answer, j, field_part(2 * v % F.p for v in msg.parts[0].values))
        self._expect()


class EagerProver(ToyProver):
    """Queues a message of its own before it answers the toy schedule."""

    def __init__(self):
        super().__init__()
        self._send("toy-note", 0, field_part((1,)))


@pytest.mark.parametrize("prover", [HandProver, EagerProver])
def test_a_sealed_schedule_the_prover_does_not_answer_in_turn_is_an_error(prover):
    """A seal runs a schedule only in lockstep: a prover that answers it
    outside ``_answer``, or has a message queued ahead of it, stops the
    seal instead of writing frames out of the engine's order."""
    meter = CostMeter()
    challenges = FiatShamirChallenges(b"toy")
    challenges.sealed = []
    with pytest.raises(EngineError, match="sealed schedule"):
        drive(prover(), ToyVerifier(meter, challenges), Channel(meter, challenges))
    assert challenges.sealed == []


class WideProver(ProverMachine):
    """Answers the toy schedule with a value no field part can encode."""

    def __init__(self, value):
        super().__init__()
        us, vs = np.zeros((2, 3), dtype=np.int64)
        self._answer(
            TOY_ROUNDS,
            {"toy-pair": (us, vs), "toy-one": (us,)},
            {"toy-pair": lambda i: (1, value), "toy-one": lambda i: (value,)},
        )


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("route", ["interactive", "fiat-shamir", "sealed"])
def test_an_answer_too_wide_to_encode_stops_every_route(value, route):
    """Interactive runs encode no prover message, and their verifier
    aborts on the value as on any non-residue; seals encode their answers
    without a ``Part``; every route fails on a value that cannot be
    encoded."""
    meter = CostMeter()
    if route == "interactive":
        challenges = InteractiveChallenges(0)
    else:
        challenges = FiatShamirChallenges(b"toy")
        challenges.sealed = [] if route == "sealed" else None
    verifier = ToyVerifier(meter, challenges)
    error = MalformedCertificate if route == "interactive" else OverflowError
    with pytest.raises(error):
        drive(WideProver(value), verifier, Channel(meter, challenges))
    assert verifier.verdict is None


def test_an_interactive_run_encodes_no_message(monkeypatch):
    encoded = []
    encode = Message.encode_payload

    def counted(self):
        encoded.append(self.kind)
        return encode(self)

    monkeypatch.setattr(Message, "encode_payload", counted)
    for challenges in (InteractiveChallenges(0), FiatShamirChallenges(b"toy")):
        meter = CostMeter()
        encoded.clear()
        assert drive(ToyProver(), ToyVerifier(meter, challenges), Channel(meter, challenges)).accepted
        assert len(encoded) == (len(TOY_ROUNDS) if challenges.reads_frames else 0)


def _through_first_round_then_second_challenge(prover, verifier, channel):
    channel.deliver(verifier.next_message(), prover)
    channel.deliver(prover.next_message(), verifier)
    channel.deliver(verifier.next_message(), prover)
    prover.next_message()  # drop the honest reply


def test_an_answer_with_the_next_round_index_is_an_order_violation():
    prover, verifier, channel = _toy_session()
    _through_first_round_then_second_challenge(prover, verifier, channel)
    with pytest.raises(ProtocolOrderError):
        channel.deliver(Message(PROVER, "toy-one-answer", 0, (field_part((1,)),)), verifier)
    assert verifier.verdict is None


def test_an_answer_of_the_wrong_width_is_malformed():
    prover, verifier, channel = _toy_session()
    _through_first_round_then_second_challenge(prover, verifier, channel)
    with pytest.raises(MalformedCertificate):
        channel.deliver(
            Message(PROVER, "toy-one-answer", 1, (field_part((1, 2)),)), verifier
        )
    assert verifier.verdict is None


# Challenge sources ---------------------------------------------------------------


def test_interactive_challenges_reproducible():
    s = SampleSet(F)
    a = [InteractiveChallenges(3).draw(s) for _ in range(10)]
    b = [InteractiveChallenges(3).draw(s) for _ in range(10)]
    assert a == b


def test_fiat_shamir_is_deterministic_and_header_sensitive():
    s = SampleSet(F)
    a = FiatShamirChallenges(b"header-one")
    b = FiatShamirChallenges(b"header-one")
    c = FiatShamirChallenges(b"header-two")
    seq_a = [a.draw(s) for _ in range(8)]
    seq_b = [b.draw(s) for _ in range(8)]
    seq_c = [c.draw(s) for _ in range(8)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_fiat_shamir_absorb_changes_later_draws_only():
    s = SampleSet(F)
    a = FiatShamirChallenges(b"h")
    b = FiatShamirChallenges(b"h")
    first_a = a.draw(s)
    first_b = b.draw(s)
    assert first_a == first_b
    a.absorb(b"frame")
    assert [a.draw(s) for _ in range(6)] != [b.draw(s) for _ in range(6)]


def _reference_fs_draw(state, ctr, sample_set, forbid=()):
    """``FiatShamirChallenges.draw`` as it was before its one-digest fast
    path: every chunk, the first included, comes from the block chain."""
    sha256 = hashlib.sha256
    seed = sha256(state + b"\x02" + ctr.to_bytes(8, "little")).digest()

    def chunks():
        pool, block = seed, 0
        while True:
            for pos in range(0, len(pool), 8):
                yield int.from_bytes(pool[pos : pos + 8], "little")
            block += 1
            pool = sha256(seed + block.to_bytes(8, "little")).digest()

    p = sample_set.field.p
    skip = sorted(sample_set.excluded | {v % p for v in forbid})
    k = p - len(skip)
    if k < 1:
        raise ValueError("every residue excluded from draw")
    limit = (2**64 // k) * k
    for u in chunks():
        if u < limit:
            v = u % k
            for e in skip:
                if e > v:
                    break
                v += 1
            return v


def _rejecting_sha256(real, ff_bytes, blocks):
    """sha256 with the first ``ff_bytes`` bytes of each draw's digest set
    to 0xff, a chunk every limit rejects unless k is a power of two; each
    block digest the rejections lead to is recorded in ``blocks``."""

    def sha256(data=b""):
        digest = real(data).digest()
        if len(data) == 41 and data[32] == 2:  # state, tag 2, counter
            digest = b"\xff" * ff_bytes + digest[ff_bytes:]
        elif len(data) == 40:  # seed, block number
            blocks.append(data)
        return SimpleNamespace(digest=lambda: digest)

    return sha256


@pytest.mark.parametrize("p", [2, 3, 101, 131071, 2**31 - 1])
@pytest.mark.parametrize("ff_bytes", [0, 8, 32])
def test_fiat_shamir_draws_match_the_block_chained_reference(p, ff_bytes, monkeypatch):
    """The draw takes its value from the digest's first chunk when that
    chunk is accepted, and falls back to the block chain otherwise: with
    exclusions, with ``forbid``, and with chunks stubbed to be rejected."""
    f = PrimeField(p)
    real = hashlib.sha256
    state = real(FiatShamirChallenges.DOMAIN + b"header").digest()
    fs = FiatShamirChallenges(b"header")
    blocks = []
    if ff_bytes:
        monkeypatch.setattr(hashlib, "sha256", _rejecting_sha256(real, ff_bytes, blocks))
    sample_sets = [SampleSet(f), SampleSet(f).star()]
    if p > 3:
        sample_sets.append(SampleSet(f).without(1, p - 1, p // 2))
    ctr = 0
    for s in sample_sets:
        for forbid in ((), (0,), (-1,), (1, 1), (p - 1, 0, 5), (-1, p + 2)):
            for _ in range(12):
                try:
                    want = _reference_fs_draw(state, ctr, s, forbid)
                except ValueError:
                    with pytest.raises(ValueError):
                        fs.draw(s, forbid)
                else:
                    assert fs.draw(s, forbid) == want, (sorted(s.excluded), forbid, ctr)
                ctr += 1
        frame = b"frame %d" % ctr
        fs.absorb(frame)
        state = real(state + b"\x01" + frame).digest()
    # every chunk of a draw's digest rejected: the block chain ran
    assert bool(blocks) == (ff_bytes == 32 and p > 2)


def test_fiat_shamir_respects_forbid():
    small = PrimeField(3)
    s = SampleSet(small)
    ch = FiatShamirChallenges(b"z")
    draws = [ch.draw(s, forbid=(0,)) for _ in range(50)]
    assert 0 not in draws
    assert set(draws) <= {1, 2}


def test_channel_absorbs_prover_frames_only():
    meter = CostMeter()
    fs = FiatShamirChallenges(b"base")
    channel = Channel(meter, fs)
    ref = FiatShamirChallenges(b"base")
    s = SampleSet(F)

    class Sink(ProverMachine):
        def __init__(self):
            super().__init__()
            self._await("noise", None, None, lambda m: None)

    channel.deliver(Message(VERIFIER, "noise", None, (field_part((5,)),)), Sink())
    # verifier traffic is not absorbed, streams still aligned
    assert fs.draw(s) == ref.draw(s)
    sink2 = Sink()
    frame = Message(PROVER, "noise", None, (field_part((6,)),))
    channel.deliver(frame, sink2)
    ref_after = FiatShamirChallenges(b"base")
    ref_after.draw(s)  # account for the draw already made above
    ref_after.absorb(frame.encode_payload())
    # drained one draw from fs already, so compare the next ones
    assert fs.draw(s) == ref_after.draw(s)
