"""Channel, meter, ordering and challenge-stream behavior."""

import gc
import hashlib
import weakref

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
