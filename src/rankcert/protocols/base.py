"""Message-passing engine shared by all interactive protocols.

Both parties are explicit state machines that never call each other.  A
Channel delivers one message at a time, charges its cost to the meter,
appends it to the transcript, and absorbs prover bytes into the
challenge source so the hash-compiled mode sees exactly what the
interactive mode sent.  An interactive source reads no bytes, so there
the channel encodes nothing.  Each value a verifier reads has one rule
on every route: field values must be residues and a flag 0 or 1, or the
run aborts as a certificate carrying them would; permutation images,
indices and claims meet the protocol's own checks.

Turn order is enforced by the machines themselves: a message arriving
while the recipient still has a queued reply, or carrying the wrong
kind or round index, raises ProtocolOrderError.  That is an abort, a
third outcome distinct from accept and reject.

A protocol built from smaller ones hands the turn to an inner machine.
A machine with an ``inner`` passes a message to it once its own outbox
is empty and it awaits nothing, and sends its own queued messages before
the inner's.  A prover chains its phases by linking them (``chain``); a
verifier starts each phase with ``_delegate`` and learns its verdict
once the phase has sent everything.

A streaming protocol states its rounds once, as a schedule that both
parties run: the verifier with ``_ask``, the prover with ``_answer``.
The schedules themselves live with their protocols, each built once per
size as a `Schedule` that keeps the `Layout` a replay reads it by.  With
a prover, each round is the same three steps on every route: the
verifier draws the challenge (``_draw_round``), the prover answers it
(``_respond_to``) and the verifier records the answer (``_record``).  An
interactive run carries the steps in messages; a seal runs them with
none, encoding and absorbing each answer itself (``_lockstep``).  A
check has no prover and replays each schedule off the certificate
(``_replay``), hashing the draws and absorbing the answers with the hash
chain's state in local variables, and nothing else: it has every answer
in hand before its rounds run, so it decodes them at once and draws
every challenge value off its digest in one step after the loop
(``_residue_batch``).  A check costs its SHA-256 calls and a few
operations per schedule beyond them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ..field import SampleSet


PROVER = "prover"
VERIFIER = "verifier"

PART_TAGS = {"field": 1, "perm": 2, "indices": 3, "flag": 4, "claim": 5}
PART_WIDTHS = {"field": 8, "perm": 4, "indices": 4, "flag": 1, "claim": 8}
PACK_CODES = {8: "Q", 4: "I", 1: "B"}


class ProtocolAbort(Exception):
    """The run ended without reaching a verdict."""


class ProtocolOrderError(ProtocolAbort):
    """A message arrived out of the order the protocol fixes."""


class WitnessUnavailable(ProtocolAbort):
    """The honest prover cannot proceed: a pivot it relies on vanished."""


class MalformedCertificate(ProtocolAbort):
    """A serialized transcript failed structural validation."""


class EngineError(ProtocolAbort):
    """The two machines stalled or ran away; indicates a machine bug."""


class Part(NamedTuple):
    """One typed group of values inside a message.

    field: residues mod p, 8 bytes each on the wire
    perm:  permutation images, 4 bytes each
    indices: column or row indices, 4 bytes each
    flag:  single 0/1 byte
    claim: one 8-byte integer (a rank claim and the like)
    """

    tag: str
    values: tuple[int, ...]

    def encode(self) -> bytes:
        return encode_part(self.tag, self.values)


def encode_part(tag: str, values: tuple[int, ...]) -> bytes:
    """A part's bytes: the tag, the count in 4 bytes, then each value in
    ``PART_WIDTHS[tag]`` bytes, all little-endian.  A negative value or one
    too wide raises ``OverflowError``."""
    width, n = PART_WIDTHS[tag], len(values)
    try:
        body = struct.pack(f"<I{n}{PACK_CODES[width]}", n, *values)
    except struct.error:
        raise OverflowError(f"{tag} value does not fit {width} bytes") from None
    return bytes((PART_TAGS[tag],)) + body


def _ints(values: Iterable[int]) -> tuple[int, ...]:
    if isinstance(values, np.ndarray):
        return tuple(values.tolist())
    return tuple(map(int, values))


def field_part(values: Iterable[int]) -> Part:
    return Part("field", _ints(values))


def perm_part(images: Iterable[int]) -> Part:
    return Part("perm", _ints(images))


def indices_part(values: Iterable[int]) -> Part:
    return Part("indices", _ints(values))


def flag_part(value: bool) -> Part:
    return Part("flag", (1 if value else 0,))


def claim_part(value: int) -> Part:
    return Part("claim", (int(value),))


class Message(NamedTuple):
    """A plain record; the meter counts its values on delivery."""

    sender: str
    kind: Optional[str]
    index: Optional[int]
    parts: tuple[Part, ...]
    frame: Optional[bytes] = None  # the bytes the parts were read from, if any

    def encode_payload(self) -> bytes:
        if self.frame is not None:
            return self.frame
        return b"".join(part.encode() for part in self.parts)

    def shape(self) -> tuple[tuple[str, int], ...]:
        return tuple([(p.tag, len(p.values)) for p in self.parts])

    def vector(self, i: int = 0) -> np.ndarray:
        return np.array(self.parts[i].values, dtype=np.int64)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Optional[str] = None


@dataclass
class CostMeter:
    """Communication and verifier-work accounting.

    Field elements and plain integers (indices, permutation images,
    claims, flags) are counted separately, split by direction.  Verifier
    arithmetic is counted in field operations; every matrix-vector
    product also bumps a dedicated counter since the protocols are
    designed around how few of those the verifier needs.
    """

    field_elems_prover_to_verifier: int = 0
    field_elems_verifier_to_prover: int = 0
    integers_prover_to_verifier: int = 0
    integers_verifier_to_prover: int = 0
    messages: int = 0
    verifier_field_ops: int = 0
    verifier_matvecs: int = 0

    def count_message(self, msg: Message) -> None:
        self.messages += 1
        field = other = 0
        for part in msg.parts:
            if part.tag == "field":
                field += len(part.values)
            else:
                other += len(part.values)
        if msg.sender == PROVER:
            self.field_elems_prover_to_verifier += field
            self.integers_prover_to_verifier += other
        else:
            self.field_elems_verifier_to_prover += field
            self.integers_verifier_to_prover += other

    # the verifier charges itself through these three hooks
    def count_matvec(self, m: int, n: int) -> None:
        self.verifier_matvecs += 1
        self.verifier_field_ops += 2 * m * n - m

    def count_dot(self, k: int) -> None:
        if k:
            self.verifier_field_ops += 2 * k - 1

    def count_vector_op(self, k: int) -> None:
        self.verifier_field_ops += k

    @property
    def field_elems_total(self) -> int:
        return self.field_elems_prover_to_verifier + self.field_elems_verifier_to_prover

    @property
    def integers_total(self) -> int:
        return self.integers_prover_to_verifier + self.integers_verifier_to_prover

    @property
    def communication_total(self) -> int:
        return self.field_elems_total + self.integers_total


class ChallengeSource:
    """Where the verifier's random field elements come from.

    ``frames``, when set, holds a certificate's prover frames (see
    ``wire.check``): a verifier then replays each round schedule straight
    off them instead of through the message engine.  ``sealed``, when set,
    collects every prover frame the source absorbs (see ``wire.seal``).
    ``reads_frames`` says whether ``absorb`` reads its bytes at all; when
    it does not, the channel skips encoding prover messages.  That only
    saves work: a verifier checks every value it reads itself.
    """

    frames: Optional[deque] = None
    sealed: Optional[list] = None
    reads_frames = False

    def draw(self, sample_set: SampleSet, forbid: Sequence[int] = ()) -> int:
        raise NotImplementedError

    def draw_vector(self, sample_set: SampleSet, k: int) -> np.ndarray:
        return np.array([self.draw(sample_set) for _ in range(k)], dtype=np.int64)

    def absorb(self, frame: bytes) -> None:
        """Feed one prover frame into the source; no-op when interactive."""


class InteractiveChallenges(ChallengeSource):
    def __init__(self, seed):
        self.rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def draw(self, sample_set: SampleSet, forbid: Sequence[int] = ()) -> int:
        return sample_set.draw(lambda: self.rng.getrandbits(64), forbid)


# what a draw hashes: the 32-byte state, tag 2 and the draw counter; and
# the first 64-bit chunk of its digest
_DRAW_INPUT = struct.Struct("<32sBQ").pack
_FIRST_CHUNK = struct.Struct("<Q").unpack_from


def _residue(seed: bytes, sample_set: SampleSet, forbid: Sequence[int], bounds) -> int:
    """The draw whose digest is ``seed``, given ``sample_set.bounds(forbid)``:
    its first 64-bit chunk u picks the (u mod k)-th residue left, unless u is
    at or above the limit, as fewer than k in 2^64 chunks are."""
    skip, k, limit = bounds
    (u,) = _FIRST_CHUNK(seed)
    if u < limit:
        return sample_set.nth(u % k, skip) if skip else u % k
    return _chained(seed, sample_set, forbid)


def _residue_batch(seeds: bytes, sample_set: SampleSet, avoid: Sequence = ()) -> np.ndarray:
    """``_residue`` of each 32-byte digest joined in ``seeds``, as an int64
    array.  ``avoid`` holds (positions, residues) pairs: the draw at each
    of those positions must also avoid its residue.

    Every value is drawn at once, a forbidden residue stepped over in the
    k - 1 values it leaves, unless some first chunk is at or above a limit
    or a forbidden residue joins a set that excludes some already; then
    each draw goes through ``_residue``."""
    us = np.frombuffer(seeds, "<u8")[::4]
    skip, k, limit = sample_set.bounds()
    _, k1, limit1 = sample_set.bounds((0,)) if avoid else (None, k, limit)
    if skip and avoid or np.maximum.reduce(us, initial=0) >= min(limit, limit1):
        forbid = np.full(len(us), -1)
        for at, residues in avoid:
            forbid[at] = residues
        drawn = []
        for t, f in enumerate(forbid.tolist()):
            f = () if f < 0 else (f,)
            drawn.append(_residue(seeds[32 * t : 32 * t + 32], sample_set, f, sample_set.bounds(f)))
        return np.array(drawn, dtype=np.int64)
    out = (us % k).view(np.int64)
    for e in skip:  # ``SampleSet.nth`` on every draw at once
        out += out >= e
    for at, residues in avoid:
        v = (us[at] % k1).view(np.int64)
        out[at] = v + (v >= residues)
    return out


def _chained(seed: bytes, sample_set: SampleSet, forbid: Sequence[int]) -> int:
    """A rejected draw: rejection sampling over blocks chained off ``seed``."""
    pool, pos, block = seed, 0, 0

    def bits() -> int:
        nonlocal pool, pos, block
        if pos + 8 > len(pool):
            block += 1
            pool = hashlib.sha256(seed + block.to_bytes(8, "little")).digest()
            pos = 0
        v = int.from_bytes(pool[pos : pos + 8], "little")
        pos += 8
        return v

    return sample_set.draw(bits, forbid)


class FiatShamirChallenges(ChallengeSource):
    """Deterministic challenges derived by hash-chaining prover frames.

    The state starts from a domain tag plus the instance header (which
    binds the protocol, the modulus, the dimensions and every matrix
    entry), given whole or as buffers that join to it.  Each prover frame
    folds into the state; each draw hashes the state and a draw counter
    into one digest and takes its value from it (``_residue``).
    ``draw_vector`` is one loop over such draws, and
    ``VerifierMachine._replay`` runs a whole round schedule as one.
    """

    DOMAIN = b"RKC1-FS"
    reads_frames = True

    def __init__(self, *header: bytes):
        h = hashlib.sha256(self.DOMAIN)
        for part in header:
            h.update(part)  # a memoryview or an array hashes without a copy
        self._state = h.digest()
        self._counter = 0

    def absorb(self, frame: bytes) -> None:
        self._state = hashlib.sha256(self._state + b"\x01" + frame).digest()
        if self.sealed is not None:
            self.sealed.append(frame)

    def draw(self, sample_set: SampleSet, forbid: Sequence[int] = ()) -> int:
        ctr = self._counter
        self._counter += 1
        seed = hashlib.sha256(_DRAW_INPUT(self._state, 2, ctr)).digest()
        return _residue(seed, sample_set, forbid, sample_set.bounds(forbid))

    def draw_vector(self, sample_set: SampleSet, k: int) -> np.ndarray:
        sha, pack, state = hashlib.sha256, _DRAW_INPUT, self._state
        ctr, self._counter = self._counter, self._counter + k
        seeds = b"".join([sha(pack(state, 2, c)).digest() for c in range(ctr, ctr + k)])
        return _residue_batch(seeds, sample_set)


class Channel:
    def __init__(self, meter: CostMeter, challenges: ChallengeSource):
        self.meter = meter
        self.challenges = challenges
        self.transcript: list[Message] = []

    def deliver(self, msg: Message, recipient: "Machine") -> None:
        self.meter.count_message(msg)
        self.transcript.append(msg)
        if msg.sender == PROVER and self.challenges.reads_frames:
            self.challenges.absorb(msg.encode_payload())
        recipient.receive(msg)


# One exchange of a streaming protocol: the verifier sends ``width`` fresh
# field elements as challenge kind[index], and the prover answers with
# ``width`` field elements as answer kind[answer index].
Round = tuple[str, int, int, str, int]


def _misshapen(frame: bytes, width: int) -> MalformedCertificate:
    return MalformedCertificate(
        f"frame of {len(frame)} bytes does not match expected (('field', {width}),)"
    )


class Layout(NamedTuple):
    """How ``VerifierMachine._replay`` reads one schedule.  Round t's values
    sit at the same flat positions among all challenge values as among all
    answer values, since both are ``width`` wide."""

    counters: tuple[tuple[int, ...], ...]  # per round, from the schedule's first
    sizes: list[int]  # per round, its answer frame's size
    heads: tuple[bytes, ...]  # and the frame's first five bytes
    # the heads and every answer value of the frames joined
    read_heads: Callable[[bytes], tuple]
    decode: Callable[[bytes], tuple]
    asks: tuple  # (kind, value, indices, positions) per challenge array
    answers: tuple  # the same per answer array
    sent: int  # field elements each way


def _index(xs: list[int]):
    """``xs`` as a slice where it steps evenly, else as an index array."""
    step = xs[1] - xs[0] if len(xs) > 1 else 1
    stop = xs[0] + step * len(xs)
    if step and xs == list(range(xs[0], stop, step)):
        return slice(xs[0], stop if stop >= 0 else None, step)
    return np.array(xs)


def _layout(rounds: Sequence[Round]) -> Layout:
    counters = []
    asks: dict = {}  # (kind, value) -> round indices, flat positions
    answers: dict = {}
    at = 0
    for kind, i, width, answer, j in rounds:
        counters.append(tuple(range(at, at + width)))
        for v in range(width):
            for places, key, index in ((asks, (kind, v), i), (answers, (answer, v), j)):
                indices, positions = places.setdefault(key, ([], []))
                indices.append(index)
                positions.append(at + v)
        at += width

    def targets(places: dict) -> tuple:
        return tuple((kind, v, _index(ix), _index(pos)) for (kind, v), (ix, pos) in places.items())

    widths = [r[2] for r in rounds]
    return Layout(
        tuple(counters),
        [5 + 8 * w for w in widths],
        tuple(b"\x01" + w.to_bytes(4, "little") for w in widths),
        struct.Struct("<" + "".join(f"5s{8 * w}x" for w in widths)).unpack,
        struct.Struct("<" + "".join(f"5x{w}q" for w in widths)).unpack,
        targets(asks),
        targets(answers),
        at,
    )


class Schedule(tuple):
    """A protocol's rounds, with the ``Layout`` a replay reads them by,
    built on first use and kept beside the schedule."""

    @functools.cached_property
    def layout(self) -> Layout:
        return _layout(self)


def schedule(build: Callable[..., tuple[Round, ...]]) -> Callable[..., Schedule]:
    """Each protocol builds its schedule once per size and hands prover and
    verifier the same `Schedule`; the cache keeps the sizes used last."""
    return functools.lru_cache(maxsize=64)(functools.wraps(build)(lambda *args: Schedule(build(*args))))


class Machine:
    """Base for both parties: an outbox, a single expected message and an
    optional inner machine that takes the turn once both are empty."""

    role = "machine"
    done = False  # only a verifier reaches a verdict
    _rounds: Optional[tuple] = None  # the schedule of ``_ask`` or ``_answer``

    def __init__(self):
        self._outbox: deque[Message] = deque()
        self._expected = None  # (kind, index, shape, handler)
        self.inner: Optional[Machine] = None

    def _send(self, kind: str, index: Optional[int], *parts: Part) -> None:
        self._outbox.append(Message(self.role, kind, index, parts))

    def _await(
        self,
        kind: str,
        index: Optional[int],
        shape: Optional[tuple],
        handler: Callable[[Message], None],
    ) -> None:
        if self._expected is not None:
            raise EngineError("machine is already awaiting a message")
        self._expected = (kind, index, shape, handler)

    def next_message(self) -> Optional[Message]:
        while True:
            if self._outbox:
                return self._outbox.popleft()
            inner = self.inner
            if inner is None:
                return None
            msg = inner.next_message()
            # an inner may finish in its constructor or with messages queued
            if msg is not None or not inner.done:
                return msg
            self._settle(inner)

    def _active(self) -> "Machine":
        """The machine a message goes to, passed on to ``inner`` as above."""
        machine = self
        while machine.inner is not None and not machine._outbox and machine._expected is None:
            machine = machine.inner
        return machine

    def receive(self, msg: Message) -> None:
        machine = self._active()
        if machine._outbox:
            raise ProtocolOrderError(
                "message delivered before the pending reply was sent"
            )
        if machine._expected is None:
            raise ProtocolOrderError("message delivered to a party that expects none")
        kind, index, shape, handler = machine._expected
        if msg.kind is not None and (msg.kind != kind or msg.index != index):
            raise ProtocolOrderError(
                f"expected {kind}[{index}], got {msg.kind}[{msg.index}]"
            )
        if shape is not None and msg.shape() != shape:
            raise MalformedCertificate(
                f"frame shape {msg.shape()} does not match expected {shape}"
            )
        machine._expected = None
        handler(msg)


class VerifierMachine(Machine):
    """A verifier draws every challenge from ``sample_set`` through
    ``challenges`` and charges its work to ``meter``."""

    role = VERIFIER
    _parked = False  # a seal's rounds wait for ``drive`` (see ``_ask``)

    def __init__(self, sample_set: SampleSet, meter: CostMeter, challenges: ChallengeSource):
        super().__init__()
        self.sample_set = sample_set
        self.meter = meter
        self.challenges = challenges
        self.done = False
        self.verdict: Optional[Verdict] = None
        self.result_value = None

    def _accept(self, value=None) -> None:
        self.result_value = value
        self.done = True
        self.verdict = Verdict(True)

    def _reject(self, reason: str) -> None:
        self.done = True
        self.verdict = Verdict(False, reason)

    def _residues(self, values: tuple[int, ...]) -> tuple[int, ...]:
        """``values``, field values from the prover, which must be residues
        of the field, as ``split_frames`` holds a certificate's."""
        if values and (min(values) < 0 or max(values) >= self.sample_set.field.p):
            raise MalformedCertificate("field element out of range")
        return values

    def _delegate(self, inner: "VerifierMachine", then: Callable[[object], None]) -> None:
        """Hand the turn to ``inner``.  Once it has sent everything and
        reached a verdict, a rejection becomes this machine's and an
        acceptance calls ``then`` with the inner's value."""
        self.inner = inner
        self._then = then

    def _settle(self, inner: "VerifierMachine") -> None:
        # dropping the callback breaks its cycle back to this machine,
        # which would keep the instance alive until a full collection
        self.inner = None
        then, self._then = self._then, None
        if inner.verdict.accepted:
            then(inner.result_value)
        else:
            self.done, self.verdict = True, inner.verdict

    def _ask(
        self, rounds: Schedule, arrays: dict, forbid: Optional[dict] = None
    ) -> None:
        """Run ``rounds`` as the challenger, then call ``_final_check``.

        Each challenge value is drawn from ``self.sample_set`` into
        ``arrays[kind]`` at the round's index, one array per value, and
        each answer value is recorded the same way under the answer kind
        and index.  ``forbid[kind](index)`` gives the residue the first
        value of that kind must avoid; given a slice or an array of
        indices, as a check's replay gives it once the answers are in, it
        gives the residue of each.

        With a certificate's ``frames`` on the challenge source, the rounds
        replay straight off them (``_replay``).  Otherwise a prover answers
        each round: under a seal the rounds wait for ``drive`` to run them
        in lockstep, and in an interactive run they go over the engine,
        both through ``_draw_round`` and ``_record``.
        """
        self._rounds, self._arrays, self._pos = rounds, arrays, 0
        self._forbid = forbid or {}
        if self.challenges.frames is not None:
            self._replay()
            self._final_check()
        elif self.challenges.sealed is not None and rounds:
            self._parked = True
        else:
            self._next_challenge()

    def _replay(self) -> None:
        """Run every round off a certificate's frames at once: hash its
        draws and absorb its answer frame, as ``FiatShamirChallenges`` (the
        only source with ``frames``) would, its state and counter held
        locally.  Every answer frame is on the cursor, so their shapes are
        checked and their values decoded before the rounds run, and the
        values are stored once the rounds have run: the answers, then the
        challenges drawn off their digests (``_residue_batch``), each with
        the forbidden residue the answers give it.  The caller runs
        ``_final_check``."""
        fs, layout = self.challenges, self._rounds.layout
        answers = self._scheduled_answers(layout)
        # the digests are joined to draw from them at once
        take, seeds = fs.frames.popleft, bytearray()
        add = seeds.extend
        sha, pack, state, ctr = hashlib.sha256, _DRAW_INPUT, fs._state, fs._counter
        for counters in layout.counters:
            for c in counters:
                add(sha(pack(state, 2, ctr + c)).digest())
            state = sha(state + b"\x01" + take()).digest()
        fs._state, fs._counter = state, ctr + layout.sent
        arrays = self._arrays
        for kind, v, indices, positions in layout.answers:
            arrays[kind][v][indices] = answers[positions]
        avoid = [
            (positions, self._forbid[kind](indices))
            for kind, v, indices, positions in layout.asks
            if v == 0 and kind in self._forbid
        ]
        drawn = _residue_batch(seeds, self.sample_set, avoid)
        for kind, v, indices, positions in layout.asks:
            arrays[kind][v][indices] = drawn[positions]
        self._bill()

    def _bill(self) -> None:
        """Charge the meter for every round of the schedule in one step, as
        the engine charges their messages."""
        meter, sent = self.meter, self._rounds.layout.sent
        meter.messages += 2 * len(self._rounds)
        meter.field_elems_verifier_to_prover += sent
        meter.field_elems_prover_to_verifier += sent

    def _scheduled_answers(self, layout: Layout) -> np.ndarray:
        """A check's answer values, in round order, off the frames its
        cursor holds next: the first frame without its round's shape, or a
        round without a frame, stops the check."""
        frames = list(itertools.islice(self.challenges.frames, len(layout.sizes)))
        joined = b"".join(frames)
        if list(map(len, frames)) != layout.sizes or layout.read_heads(joined) != layout.heads:
            for frame, size, head in zip(frames, layout.sizes, layout.heads):
                if len(frame) != size or not frame.startswith(head):
                    raise _misshapen(frame, (size - 5) // 8)
            raise EngineError("both parties stalled before a verdict")
        return np.fromiter(layout.decode(joined), np.int64, layout.sent)

    def _draw_round(self, kind: str, i: int) -> list[int]:
        """Draw the challenge kind[i] into ``arrays[kind]`` and return its
        values, the first avoiding the residue ``forbid`` gives it."""
        draw, sample_set = self.challenges.draw, self.sample_set
        forbid = (int(self._forbid[kind](i)),) if kind in self._forbid else ()
        values = []
        for arr in self._arrays[kind]:
            arr[i] = v = draw(sample_set, forbid)
            values.append(v)
            forbid = ()
        return values

    def _record(self, answer: str, j: int, values: tuple[int, ...]) -> None:
        """Store the answer answer[j], whose values must be residues, in
        ``arrays[answer]``."""
        for arr, v in zip(self._arrays[answer], self._residues(values)):
            arr[j] = v

    def _next_challenge(self) -> None:
        if self._pos == len(self._rounds):
            self._final_check()
            return
        kind, i, width, answer, j = self._rounds[self._pos]
        values = tuple(self._draw_round(kind, i))
        self._outbox.append(Message(VERIFIER, kind, i, (Part("field", values),)))
        self._await(answer, j, (("field", width),), self._on_answer)

    def _on_answer(self, msg: Message) -> None:
        _, _, _, answer, j = self._rounds[self._pos]
        self._record(answer, j, msg.parts[0].values)
        self._pos += 1
        self._next_challenge()


class ProverMachine(Machine):
    role = PROVER

    def _answer(self, rounds: Schedule, arrays: dict, respond: dict) -> None:
        """Answer ``rounds`` in order.  Each challenge value is recorded in
        ``arrays[kind]`` at the round's index, one array per value, and
        ``respond[kind](index)`` gives the answer's field values."""
        self._rounds, self._arrays, self._respond, self._pos = rounds, arrays, respond, 0
        self._expect_challenge()

    def _expect_challenge(self) -> None:
        if self._pos == len(self._rounds):
            return
        kind, i, width, _, _ = self._rounds[self._pos]
        self._await(kind, i, (("field", width),), self._on_challenge)

    def _on_challenge(self, msg: Message) -> None:
        kind, i, _, answer, j = self._rounds[self._pos]
        self._send(answer, j, Part("field", self._respond_to(kind, i, msg.parts[0].values)))
        self._pos += 1
        self._expect_challenge()

    def _respond_to(self, kind: str, i: int, challenge) -> tuple[int, ...]:
        """Record the challenge kind[i] and return the answer's values as
        ``respond`` gives them."""
        for arr, v in zip(self._arrays[kind], challenge):
            arr[i] = v
        return tuple(self._respond[kind](i))


def chain(first: Machine, *rest: Machine) -> Machine:
    """Link provers so each takes the turn once the one before it, inner
    machines included, has nothing queued and awaits nothing."""
    last = first
    for nxt in rest:
        while last.inner is not None:
            last = last.inner
        last.inner = nxt
    return first


MESSAGE_LIMIT = 1_000_000


def _lockstep(prover: Machine, verifier: VerifierMachine) -> bool:
    """Run the rounds a seal's verifier is parked at, False if none is, in
    the steps of an interactive run with no message: each answer is
    encoded, absorbed as the channel absorbs it and recorded, so the seal
    stops at its first answer out of range.  The prover must have nothing
    queued and await those rounds in ``_answer``."""
    v = verifier._active()
    if not v._parked:
        return False
    v._parked, p = False, prover._active()
    if p._outbox or p._expected is None or p._rounds != v._rounds or p._pos:
        raise EngineError("sealed schedule not answered in _answer")
    p._expected, p._pos = None, len(p._rounds)
    absorb = v.challenges.absorb
    for kind, i, width, answer, j in v._rounds:
        values = p._respond_to(kind, i, v._draw_round(kind, i))
        frame = encode_part("field", values)
        if len(values) != width:
            raise _misshapen(frame, width)
        absorb(frame)
        v._record(answer, j, values)
    v._bill()
    v._final_check()
    return True


def drive(prover: Machine, verifier: VerifierMachine, channel: Channel) -> Verdict:
    """Run one protocol to its verdict.

    The verifier gets priority so multi-message turns drain in order;
    the prover moves exactly when the verifier has nothing queued and no
    seal's round schedule is parked (``_lockstep``).
    """
    sealing = channel.challenges.sealed is not None
    steps = 0
    while True:
        msg = verifier.next_message()
        recipient: Machine = prover
        if msg is None:
            if verifier.done:
                break
            if sealing and _lockstep(prover, verifier):
                continue
            msg = prover.next_message()
            recipient = verifier
        if msg is None:
            raise EngineError("both parties stalled before a verdict")
        channel.deliver(msg, recipient)
        steps += 1
        if steps > MESSAGE_LIMIT:
            raise EngineError("message limit exceeded")
    assert verifier.verdict is not None
    return verifier.verdict


@dataclass
class RunResult:
    """``transcript`` lists every delivered message: under ``wire.check``
    and ``wire.seal`` the round schedules are not among them."""

    verdict: Verdict
    value: object
    meter: CostMeter
    transcript: tuple[Message, ...]


def run_session(prover: Machine, verifier: VerifierMachine) -> RunResult:
    """Drive one prover machine against one verifier machine over a fresh
    channel on the verifier's meter and challenge source."""
    channel = Channel(verifier.meter, verifier.challenges)
    verdict = drive(prover, verifier, channel)
    return RunResult(verdict, verifier.result_value, channel.meter, tuple(channel.transcript))
