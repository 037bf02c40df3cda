"""Message-passing engine shared by all interactive protocols.

Each party runs its side of a protocol as one script, a generator:
``msg = yield Receive(kind, index, shape)`` reads a message, ``yield
Send(kind, index, *parts)`` sends one, and ``yield from`` runs a round
schedule or a whole smaller protocol, so a protocol built from smaller
ones reads as their concatenation.  A verifier's script returns the
value it accepts with, or raises ``Reject`` at any depth.  A `Machine`
drives one script: it queues what the script sends, checks each message
it is handed against what the script waits for, and drops the script
once it ends.  The parties never call each other.  A Channel delivers
one message at a time, charges its cost to the meter, appends it to the
transcript, and absorbs prover bytes into the challenge source so the
hash-compiled mode sees exactly what the interactive mode sent.  An
interactive source reads no bytes, so there the channel encodes nothing.
Each value a verifier reads has one rule on every route: field values
must be residues and a flag 0 or 1, or the run aborts as a certificate
carrying them would; permutation images, indices and claims meet the
protocol's own checks.

Turn order is enforced by the machines themselves: a message arriving
while the recipient still has a queued reply, or carrying the wrong
kind or round index, raises ProtocolOrderError.  That is an abort, a
third outcome distinct from accept and reject.

A streaming protocol states its rounds once, as a schedule that both
parties run: the verifier with ``_ask``, the prover with ``_answer``.
The schedules themselves live with their protocols, each a block or
two of rounds that step evenly (`Block`), which a replay reads in a few
operations per block however many rounds it holds.  With a prover, each
round is the same three steps on every route: the verifier draws the
challenge (``_draw_round``), the prover answers it (``_respond_to``) and
the verifier records the answer (``_record``).  An
interactive run carries the steps in messages; a seal runs them with
none, encoding and absorbing each answer itself (``_lockstep``).  A
check has no prover: ``drive`` hands each certificate frame outside a
schedule to the verifier's pending Receive, and the verifier replays
each schedule off the certificate (``_replay``), hashing the draws and
absorbing the answers with the hash chain's state in local variables,
and nothing else: it has a block's answers in hand before its rounds
run, so it decodes them at once and draws every challenge value off its
digest in one step after the loop (``_residue_batch``).  A check costs
its SHA-256 calls and a few operations per block beyond them.  A
certificate that ends before its protocol does is malformed.
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


TAG_NAMES = {v: k for k, v in PART_TAGS.items()}


@functools.lru_cache(maxsize=64)
def _reader(tag: str, count: int) -> Callable[[bytes, int], tuple]:
    """The values of a part of ``count`` values tagged ``tag``, unsigned, off
    a buffer at an offset."""
    return struct.Struct(f"<{count}{PACK_CODES[PART_WIDTHS[tag]]}").unpack_from


def _parts(frame: bytes):
    """(tag, count, offset of the values) of each part of one frame."""
    pos, end = 0, len(frame)
    while pos < end:
        tag_byte = frame[pos]
        if tag_byte not in TAG_NAMES:
            raise MalformedCertificate(f"unknown part tag {tag_byte}")
        tag = TAG_NAMES[tag_byte]
        if pos + 5 > end:
            raise MalformedCertificate("truncated part count")
        count = int.from_bytes(frame[pos + 1 : pos + 5], "little")
        pos += 5
        if pos + PART_WIDTHS[tag] * count > end:
            raise MalformedCertificate("truncated part values")
        yield tag, count, pos
        pos += PART_WIDTHS[tag] * count


def read_frame(frames: deque) -> Optional[Message]:
    """The next of a certificate's frames as a prover message of no kind,
    its parts read off the frame, which it carries; None once none is
    left."""
    if not frames:
        return None
    frame = frames.popleft()
    parts = tuple(Part(tag, _reader(tag, count)(frame, at)) for tag, count, at in _parts(frame))
    return Message(PROVER, None, None, parts, frame)


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
    array.  ``avoid`` holds (slice, residues) pairs: the draw at each
    position of the slice must also avoid its residue.

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

    def deliver(self, msg: Message, recipient: Optional["Machine"]) -> None:
        self.meter.count_message(msg)
        self.transcript.append(msg)
        if msg.sender == PROVER and self.challenges.reads_frames:
            self.challenges.absorb(msg.encode_payload())
        if recipient is not None:
            recipient.receive(msg)


class Step(NamedTuple):
    """One round for each index i of its block: the verifier sends ``width``
    fresh field elements as challenge kind[i], and the prover answers with
    ``width`` field elements as answer[i + shift]."""

    kind: str
    width: int
    answer: str
    shift: int = 0


class Block(NamedTuple):
    """Rounds that step evenly: for each of ``indices`` in turn, one round
    per step.  A protocol's schedule is a tuple of blocks, run in order."""

    indices: range
    steps: tuple[Step, ...]


def rounds(schedule: tuple[Block, ...]):
    """Each round of ``schedule`` in order, as (kind, i, width, answer, j)."""
    for indices, steps in schedule:
        for i in indices:
            for kind, width, answer, shift in steps:
                yield kind, i, width, answer, i + shift


def _at(indices: range, shift: int = 0) -> slice:
    """A nonempty ``indices`` moved by ``shift``, as a slice."""
    stop = indices.stop + shift
    return slice(indices.start + shift, stop if stop >= 0 else None, indices.step)


@functools.lru_cache(maxsize=256)
def _block_reader(block: Block) -> tuple:
    """How a check replays a nonempty ``block``, built in a few operations
    per step however many indices it has: its answer frames' sizes and
    first five bytes, and the frames joined read as those heads and as
    their values; whether each draw is its round's last; how many values
    an index holds; and per step, its challenge kind and indices, its
    answer kind and indices, and where each of its values sits among the
    block's, challenges and answers alike."""
    indices, steps = block
    widths = [step.width for step in steps]
    width, starts = sum(widths), list(itertools.accumulate(widths, initial=0))
    n, ask = len(indices), _at(indices)
    reader = (
        [5 + 8 * w for w in widths] * n,
        tuple(b"\x01" + w.to_bytes(4, "little") for w in widths) * n,
        struct.Struct("<" + "".join(f"5s{8 * w}x" for w in widths) * n).unpack,
        struct.Struct("<" + "".join(f"5x{w}q" for w in widths) * n).unpack,
    )
    ends = tuple(v == w - 1 for w in widths for v in range(w)) * n
    places = tuple(
        (kind, ask, answer, _at(indices, shift), [slice(at + v, None, width) for v in range(w)])
        for (kind, w, answer, shift), at in zip(steps, starts)
    )
    return reader, ends, width, places


def _misshapen(frame: bytes, width: int) -> MalformedCertificate:
    return MalformedCertificate(
        f"frame of {len(frame)} bytes does not match expected (('field', {width}),)"
    )


_EARLY_END = "certificate ends before the protocol does"


class Receive(NamedTuple):
    """What a script waits for: ``msg = yield Receive(kind, index, shape)``.
    A shape of None leaves the parts to the script.  ``answering`` is the
    prover whose ``_answer`` waits here for a round of its schedule."""

    kind: str
    index: Optional[int]
    shape: Optional[tuple]
    answering: Optional["ProverMachine"] = None


class Send:
    """A message a script sends: ``yield Send(kind, index, *parts)``."""

    __slots__ = ("kind", "index", "parts")

    def __init__(self, kind: str, index: Optional[int], *parts: Part):
        self.kind, self.index, self.parts = kind, index, parts


class Reject(Exception):
    """``Reject(reason)``, raised by a verifier's script at any depth,
    rejects the run."""


_UNSTARTED = object()  # what a machine waits for before its first turn


class Machine:
    """Drives one script (``script``), started on the machine's first turn:
    an outbox of the messages it sent and the one thing it waits for."""

    def __init__(self):
        self._outbox: deque[Message] = deque()
        self._expected = _UNSTARTED  # a Receive, a verifier parked at a seal's rounds, or None
        self._script = None

    def _run(self):
        """The generator this machine drives."""
        return self.script()

    def _begin(self) -> None:
        """Start the script, up to the first thing it waits for."""
        self._script = self._run()
        self._resume(None)

    def _resume(self, value) -> None:
        """Run the script on from what it waits for, handed ``value``, to
        the next thing it waits for, queueing each message it sends.  A
        script that ends is dropped: its frames hold this machine."""
        script, outbox, role = self._script, self._outbox, self.role
        try:
            op = script.send(value)
            while type(op) is Send:
                outbox.append(Message(role, op.kind, op.index, op.parts))
                op = script.send(None)
        except StopIteration:
            self._script = self._expected = None
        else:
            self._expected = op

    def next_message(self) -> Optional[Message]:
        if self._expected is _UNSTARTED:
            self._begin()
        return self._outbox.popleft() if self._outbox else None

    def receive(self, msg: Message) -> None:
        if self._expected is _UNSTARTED:
            self._begin()
        if self._outbox:
            raise ProtocolOrderError(
                "message delivered before the pending reply was sent"
            )
        expected = self._expected
        if type(expected) is not Receive:
            raise ProtocolOrderError("message delivered to a party that expects none")
        kind, index, shape, _ = expected
        if msg.kind is not None and (msg.kind != kind or msg.index != index):
            raise ProtocolOrderError(
                f"expected {kind}[{index}], got {msg.kind}[{msg.index}]"
            )
        if shape is not None and msg.shape() != shape:
            raise MalformedCertificate(
                f"frame shape {msg.shape()} does not match expected {shape}"
            )
        self._expected = None
        self._resume(msg)


class VerifierMachine(Machine):
    """A verifier draws every challenge from ``sample_set`` through
    ``challenges`` and charges its work to ``meter``.  A protocol made of
    smaller ones runs their verifiers' scripts inside its own, each built
    on the same three."""

    role = VERIFIER

    def __init__(self, sample_set: SampleSet, meter: CostMeter, challenges: ChallengeSource):
        super().__init__()
        self.sample_set = sample_set
        self.meter = meter
        self.challenges = challenges
        self.verdict: Optional[Verdict] = None
        self.result_value = None

    def _run(self):
        """The script, run to a verdict: accepted with the value it returns,
        or rejected with the reason it raises."""
        try:
            self.result_value = yield from self.script()
        except Reject as rejection:
            self.verdict = Verdict(False, str(rejection))
        else:
            self.verdict = Verdict(True)

    def _residues(self, values: tuple[int, ...]) -> tuple[int, ...]:
        """``values``, field values from the prover, which must be residues
        of the field, as ``split_frames`` holds a certificate's."""
        if values and (min(values) < 0 or max(values) >= self.sample_set.field.p):
            raise MalformedCertificate("field element out of range")
        return values

    def _ask(self, schedule: tuple[Block, ...], arrays: dict, forbid: Optional[dict] = None):
        """Run ``schedule`` as the challenger, with ``yield from``.

        Each challenge value is drawn from ``self.sample_set`` into
        ``arrays[kind]`` at the round's index, one array per value, and
        each answer value is recorded the same way under the answer kind
        and index.  ``forbid[kind](index)`` gives the residue the first
        value of that kind must avoid; given a slice of indices, as a
        check's replay gives it once the answers are in, it gives the
        residue of each.

        With a certificate's ``frames`` on the challenge source, the rounds
        replay straight off them (``_replay``).  Otherwise a prover answers
        each round through ``_draw_round`` and ``_record``: under a seal the
        script waits, parked, for ``drive`` to run the rounds in lockstep,
        and in an interactive run they go over the engine.
        """
        self._rounds, self._arrays = schedule, arrays
        self._forbid = forbid or {}
        if self.challenges.frames is not None:
            self._replay()
        elif self.challenges.sealed is not None and any(block.indices for block in schedule):
            yield self
        else:
            for kind, i, width, answer, j in rounds(schedule):
                yield Send(kind, i, Part("field", tuple(self._draw_round(kind, i))))
                msg = yield Receive(answer, j, (("field", width),))
                self._record(answer, j, msg.parts[0].values)

    def _replay(self) -> None:
        """Run every round off a certificate's frames at once: hash its
        draws and absorb its answer frame, as ``FiatShamirChallenges`` (the
        only source with ``frames``) would, its state and counter held
        locally.  A block's answer frames are all on the cursor, so their
        shapes are checked and their values decoded before its rounds run,
        and its answers stored once they have run.  The challenges are
        drawn off their digests in one step after every block
        (``_residue_batch``), each with the forbidden residue the answers
        give it.  Each value of a step is stored as one slice."""
        fs, arrays, forbid = self.challenges, self._arrays, self._forbid
        take, sha, pack = fs.frames.popleft, hashlib.sha256, _DRAW_INPUT
        state, first = fs._state, fs._counter
        # the digests are joined to draw from them at once
        seeds, avoid, asked, c, count = bytearray(), [], [], first, 0
        add = seeds.extend
        for block in self._rounds:
            if not block.indices:
                continue
            reader, ends, width, places = _block_reader(block)
            answers = self._scheduled_answers(*reader)
            start, c = c, c + width * len(block.indices)
            for d, last in zip(range(start, c), ends):
                add(sha(pack(state, 2, d)).digest())
                if last:  # the round's answer follows its last draw
                    state = sha(state + b"\x01" + take()).digest()
            count += len(reader[0])
            for _, _, answer, got, at in places:
                for values, place in zip(arrays[answer], at):
                    values[got] = answers[place]
            start, end = start - first, c - first  # the block's draws among all
            for kind, ask, _, _, at in places:
                if kind in forbid:
                    avoid.append((slice(start + at[0].start, end, width), forbid[kind](ask)))
            asked.append((start, end, places))
        fs._state, fs._counter = state, c
        drawn = _residue_batch(seeds, self.sample_set, avoid)
        for start, end, places in asked:
            block = drawn[start:end]
            for kind, ask, _, _, at in places:
                for values, place in zip(arrays[kind], at):
                    values[ask] = block[place]
        self._bill(count, c - first)

    def _bill(self, count: int, sent: int) -> None:
        """Charge the meter for ``count`` rounds that send ``sent`` field
        elements each way, as the engine charges their messages."""
        meter = self.meter
        meter.messages += 2 * count
        meter.field_elems_verifier_to_prover += sent
        meter.field_elems_prover_to_verifier += sent

    def _scheduled_answers(self, sizes: list, heads: tuple, read_heads, decode) -> np.ndarray:
        """The answer values of one block, in round order, off the frames
        the check's cursor holds next, read as ``_block_reader`` reads
        them: the first frame without its round's shape, or a round without
        a frame, stops the check."""
        frames = list(itertools.islice(self.challenges.frames, len(sizes)))
        joined = b"".join(frames)
        if list(map(len, frames)) != sizes or read_heads(joined) != heads:
            for frame, size, head in zip(frames, sizes, heads):
                if len(frame) != size or not frame.startswith(head):
                    raise _misshapen(frame, (size - 5) // 8)
            raise MalformedCertificate(_EARLY_END)
        return np.fromiter(decode(joined), np.int64)

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


class MatrixVerifier(VerifierMachine):
    """The verifier of a statement about one matrix ``a``."""

    def __init__(self, a, sample_set: SampleSet, meter: CostMeter, challenges: ChallengeSource):
        super().__init__(sample_set, meter, challenges)
        self.a = a


class ProverMachine(Machine):
    """A prover.  ``phases``, when given, are provers whose scripts this
    one's runs in turn; with none, and no script of its own, it says
    nothing."""

    role = PROVER

    def __init__(self, *phases: "ProverMachine"):
        super().__init__()
        self.phases = phases

    def script(self):
        for phase in self.phases:
            yield from phase.script()

    def _answer(self, schedule: tuple[Block, ...], arrays: dict, respond: dict):
        """Answer the rounds of ``schedule`` in order, with ``yield from``.
        Each challenge value is recorded in ``arrays[kind]`` at the round's
        index, one array per value, and ``respond[kind](index)`` gives the
        answer's field values.  A seal answers them all in lockstep, then
        hands the script None."""
        self._rounds, self._arrays, self._respond = schedule, arrays, respond
        for kind, i, width, answer, j in rounds(schedule):
            msg = yield Receive(kind, i, (("field", width),), self)
            if msg is None:
                return
            yield Send(answer, j, Part("field", self._respond_to(kind, i, msg.parts[0].values)))

    def _respond_to(self, kind: str, i: int, challenge) -> tuple[int, ...]:
        """Record the challenge kind[i] and return the answer's values as
        ``respond`` gives them."""
        for arr, v in zip(self._arrays[kind], challenge):
            arr[i] = v
        return tuple(self._respond[kind](i))


MESSAGE_LIMIT = 1_000_000


def _lockstep(prover: ProverMachine, verifier: VerifierMachine) -> None:
    """Run the rounds ``verifier``'s script is parked at in the steps of an
    interactive run with no message: each answer is encoded, absorbed as
    the channel absorbs it and recorded, so the seal stops at its first
    answer out of range.  The prover must have nothing queued and wait at
    their first round in ``_answer``; both scripts then go on."""
    v = verifier._expected
    if prover._expected is _UNSTARTED:
        prover._begin()
    expected = prover._expected
    p = expected.answering if type(expected) is Receive else None
    first = next(rounds(v._rounds))
    if prover._outbox or p is None or p._rounds != v._rounds or expected[:2] != first[:2]:
        raise EngineError("sealed schedule not answered in _answer")
    absorb, count, sent = v.challenges.absorb, 0, 0
    for kind, i, width, answer, j in rounds(v._rounds):
        values = p._respond_to(kind, i, v._draw_round(kind, i))
        frame = encode_part("field", values)
        if len(values) != width:
            raise _misshapen(frame, width)
        absorb(frame)
        v._record(answer, j, values)
        count, sent = count + 1, sent + width
    v._bill(count, sent)
    prover._resume(None)
    verifier._resume(None)


def drive(prover, verifier: VerifierMachine, channel: Channel) -> Verdict:
    """Run one protocol to its verdict.

    ``prover`` is a machine, or a certificate's frames (a deque) that stand
    in for one: each frame in turn goes to the verifier's pending Receive
    (``read_frame``), and the verifier's messages go to no one.  The
    verifier gets priority so multi-message turns drain in order; the
    prover moves exactly when the verifier has nothing queued and no
    seal's round schedule waits for ``_lockstep``.
    """
    frames = prover if type(prover) is deque else None
    listener = None if frames is not None else prover
    steps = 0
    while True:
        msg = verifier.next_message()
        recipient = listener
        if msg is None:
            if verifier.verdict is not None:
                break
            if type(verifier._expected) is not Receive:
                _lockstep(prover, verifier)
                continue
            msg = prover.next_message() if frames is None else read_frame(frames)
            recipient = verifier
        if msg is None:
            if frames is not None:
                raise MalformedCertificate(_EARLY_END)
            raise EngineError("both parties stalled before a verdict")
        channel.deliver(msg, recipient)
        steps += 1
        if steps > MESSAGE_LIMIT:
            raise EngineError("message limit exceeded")
    return verifier.verdict


@dataclass
class RunResult:
    """``transcript`` lists every delivered message: under ``wire.check``
    and ``wire.seal`` the round schedules are not among them."""

    verdict: Verdict
    value: object
    meter: CostMeter
    transcript: tuple[Message, ...]

