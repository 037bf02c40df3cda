"""Serialized certificates: the hash-compiled non-interactive mode.

A certificate is the instance header followed by the prover's frames in
protocol order.  Challenges are re-derived by hashing the header and
the frames as they are replayed, so the bytes in the file are the only
thing a checker needs; any flipped byte either breaks parsing (abort)
or lands in a frame or the header, changing the challenge stream or the
final identity (reject).

``PROTOCOLS`` is the one table of protocols: the id byte the header
uses, the shapes of the matrices a statement binds (``check_statement``
refuses any other), and the prover and verifier ``runner`` pairs.

Header layout: magic, protocol id, modulus, then each matrix the
protocol binds (dimensions then row-major entries).  Frames carry a
4-byte length followed by the typed parts encoding used on the channel.
"""

from __future__ import annotations

import struct
from collections import deque
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..field import PrimeField, SampleSet
from ..matrix import MAX_DIM, DenseMatrix, DimensionError, check_dims
from .base import (
    CostMeter,
    FiatShamirChallenges,
    MalformedCertificate,
    Machine,
    Message,
    PART_TAGS,
    PART_WIDTHS,
    Part,
    PROVER,
    ProverMachine,
    RunResult,
    VerifierMachine,
    run_session,
)
from .equivalence import TriangularEquivalenceProver, TriangularEquivalenceVerifier
from .freivalds import FreivaldsVerifier
from .grp import GrpProver, GrpVerifier
from .ldup import DetProver, DetVerifier, LdupProver, LdupVerifier
from .profiles import (
    RpmInvertibleProver,
    RpmInvertibleVerifier,
    RpmVerifier,
    crp_prover,
    crp_verifier,
    rpm_prover,
)
from .rank import RankLowerProver, RankLowerVerifier, RankUpperProver, RankUpperVerifier

MAGIC = b"RKC1"


class Protocol(NamedTuple):
    """One protocol: its id byte on the wire, the shapes of the matrices it
    binds, the honest prover ``prover(*matrices)`` and the verifier
    ``verifier(*matrices, sample_set, meter, challenges)``.

    ``shapes`` holds two letters per matrix, its rows and its columns; a
    letter stands for one size wherever it recurs, so ``("mk", "kn",
    "mn")`` is a product A.B = C and ``("nn",)`` one square matrix."""

    id: int
    shapes: tuple[str, ...]
    prover: Callable[..., Machine]
    verifier: Callable[..., VerifierMachine]


PROTOCOLS = {
    # no prover message is needed: a bare machine says nothing
    "freivalds": Protocol(1, ("mk", "kn", "mn"), lambda *mats: ProverMachine(), FreivaldsVerifier),
    "rank-upper": Protocol(2, ("mn",), RankUpperProver, RankUpperVerifier),
    "rank-lower": Protocol(3, ("mn",), RankLowerProver, RankLowerVerifier),
    "tri-equiv-lower": Protocol(
        4,
        ("mn", "mn"),
        partial(TriangularEquivalenceProver, variant="lower"),
        partial(TriangularEquivalenceVerifier, variant="lower"),
    ),
    "tri-equiv-upper": Protocol(
        5,
        ("mn", "mn"),
        partial(TriangularEquivalenceProver, variant="upper"),
        partial(TriangularEquivalenceVerifier, variant="upper"),
    ),
    "grp": Protocol(6, ("nn",), GrpProver, GrpVerifier),
    "ldup": Protocol(7, ("nn",), LdupProver, LdupVerifier),
    "det": Protocol(8, ("nn",), DetProver, DetVerifier),
    "crp": Protocol(9, ("mn",), crp_prover, crp_verifier),
    # the column profile of the transpose
    "rrp": Protocol(
        10,
        ("mn",),
        lambda a: crp_prover(a.transpose()),
        lambda a, *rest: crp_verifier(a.transpose(), *rest),
    ),
    "rpm-inv": Protocol(11, ("nn",), RpmInvertibleProver, RpmInvertibleVerifier),
    "rpm": Protocol(12, ("mn",), rpm_prover, RpmVerifier),
}
PROTOCOL_IDS = {name: spec.id for name, spec in PROTOCOLS.items()}
ID_NAMES = {spec.id: name for name, spec in PROTOCOLS.items()}


def _encode_matrix(mat: DenseMatrix) -> bytes:
    dims = mat.m.to_bytes(4, "little") + mat.n.to_bytes(4, "little")
    return dims + mat.array.astype("<i8").tobytes()


def check_statement(protocol: str, matrices: tuple[DenseMatrix, ...]) -> None:
    """Refuse a statement ``protocol`` does not bind: an unknown protocol,
    a wrong number of matrices, a size ``check_dims`` refuses, matrices over
    two moduli, or sizes that break the letters of ``Protocol.shapes``."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    shapes = PROTOCOLS[protocol].shapes
    if len(matrices) != len(shapes):
        raise ValueError(f"{protocol} binds {len(shapes)} matrices, got {len(matrices)}")
    for mat in matrices:
        check_dims(mat.m, mat.n)
    moduli = sorted({mat.field.p for mat in matrices})
    if len(moduli) > 1:
        raise ValueError(f"{protocol} binds matrices over one field, got moduli {moduli}")
    # a letter that names two sizes makes two pairs
    sizes = {(c, size) for want, mat in zip(shapes, matrices) for c, size in zip(want, mat.shape)}
    if len(sizes) > len({c for c, _ in sizes}):
        got = ", ".join(f"{mat.m}x{mat.n}" for mat in matrices)
        raise DimensionError(f"{protocol} binds shapes {', '.join(shapes)}, got {got}")


def build_header(protocol: str, matrices: tuple[DenseMatrix, ...]) -> bytes:
    check_statement(protocol, matrices)
    out = bytearray(MAGIC)
    out.append(PROTOCOL_IDS[protocol])
    out += matrices[0].field.p.to_bytes(8, "little")
    for mat in matrices:
        out += _encode_matrix(mat)
    return bytes(out)


def parse_header(blob: bytes) -> tuple[str, tuple[DenseMatrix, ...], int]:
    """The protocol, the matrices and the length of the header opening
    ``blob``.  The first fault raises, in this order: magic, length, id,
    each matrix's dimensions and entry count, modulus, entries."""
    if blob[:4] != MAGIC:
        raise MalformedCertificate("bad magic")
    if len(blob) < 13:
        raise MalformedCertificate("truncated header")
    if blob[4] not in ID_NAMES:
        raise MalformedCertificate(f"unknown protocol id {blob[4]}")
    protocol = ID_NAMES[blob[4]]
    pos, dims = 13, []
    for _ in PROTOCOLS[protocol].shapes:
        if pos + 8 > len(blob):
            raise MalformedCertificate("truncated matrix header")
        m = int.from_bytes(blob[pos : pos + 4], "little")
        n = int.from_bytes(blob[pos + 4 : pos + 8], "little")
        if not (1 <= m <= MAX_DIM and 1 <= n <= MAX_DIM):
            raise MalformedCertificate("implausible matrix dimensions")
        dims.append((m, n, pos + 8))
        pos += 8 + 8 * m * n
        if pos > len(blob):
            raise MalformedCertificate("truncated matrix entries")
    try:
        field = PrimeField(int.from_bytes(blob[5:13], "little"))
    except ValueError as exc:
        raise MalformedCertificate(f"bad modulus: {exc}") from None
    try:
        mats = tuple(
            DenseMatrix(field, np.frombuffer(blob, "<i8", m * n, at).reshape(m, n))
            for m, n, at in dims
        )
    except ValueError:
        raise MalformedCertificate("matrix entry out of range") from None
    return protocol, mats, pos


TAG_NAMES = {v: k for k, v in PART_TAGS.items()}
# a frame's length, then its first part's tag and count
_FRAME_HEAD = struct.Struct("<IBI").unpack_from


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


def split_frames(field: PrimeField, blob: bytes, pos: int) -> deque[bytes]:
    """The frames from ``pos`` on as a cursor, each validated up front.

    The field values of all frames are range-checked in one step, at the
    end or as soon as a frame turns out broken, so the first fault in the
    bytes is the one reported.
    """
    frames, values = deque(), []

    def check_range() -> None:
        joined = b"".join(values)
        if joined and np.frombuffer(joined, "<u8").max() >= field.p:
            raise MalformedCertificate("field element out of range")

    end = len(blob)
    try:
        while pos < end:
            if pos + 9 <= end:
                # a frame that is one field part filling it, as every
                # scheduled answer is, needs no walk over its parts
                length, tag, count = _FRAME_HEAD(blob, pos)
                if tag == 1 and length == 5 + 8 * count and pos + 4 + length <= end:
                    frame = blob[pos + 4 : pos + 4 + length]
                    values.append(frame[5:])
                    frames.append(frame)
                    pos += 4 + length
                    continue
            if pos + 4 > end:
                raise MalformedCertificate("truncated frame length")
            length = int.from_bytes(blob[pos : pos + 4], "little")
            pos += 4
            if pos + length > end:
                raise MalformedCertificate("truncated frame")
            frame = blob[pos : pos + length]
            for tag, count, at in _parts(frame):
                if tag == "field":
                    values.append(frame[at : at + 8 * count])
                elif tag == "flag" and any(b > 1 for b in frame[at : at + count]):
                    raise MalformedCertificate("flag out of range")
            frames.append(frame)
            pos += length
    except MalformedCertificate:
        check_range()
        raise
    check_range()
    return frames


class ReplayProver(ProverMachine):
    """Feeds the frames ``split_frames`` returns through the engine, one
    per turn.

    Under ``check`` a verifier takes the answers of its round schedules
    off the cursor itself, so only the frames outside a schedule come
    through here: claims, commits, the det-mode flag, images, witnesses.
    """

    def __init__(self, frames: deque[bytes]):
        super().__init__()
        self.frames = frames

    def next_message(self) -> Optional[Message]:
        if not self.frames:
            return None
        frame = self.frames.popleft()
        parts = tuple(
            Part(tag, tuple(np.frombuffer(frame, f"<u{PART_WIDTHS[tag]}", count, at).tolist()))
            for tag, count, at in _parts(frame)
        )
        return Message(PROVER, None, None, parts)

    def receive(self, msg: Message) -> None:
        # challenges are implicit in the hash chain; nothing to do
        return


def runner(protocol: str) -> Callable[..., RunResult]:
    """``run(matrices, challenges, prover)`` for one protocol, the only way
    to run one: it builds the prover first (the honest one from
    ``PROTOCOLS`` when ``prover`` is None), then the verifier on a fresh
    ``SampleSet`` of the field and ``CostMeter``, and runs the session.
    Interactive runs, seals and checks all go through it, so
    ``check_statement`` refuses the same statements on every route."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    spec = PROTOCOLS[protocol]

    def run(matrices, challenges, prover: Machine | None) -> RunResult:
        check_statement(protocol, matrices)
        if prover is None:
            prover = spec.prover(*matrices)
        sample_set = SampleSet(matrices[0].field)
        return run_session(prover, spec.verifier(*matrices, sample_set, CostMeter(), challenges))

    return run


def seal(protocol: str, *matrices: DenseMatrix) -> tuple[bytes, RunResult]:
    """Run the honest prover non-interactively and serialize its frames,
    the bytes its challenge source absorbed, in order."""
    header = build_header(protocol, matrices)
    challenges = FiatShamirChallenges(header)
    challenges.sealed = frames = []
    result = runner(protocol)(matrices, challenges, None)
    if not result.verdict.accepted:
        raise ValueError(
            f"honest run was rejected ({result.verdict.reason}); nothing to seal"
        )
    blob = header + b"".join(
        len(f).to_bytes(4, "little") + f for f in frames
    )
    return blob, result


def check(blob: bytes) -> tuple[str, tuple[DenseMatrix, ...], RunResult]:
    """Re-derive the challenges and replay a serialized certificate.

    The header is walked once (``parse_header``) and hashed once, after the
    frames are split.  The verifier replays its round schedules straight
    off the frames (see ``VerifierMachine._ask``), so the result's
    transcript holds only the messages outside a schedule.
    """
    protocol, matrices, end = parse_header(blob)
    frames = split_frames(matrices[0].field, blob, end)
    challenges = FiatShamirChallenges(memoryview(blob)[:end])
    challenges.frames = frames
    try:
        result = runner(protocol)(matrices, challenges, ReplayProver(frames))
    except (ValueError, IndexError) as exc:
        # a blob can parse and still bind a statement ``check_statement``
        # refuses, or carry claims a verifier's constructor refuses
        raise MalformedCertificate(f"certificate contradicts itself: {exc}") from exc
    if result.verdict.accepted and frames:
        raise MalformedCertificate("certificate has trailing frames")
    return protocol, matrices, result
