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

A check reads the header once, as read-only views of the certificate
(``parse_header``), and cuts the frames once, each checked where it is
cut (``split_frames``).  A frame outside a round schedule reaches its
verifier's pending Receive as one ``Message`` whose parts are read
straight off the frame (``read_frame``), and the channel absorbs that
frame as it is.
"""

from __future__ import annotations

import struct
from collections import deque
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from ..field import PrimeField, SampleSet
from ..matrix import MAX_DIM, DenseMatrix, DimensionError, check_dims
from .base import (
    Channel,
    CostMeter,
    FiatShamirChallenges,
    MalformedCertificate,
    Machine,
    ProverMachine,
    RunResult,
    VerifierMachine,
    _parts,
    _reader,
    drive,
)
from .equivalence import TriangularEquivalenceProver, TriangularEquivalenceVerifier
from .freivalds import FreivaldsVerifier
from .grp import GrpProver, GrpVerifier
from .ldup import DetProver, DetVerifier, LdupProver, LdupVerifier
from .profiles import (
    CrpVerifier,
    RpmInvertibleProver,
    RpmInvertibleVerifier,
    RpmVerifier,
    crp_prover,
    rpm_prover,
)
from .rank import RankLowerProver, RankLowerVerifier, RankUpperProver, RankUpperVerifier

MAGIC = b"RKC1"
# a matrix's dimensions in the header
_DIMS = struct.Struct("<II").unpack_from


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
    "crp": Protocol(9, ("mn",), crp_prover, CrpVerifier),
    # the column profile of the transpose
    "rrp": Protocol(
        10,
        ("mn",),
        lambda a: crp_prover(a.transpose()),
        lambda a, *rest: CrpVerifier(a.transpose(), *rest),
    ),
    "rpm-inv": Protocol(11, ("nn",), RpmInvertibleProver, RpmInvertibleVerifier),
    "rpm": Protocol(12, ("mn",), rpm_prover, RpmVerifier),
}
PROTOCOL_IDS = {name: spec.id for name, spec in PROTOCOLS.items()}
ID_NAMES = {spec.id: name for name, spec in PROTOCOLS.items()}


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


def _header_parts(protocol: str, matrices: tuple[DenseMatrix, ...]) -> list:
    """The buffers the header joins: magic, id and modulus, then each
    matrix's dimensions and its entries, in place where they are already
    little-endian int64 in row order."""
    check_statement(protocol, matrices)
    parts = [MAGIC + bytes((PROTOCOL_IDS[protocol],)) + matrices[0].field.p.to_bytes(8, "little")]
    for mat in matrices:
        parts.append(mat.m.to_bytes(4, "little") + mat.n.to_bytes(4, "little"))
        parts.append(np.ascontiguousarray(mat.array, dtype="<i8"))
    return parts


def build_header(protocol: str, matrices: tuple[DenseMatrix, ...]) -> bytes:
    return b"".join(_header_parts(protocol, matrices))


def parse_header(blob: bytes) -> tuple[str, tuple[DenseMatrix, ...], int]:
    """The protocol, the matrices and the length of the header opening
    ``blob``.  The first fault raises, in this order: magic, length, id,
    each matrix's dimensions and entry count, modulus, entries.  Each
    matrix is a read-only, unaligned view of ``blob`` (the first one's
    entries start at byte 21); a ``blob`` that might change is copied once."""
    blob = blob if isinstance(blob, bytes) else bytes(blob)
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
        m, n = _DIMS(blob, pos)
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
    mats = []
    for m, n, at in dims:
        entries = np.frombuffer(blob, "<i8", m * n, at)
        # a negative int64 reads as 2^63 or more unsigned
        if entries.view("<u8").max() >= field.p:
            raise MalformedCertificate("matrix entry out of range")
        mats.append(DenseMatrix._wrap(field, entries.reshape(m, n)))
    return protocol, tuple(mats), pos


# a frame's length, then its first part's tag and count, and the 16 bytes
# after, which are its first two values if it holds two
_FRAME_HEAD = struct.Struct("<IBIQQ").unpack_from


def split_frames(field: PrimeField, blob: bytes, pos: int) -> deque[bytes]:
    """The frames from ``pos`` on as a cursor, each validated as it is cut:
    its parts walked, each field value checked for a residue and each flag
    for 0 or 1, so the first fault in the bytes is the one reported.
    Values are read unsigned, so a negative int64 is 2^63 or more."""
    frames, p, end = deque(), field.p, len(blob)
    keep = frames.append
    while pos < end:
        if pos + 25 <= end:
            # a frame that is one field part filling it, as every scheduled
            # answer is, needs no walk over its parts
            length, tag, count, first, second = _FRAME_HEAD(blob, pos)
            cut = pos + 4 + length
            if tag == 1 and length == 5 + 8 * count and cut <= end:
                if (
                    count and first >= p
                    or count > 1 and second >= p
                    or count > 2 and max(_reader("field", count - 2)(blob, pos + 25)) >= p
                ):
                    raise MalformedCertificate("field element out of range")
                keep(blob[pos + 4 : cut])
                pos = cut
                continue
        if pos + 4 > end:
            raise MalformedCertificate("truncated frame length")
        length = int.from_bytes(blob[pos : pos + 4], "little")
        pos += 4
        if pos + length > end:
            raise MalformedCertificate("truncated frame")
        frame = blob[pos : pos + length]
        for tag, count, at in _parts(frame):
            if tag == "field" and count and max(_reader(tag, count)(frame, at)) >= p:
                raise MalformedCertificate("field element out of range")
            if tag == "flag" and any(b > 1 for b in frame[at : at + count]):
                raise MalformedCertificate("flag out of range")
        keep(frame)
        pos += length
    return frames


@lru_cache(maxsize=64)
def _sample_set(field: PrimeField) -> SampleSet:
    """The whole field as a `SampleSet`, built once per modulus: a check
    builds its field anew from the header."""
    return SampleSet(field)


def runner(protocol: str) -> Callable[..., RunResult]:
    """``run(matrices, challenges, prover)`` for one protocol, the only way
    to run one: it builds the prover first (the honest one from
    ``PROTOCOLS`` when ``prover`` is None; a certificate's frames stand in
    for one, see ``drive``), then the verifier on the ``SampleSet`` of the
    whole field and a fresh ``CostMeter``, and drives the two over a fresh
    channel on that meter and ``challenges``.
    Interactive runs, seals and checks all go through it, so
    ``check_statement`` refuses the same statements on every route."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    spec = PROTOCOLS[protocol]

    def run(matrices, challenges, prover: Machine | deque | None) -> RunResult:
        check_statement(protocol, matrices)
        if prover is None:
            prover = spec.prover(*matrices)
        verifier = spec.verifier(*matrices, _sample_set(matrices[0].field), CostMeter(), challenges)
        channel = Channel(verifier.meter, challenges)
        verdict = drive(prover, verifier, channel)
        return RunResult(verdict, verifier.result_value, channel.meter, tuple(channel.transcript))

    return run


def seal(protocol: str, *matrices: DenseMatrix) -> tuple[bytes, RunResult]:
    """Run the honest prover non-interactively and serialize its frames,
    the bytes its challenge source absorbed, in order.  The header is
    hashed off the matrices and written once, into the certificate."""
    parts = _header_parts(protocol, matrices)
    challenges = FiatShamirChallenges(*parts)
    challenges.sealed = frames = []
    result = runner(protocol)(matrices, challenges, None)
    if not result.verdict.accepted:
        raise ValueError(
            f"honest run was rejected ({result.verdict.reason}); nothing to seal"
        )
    for f in frames:
        parts += (len(f).to_bytes(4, "little"), f)
    return b"".join(parts), result


def check(blob: bytes) -> tuple[str, tuple[DenseMatrix, ...], RunResult]:
    """Re-derive the challenges and replay a serialized certificate.

    The header is walked once (``parse_header``) and hashed once, after the
    frames are split.  Each frame outside a round schedule goes to the
    verifier's pending Receive, and the verifier replays its round
    schedules straight off the frames (see ``VerifierMachine._ask``), so
    the result's transcript holds only the messages outside a schedule.
    """
    protocol, matrices, end = parse_header(blob)
    frames = split_frames(matrices[0].field, blob, end)
    challenges = FiatShamirChallenges(memoryview(blob)[:end])
    challenges.frames = frames
    try:
        result = runner(protocol)(matrices, challenges, frames)
    except (ValueError, IndexError) as exc:
        # a blob can parse and still bind a statement ``check_statement``
        # refuses, or carry claims a verifier's constructor refuses
        raise MalformedCertificate(f"certificate contradicts itself: {exc}") from exc
    if result.verdict.accepted and frames:
        raise MalformedCertificate("certificate has trailing frames")
    return protocol, matrices, result
