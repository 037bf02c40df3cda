"""Each honest prover factors its matrix with one ``pluq_rpm``, and a
checker never factors at all, nor sends a scheduled round over the engine.
Cheating provers factor with ``pluq_rpm`` too, once, when their attack is
built: a trial factors nothing.

The eliminations are counted by wrapping ``pluq_crp``, ``pluq_rpm`` and
``lu_nopivot`` in every ``rankcert`` module namespace that holds them, so
calls made through a protocol module's own import are seen too, and
recorded by name.  The triangular solves beyond the elimination are
counted the same way, through ``trsv_lower`` and ``trsv_upper``: a stream
prover answers by back substitution and makes none of its own.
"""

import random
import sys

import numpy as np
import pytest

from rankcert import elimination
from rankcert.adversaries import ATTACKS, measure
from rankcert.elimination import (
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
)
from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix
from rankcert.protocols.base import Channel, Message, Part
from rankcert.protocols.wire import check, seal

F = PrimeField(131071)

# per-seal calls of pluq_crp + pluq_rpm + lu_nopivot on the inputs below;
# every one of them must be pluq_rpm
SEAL_ELIMINATIONS = {
    "freivalds": 0,
    "rank-upper": 1,
    "rank-lower": 1,
    "tri-equiv-lower": 1,
    "tri-equiv-upper": 1,
    "grp": 1,
    "ldup": 1,
    "rpm-inv": 1,
    "det": 1,
    "det-singular": 1,
    "crp": 1,
    "rrp": 1,
    "rpm": 1,
    # more rows than pluq_rpm's base case, so its recursion runs
    "det-recursive": 1,
    "ldup-recursive": 1,
}


def _instances():
    rng = random.Random(5)
    wide = random_rank_deficient(F, 12, 16, 8, rng)
    square = random_nonsingular(F, 12, rng)
    singular = random_rank_deficient(F, 12, 12, 9, rng)
    b = DenseMatrix.random(F, 12, 4, rng)
    t = random_unit_lower(F, 12, rng)
    tall = random_nonsingular(F, elimination._BASE_ROWS + 16, rng)
    return {
        "freivalds": ("freivalds", (square, b, square @ b)),
        "rank-upper": ("rank-upper", (wide,)),
        "rank-lower": ("rank-lower", (wide,)),
        "tri-equiv-lower": ("tri-equiv-lower", (singular, singular @ t)),
        "tri-equiv-upper": ("tri-equiv-upper", (singular, singular @ t.transpose())),
        "grp": ("grp", (random_grp_matrix(F, 12, rng),)),
        "ldup": ("ldup", (square,)),
        "rpm-inv": ("rpm-inv", (square,)),
        "det": ("det", (square,)),
        "det-singular": ("det", (singular,)),
        "crp": ("crp", (wide,)),
        "rrp": ("rrp", (wide,)),
        "rpm": ("rpm", (wide,)),
        "det-recursive": ("det", (tall,)),
        "ldup-recursive": ("ldup", (tall,)),
    }


def _wrap_everywhere(monkeypatch, fn, counted) -> None:
    for name, mod in list(sys.modules.items()):
        if not name.startswith("rankcert") or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, attr, counted)


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    for fn in (elimination.pluq_crp, elimination.pluq_rpm, elimination.lu_nopivot):

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        _wrap_everywhere(monkeypatch, fn, counted)
    return calls


# per-seal triangular solves on the inputs above, as (side, right-hand
# sides); 12 is the tri-equiv inputs' n, so that solve is the witness's
# forward solve for all columns at once
PAIR = [("lower", 1), ("upper", 1)]
SEAL_SOLVES = {
    "freivalds": [],
    "rank-upper": PAIR,
    "rank-lower": PAIR,
    "tri-equiv-lower": [("lower", 12)],
    "tri-equiv-upper": [("lower", 12)],
    "grp": [],
    "ldup": [],
    "rpm-inv": [],
    "det": [],
    "det-singular": PAIR,
    "crp": PAIR,
    "rrp": PAIR,
    "rpm": PAIR,
    "det-recursive": [],
    "ldup-recursive": [],
}


@pytest.fixture
def solves(monkeypatch):
    calls = []
    for side, fn in (("lower", elimination.trsv_lower), ("upper", elimination.trsv_upper)):

        def counted(t, b, *, _fn=fn, _side=side, **kwargs):
            calls.append((_side, 1 if np.ndim(b) == 1 else np.shape(b)[1]))
            return _fn(t, b, **kwargs)

        _wrap_everywhere(monkeypatch, fn, counted)
    return calls


@pytest.mark.parametrize("case", sorted(SEAL_ELIMINATIONS))
def test_seal_eliminations_and_none_in_check(case, eliminations):
    protocol, mats = _instances()[case]
    eliminations.clear()
    blob, _ = seal(protocol, *mats)
    assert eliminations == ["pluq_rpm"] * SEAL_ELIMINATIONS[case], eliminations
    eliminations.clear()
    _, _, replayed = check(blob)
    assert replayed.verdict.accepted
    assert eliminations == []


def test_the_solve_table_covers_every_seal():
    assert set(SEAL_SOLVES) == set(SEAL_ELIMINATIONS)


@pytest.mark.parametrize("case", sorted(SEAL_SOLVES))
def test_seal_triangular_solves(case, solves):
    """Only the rank bounds solve, one column each; tri-equiv makes one
    forward solve over all its columns, and no seal a back solve with r
    right-hand sides."""
    protocol, mats = _instances()[case]
    solves.clear()
    seal(protocol, *mats)
    assert solves == SEAL_SOLVES[case], solves


@pytest.mark.parametrize("n", [8, 64])
def test_nonsingular_det_check_delivers_only_the_flag_and_commit(n, monkeypatch):
    """The 2n - 2 rounds of the LDUP schedule replay off the frames; the
    message engine delivers 4n - 2 messages in an interactive run."""
    blob, _ = seal("det", random_nonsingular(F, n, random.Random(n)))
    deliveries = []
    deliver = Channel.deliver

    def counted(self, msg, recipient):
        deliveries.append(msg.kind)
        deliver(self, msg, recipient)

    monkeypatch.setattr(Channel, "deliver", counted)
    _, _, replayed = check(blob)
    assert replayed.verdict.accepted
    assert replayed.meter.messages == 4 * n - 2
    assert len(deliveries) <= 2, deliveries


# the protocols with a round schedule, and whether one sends a message
# outside it
SCHEDULED = {
    "det": True,
    "ldup": True,
    "rpm-inv": True,
    "grp": False,
    "crp": True,
    "rrp": True,
    "rpm": True,
    "tri-equiv-lower": False,
    "tri-equiv-upper": False,
}


def _statement(protocol, n):
    rng = random.Random(n)
    if protocol == "grp":
        return (random_grp_matrix(F, n, rng),)
    if protocol in ("crp", "rrp", "rpm"):
        return (random_rank_deficient(F, n, n, 3 * n // 4, rng),)
    a = random_nonsingular(F, n, rng)
    if protocol.startswith("tri-equiv"):
        t = random_unit_lower(F, n, rng)
        return (a, a @ (t if protocol == "tri-equiv-lower" else t.transpose()))
    return (a,)


@pytest.mark.parametrize("protocol", sorted(SCHEDULED))
def test_a_det_seal_and_check_build_no_part_or_message_per_round(protocol, monkeypatch):
    """A seal writes its scheduled answers and a check reads them without
    a ``Part`` or ``Message``: the same number of each is built at n = 8
    as at n = 64, where the LDUP schedule has 126 rounds, not 14.  Every
    protocol with a round schedule builds its answers the same way; one
    that sends nothing outside its schedule builds none at all."""
    built = []
    for cls in (Part, Message):
        new = cls.__new__

        def counted(owner, *args, _new=new, _name=cls.__name__):
            built.append(_name)
            return _new(owner, *args)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    counts = {}
    for n in (8, 64):
        mats = _statement(protocol, n)
        built.clear()
        blob, _ = seal(protocol, *mats)
        sealed = sorted(built)
        built.clear()
        assert check(blob)[2].verdict.accepted
        counts[n] = (sealed, sorted(built))
    assert counts[8] == counts[64], counts
    if SCHEDULED[protocol]:
        assert counts[8][1], "the counter saw the unscheduled messages"
    else:
        assert counts[8] == ([], []), counts


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attacks_make_no_pluq_crp_call(name, eliminations):
    attack = ATTACKS[name](PrimeField(101), 20260815)
    assert "pluq_crp" not in eliminations, eliminations
    eliminations.clear()
    measure(attack, 5, seed=42)
    assert eliminations == [], eliminations
