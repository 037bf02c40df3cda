"""Spans recorded from outside the library, around the public functions of
each layer.

``Tracer.install`` replaces each traced function by a wrapper in every
``rankcert`` module namespace that holds it (protocol modules import
``pluq_crp`` and friends by name, so patching the defining module alone
would miss their calls), and each traced method on its class.
``Tracer.uninstall`` puts the originals back.  A span is
(id, name, start, end, parent) with times from ``perf_counter_ns``; ids are
handed out on entry, so a parent's id is below its children's.  Nothing is
aggregated while the workload runs: ``Spans`` turns the raw list into
per-round counts and self times afterwards.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

import numpy as np

from rankcert.elimination import (
    ldup,
    lu_nopivot,
    pluq_crp,
    pluq_rpm,
    solve_consistent,
    trsv_lower,
    trsv_upper,
)
from rankcert.field import SampleSet
from rankcert.matrix import DenseMatrix, dot_mod
from rankcert.protocols import base, wire
from rankcert.protocols.equivalence import (
    TriangularEquivalenceProver,
    find_unit_triangular_witness,
)
from rankcert.protocols.grp import GrpProver
from rankcert.protocols.ldup import DetProver, LdupProver
from rankcert.protocols.profiles import (
    ColumnClaimProver,
    CrpStreamProver,
    RpmInvertibleProver,
)
from rankcert.protocols.rank import RankLowerProver, RankUpperProver

# span name -> module-level functions, patched wherever they were imported
FUNCTIONS = {
    "matrix.dot_mod": (dot_mod,),
    "elimination.pluq_crp": (pluq_crp,),
    "elimination.pluq_rpm": (pluq_rpm,),
    "elimination.lu_nopivot": (lu_nopivot,),
    "elimination.ldup": (ldup,),
    "elimination.solve_consistent": (solve_consistent,),
    "elimination.trsv": (trsv_lower, trsv_upper),
    "base.drive": (base.drive,),
    "wire.build_header": (wire.build_header,),
    "wire.parse_header": (wire.parse_header,),
    "wire.split_frames": (wire.split_frames,),
    "wire.seal": (wire.seal,),
    "wire.check": (wire.check,),
    "protocols.find_unit_triangular_witness": (find_unit_triangular_witness,),
}

HONEST_PROVERS = (
    RankUpperProver,
    RankLowerProver,
    TriangularEquivalenceProver,
    GrpProver,
    LdupProver,
    DetProver,
    ColumnClaimProver,
    CrpStreamProver,
    RpmInvertibleProver,
)

# span name -> (class, method name)
METHODS = {
    "field.draw": ((SampleSet, "draw"),),
    "matrix.matvec": ((DenseMatrix, "matvec"), (DenseMatrix, "vecmat")),
    "matrix.matmul": ((DenseMatrix, "__matmul__"),),
    "base.deliver": ((base.Channel, "deliver"),),
    "base.fs_init": ((base.FiatShamirChallenges, "__init__"),),
    "base.fs_absorb": ((base.FiatShamirChallenges, "absorb"),),
    "base.fs_draw": ((base.FiatShamirChallenges, "draw"),),
    "protocols.prover_init": tuple((cls, "__init__") for cls in HONEST_PROVERS),
    # the r matvecs and 2r triangular solves of the crp prover
    "protocols.solve_gamma": ((CrpStreamProver, "_solve_gamma"),),
}

ELIMINATIONS = (
    "elimination.pluq_crp",
    "elimination.pluq_rpm",
    "elimination.lu_nopivot",
    "elimination.ldup",
    "elimination.solve_consistent",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.raw = array("q")  # flat (id, name, start, end, parent) records
        self._stack = [-1]
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, raw, ids, clock = self._stack, self.raw, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                raw.extend((sid, nid, start, end, parent))

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("rankcert") and m]
        for name, fns in FUNCTIONS.items():
            for fn in fns:
                wrapper = self.wrap(name, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._undo.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        for name, targets in METHODS.items():
            for cls, attr in targets:
                fn = cls.__dict__[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.raw, dtype=np.int64).reshape(-1, 5).copy())


class Spans:
    """Recorded spans with their self times and roots."""

    def __init__(self, names: list[str], raw: np.ndarray):
        self.names = names
        # ids run from 0 without gaps, so after sorting a span's id is its row
        rows = raw[np.argsort(raw[:, 0])]
        self.rows = rows
        _, self.name, start, end, self.parent = rows.T
        dur = end - start
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(rows)
        )
        self.self_ns = dur - children
        root = np.arange(len(rows))
        while True:
            up = self.parent[root]
            climb = up >= 0
            if not climb.any():
                break
            root[climb] = up[climb]
        self.root = root
        self.start = start

    def name_mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def per_round(self, round_starts: list[int], mask: np.ndarray, weights=None) -> list:
        """Sum of ``weights`` (or a count) over the masked spans, one value per
        round; ``round_starts`` holds each round's ``perf_counter_ns`` start."""
        rnd = np.searchsorted(np.asarray(round_starts), self.start[mask], side="right") - 1
        w = None if weights is None else weights[mask]
        return list(np.bincount(rnd, weights=w, minlength=len(round_starts)))

    def in_check_eliminations(self) -> np.ndarray:
        """Outermost elimination spans whose root is a ``wire.check`` call."""
        elim = self.name_mask(*ELIMINATIONS)
        parent_elim = np.zeros_like(elim)
        has_parent = self.parent >= 0
        parent_elim[has_parent] = elim[self.parent[has_parent]]
        return elim & ~parent_elim & self.name_mask("wire.check")[self.root]

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.rows, names=np.array(self.names))
