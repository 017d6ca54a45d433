"""Fusion coefficients, simple currents, and products of modular data.

Fusion multiplicities come from the Verlinde sum
N_ab^c = sum_k S_ak S_bk conj(S_ck) / S_0k over the unitary S matrix and must
round to non-negative integers within tolerance; anything else is reported as
a hard error rather than silently rounded.

The sum runs as one pass over the rows a, one BLAS product per row, holding
O(n^2) at a time.  Every pass fills a memoized summary: the worst residual,
the most negative rounded entry and the fusion permutation of each row with
one channel per b.  ``verify_fusion`` and ``simple_currents`` read only the
summary, so checking a theory never stores the n^3 tensor; only
``verlinde_tensor`` (the ``fusion`` report and block ranks) keeps the rounded
rows, as an int64 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .affine import ModularData
from .errors import IntegralityError, InternalConsistencyError

__all__ = [
    "verlinde_tensor",
    "verify_fusion",
    "SimpleCurrentGroup",
    "simple_currents",
    "tensor_product",
]


class _Summary(NamedTuple):
    """What one pass of the Verlinde sum keeps; positions are (a, b, c)."""

    residual: float  # first largest |x - round(x)| in C order
    worst: tuple[int, int, int]
    value: complex  # the raw sum at ``worst``
    neg: tuple[int, int, int]  # first smallest rounded entry
    lowest: float
    perms: dict[int, tuple[int, ...]]  # row a -> (c with N_ab^c = 1 for each b)


def _verlinde(md: ModularData, tensor: np.ndarray | None = None) -> _Summary:
    """One pass over rows a: N_a = (S diag(S_a)) (conj(S) / S_0)^T.

    Each row is rounded, summarized and dropped, or written into ``tensor``.
    A real S runs in float64: one with exactly real entries (every A1
    theory), or a self-conjugate one whose imaginary part is at rounding
    level (at most n eps), since S symmetric and unitary with S^2 = 1 is
    real.  A larger imaginary part keeps the complex sum, which reports it.
    """
    s = md.smatrix
    if not s.imag.any() or (
        np.abs(s.imag).max() <= len(s) * np.finfo(float).eps
        and md.conjugation_permutation() == tuple(range(len(s)))
    ):
        s = s.real
    n = len(s)
    dual = (s.conj() / s[0]).T
    residual, lowest, perms = -1.0, np.inf, {}
    for a in range(n):
        raw = (s * s[a]) @ dual  # raw[b, c] = sum_k S_ak S_bk conj(S_ck) / S_0k
        rounded = np.round(raw.real)
        if tensor is not None:
            tensor[a] = rounded
        off = np.abs(raw - rounded)
        i = int(np.argmax(off))
        if off.flat[i] > residual:
            residual, worst, value = float(off.flat[i]), (a, *divmod(i, n)), complex(raw.flat[i])
        i = int(np.argmin(rounded))
        if rounded.flat[i] < lowest:
            lowest, neg = float(rounded.flat[i]), (a, *divmod(i, n))
        if (rounded.sum(axis=1) == 1).all():
            perms[a] = tuple(rounded.argmax(axis=1).tolist())
    return _Summary(residual, worst, value, neg, lowest, perms)


def _summary(md: ModularData) -> _Summary:
    return md._derived("verlinde_summary", _verlinde)


def _tensor(md: ModularData) -> np.ndarray:
    n = md.dim
    tensor = np.empty((n, n, n), dtype=np.int64)
    summary = _verlinde(md, tensor)
    md._derived("verlinde_summary", lambda md: summary)
    tensor.flags.writeable = False
    return tensor


def verify_fusion(md: ModularData, tol: float = 1e-6) -> float:
    """The largest residual |x - round(x)| of the Verlinde sums, once each is
    checked to round to a non-negative integer.

    The sum runs at most once per theory and stores no fusion tensor.  Each
    call applies its own ``tol`` and raises ``IntegralityError`` at the first
    worst entry, or at the first negative one.
    """
    summary = _summary(md)
    if summary.residual > tol:
        raise IntegralityError(
            "fusion coefficient",
            summary.value,
            summary.residual,
            tuple(md.labels[i] for i in summary.worst),
        )
    if summary.lowest < 0:
        raise IntegralityError(
            "fusion coefficient (negative)",
            summary.lowest,
            -summary.lowest,
            tuple(md.labels[i] for i in summary.neg),
        )
    return summary.residual


def verlinde_tensor(md: ModularData, tol: float = 1e-6) -> np.ndarray:
    """All fusion multiplicities N[a, b, c] = N_{ab}^c as a read-only integer array.

    The n^3 int64 tensor is built once per theory, by the same row pass as
    ``verify_fusion``, which it fills on the way; apart from the tensor the
    pass holds O(n^2).  The tensor is checked as ``verify_fusion(md, tol)``.
    """
    tensor = md._derived("verlinde", _tensor)
    verify_fusion(md, tol)
    return tensor


@dataclass(frozen=True, eq=False)
class SimpleCurrentGroup:
    """The group of simple currents of one theory, acting on primary labels.

    ``indices`` lists the currents as label indices (vacuum first); ``perms``
    holds the fusion permutation of each current.  Monodromy charges are
    exact rationals mod 1.
    """

    md: ModularData
    indices: tuple[int, ...]
    perms: dict[int, tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def labels(self) -> tuple:
        return tuple(self.md.labels[j] for j in self.indices)

    def act(self, j: int, i: int) -> int:
        return self.perms[j][i]

    def compose(self, j1: int, j2: int) -> int:
        return self.perms[j1][j2]

    @cached_property
    def _inverses(self) -> dict[int, int]:
        vacuum = self.md.vacuum
        return {j: inv for j in self.indices if (inv := self.perms[j].index(vacuum)) in self.perms}

    def inverse(self, j: int) -> int:
        if (inv := self._inverses.get(j)) is None:
            raise InternalConsistencyError("simple current has no inverse in the group")
        return inv

    def element_order(self, j: int) -> int:
        k, cur = 1, j
        while cur != self.md.vacuum:
            cur = self.compose(j, cur)
            k += 1
        return k

    def charge(self, j: int, i: int) -> Q:
        """Monodromy charge Q_J(i) = Delta_J + Delta_i - Delta_{Ji} mod 1."""
        d = self.md.delta
        return (d[j] + d[i] - d[self.act(j, i)]) % 1

    def orbit(self, i: int) -> tuple[int, ...]:
        return tuple(sorted({self.act(j, i) for j in self.indices}))

    def orbits(self) -> list[tuple[int, ...]]:
        """Each orbit once, in order of its least label."""
        return sorted({self.orbit(i) for i in range(self.md.dim)})

    def stabilizer(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in self.indices if self.act(j, i) == i)

    def subgroup(self, generators: tuple[int, ...]) -> "SimpleCurrentGroup":
        """Closure of the given current indices under composition."""
        elems = {self.md.vacuum}
        frontier = list(generators)
        while frontier:
            j = frontier.pop()
            if j not in elems:
                if j not in self.perms:
                    raise InternalConsistencyError(f"index {j} is not a simple current")
                elems.add(j)
                frontier.extend(self.compose(j, e) for e in list(elems))
        idx = tuple(sorted(elems))
        return SimpleCurrentGroup(self.md, idx, {j: self.perms[j] for j in idx})


def simple_currents(md: ModularData) -> SimpleCurrentGroup:
    """Detect the full simple-current group, cross-checking two criteria.

    A current is a primary whose vacuum S entry is within 1e-9 of the
    vacuum's own; independently it must fuse with every primary into exactly
    one channel.  Disagreement between the two tests is an internal error.
    """
    s0 = md.smatrix[0]
    by_smatrix = {j for j in range(md.dim) if abs(s0[j] - s0[0]) <= 1e-9}
    verify_fusion(md)
    perms = _summary(md).perms
    if by_smatrix != set(perms):
        raise InternalConsistencyError(
            "simple-current criteria disagree: "
            f"S-matrix test gives {sorted(by_smatrix)}, fusion test gives {sorted(perms)}"
        )
    if any(sorted(perm) != list(range(md.dim)) for perm in perms.values()):
        raise InternalConsistencyError("simple-current fusion is not a permutation")
    group = SimpleCurrentGroup(md, tuple(perms), dict(perms))
    for j1 in group.indices:
        for j2 in group.indices:
            if group.compose(j1, j2) not in perms:
                raise InternalConsistencyError("simple currents are not closed under fusion")
    return group


def tensor_product(md1: ModularData, md2: ModularData) -> ModularData:
    """Product theory: Kronecker S matrix, additive exact conformal data.

    Labels are pairs (label1, label2); nest calls for longer products.  The
    product carries its factors, from which its fixed-point S matrices are
    built.
    """
    return ModularData(
        algebra=f"{md1.algebra}*{md2.algebra}",
        level=-1,
        labels=tuple((l1, l2) for l1 in md1.labels for l2 in md2.labels),
        smatrix=np.kron(md1.smatrix, md2.smatrix),
        delta=tuple(d1 + d2 for d1 in md1.delta for d2 in md2.delta),
        central_charge=md1.central_charge + md2.central_charge,
        factors=(md1, md2),
    )
