"""Fusion coefficients, simple currents, and products of modular data.

Fusion multiplicities come from the Verlinde sum over the unitary S matrix
and must round to non-negative integers within tolerance; anything else is
reported as a hard error rather than silently rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .affine import ModularData
from .errors import IntegralityError, InternalConsistencyError

__all__ = [
    "verlinde_tensor",
    "verlinde_residual",
    "SimpleCurrentGroup",
    "simple_currents",
    "tensor_product",
]


def _verlinde(md: ModularData):
    s = md.smatrix
    n = len(s)
    dual = (s.conj() / s[0]).T
    tensor = np.empty((n, n, n), dtype=np.int64)
    # per row a: first largest residual, its flat index in the row and its raw value
    residual, where, value = np.empty(n), np.empty(n, dtype=np.intp), np.empty(n, dtype=complex)
    for a in range(n):
        raw = (s * s[a]) @ dual  # raw[b, c] = sum_k S_ak S_bk conj(S_ck) / S_0k
        rounded = np.round(raw.real)
        tensor[a] = rounded
        off = np.abs(raw - rounded)
        where[a] = np.argmax(off)
        residual[a], value[a] = off.flat[where[a]], raw.flat[where[a]]
    a = int(np.argmax(residual))
    worst = (a, *divmod(int(where[a]), n))
    neg = np.unravel_index(int(np.argmin(tensor)), tensor.shape)
    tensor.flags.writeable = False
    return tensor, float(residual[a]), worst, complex(value[a]), neg, float(tensor[neg])


def verlinde_tensor(md: ModularData, tol: float = 1e-6) -> np.ndarray:
    """All fusion multiplicities N[a, b, c] = N_{ab}^c as a read-only integer array.

    The Verlinde sum runs once per S matrix, as one BLAS product per row a:
    N[a] = (S diag(S_a)) (conj(S) / S_0)^T.  Rows are rounded as they are
    made, so the memory held is the int64 tensor plus O(n^2) per row.  Each
    call applies its own ``tol`` to the residual |x - round(x)| and raises
    ``IntegralityError`` at the first worst entry, or at the first negative one.
    """
    tensor, residual, worst, value, neg, lowest = md._derived("verlinde", _verlinde)
    if residual > tol:
        raise IntegralityError(
            "fusion coefficient", value, residual, tuple(md.labels[i] for i in worst)
        )
    if lowest < 0:
        raise IntegralityError(
            "fusion coefficient (negative)", lowest, -lowest, tuple(md.labels[i] for i in neg)
        )
    return tensor


def verlinde_residual(md: ModularData) -> float:
    """Largest distance of a Verlinde sum from the nearest integer."""
    return md._derived("verlinde", _verlinde)[1]


@dataclass(eq=False)
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

    def inverse(self, j: int) -> int:
        for j2 in self.indices:
            if self.compose(j, j2) == self.md.vacuum:
                return j2
        raise InternalConsistencyError("simple current has no inverse in the group")

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


def simple_currents(
    md: ModularData, tol: float = 1e-9, fusion_tol: float = 1e-6
) -> SimpleCurrentGroup:
    """Detect the full simple-current group, cross-checking two criteria.

    A current is a primary whose vacuum S entry equals that of the vacuum
    itself; independently it must fuse with every primary into exactly one
    channel.  Disagreement between the two tests is an internal error.
    """
    s0 = md.smatrix[0]
    by_smatrix = {j for j in range(md.dim) if abs(s0[j] - s0[0]) <= tol}
    n = verlinde_tensor(md, fusion_tol)
    by_fusion = {j for j in range(md.dim) if (n[j].sum(axis=1) == 1).all()}
    if by_smatrix != by_fusion:
        raise InternalConsistencyError(
            "simple-current criteria disagree: "
            f"S-matrix test gives {sorted(by_smatrix)}, fusion test gives {sorted(by_fusion)}"
        )
    perms = {}
    for j in sorted(by_fusion):
        perm = tuple(int(np.argmax(n[j, b])) for b in range(md.dim))
        if sorted(perm) != list(range(md.dim)):
            raise InternalConsistencyError("simple-current fusion is not a permutation")
        perms[j] = perm
    group = SimpleCurrentGroup(md, tuple(sorted(by_fusion)), perms)
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
