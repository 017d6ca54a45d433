"""Fusion coefficients, simple currents, and products of modular data.

Fusion multiplicities come from the Verlinde sum
N_ab^c = sum_k S_ak S_bk conj(S_ck) / S_0k over the unitary S matrix and must
round to non-negative integers within tolerance; anything else is reported as
a hard error rather than silently rounded.

The sum is symmetric in a and b for any S, since rows a and b enter only
through their elementwise product, so it runs as one pass over the pairs
a <= b, one BLAS product per row a, holding O(n^2) at a time; the pairs b < a
are read from the mirror.  Every pass fills a memoized summary: the worst
residual and the most negative rounded entry.  Only ``verlinde_tensor`` (the
``fusion`` report and block ranks) keeps the rounded rows, as int64.
``verify_fusion`` reads the summary, or for A_r checks the O(2^r n^2) Pieri
certificate instead.  ``simple_currents`` runs no pass: it takes each
current's fusion from the current's own S row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from itertools import combinations
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


def _verlinde(md: ModularData, tensor: np.ndarray | None = None) -> _Summary:
    """One pass over the pairs a <= b: N_a[b - a] = (S_b diag(S_a)) (conj(S) / S_0)^T.

    Row a multiplies only the rows b >= a of S; its rounded rows are written
    into ``tensor[a, a:]`` and, mirrored, ``tensor[a:, a]``, or dropped.  The
    tensor is symmetric in (a, b), so its first largest residual and first
    smallest entry in C order lie at a <= b, where the scan in (a, b >= a, c)
    order meets them first.
    A non-finite sum counts as residual inf.

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
    residual, lowest = -1.0, np.inf
    neg = (0, 0, 0)  # kept only if every row holds a NaN, whose residual inf is reported first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dual = (s.conj() / s[0]).T
        for a in range(n):
            raw = (s[a:] * s[a]) @ dual  # raw[b - a, c] = sum_k S_ak S_bk conj(S_ck) / S_0k
            rounded = np.round(raw.real)
            if tensor is not None:
                tensor[a, a:] = tensor[a:, a] = rounded
            off = np.abs(raw - rounded)
            if not (top := off.max()) <= residual:  # larger, or NaN from a non-finite sum
                if np.isnan(top):
                    off[np.isnan(off)] = np.inf
                i = int(np.argmax(off))
                if off.flat[i] > residual:
                    residual, worst, value = float(off.flat[i]), (a, a + i // n, i % n), complex(raw.flat[i])
            if rounded.min() < lowest:
                i = int(np.argmin(rounded))
                lowest, neg = float(rounded.flat[i]), (a, a + i // n, i % n)
    return _Summary(residual, worst, value, neg, lowest)


def _summary(md: ModularData) -> _Summary:
    return md._derived("verlinde_summary", _verlinde)


def _tensor(md: ModularData) -> np.ndarray:
    n = md.dim
    tensor = np.empty((n, n, n), dtype=np.int64)
    summary = _verlinde(md, tensor)
    md._derived("verlinde_summary", lambda md: summary)
    tensor.flags.writeable = False
    return tensor


def _pieri_rank(md: ModularData) -> int:
    """r for an untwisted A_r theory whose 2^(r+1) - 2 Pieri gathers, n^2 entries
    each, are fewer than the n BLAS products of the pass, up to n^3 each; else 0."""
    match = re.fullmatch(r"A([1-9][0-9]*)", md.algebra)
    r = int(match[1]) if match and md.factors is None and md.level >= 0 else 0
    return r if 2 ** (r + 1) - 2 < md.dim else 0


def _pieri_targets(md: ModularData, r: int) -> list[np.ndarray]:
    """N_{omega_i} for i = 1..r: entry [w, a] is the index of the label lambda_a + w,
    or n if that is no label, for w a weight of the i-th exterior power: a sum
    of i distinct eps_j, each +1 at Dynkin label j and -1 at j - 1.  Every
    omega_i is minuscule, so N_{omega_i lambda}^mu is 1 for each integrable
    mu = lambda + w, else 0, with no affine reflection (Walton, Nucl. Phys.
    B340 (1990) 777)."""
    n, index = md.dim, {lab: i for i, lab in enumerate(md.labels)}
    eps = np.eye(r + 1, r, dtype=int) - np.eye(r + 1, r, k=-1, dtype=int)
    labels = np.array(md.labels, dtype=int).reshape(n, r)
    return [
        np.array([
            [index.get(tuple(mu), n) for mu in (labels + eps[list(subset)].sum(axis=0)).tolist()]
            for subset in combinations(range(r + 1), size)
        ])
        for size in range(1, r + 1)
    ]


def _pieri_certificate(md: ModularData) -> tuple[float, tuple | None, complex]:
    """max(|N_omega S - S diag(S_omega / S_0)|, the unitarity residual), with the
    labels (omega, a) of the first worst entry of the first term in C order,
    or None where the unitarity is larger; a NaN entry counts as inf."""
    r, s, n = _pieri_rank(md), md.smatrix, md.dim
    padded = np.vstack([s, np.zeros((1, n))])  # row n: lambda + w is no label
    residual = -1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, targets in enumerate(_pieri_targets(md, r)):
            omega = md.index(tuple(int(j == i) for j in range(r)))
            raw = sum(padded[t] for t in targets) - s * (s[omega] / s[0])
            off = np.abs(raw)
            off[np.isnan(off)] = np.inf
            if (top := off.max()) > residual:
                a, k = divmod(int(np.argmax(off)), n)
                residual, worst, value = float(top), (md.labels[omega], md.labels[a]), complex(raw[a, k])
        if (unitarity := md.invariants()["unitarity"]) > residual:
            residual, worst, value = unitarity, None, unitarity
    return residual, worst, value


def _checked(md: ModularData, summary: _Summary, tol: float) -> float:
    """``summary.residual`` once the pass's sums round to non-negative integers."""
    if summary.residual > tol:
        where = tuple(md.labels[i] for i in summary.worst)
        raise IntegralityError("fusion coefficient", summary.value, summary.residual, where)
    if summary.lowest < 0:
        where = tuple(md.labels[i] for i in summary.neg)
        raise IntegralityError("fusion coefficient (negative)", summary.lowest, -summary.lowest, where)
    return summary.residual


def verify_fusion(md: ModularData, tol: float = 1e-6) -> float:
    """A residual, at most ``tol``, that certifies each Verlinde sum a non-negative
    integer, else ``IntegralityError``; computed once per theory, no tensor kept.

    An untwisted A_r theory whose Pieri matrices N_omega (``_pieri_targets``)
    take fewer gathers than the pass takes row products returns the Pieri
    certificate, max(max_omega |N_omega S - S diag(S_omega / S_0)|, the
    unitarity residual), and names (omega, a) or, for the unitarity, nothing.
    In exact arithmetic a certificate of 0 makes each S_a / S_0 the integer
    polynomial P_a of the rows S_omega / S_0 that the Pieri recursion gives, so
    with S unitary each Verlinde matrix S diag(S_a / S_0) S^dagger is
    P_a(N_omega...), the Kac-Walton fusion matrix: integral and non-negative.
    2 S obeys the eigen-relation, hence the unitarity term.  In floats the true
    S measures at most 3.5e-14 on A1 up to level 300 (its unitarity), 5.8e-14 on
    A2 up to level 40 and 5.4e-14 on A3 up to level 12.

    Any other theory returns the largest |x - round(x)| over the Verlinde sums
    from the memoized summary of the pass, and names the first worst sum, or
    the first negative one.
    """
    if not _pieri_rank(md):
        return _checked(md, _summary(md), tol)
    residual, where, value = md._derived("pieri_certificate", _pieri_certificate)
    if not residual <= tol:
        raise IntegralityError("fusion coefficient (Pieri certificate)", value, residual, where)
    return residual


def verlinde_tensor(md: ModularData, tol: float = 1e-6) -> np.ndarray:
    """All fusion multiplicities N[a, b, c] = N_{ab}^c as a read-only integer array.

    The n^3 int64 tensor is built once per theory by the row pass, which fills
    its summary on the way; apart from the tensor the pass holds O(n^2).  Each
    call checks the summary at its own ``tol``, as ``verify_fusion`` off A_r.
    """
    tensor = md._derived("verlinde", _tensor)
    _checked(md, _summary(md), tol)
    return tensor


@dataclass(frozen=True, eq=False)
class SimpleCurrentGroup:
    """The group of simple currents of one theory, acting on primary labels.

    ``perms`` holds the fusion permutation of each current, keyed by label
    index in ascending order (vacuum first).  Monodromy charges are exact
    rationals mod 1.
    """

    md: ModularData
    perms: dict[int, tuple[int, ...]]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.perms)

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
        return SimpleCurrentGroup(self.md, {j: self.perms[j] for j in sorted(elems)})


def simple_currents(md: ModularData) -> SimpleCurrentGroup:
    """The full simple-current group, each current's fusion from its own S row.

    The vacuum and each primary whose vacuum S entry is within 1e-9 of the
    vacuum's own is a current.  Its fusion matrix N_ja^c is the one product
    (S diag(S_j / S_0)) S^dagger, which must round to integers within 1e-6,
    else ``IntegralityError`` names the first worst (j, a, c), and then to a
    permutation matrix.  No whole-ring pass runs: at j = 0 the product is
    S S^dagger = 1, so an error anywhere in S moves a checked entry.
    """
    s = md.smatrix
    dual = s.conj().T
    residual, perms = -1.0, {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in (j for j in range(md.dim) if not j or abs(s[0, j] - s[0, 0]) <= 1e-9):
            raw = (s * (s[j] / s[0])) @ dual  # raw[a, c] = N_ja^c
            rounded = np.round(raw.real)
            off = np.abs(raw - rounded)
            off[np.isnan(off)] = np.inf
            if (top := off.max()) > residual:
                a, c = divmod(int(np.argmax(off)), md.dim)
                residual, worst, value = float(top), (j, a, c), complex(raw[a, c])
            # non-negative integers with unit row and column sums form a permutation matrix
            unit = (rounded.sum(axis=0) == 1).all() and (rounded.sum(axis=1) == 1).all()
            perms[j] = tuple(rounded.argmax(axis=1).tolist()) if unit and rounded.min() >= 0 else None
    if residual > 1e-6:
        raise IntegralityError("fusion coefficient", value, residual, tuple(md.labels[i] for i in worst))
    if None in perms.values():
        raise InternalConsistencyError("simple-current fusion is not a permutation")
    if any(perms[j1][j2] not in perms for j1 in perms for j2 in perms):
        raise InternalConsistencyError("simple currents are not closed under fusion")
    return SimpleCurrentGroup(md, perms)


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
