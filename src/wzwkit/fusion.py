"""Fusion coefficients, simple currents, and products of modular data.

Fusion multiplicities come from the Verlinde sum
N_ab^c = sum_k S_ak S_bk conj(S_ck) / S_0k over the unitary S matrix and must
round to non-negative integers within tolerance; anything else is reported as
a hard error rather than silently rounded.

Every such sum is formed by ``_fusion_product``: rows of S diag(w) S^dagger,
w = S_a / S_0 for N_a, on one memoized operand pair (float64 when S is real),
rounded and summarized; ``_checked`` is the one integrality check of a summary.
N_ab^c is symmetric in a and b, so the whole ring is one pass over the pairs
a <= b, rows b >= a of each N_a, holding O(n^2) at a time; the pairs b < a are
read from the mirror.  Only ``verlinde_tensor`` (the ``fusion`` report) keeps
the rounded rows, as int64.  ``verify_fusion`` reads the pass's memoized
summary, or for A_r checks the O(2^r n^2) Pieri certificate instead.
``simple_currents`` and block ranks run no pass: each reads one whole product,
O(n^3), per matrix it needs.
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
    """What one Verlinde product keeps, positions as label indices of its entries."""

    residual: float  # first largest |x - round(x)| in C order, NaN as inf
    worst: tuple[int, ...]
    value: complex  # the raw sum at ``worst``
    neg: tuple[int, ...]  # first smallest rounded entry
    lowest: float


def _rounded(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """raw.real rounded, and |raw - rounded| (NaN as inf), its temporary formed 64 rows at a time."""
    rounded, off = np.round(raw.real), np.empty(raw.shape)
    for r in range(0, len(raw), 64):
        np.abs(raw[r : r + 64] - rounded[r : r + 64], out=off[r : r + 64])
    off[np.isnan(off)] = np.inf
    return rounded, off


def _operands(md: ModularData) -> tuple[np.ndarray, np.ndarray]:
    """S and S^dagger, the transpose of a C-contiguous conj(S), both float64
    when S is real: exactly real (every A1 theory), or self-conjugate with an
    imaginary part at rounding level (at most n eps), since S symmetric and
    unitary with S^2 = 1 is real.  A larger imaginary part keeps them complex,
    and the sums report it."""
    s = md.smatrix
    noise = np.abs(s.imag).max() <= md.dim * np.finfo(float).eps
    if not s.imag.any() or noise and md.conjugation_permutation() == tuple(range(md.dim)):
        s = s.real
    return s, np.conjugate(s, order="C").T


def _fusion_product(md: ModularData, key: int | None, start: int = 0) -> tuple[np.ndarray, _Summary]:
    """Rows ``start``.. of S diag(w) S^dagger rounded, and their summary at (b, c).

    w = S_key / S_0 gives N_key[b, c] = N_{key b}^c; key None gives the handle
    matrix H = sum_nu N_nu N_nu^T, w = 1 / |S_0|^2 as sum_nu |S_nu k|^2 = 1.
    This is the one place a Verlinde sum is formed, O((n - start) n^2), in
    the caller's np.errstate.
    """
    s, dagger = md._derived("verlinde_operands", _operands)
    weight = abs(s[0]) ** -2.0 if key is None else s[key] / s[0]
    raw = (s[start:] * weight) @ dagger
    rounded, off = _rounded(raw)
    b, c = divmod(int(off.argmax()), md.dim)
    low_b, low_c = divmod(int(rounded.argmin()), md.dim)
    low = float(rounded[low_b, low_c])
    return rounded, _Summary(float(off[b, c]), (start + b, c), complex(raw[b, c]), (start + low_b, low_c), low)


def _verlinde(md: ModularData, tensor: np.ndarray | None = None) -> _Summary:
    """One pass over the pairs a <= b: rows b >= a of N_a, one ``_fusion_product`` each.

    Row a's rounded rows are written into ``tensor[a, a:]`` and, mirrored,
    ``tensor[a:, a]``, or dropped.  The tensor is symmetric in (a, b), so its
    first largest residual and first smallest entry in C order lie at a <= b,
    where the scan in (a, b >= a, c) order meets them first.  A non-finite
    sum counts as residual inf, which is reported before any least entry.
    """
    rows = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(md.dim):
            rounded, summary = _fusion_product(md, a, a)
            if tensor is not None:
                tensor[a, a:] = tensor[a:, a] = rounded
            rows.append((a, summary))
    a, top = max(rows, key=lambda row: row[1].residual)  # the first of equals
    b, low = min(rows, key=lambda row: row[1].lowest)
    return _Summary(top.residual, (a, *top.worst), top.value, (b, *low.neg), low.lowest)


def _summary(md: ModularData) -> _Summary:
    return md._derived("verlinde_summary", _verlinde)


def _tensor(md: ModularData) -> np.ndarray:
    tensor = np.empty((md.dim,) * 3, dtype=np.int64)
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


def _checked(md: ModularData, summary: _Summary, tol: float, what="fusion coefficient", at=()) -> float:
    """``summary.residual`` once its sums round to non-negative integers, else
    ``IntegralityError`` naming the labels ``at`` and those of the entry."""
    if not summary.residual <= tol:
        where = (*at, *(md.labels[i] for i in summary.worst))
        raise IntegralityError(what, summary.value, summary.residual, where)
    if summary.lowest < 0:
        where = (*at, *(md.labels[i] for i in summary.neg))
        raise IntegralityError(f"{what} (negative)", summary.lowest, -summary.lowest, where)
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
    s, perms, summaries = md.smatrix, {}, []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in (j for j in range(md.dim) if not j or abs(s[0, j] - s[0, 0]) <= 1e-9):
            rounded, summary = _fusion_product(md, j)  # N_ja^c
            summaries.append((j, summary))
            # non-negative integers with unit row and column sums form a permutation matrix
            unit = (rounded.sum(axis=0) == 1).all() and (rounded.sum(axis=1) == 1).all()
            perms[j] = tuple(rounded.argmax(axis=1).tolist()) if unit and summary.lowest >= 0 else None
            del rounded  # before the next current's product
    j, top = max(summaries, key=lambda current: current[1].residual)  # the first of equals
    if top.residual > 1e-6:
        where = tuple(md.labels[i] for i in (j, *top.worst))
        raise IntegralityError("fusion coefficient", top.value, top.residual, where)
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
