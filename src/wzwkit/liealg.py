"""Finite simple Lie algebra data: Cartan matrices, roots, Weyl groups, centers.

Conventions used throughout the package:

* Cartan matrices follow Bourbaki node numbering, with the pairing convention
  ``A[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)``.  Row ``i`` of the
  Cartan matrix is therefore the simple root ``alpha_i`` written in the basis
  of fundamental weights.
* Weights are coordinate tuples in the fundamental-weight basis (Dynkin
  labels).  The invariant bilinear form is normalized so long roots have
  squared length 2, and is represented exactly over the rationals.
* The Weyl group acts on Dynkin-label column vectors through integer
  matrices; the simple reflection ``r_i`` has matrix ``I - E(i)`` where
  column ``i`` of ``E(i)`` holds row ``i`` of the Cartan matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import CartanDataError, InternalConsistencyError, WeylCapExceeded
from .exact import invert_rational

__all__ = [
    "SimpleLieAlgebra",
    "CenterGroup",
    "parse_algebra_label",
    "cartan_matrix",
    "build_algebra",
    "weyl_traverse",
    "weyl_cosets",
    "weyl_order",
    "center_group",
]

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# Degrees of the basic Weyl group invariants: |W| is their product and the
# dimension is the sum of 2d - 1 (Humphreys, Reflection Groups and Coxeter
# Groups, 3.7 and 3.9).
_DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: (*range(2, 2 * n - 1, 2), n),
    "E": lambda n: {
        6: (2, 5, 6, 8, 9, 12),
        7: (2, 6, 8, 10, 12, 14, 18),
        8: (2, 8, 12, 14, 18, 20, 24, 30),
    }[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def parse_algebra_label(label: str) -> tuple[str, int]:
    """Split a label like ``"A2"`` or ``"E8"`` into (series, rank); the rank is ASCII digits."""
    label = label.strip()
    series, digits = label[:1].upper(), label[1:]
    if series not in _RANK_BOUNDS or not (digits.isascii() and digits.isdigit()):
        raise CartanDataError(f"cannot parse algebra label {label!r}; expected e.g. 'A2', 'G2'")
    rank = int(digits)
    lo, hi = _RANK_BOUNDS[series]
    if rank < lo or (hi is not None and rank > hi):
        raise CartanDataError(f"series {series} does not admit rank {rank}")
    return series, rank


def cartan_matrix(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix for the given series and rank."""
    lo, hi = _RANK_BOUNDS.get(series, (None, None))
    if lo is None or rank < lo or (hi is not None and rank > hi):
        raise CartanDataError(f"invalid series/rank pair ({series}, {rank})")
    n = rank
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def link(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif series == "B":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
    elif series == "C":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)
    elif series == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif series == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    elif series == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif series == "G":
        link(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class SimpleLieAlgebra:
    """Immutable bundle of root data for one finite simple Lie algebra.

    All root coordinates come in two flavors: ``*_alpha`` tuples are in the
    simple-root basis, ``*_omega`` tuples in the fundamental-weight basis.
    """

    series: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    root_lengths: tuple[Q, ...]
    metric: tuple[tuple[Q, ...], ...]
    positive_roots_alpha: tuple[tuple[int, ...], ...]
    positive_roots_omega: tuple[tuple[int, ...], ...]
    highest_root_omega: tuple[int, ...]
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    dual_coxeter: int
    dim: int

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots_alpha)

    @cached_property
    def _integral_metric(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The metric as integers over their least common denominator."""
        den = lcm(*(g.denominator for row in self.metric for g in row))
        return den, tuple(tuple(int(g * den) for g in row) for row in self.metric)

    def pairing(self, x: Sequence, y: Sequence) -> Q:
        """Invariant bilinear form of two weights given by Dynkin labels, summed
        over the metric's common denominator (in integers for integer labels)."""
        den, g = self._integral_metric
        r = range(self.rank)
        return Q(sum(x[i] * g[i][j] * y[j] for i in r for j in r), den)

    def level_of(self, x: Sequence) -> Q:
        """Pairing (x, theta^vee) = sum of Dynkin labels weighted by comarks."""
        return sum((Q(x[i]) * self.comarks[i] for i in range(self.rank)), Q(0))


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Positive integers d with d_i A_ij = d_j A_ji, minimal and connected."""
    n = len(cartan)
    d: list[Q | None] = [None] * n
    d[0] = Q(1)
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Q(cartan[i][j], cartan[j][i])
                queue.append(j)
    if any(x is None for x in d):
        raise CartanDataError("Cartan matrix is not connected")
    denom = lcm(*[x.denominator for x in d])
    ints = [int(x * denom) for x in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    if any(v <= 0 for v in ints):
        raise InternalConsistencyError("symmetrizer came out non-positive")
    for i in range(n):
        for j in range(n):
            if ints[i] * cartan[i][j] != ints[j] * cartan[j][i]:
                raise InternalConsistencyError("symmetrizer failed to symmetrize the Cartan matrix")
    return tuple(ints)


def _root_closure(alg_cartan: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All roots as (alpha-coords, omega-coords) pairs via reflection closure."""
    n = len(alg_cartan)
    simples = []
    for i in range(n):
        alpha = tuple(int(k == i) for k in range(n))
        omega = tuple(alg_cartan[i])
        simples.append((alpha, omega))
    seen = dict(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for alpha, omega in frontier:
            for i in range(n):
                xi = omega[i]
                if xi == 0:
                    continue
                alpha2 = alpha[:i] + (alpha[i] - xi,) + alpha[i + 1 :]
                if alpha2 in seen:
                    continue
                omega2 = tuple(w - xi * a for w, a in zip(omega, alg_cartan[i]))
                seen[alpha2] = omega2
                new.append((alpha2, omega2))
        frontier = new
    return sorted(seen.items())


@lru_cache(maxsize=None)
def build_algebra(label: str) -> SimpleLieAlgebra:
    """Construct the full root-data bundle for an algebra label like ``"B3"``.

    Everything downstream (metric pairings, Weyl traversal, affine data) is
    derived from the Cartan matrix built here; a handful of internal
    consistency checks run once at construction time.
    """
    series, rank = parse_algebra_label(label)
    cart = cartan_matrix(series, rank)
    sym = _symmetrizer(cart)
    dmin = min(sym)
    lengths = tuple(Q(dmin, d) for d in sym)

    ainv = invert_rational(cart)
    # metric G with G[i][j] = (omega_i, omega_j): G = diag(lengths) @ inverse(A^T)
    metric = tuple(
        tuple(lengths[i] * ainv[j][i] for j in range(rank)) for i in range(rank)
    )
    for i in range(rank):
        for j in range(rank):
            if metric[i][j] != metric[j][i]:
                raise InternalConsistencyError("weight-space metric is not symmetric")

    roots = _root_closure(cart)
    positive = [(a, w) for a, w in roots if any(x > 0 for x in a)]
    dim = sum(2 * d - 1 for d in _DEGREES[series](rank))
    if 2 * len(positive) + rank != dim:
        raise InternalConsistencyError(
            f"root count {len(positive)} inconsistent with dim {dim} for {label}"
        )
    positive.sort(key=lambda rw: rw[0])
    heights = [sum(a) for a, _ in positive]
    top = max(range(len(positive)), key=lambda idx: heights[idx])
    marks, theta_omega = positive[top]  # the marks are theta in simple roots
    if heights.count(heights[top]) != 1:
        raise InternalConsistencyError("highest root is not unique")

    comarks_q = [Q(marks[i]) * lengths[i] for i in range(rank)]
    if any(c.denominator != 1 for c in comarks_q):
        raise InternalConsistencyError("comarks are not integral")
    comarks = tuple(int(c) for c in comarks_q)
    hvee = 1 + sum(comarks)

    alg = SimpleLieAlgebra(
        series=series,
        rank=rank,
        cartan=cart,
        root_lengths=lengths,
        metric=metric,
        positive_roots_alpha=tuple(a for a, _ in positive),
        positive_roots_omega=tuple(w for _, w in positive),
        highest_root_omega=theta_omega,
        marks=marks,
        comarks=comarks,
        dual_coxeter=hvee,
        dim=dim,
    )
    if alg.pairing(theta_omega, theta_omega) != 2:
        raise InternalConsistencyError("highest root squared length is not 2")
    return alg


def _descend(cartan: np.ndarray, points: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """``(parent rows, images)`` of the next layer's points that ``r_i`` reaches.

    ``r_i v`` is one step further from the dominant chamber exactly when
    v_i > 0, and it is kept only from the parent for which i is the lowest
    index where ``r_i v`` has a negative label, so no point is reached twice.
    """
    up = np.flatnonzero(points[:, i] > 0)
    images = points[up] - np.outer(points[up, i], cartan[i])
    keep = np.argmax(images < 0, axis=1) == i
    return up[keep], images[keep]


def _coset_layers(
    alg: SimpleLieAlgebra, block: Sequence[int], cap: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Minimal coset representatives of W/W_J one length at a time.

    Yields ``(length, inverses)``, c^-1 for every c of that length as an
    ``(m, rank, rank)`` integer array on Dynkin-label columns.  The cosets
    are the W-orbit of omega_J, the sum of the fundamental weights outside
    J, whose stabilizer is W_J (Humphreys, Reflection Groups and Coxeter
    Groups, 1.10-1.12); layer l+1 is the orbit one step down from layer l
    (``_descend``), with c^-1 r_i carried to each image r_i c omega_J.
    Raises WeylCapExceeded, carrying the count through the layer that
    crosses ``cap``, before yielding that layer.
    """
    cartan = np.array(alg.cartan, dtype=np.int64)
    points = np.array([[int(i not in block) for i in range(alg.rank)]], dtype=np.int64)
    layer = np.eye(alg.rank, dtype=np.int64)[np.newaxis]
    length = count = 0
    while len(layer):
        count += len(layer)
        if count > cap:
            raise WeylCapExceeded(cap, count)
        yield length, layer
        children, images = [], []
        for i in range(alg.rank):
            parents, found = _descend(cartan, points, i)
            cs = layer[parents]
            cs[:, :, i] -= cs @ cartan[i]  # c^-1 r_i, as r_i y = y - y_i alpha_i
            children.append(cs)
            images.append(found)
        points, layer = np.concatenate(images), np.concatenate(children)
        length += 1


def weyl_traverse(alg: SimpleLieAlgebra, cap: int = 200000) -> Iterator[tuple[int, np.ndarray]]:
    """The Weyl group one length at a time: ``(length, matrices)`` per layer.

    ``matrices`` is an ``(m, rank, rank)`` integer array holding every element
    of that length once, each acting on Dynkin-label columns; its sign is
    ``(-1) ** length``.  These are the layers of the coset walk with J empty,
    the inverses of the elements of each length, which are the same set.
    Raises WeylCapExceeded, carrying the count through the layer that crosses
    ``cap``, before yielding that layer.
    """
    yield from _coset_layers(alg, (), cap)


def weyl_cosets(
    alg: SimpleLieAlgebra, block: Sequence[int], cap: int = 200000
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal representatives c of the cosets W/W_J, J the nodes in ``block``.

    Returns ``(inverses, signs)``: c^-1 as ``(m, rank, rank)`` integer
    matrices on Dynkin-label columns, and (-1)^length(c), from the layers of
    ``_coset_layers``.  Raises WeylCapExceeded when there are more than
    ``cap`` cosets.
    """
    layers = list(_coset_layers(alg, block, cap))
    signs = [np.full(len(layer), (-1) ** length) for length, layer in layers]
    return np.concatenate([layer for _, layer in layers]), np.concatenate(signs)


def weyl_order(alg: SimpleLieAlgebra) -> int:
    """|W|, the product of the degrees of the basic invariants."""
    return prod(_DEGREES[alg.series](alg.rank))


@dataclass(frozen=True)
class CenterGroup:
    """The center of the simply connected group, P^vee / Q^vee.

    ``factors`` are the nontrivial invariant factors (each divides the next);
    ``generators`` are fundamental coweights e_i of distinct nodes, in coweight
    coordinates, generator k of order factors[k]; ``element_orders`` are the
    orders of all elements, sorted, the identity included.
    """

    factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    element_orders: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.element_orders)

    def describe(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join(f"Z{f}" for f in self.factors)


def center_group(alg: SimpleLieAlgebra) -> CenterGroup:
    """Coweight lattice modulo coroot lattice, from the minuscule coweights.

    In coweight coordinates the coroot lattice is A Z^n, and the quotient is 0
    together with the fundamental coweights e_i of the nodes of mark 1
    (Bourbaki, Lie groups and Lie algebras VI §2 ex. 5).  The order of e_i is
    the lcm of the denominators of column i of A^-1, metric row i over the
    root length l_i (G = diag(l) A^-T).  Every such quotient is cyclic or
    Z2 x Z2, so its invariant factors are (|Z| / e, e) for the largest order
    e.  Raises InternalConsistencyError unless |Z| = det A and, for every d,
    as many elements have order dividing d as in Z_{|Z|/e} x Z_e.
    """
    nodes = [i for i, mark in enumerate(alg.marks) if mark == 1]
    order_of = {i: lcm(*((g / alg.root_lengths[i]).denominator for g in alg.metric[i])) for i in nodes}
    orders = tuple(sorted([1, *order_of.values()]))
    size, top = len(orders), orders[-1]
    factors = tuple(f for f in (size // top, top) if f > 1)
    if size != round(np.linalg.det(alg.cartan)) or any(
        sum(d % o == 0 for o in orders) != prod(gcd(d, f) for f in factors)
        for d in range(1, size + 1)
    ):
        raise InternalConsistencyError(
            f"{alg.name}: coweights of orders {orders} do not form a center "
            f"{factors} of order det A"
        )
    used: list[int] = []
    for f in factors:
        used.append(next(i for i in nodes if order_of[i] == f and i not in used))
    gens = tuple(tuple(int(j == i) for j in range(alg.rank)) for i in used)
    return CenterGroup(factors, gens, orders)

