"""Chiral block counts, current-symmetry traces on block spaces, and checks.

A block-space rank is exact: (e_0 N_mu1 ... N_mum H^g)_0 over the integer fusion
matrices N_mu of its insertions and the handle matrix H, each one verified
Verlinde product S diag(w) S^dagger.  The trace of a current tuple is one float
slot-product sum with each slot's S row replaced by its current's fixed-point
row; the identity tuple's trace is the rank.  The untwisted tuples (found by
O(m |adm|^2) exact integer sums over one table of cocycle exponents per
insertion label) form a group whose characters are built by extension; one
product of its conjugated character table with the other traces gives
integers X_chi and the dimensions (rank + X_chi) / |G|.

The module also carries an exact validator for the multi-shift automorphism
of the affine sl(2) loop algebra, built on truncated Laurent series over the
rationals with explicit validity windows.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Mapping, Sequence

import numpy as np

from .affine import ModularData
from .errors import (
    ConjectureViolation, PrecisionExhausted, PreconditionError, UnsupportedFolding
)
from .fusion import SimpleCurrentGroup, _checked, _fusion_product
from .simplecurrent import (
    _stabilizer_data, _untwisted_rows, abelian_characters, fixed_point_smatrix
)

__all__ = [
    "block_rank",
    "gamma_out",
    "admissible_tuples",
    "untwisted_tuples",
    "symmetry_trace",
    "TraceSpectrum",
    "fourier_eigendims",
    "fix_compatible",
    "trace_factorization_check",
    "TruncatedLaurent",
    "LoopElement",
    "multishift_validate",
]


def _check_insertions(md: ModularData, insertions: Iterable[int]) -> None:
    """Raise ``PreconditionError`` unless every insertion is a label index 0..n-1."""
    for mu in insertions:
        if not 0 <= mu < md.dim:
            raise PreconditionError(f"insertion {mu} is not a label index below {md.dim}")


def _rank_factor(md: ModularData, key: int | None) -> np.ndarray:
    """N_key, or under None the handle matrix H, as int64: one
    ``_fusion_product``, checked to round within 1e-6 to non-negative integers."""
    rounded, summary = _fusion_product(md, key)
    what, at = ("handle matrix entry", ()) if key is None else ("fusion coefficient", (md.labels[key],))
    _checked(md, summary, 1e-6, what, at)
    return rounded.astype(np.int64)


def block_rank(md: ModularData, genus: int, insertions: Sequence[int]) -> int:
    """Dimension of the space of chiral blocks at the given genus, exactly.

    It is (e_0 N_mu1 ... N_mum H^g)_0, N_mu[b, c] = N_{mu b}^c and H the handle
    matrix, each formed once per theory: a row vector from the vacuum times
    each factor once, O(n^2) per factor.  All entries are non-negative
    integers, so v.sum() times a factor's largest row sum bounds every entry
    and partial sum of v @ factor; the vector is int64 while that bound is
    below 2**63, and Python ints from the first factor where it is not.
    """
    if genus < 0:
        raise PreconditionError(f"genus must be non-negative, not {genus}")
    _check_insertions(md, insertions)
    keys = list(insertions) + [None] * genus
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # caught by the checks
        factors = [md._derived(("rank_factor", k), lambda md, k=k: _rank_factor(md, k)) for k in keys]
    v = np.eye(1, md.dim, md.vacuum, dtype=np.int64)[0]
    for f in factors:
        if v.dtype != object and int(v.sum()) * int(f.sum(1).max()) >= 2**63:
            v = v.astype(object)
        v = v @ f
    return int(v[md.vacuum])


def _closed_tuples(group: SimpleCurrentGroup, slots: Sequence[Sequence[int]]):
    """Each tuple of ``slots`` (in product order), closed by the inverse of its product."""
    for combo in itertools.product(*slots):
        acc = group.md.vacuum
        for j in combo:
            acc = group.compose(acc, j)
        yield combo + (group.inverse(acc),)


def gamma_out(group: SimpleCurrentGroup, m: int) -> list[tuple[int, ...]]:
    """Current tuples of length m multiplying to the identity."""
    if m < 1:
        raise PreconditionError(f"a current tuple needs at least one insertion, not {m}")
    out = list(_closed_tuples(group, [group.indices] * (m - 1)))
    assert len(out) == group.order ** (m - 1)
    return out


def admissible_tuples(
    group: SimpleCurrentGroup, insertions: Sequence[int]
) -> list[tuple[int, ...]]:
    """Identity-product tuples whose slots each stabilize their insertion.

    Slots 1..m-1 run over their stabilizers only; the closing current must
    stabilize the last insertion.  The order is that of ``gamma_out``.  An
    insertion outside 0..n-1 raises ``PreconditionError``.
    """
    if not insertions:
        raise PreconditionError("a current tuple needs at least one insertion")
    _check_insertions(group.md, insertions)
    *slots, last = (group.stabilizer(mu) for mu in insertions)
    return [t for t in _closed_tuples(group, slots) if t[-1] in last]


def untwisted_tuples(
    md: ModularData, group: SimpleCurrentGroup, insertions: Sequence[int]
) -> list[tuple[int, ...]]:
    """Admissible tuples with trivial cocycle against every admissible tuple.

    The cocycle of two tuples is the slotwise product of F_mu(t_s, t'_s): an
    exact sum of exponents, read from one table per distinct insertion label
    (|Stab(mu)|^2 cocycle evaluations each).  Comparing every pair in both
    directions costs O(m |adm|^2) integer sums in O(m |adm|) memory.
    """
    return _tuple_sets(md, group, insertions)[1]


def _tuple_sets(
    md: ModularData, group: SimpleCurrentGroup, insertions: Sequence[int]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The admissible tuples and their untwisted subset, each found once."""
    adm = admissible_tuples(group, insertions)
    stabs, tables = {}, {}
    for mu in dict.fromkeys(insertions):  # one table per distinct label
        stabs[mu], tables[mu], _ = _stabilizer_data(md, group, mu)
    rows = np.array(
        [[stabs[mu].index(ts) for ts, mu in zip(t, insertions)] for t in adm], dtype=np.intp
    )
    keep = _untwisted_rows([tables[mu] for mu in insertions], rows)
    return adm, [adm[i] for i in keep]


def _slot_sum(weight: np.ndarray, factors: Iterable[np.ndarray]):
    """sum_k weight[..., k] prod_s factors[s][k] and the sum of its absolute
    terms, both from one product; a weight matrix gives one of each per row."""
    prod = np.ones(weight.shape[-1], dtype=complex)
    for x in factors:
        prod = prod * x
    terms = weight * prod
    return terms.sum(-1), np.abs(terms).sum(-1)


def _trace(md: ModularData, insertions: Sequence[int], t: Sequence[int], genus: int) -> tuple[complex, float]:
    """The float trace of one current tuple, inputs unchecked, and the sum of its
    absolute terms: weights |S_0k|^(2-2g) S_0k^(-m) times the slots' S^J rows."""
    s0 = md.smatrix[0]
    weight = np.abs(s0) ** (2 - 2 * genus) * s0 ** (-len(insertions))
    value, size = _slot_sum(weight, (fixed_point_smatrix(md, ts).full[mu] for mu, ts in zip(insertions, t)))
    return complex(value), float(size)


def symmetry_trace(
    md: ModularData, insertions: Sequence[int], t: Sequence[int], genus: int = 0
) -> complex:
    """Trace of one current tuple on the block space, as a float sum.

    Each slot contributes the zero-extended fixed-point S matrix of its
    current, weighted by |S_0k|^(2-2g) S_0k^(-m) (``_trace``); the
    all-identity tuple gives the rank, which ``block_rank`` reads exactly
    instead.  A negative genus, a tuple whose length is not the number of
    insertions, or an insertion outside 0..n-1 raises ``PreconditionError``.
    """
    if genus < 0:
        raise PreconditionError(f"genus must be non-negative, not {genus}")
    if len(t) != len(insertions):
        raise PreconditionError(f"{len(t)} currents for {len(insertions)} insertions")
    _check_insertions(md, insertions)
    return _trace(md, insertions, t, genus)[0]


def _float_tolerance(
    md: ModularData, what: str, sums: np.ndarray, q: int, d: int, size: float
) -> tuple[np.ndarray, float]:
    """The misses |x - round(Re x)| of float sums x that should be integers,
    and the tolerance max(1e-6, E) they are judged by, E the bound of
    ``fourier_eigendims`` for products of q entries and d roots, always formed
    from ``size``, the sum of the absolute terms.  A sum that is not finite, an
    E of at least 1/2 (if every sum is an integer too), or a miss past 1e-6
    with none past E raises PrecisionExhausted."""
    if not np.isfinite(sums).all():
        raise PrecisionExhausted(f"{what} is not finite")
    miss = np.abs(sums - sums.real.round())
    gamma = (4 * q + md.dim + d + 4) * 2.0**-53
    with np.errstate(over="ignore"):
        tol = max(1e-6, gamma / (1 - gamma) * size)
    if tol >= 0.5 or tol >= miss.max() > 1e-6:
        raise PrecisionExhausted(
            f"{what} misses an integer by up to {miss.max():.3g}, within its float error bound {tol:.3g}"
        )
    return miss, tol


@dataclass(eq=False)
class TraceSpectrum:
    """Traces of the untwisted tuples and their Fourier transform.

    ``dims`` is keyed by the characters' numerators over ``denominator`` = |G|
    on the sorted untwisted tuples, in lexicographic order."""

    insertions: tuple[int, ...]
    genus: int
    rank: int
    admissible: tuple[tuple[int, ...], ...]
    untwisted: tuple[tuple[int, ...], ...]
    traces: dict[tuple[int, ...], complex]
    dims: dict[tuple[int, ...], int]
    denominator: int


def fourier_eigendims(
    md: ModularData,
    group: SimpleCurrentGroup,
    insertions: Sequence[int],
    genus: int = 0,
) -> TraceSpectrum:
    """Eigenspace dimensions of the untwisted tuple action on a block space.

    The identity tuple's trace is the exact rank.  For each character chi,
    X_chi = sum over the other tuples of conj(chi(t)) T(t), conj(chi(t)) read
    from a table of the d = |G| roots exp(-2 pi i j / d) at chi's numerators.
    Each X_chi must lie within max(1e-6, E) of an integer and (rank + X_chi)
    / |G| must be a non-negative integer, or a ConjectureViolation carrying
    the report is raised; but when some X_chi misses by more than 1e-6 and
    none by more than E, or E is at least 1/2, the float sums cannot decide:
    PrecisionExhausted.
    E bounds their rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4), the entries of S and S^J taken as correctly
    rounded.  A term of T(t) is a product of q = |2 - 2g| + 2m entries (a
    power counted as that many factors): each entry one rounding, each
    complex product at most three (Higham, Lemma 3.5); T(t) sums n terms and
    X_chi |G| - 1 products with a table root.  So for every chi, as |chi(t)| = 1,

        E = gamma_{4q + n + |G| + 4} sum_{t != 1} sum_k |w_k| prod_s |R_{s,t}[k]|,

    gamma_j = j u / (1 - j u), u = 2^-53, formed on every call from each
    trace's own slot product (``_trace``).  A rank past float range, or a
    trace or X_chi that is not finite, raises PrecisionExhausted.

    The computed entries of S are not correctly rounded (A1's are up to
    33.8 u off at level 80), so E is a model bound, not a certificate.
    """
    insertions = tuple(insertions)
    rank = block_rank(md, genus, insertions)
    if rank > sys.float_info.max:
        raise PrecisionExhausted(f"genus-{genus} block rank of {rank.bit_length()} bits is past float range")
    adm, unt = _tuple_sets(md, group, insertions)

    def compose_tuples(a, b):
        return tuple(group.compose(x, y) for x, y in zip(a, b))

    ident = (md.vacuum,) * len(insertions)
    nums, d = abelian_characters(unt, compose_tuples, ident)
    order = sorted(unt)
    roots, step = np.exp(-2j * np.pi * (np.arange(d) / d)), max(1, 2**16 // d)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        terms = {t: _trace(md, insertions, t, genus) for t in unt if t != ident}
        traces = {t: value for t, (value, _) in terms.items()}
        column = np.array([traces.get(t, 0j) for t in order])
        others = np.concatenate([roots[nums[r:r + step]] @ column for r in range(0, d, step)])
    size = sum(s for _, s in terms.values())
    q = abs(2 - 2 * genus) + 2 * len(ident)
    miss, tol = _float_tolerance(md, f"genus-{genus} float trace or Fourier sum", others, q, d, size)
    traces = {ident: complex(rank), **traces}
    ints, dims = list(range(d)), {}  # one int object per numerator, shared by the keys
    for row, x, off in zip(nums, others, miss):
        row, rounded = row.tolist(), round(x.real)
        dim, rest = divmod(rank + rounded, d)
        if off > tol or rest or dim < 0:
            raise ConjectureViolation(
                "eigenspace dimension is not a non-negative integer",
                report={
                    "insertions": tuple(md.labels[i] for i in insertions),
                    "genus": genus,
                    "rank": rank,
                    "traces": {str(t): traces[t] for t in unt},
                    "character": {str(t): str(Q(v, d)) for t, v in zip(order, row)},
                    "value": complex((rank + x) / d),
                },
            )
        dims[tuple(map(ints.__getitem__, row))] = dim
    if sum(dims.values()) != rank:
        raise ConjectureViolation(
            "eigenspace dimensions do not sum to the identity trace",
            report={"dims": dims, "identity_trace": traces[ident]},
        )
    return TraceSpectrum(insertions, genus, rank, tuple(adm), tuple(unt), traces, dims, d)


def fix_compatible(md: ModularData, t: Sequence[int], glue: int) -> bool:
    """Whether the common fixed set of the tuple lies in the glue current's."""
    common = set(range(md.dim))
    for ts in t:
        common &= fixed_point_smatrix(md, ts).fixed_set
    return common <= fixed_point_smatrix(md, glue).fixed_set


def trace_factorization_check(
    md: ModularData, insertions: Sequence[int], split: int, t: Sequence[int], glue: int
) -> tuple[complex, complex]:
    """Both sides of the trace gluing identity with a current pair inserted.

    The glued channel carries the current on the left factor and its inverse
    on the right, with the right factor's channel slot using the adjoint
    (conjugated) fixed-point matrix.  Only meaningful when every label fixed
    by the whole tuple is also fixed by the glue current; otherwise a
    PreconditionError is raised.
    """
    if not fix_compatible(md, t, glue):
        raise PreconditionError(
            "glue current does not fix the common fixed set of the tuple"
        )
    lhs = symmetry_trace(md, insertions, t, 0)
    s0 = md.smatrix[0]
    glue_full = fixed_point_smatrix(md, glue).full

    def factor(slots, currents, channel):
        weight = channel * s0 ** (1 - len(slots))  # the glued channel is one more slot
        rows = (fixed_point_smatrix(md, ts).full[mu] for mu, ts in zip(slots, currents))
        return _slot_sum(weight, rows)[0]

    left = factor(insertions[:split], t[:split], glue_full)
    right = factor(insertions[split:], t[split:], glue_full.conj())
    return complex(lhs), complex((left * right).sum())


@dataclass(frozen=True)
class TruncatedLaurent:
    """Laurent series in one variable over Q, exact up to a cutoff exponent.

    ``hi`` is the largest exponent whose coefficient is guaranteed correct;
    None means the series is an exact finite Laurent polynomial.  Stored
    coefficients above ``hi`` are dropped, and absent exponents at or below
    ``hi`` are exactly zero.
    """

    coeffs: tuple[tuple[int, Q], ...]
    hi: int | None = None

    @classmethod
    def make(cls, mapping: Mapping[int, Q], hi: int | None = None) -> "TruncatedLaurent":
        items = {e: Q(c) for e, c in mapping.items() if c != 0}
        if hi is not None:
            items = {e: c for e, c in items.items() if e <= hi}
        return cls(tuple(sorted(items.items())), hi)

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "TruncatedLaurent":
        return cls.make({exponent: Q(coeff)})

    @classmethod
    def zero(cls) -> "TruncatedLaurent":
        return cls.make({})

    @classmethod
    def shifted_inverse(cls, c, hi: int) -> "TruncatedLaurent":
        """The series of 1/(t + c); a monomial when c = 0."""
        c = Q(c)
        if c == 0:
            return cls.monomial(-1)
        return cls.make({i: Q((-1) ** i) / c ** (i + 1) for i in range(hi + 1)}, hi)

    def as_dict(self) -> dict[int, Q]:
        return dict(self.coeffs)

    @property
    def low(self) -> int | None:
        return self.coeffs[0][0] if self.coeffs else None

    def __add__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        out = self.as_dict()
        for e, c in other.coeffs:
            out[e] = out.get(e, Q(0)) + c
        return TruncatedLaurent.make(out, _min_hi(self.hi, other.hi))

    def scale(self, factor) -> "TruncatedLaurent":
        return TruncatedLaurent.make({e: c * Q(factor) for e, c in self.coeffs}, self.hi)

    def __mul__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not self.coeffs or not other.coeffs:
            return TruncatedLaurent.zero()
        hi = _min_hi(
            None if self.hi is None else self.hi + other.low,
            None if other.hi is None else other.hi + self.low,
        )
        out: dict[int, Q] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                if hi is None or e <= hi:
                    out[e] = out.get(e, Q(0)) + c1 * c2
        return TruncatedLaurent.make(out, hi)

    def power(self, n: int) -> "TruncatedLaurent":
        if n < 0:
            raise ValueError("negative powers are not defined for truncated series")
        out = TruncatedLaurent.monomial(0)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "TruncatedLaurent":
        hi = None if self.hi is None else self.hi - 1
        return TruncatedLaurent.make({e - 1: c * e for e, c in self.coeffs}, hi)

    def residue(self) -> Q:
        if self.hi is not None and self.hi < -1:
            raise ValueError("residue lies outside the validity window")
        return self.as_dict().get(-1, Q(0))

    def coefficient(self, exponent: int) -> Q:
        if self.hi is not None and exponent > self.hi:
            raise ValueError(f"coefficient t^{exponent} outside validity window")
        return self.as_dict().get(exponent, Q(0))


def _min_hi(a: int | None, b: int | None) -> int | None:
    return min((h for h in (a, b) if h is not None), default=None)


_SL2_BRACKET = {
    ("E", "F"): (("H", Q(1)),),
    ("F", "E"): (("H", Q(-1)),),
    ("H", "E"): (("E", Q(2)),),
    ("E", "H"): (("E", Q(-2)),),
    ("H", "F"): (("F", Q(-2)),),
    ("F", "H"): (("F", Q(2)),),
}

_SL2_FORM = {("E", "F"): Q(1), ("F", "E"): Q(1), ("H", "H"): Q(2)}

_SL2_ROOT = {"E": 1, "F": -1, "H": 0}


@dataclass(frozen=True)
class LoopElement:
    """Element of the affine sl(2) loop algebra: series-valued coordinates
    in the E, F, H directions plus a central coefficient."""

    parts: tuple[tuple[str, TruncatedLaurent], ...]
    central: Q = Q(0)

    @classmethod
    def make(cls, parts: Mapping[str, TruncatedLaurent], central=Q(0)) -> "LoopElement":
        kept = {g: f for g, f in parts.items() if f.coeffs or f.hi is not None}
        return cls(tuple(sorted(kept.items())), Q(central))

    @classmethod
    def generator(cls, gen: str, exponent: int) -> "LoopElement":
        return cls.make({gen: TruncatedLaurent.monomial(exponent)})

    def part(self, gen: str) -> TruncatedLaurent:
        return dict(self.parts).get(gen, TruncatedLaurent.zero())


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    """[a tensor f, b tensor g] = [a,b] tensor fg + K (a|b) Res(f' g)."""
    parts: dict[str, TruncatedLaurent] = {}
    central = Q(0)
    for gx, fx in x.parts:
        for gy, fy in y.parts:
            for gz, coeff in _SL2_BRACKET.get((gx, gy), ()):
                term = (fx * fy).scale(coeff)
                parts[gz] = parts.get(gz, TruncatedLaurent.zero()) + term
            form = _SL2_FORM.get((gx, gy), Q(0))
            if form:
                central += form * (fx.derivative() * fy).residue()
    return LoopElement.make(parts, central)


@dataclass(frozen=True)
class MultiShift:
    """The multi-point shift automorphism of the affine sl(2) algebra.

    Determined by coweight multiples (the integers ``weights``, summing to
    zero) attached to marked points; the first point sits at the origin.
    """

    weights: tuple[int, ...]
    shifts: tuple[TruncatedLaurent, ...]

    @classmethod
    def build(cls, weights: Sequence[int], points: Sequence[Q], hi: int) -> "MultiShift":
        if sum(weights) != 0:
            raise PreconditionError("shift weights must sum to zero")
        if len(set(points)) != len(points):
            raise PreconditionError("marked points must be distinct")
        shifts = tuple(
            TruncatedLaurent.shifted_inverse(points[0] - z, hi) for z in points
        )
        return cls(tuple(weights), shifts)

    def apply(self, x: LoopElement) -> LoopElement:
        parts: dict[str, TruncatedLaurent] = {}
        central = x.central
        for gen, f in x.parts:
            root = _SL2_ROOT[gen]
            if root:
                out = f
                for w, phi in zip(self.weights, self.shifts):
                    e = -w * root
                    out = out * (phi if e >= 0 else _invert_shift(phi)).power(abs(e))
                parts[gen] = parts.get(gen, TruncatedLaurent.zero()) + out
            else:
                parts[gen] = parts.get(gen, TruncatedLaurent.zero()) + f
                for w, phi in zip(self.weights, self.shifts):
                    central += Q(w) * (phi * f).residue()
        return LoopElement.make(parts, central)


def _invert_shift(phi: TruncatedLaurent) -> TruncatedLaurent:
    """Exact inverse of a shifted-inverse series: back to the linear polynomial."""
    d = phi.as_dict()
    if d.get(-1) == 1 and all(e == -1 for e in d):
        return TruncatedLaurent.monomial(1)
    c = 1 / d[0]
    return TruncatedLaurent.make({1: Q(1), 0: c})


def multishift_validate(
    m: int,
    grade: int = 4,
    points: Sequence | None = None,
) -> dict:
    """Check exactly that the m-point shift is a loop-algebra automorphism.

    Supported: the two- and three-point shifts of affine sl(2).  Every
    bracket of spanning elements with loop exponents up to ``grade`` is
    compared coefficient-by-coefficient inside the validity window; the
    residual is required to vanish identically.
    """
    weight_table = {2: (1, -1), 3: (1, 1, -2)}
    if m not in weight_table:
        raise UnsupportedFolding(f"multi-shift weights are only defined for m in (2, 3), not {m}")
    weights = weight_table[m]
    if points is None:
        points = tuple(Q(i) for i in range(m))
    hi = 3 * grade + 6
    sigma = MultiShift.build(weights, tuple(Q(p) for p in points), hi)

    span = [
        LoopElement.generator(g, a)
        for g in ("E", "F", "H")
        for a in range(-grade, grade + 1)
    ]
    span.append(LoopElement.make({}, Q(1)))

    images = [(x, sigma.apply(x)) for x in span]
    checked = 0
    min_window = None
    for x, sx in images:
        for y, sy in images:
            lhs = sigma.apply(loop_bracket(x, y))
            rhs = loop_bracket(sx, sy)
            if lhs.central != rhs.central:
                raise ConjectureViolation(
                    "multi-shift fails on the central term",
                    report={"central_lhs": str(lhs.central), "central_rhs": str(rhs.central)},
                )
            for gen in ("E", "F", "H"):
                fl, fr = lhs.part(gen), rhs.part(gen)
                window = _min_hi(fl.hi, fr.hi)
                if window is not None:
                    if window < grade:
                        raise PreconditionError(
                            f"validity window {window} too small for grade {grade}"
                        )
                    min_window = window if min_window is None else min(min_window, window)
                exps = {e for e, _ in fl.coeffs} | {e for e, _ in fr.coeffs}
                for e in exps:
                    if window is not None and e > window:
                        continue
                    if fl.coefficient(e) != fr.coefficient(e):
                        raise ConjectureViolation(
                            "multi-shift fails to preserve a bracket",
                            report={
                                "generator": gen,
                                "exponent": e,
                                "lhs": str(fl.coefficient(e)),
                                "rhs": str(fr.coefficient(e)),
                            },
                        )
            checked += 1
    return {
        "pairs_checked": checked,
        "max_residual": Q(0),
        "min_window": min_window,
        "weights": weights,
    }
