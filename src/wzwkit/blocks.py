"""Chiral block counts, current-symmetry traces on block spaces, and checks.

A block-space rank is exact: (e_0 N_mu1 ... N_mum H^g)_0 over the verified
integer fusion tensor N and its handle matrix H.  The trace of a current
tuple is one float slot-product sum with each slot's S row replaced by its
current's fixed-point row; the identity tuple's trace is the rank.  The
untwisted tuples (found by O(m |adm|^2) exact integer sums over one table of
cocycle exponents per insertion label) form a group whose characters are
built by extension; one product of its conjugated character table with the
other traces gives integers X_chi and the dimensions (rank + X_chi) / |G|.

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
from .fusion import SimpleCurrentGroup, verlinde_tensor
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
    "rank_factorization_check",
    "trace_factorization_check",
    "TruncatedLaurent",
    "LoopElement",
    "multishift_validate",
]


def _handle_matrix(tensor: np.ndarray) -> np.ndarray:
    """H = sum_nu N_nu N_nu^T by one float64 BLAS product per nu: exact, as all
    terms are non-negative integers, unless an entry reads >= 2**53 after
    rounding; then H is summed again over Python ints."""
    h = sum(f @ f.T for f in (row.astype(float) for row in tensor))
    if h.max() < 2.0**53:
        return h.astype(np.int64)
    return sum(f @ f.T for f in (row.astype(object) for row in tensor))


def block_rank(md: ModularData, genus: int, insertions: Sequence[int]) -> int:
    """Dimension of the space of chiral blocks at the given genus, exactly.

    It is (e_0 N_mu1 ... N_mum H^g)_0 with N_mu[b, c] = N_{mu b}^c and the
    handle matrix H: a row vector from the vacuum, O(n^2) per factor.  No
    factor has a zero row (quantum dimensions are positive), so the vector's
    sum never falls and bounds every entry and partial sum; float64 is exact
    while it stays below 2**53 (an entry of H that rounds in its float copy
    is itself past that bound), and past that, or once the float vector
    overflows to inf and NaN, the product is redone over Python ints.
    """
    if genus < 0:
        raise PreconditionError(f"genus must be non-negative, not {genus}")
    tensor = verlinde_tensor(md)
    keys = list(insertions) + [None] * genus

    def factor(key: int | None) -> np.ndarray:  # N_mu, or H under None
        if key is None:
            return md._derived("handle", lambda md: _handle_matrix(tensor))
        return tensor[key]

    # float64 copies of only the factors that ranks use, made once per theory
    v = np.zeros(md.dim)
    v[md.vacuum] = 1
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the guard below
        for key in keys:
            v = v @ md._derived(("float_factor", key), lambda md: factor(key).astype(float))
    if not v.sum() < 2.0**53:
        v = np.zeros(md.dim, object)
        v[md.vacuum] = 1
        for key in keys:
            v = v @ factor(key).astype(object)
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
    out = list(_closed_tuples(group, [group.indices] * (m - 1)))
    assert len(out) == group.order ** (m - 1)
    return out


def admissible_tuples(
    group: SimpleCurrentGroup, insertions: Sequence[int]
) -> list[tuple[int, ...]]:
    """Identity-product tuples whose slots each stabilize their insertion.

    Slots 1..m-1 run over their stabilizers only; the closing current must
    stabilize the last insertion.  The order is that of ``gamma_out``.
    """
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
    """sum_k weight[..., k] prod_s factors[s][k]; a weight matrix gives one sum per row."""
    prod = np.ones(weight.shape[-1], dtype=complex)
    for x in factors:
        prod = prod * x
    return (weight * prod).sum(-1)


def symmetry_trace(
    md: ModularData, insertions: Sequence[int], t: Sequence[int], genus: int = 0
) -> complex:
    """Trace of one current tuple on the block space, as a float sum.

    Each slot contributes the zero-extended fixed-point S matrix of its
    current, weighted by |S_0k|^(2-2g) S_0k^(-m); the all-identity tuple
    gives the rank, which ``block_rank`` reads exactly instead.
    """
    s0 = md.smatrix[0]
    weight = np.abs(s0) ** (2 - 2 * genus) * s0 ** (-len(insertions))
    rows = (fixed_point_smatrix(md, ts).full[mu] for mu, ts in zip(insertions, t))
    return complex(_slot_sum(weight, rows))


@dataclass(eq=False)
class TraceSpectrum:
    """Traces of the untwisted tuples and their Fourier transform."""

    insertions: tuple[int, ...]
    genus: int
    rank: int
    admissible: tuple[tuple[int, ...], ...]
    untwisted: tuple[tuple[int, ...], ...]
    traces: dict[tuple[int, ...], complex]
    dims: dict[tuple, int]


def fourier_eigendims(
    md: ModularData,
    group: SimpleCurrentGroup,
    insertions: Sequence[int],
    genus: int = 0,
) -> TraceSpectrum:
    """Eigenspace dimensions of the untwisted tuple action on a block space.

    The identity tuple's trace is the exact rank.  For each character chi,
    X_chi = sum over the other tuples of conj(chi(t)) T(t) must lie within
    1e-6 of an integer and (rank + X_chi) / |G| must be a non-negative
    integer; otherwise a ConjectureViolation carrying the report is raised.
    A rank past float range, or a trace or X_chi that is not finite, raises
    PrecisionExhausted instead.
    """
    insertions = tuple(insertions)
    rank = block_rank(md, genus, insertions)
    if rank > sys.float_info.max:
        raise PrecisionExhausted(f"genus-{genus} block rank of {rank.bit_length()} bits is past float range")
    adm, unt = _tuple_sets(md, group, insertions)

    def compose_tuples(a, b):
        return tuple(group.compose(x, y) for x, y in zip(a, b))

    ident = (md.vacuum,) * len(insertions)
    chars = abelian_characters(unt, compose_tuples, ident)
    order = sorted(unt)
    keys = [tuple(char[t] for t in order) for char in chars]
    conjugated = np.exp(-2j * np.pi * np.array(keys, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        traces = {t: symmetry_trace(md, insertions, t, genus) for t in unt if t != ident}
        others = conjugated @ np.array([traces.get(t, 0j) for t in order])
    if not np.isfinite([*traces.values(), *others]).all():
        raise PrecisionExhausted(f"genus-{genus} float trace or Fourier sum is not finite")
    traces = {ident: complex(rank), **traces}
    dims: dict[tuple, int] = {}
    for char, key, x in zip(chars, keys, others):
        rounded = round(x.real)
        dim, rest = divmod(rank + rounded, len(unt))
        if abs(x - rounded) > 1e-6 or rest or dim < 0:
            raise ConjectureViolation(
                "eigenspace dimension is not a non-negative integer",
                report={
                    "insertions": tuple(md.labels[i] for i in insertions),
                    "genus": genus,
                    "rank": rank,
                    "traces": {str(t): traces[t] for t in unt},
                    "character": {str(k): str(v) for k, v in char.items()},
                    "value": complex((rank + x) / len(unt)),
                },
            )
        dims[key] = dim
    if sum(dims.values()) != rank:
        raise ConjectureViolation(
            "eigenspace dimensions do not sum to the identity trace",
            report={"dims": dims, "identity_trace": traces[ident]},
        )
    return TraceSpectrum(insertions, genus, rank, tuple(adm), tuple(unt), traces, dims)


def fix_compatible(md: ModularData, t: Sequence[int], glue: int) -> bool:
    """Whether the common fixed set of the tuple lies in the glue current's."""
    common = set(range(md.dim))
    for ts in t:
        common &= fixed_point_smatrix(md, ts).fixed_set
    return common <= fixed_point_smatrix(md, glue).fixed_set


def rank_factorization_check(
    md: ModularData, insertions: Sequence[int], split: int, genus: int = 0
) -> tuple[int, int]:
    """Left and right side of the gluing identity for block ranks.

    The m-point rank equals the sum over the glued channel of the two
    factor ranks, with the channel conjugated on one side.
    """
    conj = md.conjugation_permutation()
    lhs = block_rank(md, genus, insertions)
    rhs = 0
    for nu in range(md.dim):
        left = block_rank(md, genus, tuple(insertions[:split]) + (nu,))
        right = block_rank(md, 0, (conj[nu],) + tuple(insertions[split:]))
        rhs += left * right
    return lhs, rhs


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
        return _slot_sum(weight, rows)

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
        coeffs = {}
        for i in range(hi + 1):
            coeffs[i] = Q((-1) ** i, 1) / c ** (i + 1)
        return cls.make(coeffs, hi)

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

    def __sub__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        return self + other.scale(-1)

    def scale(self, factor) -> "TruncatedLaurent":
        return TruncatedLaurent.make({e: c * Q(factor) for e, c in self.coeffs}, self.hi)

    def __mul__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not self.coeffs or not other.coeffs:
            return TruncatedLaurent.zero()
        cutoffs = []
        if self.hi is not None:
            cutoffs.append(self.hi + other.low)
        if other.hi is not None:
            cutoffs.append(other.hi + self.low)
        hi = min(cutoffs) if cutoffs else None
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
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


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
        for g, f in self.parts:
            if g == gen:
                return f
        return TruncatedLaurent.zero()


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
                    if e >= 0:
                        out = out * phi.power(e)
                    else:
                        out = out * _invert_shift(phi).power(-e)
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
