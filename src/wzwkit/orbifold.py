"""Z2 orbifold modular data: sector bookkeeping, S and T assembly, traces.

An inner order-2 symmetry of the base theory fixes every label.  It is given
by a rational shift vector, which acts on each label by a sign.  Its twining
characters are ordinary characters at a shifted argument, so the twining data
are the base S and T themselves (Fuchs-Schellekens-Schweigert,
hep-th/9506135; Birke-Fuchs-Schweigert, hep-th/9905038); the input holds only
the signs and the twisted T exponents.  Every base label then gives an
untwisted and a twisted sector, each resolved into a sign pair.  The orbifold
S matrix is assembled from blocks of S and the twisted-twisted matrix, each
repeated over the sign pairs (O(n^2) for n orbifold labels, one phase per
label), and must pass the same invariant suite as any modular datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

from .affine import ModularData, verify_modular_invariants
from .blocks import _float_tolerance, _slot_sum, block_rank
from .errors import ConjectureViolation, InvariantViolation, PreconditionError
from .exact import phase_to_complex
from .fusion import verify_fusion
from .liealg import build_algebra

__all__ = [
    "OrbifoldInput",
    "OrbifoldModularData",
    "inner_orbifold_input",
    "assemble_orbifold",
    "conjecture2_trace",
    "Conjecture2Result",
    "dual_current_label",
]


@dataclass(frozen=True, eq=False)
class OrbifoldInput:
    """Everything needed to assemble the orbifold of a base theory by an inner Z2.

    The symmetry fixes every label of ``md``.  ``eta_exponents`` give the
    label signs as exact rationals q with eta = exp(2 pi i q), q in {0, 1/2};
    ``t1_exponents`` are the exact exponents (mod 2) whose half is the
    twisted T eigenvalue.  The twining matrix ``s0`` is S and the twining T
    is T, both read from ``md``, whose invariants are already verified.
    """

    md: ModularData
    eta_exponents: dict[int, Q]
    t1_exponents: tuple[Q, ...]

    def __post_init__(self) -> None:
        if len(self.t1_exponents) != self.md.dim:
            raise PreconditionError("twisted T exponents must match the label count")

    @property
    def s0(self) -> np.ndarray:
        """The twining matrix, which for an inner symmetry is S itself."""
        return self.md.smatrix

    def eta(self, i: int) -> complex:
        return phase_to_complex(self.eta_exponents[i])


@dataclass(eq=False)
class OrbifoldModularData:
    """Assembled orbifold theory plus the twisted-block matrix and residuals.

    ``md`` is a full ModularData over the orbifold labels (parent label,
    sign, twist) and can be fed back into the fusion and extension machinery.
    """

    input: OrbifoldInput
    md: ModularData
    pmatrix: np.ndarray
    residuals: dict[str, float]

    @property
    def labels(self) -> tuple:
        return self.md.labels

    @property
    def smatrix(self) -> np.ndarray:
        return self.md.smatrix


def inner_orbifold_input(md: ModularData, shift: Sequence) -> OrbifoldInput:
    """Orbifold input for the inner Z2 generated by a rational shift vector.

    The shift s is given in fundamental-weight coordinates.  It must satisfy
    2(s, omega_i) integral for every fundamental weight, so that
    exp(2 pi i (s, mu)) is a sign on the whole weight lattice, and some value
    must be odd so the symmetry has order exactly two on the labels.  The
    label involution is trivial and every label is a fixed point.
    """
    alg = build_algebra(md.algebra)
    s = tuple(Q(x) for x in shift)
    if len(s) != alg.rank:
        raise PreconditionError(
            f"shift has {len(s)} coordinates, algebra rank is {alg.rank}"
        )

    unit = [tuple(1 if j == i else 0 for j in range(alg.rank)) for i in range(alg.rank)]
    doubled = [2 * alg.pairing(s, u) for u in unit]
    if any(d.denominator != 1 for d in doubled):
        raise PreconditionError(
            "shift does not act by signs on the weight lattice: "
            f"2(s, omega) = {tuple(str(d) for d in doubled)}"
        )
    if all(d.numerator % 2 == 0 for d in doubled):
        raise PreconditionError(
            "shift acts trivially on the weight lattice; the symmetry has order 1"
        )

    eta_exponents = {i: alg.pairing(s, lab) % 1 for i, lab in enumerate(md.labels)}
    kss = md.level * alg.pairing(s, s)
    t1 = tuple((2 * t + 2 * eta_exponents[i] + kss) % 2 for i, t in enumerate(md.t_exponents))
    return OrbifoldInput(md=md, eta_exponents=eta_exponents, t1_exponents=t1)


def _pmatrix(oin: OrbifoldInput) -> np.ndarray:
    """Twisted-twisted block before the sign dressing.

    The middle factor is T on the twining characters, which for an inner
    symmetry is T itself: the square of eta^{-1} times the T of the halved
    exponents, with eta^2 = 1.  The outer factors are the twisted T square
    roots taken on the exact exponents.
    """
    half = np.array([phase_to_complex(x / 2) for x in oin.t1_exponents])
    mid = np.array([phase_to_complex(t % 1) for t in oin.md.t_exponents])
    return np.outer(half, half) * (oin.s0.T @ (mid[:, None] * oin.s0))


def dual_current_label(md: ModularData) -> tuple:
    """The orbifold's distinguished simple current (vacuum, -1, untwisted)."""
    return (md.labels[md.vacuum], -1, 0)


def _orbifold_smatrix(oin: OrbifoldInput, p: np.ndarray) -> np.ndarray:
    """Orbifold S in the label order of ``assemble_orbifold``, block by block.

    Untwisted and twisted sectors each carry an interleaved sign pair (+, -).
    With eta the label phases:

    * untwisted x untwisted: S / 2 on every sign pair;
    * untwisted x twisted: eps / (2 eta_i) times the twining matrix (S), the
      sign eps of the untwisted row; twisted x untwisted is its transpose;
    * twisted x twisted: eps eps' p / 2, with p from ``_pmatrix``.
    """
    def doubled(m: np.ndarray) -> np.ndarray:
        return np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)

    n = oin.md.dim
    scale = np.array([0.5 * eps / oin.eta(i) for i in range(n) for eps in (1, -1)])
    untwisted_twisted = scale[:, None] * doubled(oin.s0)
    return np.block(
        [
            [doubled(0.5 * oin.md.smatrix), untwisted_twisted],
            [untwisted_twisted.T, np.kron(p, 0.5 * np.array([[1, -1], [-1, 1]]))],
        ]
    )


def assemble_orbifold(oin: OrbifoldInput, tol: float = 1e-8) -> OrbifoldModularData:
    """Build the orbifold modular data and run every consistency check.

    Label kinds: (mu, +-1, 0) for each untwisted sector and (mu, +-1, 1) for
    each twisted sector, mu running over the base labels.  The vacuum of the
    orbifold is (vacuum, +1, 0).  Raises InvariantViolation if any modular or structural identity fails, and
    IntegralityError if the orbifold fusion ring is not integral.
    """
    md = oin.md
    p = _pmatrix(oin)
    labels = [(lab, eps, 0) for lab in md.labels for eps in (1, -1)]
    labels += [(lab, eps, 1) for lab in md.labels for eps in (1, -1)]
    # twisted weights: c/24 + tau/2 with tau the twisted exponent, plus 1/2 for sign -1
    c24 = md.central_charge / 24
    delta = [d for d in md.delta for _ in (1, -1)]
    delta += [(c24 + tau / 2 + extra) % 1 for tau in oin.t1_exponents for extra in (0, Q(1, 2))]

    omd = ModularData(
        algebra=f"{md.algebra}/orb",
        level=md.level,
        labels=tuple(labels),
        smatrix=_orbifold_smatrix(oin, p),
        delta=tuple(delta),
        central_charge=md.central_charge,
    )
    if labels.index((md.labels[md.vacuum], 1, 0)) != 0:
        raise InvariantViolation("orbifold_vacuum_position", 1.0, 0.0, "")
    residuals = dict(verify_modular_invariants(omd, tol))

    verify_fusion(omd, tol=max(tol, 1e-6))

    # the twining matrix is S, so its square is the base theory's conjugation
    residuals["twining_square_permutation"] = md.invariants()["conjugation_permutation"]
    conjugation = np.eye(md.dim)[list(md.conjugation_permutation())]
    residuals["pmatrix_square_match"] = float(np.abs(np.abs(p @ p) - conjugation).max())
    for name in ("twining_square_permutation", "pmatrix_square_match"):
        if residuals[name] > tol:
            raise InvariantViolation(name, residuals[name], tol, "")
    return OrbifoldModularData(input=oin, md=omd, pmatrix=p, residuals=residuals)


@dataclass(frozen=True)
class Conjecture2Result:
    trace: complex
    rank: int
    dim_plus: int
    dim_minus: int
    orientation: int


def conjecture2_trace(
    oin: OrbifoldInput,
    insertions: Sequence[int],
    orientation: int = 1,
) -> Conjecture2Result:
    """Trace of the order-2 symmetry on a genus-zero block space.

    The sum runs over twisted labels with the twining matrix in place of S;
    the trace must lie within max(1e-6, E) of an integer T, and (rank +- T)/2
    must be non-negative integers, otherwise a ConjectureViolation is raised.
    E is the float error bound of ``fourier_eigendims`` for this one sum (q =
    2 + 2m, a single root); a trace that is not finite, an E of at least 1/2,
    or a miss past 1e-6 but within E raises PrecisionExhausted instead.
    ``orientation`` selects which index of the twining matrix is summed, the
    two choices being transposes of each other.  The twining matrix is S,
    which is exactly symmetric (``_coset_sum`` mirrors its upper triangle),
    so both orientations give the same sum.
    """
    md = oin.md
    rank = block_rank(md, 0, insertions)  # first, as it checks the insertions
    s0 = oin.s0 if orientation >= 0 else oin.s0.T
    vac_col = s0[:, md.vacuum]
    kept = np.abs(vac_col) >= 1e-14
    vac = vac_col[kept]
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        weight = np.abs(vac) ** 2 * vac ** (-len(insertions))
        value, size = _slot_sum(weight, (s0[kept, mu] for mu in insertions))
    value, q = complex(value), 2 + 2 * len(insertions)
    (miss,), tol = _float_tolerance(md, "conjecture-2 float trace", np.array([value]), q, 1, size)
    rounded = round(value.real)
    out = []
    for name, sign in (("+", 1), ("-", -1)):
        dim, odd = divmod(rank + sign * rounded, 2)
        if miss > tol or odd or dim < 0:
            raise ConjectureViolation(
                "orbifold eigenspace dimension is not a non-negative integer",
                report={
                    "insertions": tuple(md.labels[i] for i in insertions),
                    "trace": value,
                    "rank": rank,
                    "eigenvalue": name,
                    "dimension": complex((rank + sign * value) / 2),
                    "orientation": orientation,
                },
            )
        out.append(dim)
    return Conjecture2Result(value, rank, *out, orientation)
