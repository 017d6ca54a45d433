"""Truncated graded characters and their modular behaviour.

This module computes characters as explicit truncated q-series: Verma
module characters (a pure product formula, evaluated as an integer
convolution), twining characters of diagram automorphisms (the graded
trace of the A1 node swap, a closed-form signed permutation of the
lowering generators, read off its cycle determinants), irreducible affine characters of every
algebra (the Weyl-Kac sum over the coroot lattice, its vectors
enumerated by norm), and a numeric check that the irreducible
characters transform under the S-matrix at the pairs (tau, -1/tau) =
(i, i) and (1.25i, 0.8i).

Everything upstream of the final numeric evaluation is exact integer
or rational arithmetic, so a failed consistency check points at a
wrong formula rather than at round-off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Sequence

import numpy as np

from .affine import ModularData, central_charge, conformal_weight
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    UnsupportedFolding,
)
from .liealg import _root_closure, build_algebra

__all__ = [
    "QSeries",
    "verma_character",
    "twining_verma_character",
    "orbit_verma_character",
    "irreducible_character",
    "numeric_modular_check",
]


@dataclass(frozen=True)
class QSeries:
    """A truncated power series in q with a rational leading exponent.

    ``coeffs[n]`` multiplies ``q ** (exponent + n)``.  The exponent is
    kept exact (conformal weight minus one twenty-fourth of the central
    charge); only :meth:`evaluate` leaves exact arithmetic.
    """

    coeffs: tuple
    exponent: Q

    @property
    def grade(self) -> int:
        """Largest retained grade."""
        return len(self.coeffs) - 1

    def evaluate(self, tau: complex) -> complex:
        """Sum the truncated series at q = exp(2 pi i tau)."""
        total = 0j
        for n, c in enumerate(self.coeffs):
            total += complex(c) * cmath.exp(
                2j * cmath.pi * tau * (float(self.exponent) + n)
            )
        return total


def _leading_exponent(algebra: str, level: int, weight: Sequence[int]) -> Q:
    alg = build_algebra(algebra)
    if len(weight) != alg.rank:
        raise PreconditionError(
            f"weight {tuple(weight)} has wrong length for {algebra}"
        )
    if level < 1:
        raise PreconditionError(f"level must be positive, got {level}")
    delta = conformal_weight(alg, level, tuple(weight))
    return delta - central_charge(alg, level) / 24


def verma_character(
    algebra: str, level: int, weight: Sequence[int], grade: int = 6
) -> QSeries:
    """Character of a Verma module over the affinization of ``algebra``.

    In the homogeneous grading every negative-mode copy of the algebra
    contributes a free generator, so the coefficients are those of
    ``prod_{m >= 1} (1 - q^m) ** -dim``.  For A1 the sequence starts
    1, 3, 9, 22.
    """
    if grade < 0:
        raise PreconditionError("grade must be non-negative")
    exponent = _leading_exponent(algebra, level, weight)
    dim = build_algebra(algebra).dim
    coeffs = [0] * (grade + 1)
    coeffs[0] = 1
    for m in range(1, grade + 1):
        for _ in range(dim):
            for n in range(m, grade + 1):
                coeffs[n] += coeffs[n - m]
    return QSeries(tuple(coeffs), exponent)


# ---------------------------------------------------------------------------
# Twining characters.
#
# The only nontrivial folding implemented is the order-two automorphism of
# affine A1 that swaps the two nodes.  It does not preserve the homogeneous
# grading (it exchanges the two simple raising directions), so the graded
# trace is taken in the principal grading, where F t^0 has degree 1 and the
# degree of x t^-m grows by 2 per loop power.
# ---------------------------------------------------------------------------


def _a1_swap_cycles(grade: int) -> list[tuple[int, int, int]]:
    """Cycles of the A1 node swap on the lowering generators of degree <= grade.

    Returns (length, degree, phase) per cycle.  In the principal grading
    the swap trades E t^-m with F t^-(m-1), a 2-cycle in the odd degree
    2m - 1 with phase +1, and sends H t^-m to -H t^-m, a 1-cycle in the
    even degree 2m with phase -1.
    """
    return [(2, d, 1) if d % 2 else (1, d, -1) for d in range(1, grade + 1)]


def _det_product_trace(cycles: list[tuple[int, int, int]], grade: int) -> list[int]:
    """Graded trace via the product of inverse characteristic factors.

    A cycle of length r in degree d with phase p contributes the block
    determinant (1 - p q^{r d}) to det(1 - q^deg sigma), so the trace
    series is the product of the inverted factors.
    """
    coeffs = [0] * (grade + 1)
    coeffs[0] = 1
    for length, degree, phase in cycles:
        step = length * degree
        for n in range(step, grade + 1):
            coeffs[n] += phase * coeffs[n - step]
    return coeffs


def _folded_character(
    algebra: str,
    level: int,
    weight: Sequence[int],
    automorphism: Sequence[int],
    grade: int,
    rule: str,
    swap_coeffs: Callable[[int], Sequence[int]],
) -> QSeries:
    """The Verma character for the identity; ``swap_coeffs(grade)`` for the
    A1 node swap on a weight it fixes; UnsupportedFolding naming ``rule``
    for any other permutation of the affine nodes."""
    perm, nodes = tuple(automorphism), list(range(build_algebra(algebra).rank + 1))
    if sorted(perm) != nodes:
        raise PreconditionError(
            f"automorphism {perm} is not a permutation of {len(nodes)} affine nodes"
        )
    if list(perm) == nodes:
        return verma_character(algebra, level, weight, grade)
    if algebra != "A1" or perm != (1, 0):
        raise UnsupportedFolding(f"no {rule} for automorphism {perm} of {algebra}")
    if grade < 0:
        raise PreconditionError("grade must be non-negative")
    exponent = _leading_exponent(algebra, level, weight)
    lam = weight[0]
    if level - lam != lam:
        raise PreconditionError(
            f"node swap sends weight ({lam},) to ({level - lam},); "
            "the folding needs a fixed weight"
        )
    return QSeries(tuple(swap_coeffs(grade)), exponent)


def twining_verma_character(
    algebra: str,
    level: int,
    weight: Sequence[int],
    automorphism: Sequence[int],
    grade: int = 6,
) -> QSeries:
    """Graded trace of a diagram automorphism on a Verma module.

    The automorphism is given as a permutation of the affine Dynkin
    nodes (node 0 first).  The identity reproduces the plain Verma
    character.  The A1 node swap is a closed-form signed permutation of
    the lowering generators, and its trace is the product of the
    inverted cycle determinants.

    Raises PreconditionError when the automorphism moves the weight
    and UnsupportedFolding for permutations outside the catalogue.
    """
    return _folded_character(algebra, level, weight, automorphism, grade, "twining rule",
                             lambda g: _det_product_trace(_a1_swap_cycles(g), g))


def orbit_verma_character(
    algebra: str,
    level: int,
    weight: Sequence[int],
    automorphism: Sequence[int],
    grade: int = 6,
) -> QSeries:
    """Verma character of the orbit algebra of a diagram automorphism.

    For the identity the orbit algebra is the algebra itself.  For the
    A1 node swap the folded diagram has no nodes left, the orbit
    algebra has no lowering generators, and the character is the bare
    leading power of q.
    """
    return _folded_character(algebra, level, weight, automorphism, grade, "orbit algebra rule",
                             lambda g: (1,) + (0,) * g)


# ---------------------------------------------------------------------------
# Irreducible characters from the Weyl-Kac sum over the coroot lattice.
# ---------------------------------------------------------------------------


def _coroot_ball(gram: np.ndarray, shift: np.ndarray, kappa: int, grade: int) -> np.ndarray:
    """Every n in Z^r with shift.n + kappa n.G.n / 2 <= grade, found by norm.

    Completing the square turns the condition into the ball
    |n - c|_G^2 <= 2 grade / kappa + |c|_G^2 around c = -G^{-1} shift / kappa.
    With G = R^T R (R upper triangular) the squared norm is a sum of squares
    whose i-th term involves only n_i .. n_{r-1}, so the coordinates are
    walked from last to first, each over the interval its partial sum leaves
    (Fincke-Pohst).  The float bounds carry a margin: the caller keeps a
    vector by its exact integer exponent.
    """
    g = gram.astype(float)
    centre = -np.linalg.solve(g, shift) / kappa
    budget = (2 * grade / kappa + centre @ g @ centre) * (1 + 1e-9) + 1e-9
    upper = np.linalg.cholesky(g).T
    found = []

    def walk(i: int, tail: tuple, rest: float) -> None:
        if i < 0:
            found.append(tail)
            return
        d = upper[i, i]
        mid = centre[i] - upper[i, i + 1 :] @ (np.array(tail) - centre[i + 1 :]) / d
        half = math.sqrt(max(rest, 0.0)) / d
        for x in range(math.ceil(mid - half), math.floor(mid + half) + 1):
            walk(i - 1, (x,) + tail, rest - (d * (x - mid)) ** 2)

    walk(len(shift) - 1, (), budget)
    return np.array(found, dtype=np.int64)


def irreducible_character(
    algebra: str, level: int, weight: Sequence[int], grade: int = 40
) -> QSeries:
    """Irreducible integrable character of any algebra, in exact integers.

    The Weyl-Kac formula at z = 0 (Kac, ch. 10 and 13): with
    kappa = k + h^vee and mu = lambda + rho + kappa gamma,

        chi = q^(h - c/24) sum_{gamma in Q^vee} D(mu) q^((lambda+rho, gamma)
              + kappa |gamma|^2 / 2) prod_{n >= 1} (1 - q^n)^(-dim g),

    where D(mu) = prod_{alpha > 0} (mu, alpha^vee) / (rho, alpha^vee) is the
    Weyl dimension polynomial.  Q^vee is even, so every exponent is an
    integer, and D is an integer at integral mu.  The lattice sum runs over
    the ball of :func:`_coroot_ball`; the product is the Verma coefficient
    list, so the character is one integer convolution.
    """
    alg = build_algebra(algebra)
    lam = tuple(weight)
    if len(lam) == alg.rank and (min(lam) < 0 or alg.level_of(lam) > level):
        raise PreconditionError(f"weight {lam} is not integrable at level {level}")
    verma = verma_character(algebra, level, lam, grade)
    kappa = level + alg.dual_coxeter
    # (alpha_i^vee, alpha_j^vee) = A_ij / (|alpha_i|^2 / 2); positive coroots
    # in the simple-coroot basis are the positive roots of A^T.
    gram = np.array([[int(a / ln) for a in row] for row, ln in zip(alg.cartan, alg.root_lengths)])
    coroots = np.array([a for a, _ in _root_closure(tuple(zip(*alg.cartan))) if max(a) > 0])
    shift = np.array(lam) + 1
    ball = _coroot_ball(gram, shift, kappa, grade)
    exponents = ball @ shift + kappa * np.einsum("vi,ij,vj->v", ball, gram, ball) // 2
    keep = exponents <= grade
    pairings = (shift + kappa * ball[keep] @ gram) @ coroots.T
    numerator = [0] * (grade + 1)
    for e, row in zip(exponents[keep].tolist(), pairings.tolist()):
        numerator[e] += math.prod(row)
    denominator = math.prod(coroots.sum(axis=1).tolist())
    coeffs = [
        sum(numerator[e] * verma.coeffs[n - e] for e in range(n + 1))
        for n in range(grade + 1)
    ]
    if any(c % denominator for c in coeffs):
        raise InternalConsistencyError(
            "Weyl-Kac sum is not divisible by the Weyl dimension denominator"
        )
    return QSeries(tuple(c // denominator for c in coeffs), verma.exponent)


def numeric_modular_check(
    md: ModularData,
    char_supplier: Callable[[int], QSeries] | None = None,
    grade: int = 40,
) -> dict:
    """Check that truncated characters transform under S.

    The residual per label is the largest |chi(-1/tau) - (S chi)(tau)| over
    the pairs (tau, -1/tau) = (i, i) and (1.25i, 0.8i).  At the self-dual
    point it is the fixed-point condition S chi = chi, one eigenvector of
    S; the second pair tests all of S.  The T transformation is diagonal
    on each series by construction and is not rechecked here.  Large
    residuals are reported, not raised; the caller decides what counts as
    failure.  The tail estimate is taken at the smallest Im of the points.

    The default supplier builds the irreducible characters of the modular
    data's own algebra and level.
    """
    if char_supplier is None:

        def char_supplier(index: int) -> QSeries:
            return irreducible_character(
                md.algebra, md.level, md.labels[index], grade
            )

    chars = [char_supplier(i) for i in range(md.dim)]
    pairs = ((1j, 1j), (1.25j, 0.8j))
    at = {p: np.array([ch.evaluate(p) for ch in chars]) for pair in pairs for p in pair}
    residuals = np.max(
        [np.abs(at[image] - md.smatrix @ at[tau]) for tau, image in pairs], axis=0
    )
    q0 = float(np.exp(-2.0 * np.pi * min(p.imag for p in at)))
    tail = max(
        (
            abs(float(ch.coeffs[-1])) * q0 ** (float(ch.exponent) + ch.grade + 1) / (1.0 - q0)
            for ch in chars
            if ch.coeffs
        ),
        default=0.0,
    )
    return {
        "grade": grade,
        "residuals": [float(r) for r in residuals],
        "max_residual": float(residuals.max()),
        "tail_estimate": tail,
    }
