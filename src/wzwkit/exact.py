"""Exact rational linear algebra helpers.

Small, dependency-free routines used wherever floating point would poison a
later equality check: the inverse Cartan matrix, by fraction-free elimination
(the metric is built from it), and root-of-unity evaluation from rational
phase exponents.
"""

from __future__ import annotations

import cmath
from fractions import Fraction as Q
from math import lcm
from typing import Sequence

__all__ = [
    "QMatrix",
    "invert_rational",
    "phase_to_complex",
]

QMatrix = list[list[Q]]


def invert_rational(m: Sequence[Sequence]) -> QMatrix:
    """Invert a square matrix over the rationals by fraction-free elimination.

    Gauss-Jordan on [L m | I] in integers, L the lcm of the denominators of m:
    each step multiplies by the pivot and divides exactly by the previous one
    (Bareiss, Math. Comp. 22 (1968) 565).  Raises ValueError if m is singular.
    """
    n = len(m)
    q = [[Q(x) for x in row] for row in m]
    scale = lcm(*(x.denominator for row in q for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in q]
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular over Q")
        a[col], a[pivot] = a[pivot], a[col]
        top, pv = a[col], a[col][col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(pv * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = pv
    return [[Q(scale * x, prev) for x in row[n:]] for row in a]  # [d I | d (L m)^-1], d = det(L m)


def phase_to_complex(exponent: Q) -> complex:
    """exp(2*pi*i*exponent) for an exact rational exponent."""
    e = exponent - int(exponent)  # keep the argument small for accuracy
    return cmath.exp(2j * cmath.pi * float(e))
