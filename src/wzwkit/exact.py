"""Exact rational linear algebra helpers.

Small, dependency-free routines used wherever floating point would poison a
later equality check: inversion of the metric and of the Cartan matrix (the
orders of center elements), and root-of-unity evaluation from rational phase
exponents.
"""

from __future__ import annotations

import cmath
from fractions import Fraction as Q
from typing import Sequence

__all__ = [
    "QMatrix",
    "invert_rational",
    "phase_to_complex",
]

QMatrix = list[list[Q]]


def invert_rational(m: Sequence[Sequence]) -> QMatrix:
    """Invert a square matrix over the rationals by Gauss-Jordan elimination.

    Raises ValueError if the matrix is singular.
    """
    n = len(m)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular over Q")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def phase_to_complex(exponent: Q) -> complex:
    """exp(2*pi*i*exponent) for an exact rational exponent."""
    e = exponent - int(exponent)  # keep the argument small for accuracy
    return cmath.exp(2j * cmath.pi * float(e))
