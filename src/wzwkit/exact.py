"""Exact rational linear algebra helpers.

Small, dependency-free routines used wherever floating point would poison a
later equality check: metric inversion, Smith normal form for lattice
quotients, and root-of-unity evaluation from rational phase exponents.
"""

from __future__ import annotations

import cmath
from fractions import Fraction as Q
from typing import Sequence

__all__ = [
    "QMatrix",
    "invert_rational",
    "smith_normal_form",
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


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (L, D, R) with L @ mat @ R = D diagonal, L and R unimodular.

    Diagonal entries are non-negative and each divides the next. Classic
    elementary-operation algorithm; fine for the small integer matrices that
    show up as Cartan matrices.
    """
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    left = [[int(i == j) for j in range(n)] for i in range(n)]
    right = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in right:
            row[dst] += f * row[src]

    t = 0
    while t < min(n, m):
        # find smallest nonzero entry in the remaining block to use as pivot
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of later entries by pulling in offenders
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        t += 1
    return left, a, right


def phase_to_complex(exponent: Q) -> complex:
    """exp(2*pi*i*exponent) for an exact rational exponent."""
    e = exponent - int(exponent)  # keep the argument small for accuracy
    return cmath.exp(2j * cmath.pi * float(e))
