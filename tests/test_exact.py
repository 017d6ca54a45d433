"""The fraction-free inverse against Gauss-Jordan elimination over Fractions,
and the center read from the metric against the center read from that inverse."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from math import lcm

import pytest

from wzwkit.exact import invert_rational
from wzwkit.liealg import CenterGroup, build_algebra, cartan_matrix, center_group

LABELS = [
    *(f"A{r}" for r in range(1, 13)),
    *(f"B{r}" for r in range(2, 13)),
    *(f"C{r}" for r in range(2, 13)),
    *(f"D{r}" for r in range(3, 13)),
    "E6",
    "E7",
    "E8",
    "F4",
    "G2",
]


def gauss_jordan_inverse(m):
    """Gauss-Jordan elimination on [m | I] with a Fraction in every entry."""
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


def center_oracle(label):
    """The center from columns of the oracle's inverse Cartan matrix: the
    coweight e_i of a mark-1 node has the lcm of the denominators of column i
    as its order; generators are the first nodes of each invariant factor."""
    alg = build_algebra(label)
    n, inv = alg.rank, gauss_jordan_inverse(alg.cartan)
    nodes = [i for i in range(n) if alg.marks[i] == 1]
    order_of = {i: lcm(*(inv[r][i].denominator for r in range(n))) for i in nodes}
    orders = tuple(sorted([1, *order_of.values()]))
    factors = tuple(f for f in (len(orders) // orders[-1], orders[-1]) if f > 1)
    used = []
    for f in factors:
        used.append(next(i for i in nodes if order_of[i] == f and i not in used))
    return CenterGroup(factors, tuple(tuple(int(j == i) for j in range(n)) for i in used), orders)


def random_rational_matrix(rng):
    n = rng.randint(1, 6)
    return [
        [Q(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.8 else Q(0) for _ in range(n)]
        for _ in range(n)
    ]


def inverse_or_singular(invert, m):
    try:
        return invert(m)
    except ValueError:
        return "singular"


@pytest.mark.parametrize("label", LABELS)
def test_cartan_inverse_matches_the_oracle(label):
    cartan = cartan_matrix(label[0], int(label[1:]))
    inverse = invert_rational(cartan)
    assert inverse == gauss_jordan_inverse(cartan)
    assert all(type(x) is Q for row in inverse for x in row)


def test_random_rational_inverses_match_the_oracle():
    rng = random.Random(28)
    outcomes = []
    for _ in range(300):
        m = random_rational_matrix(rng)
        expected = inverse_or_singular(gauss_jordan_inverse, m)
        assert inverse_or_singular(invert_rational, m) == expected
        outcomes.append(expected == "singular")
    # both branches are exercised: singular inputs raise on both routines
    assert 10 <= sum(outcomes) <= 290


@pytest.mark.parametrize(
    "m",
    [
        [[0, 0], [0, 0]],
        [[1, 2], [2, 4]],
        [[Q(1, 2), Q(1, 3), 1], [1, Q(2, 3), 2], [0, 1, Q(5, 7)]],
    ],
    ids=["zero", "rank-1", "rational-rank-2"],
)
def test_singular_matrices_raise(m):
    with pytest.raises(ValueError, match="singular"):
        invert_rational(m)
    with pytest.raises(ValueError):
        gauss_jordan_inverse(m)


def test_pivoting_and_the_empty_matrix():
    assert invert_rational([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert invert_rational([[Q(-2, 3)]]) == [[Q(-3, 2)]]
    assert invert_rational([]) == []


@pytest.mark.parametrize("label", LABELS)
def test_center_matches_the_oracle_inverse(label):
    expected, got = center_oracle(label), center_group(build_algebra(label))
    assert got.factors == expected.factors
    assert got.generators == expected.generators
    assert got.element_orders == expected.element_orders

