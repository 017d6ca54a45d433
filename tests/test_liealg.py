from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from wzwkit.errors import CartanDataError, InternalConsistencyError, WeylCapExceeded
from wzwkit.liealg import (
    _root_closure,
    build_algebra,
    cartan_matrix,
    center_group,
    parse_algebra_label,
    weyl_cosets,
    weyl_order,
    weyl_traverse,
)


def brute_force_roots(alg):
    """Independent root closure: orbit of the simple roots under all r_i,
    tracked purely in simple-root coordinates with the pairing recomputed
    from the metric each time."""
    simples = [tuple(int(k == i) for k in range(alg.rank)) for i in range(alg.rank)]

    def to_omega(alpha):
        return tuple(
            sum(alpha[i] * alg.cartan[i][k] for i in range(alg.rank)) for k in range(alg.rank)
        )

    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for alpha in frontier:
            w = to_omega(alpha)
            for i in range(alg.rank):
                a2 = tuple(alpha[k] - w[i] * int(k == i) for k in range(alg.rank))
                if a2 not in seen:
                    seen.add(a2)
                    nxt.append(a2)
        frontier = nxt
    return seen


def reference_root_closure(alg_cartan):
    """The reflection closure as it was written before tuple slicing: one
    generator per coordinate for each reflected root and its omega."""
    n = len(alg_cartan)
    simples = [(tuple(int(k == i) for k in range(n)), tuple(alg_cartan[i])) for i in range(n)]
    seen = dict(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for alpha, omega in frontier:
            for i in range(n):
                xi = omega[i]
                if xi == 0:
                    continue
                alpha2 = tuple(a - xi * int(k == i) for k, a in enumerate(alpha))
                if alpha2 in seen:
                    continue
                omega2 = tuple(omega[k] - xi * alg_cartan[i][k] for k in range(n))
                seen[alpha2] = omega2
                new.append((alpha2, omega2))
        frontier = new
    return sorted(seen.items())


CLOSURE_ALGEBRAS = [
    *(("A", r) for r in range(1, 13)),
    *((s, r) for s in "BC" for r in range(2, 13)),
    *(("D", r) for r in range(3, 13)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("series,rank", CLOSURE_ALGEBRAS, ids=lambda x: str(x))
def test_root_closure_matches_the_reference(series, rank):
    cart = cartan_matrix(series, rank)
    for matrix in (cart, tuple(zip(*cart))):  # characters reads the transpose
        assert _root_closure(matrix) == reference_root_closure(matrix)


class TestCartanMatrices:
    def test_a1(self):
        assert cartan_matrix("A", 1) == ((2,),)

    def test_b2_off_diagonal(self):
        assert cartan_matrix("B", 2) == ((2, -2), (-1, 2))

    def test_g2(self):
        assert cartan_matrix("G", 2) == ((2, -1), (-3, 2))

    def test_c3_is_b3_transpose(self):
        b3 = cartan_matrix("B", 3)
        c3 = cartan_matrix("C", 3)
        assert c3 == tuple(zip(*b3))

    def test_d3_matches_a3_up_to_relabeling(self):
        d3 = build_algebra("D3")
        a3 = build_algebra("A3")
        assert d3.dim == a3.dim == 15
        assert d3.dual_coxeter == a3.dual_coxeter == 4

    def test_e8_entry_sum(self):
        m = cartan_matrix("E", 8)
        assert len(m) == 8
        assert m == tuple(zip(*m))
        # 8 diagonal 2s and 7 tree edges contributing -1 twice each
        assert sum(sum(row) for row in m) == 16 - 14

    # a superscript or Arabic-Indic digit passes str.isdigit, and int("١") is 1
    @pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H2", "A", "2A", "A²", "A١"])
    def test_invalid_labels_rejected(self, bad):
        with pytest.raises(CartanDataError):
            parse_algebra_label(bad)


class TestMetric:
    def test_a1_metric(self):
        assert build_algebra("A1").metric == ((Q(1, 2),),)

    def test_a2_metric(self):
        assert build_algebra("A2").metric == (
            (Q(2, 3), Q(1, 3)),
            (Q(1, 3), Q(2, 3)),
        )

    def test_b2_metric(self):
        assert build_algebra("B2").metric == (
            (Q(1), Q(1, 2)),
            (Q(1, 2), Q(1, 2)),
        )

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6"])
    def test_metric_reproduces_cartan(self, label):
        # A[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), with alpha_i = row i of A
        alg = build_algebra(label)
        for i in range(alg.rank):
            ai = alg.cartan[i]
            for j in range(alg.rank):
                aj = alg.cartan[j]
                lhs = Q(alg.cartan[i][j])
                rhs = 2 * alg.pairing(ai, aj) / alg.pairing(aj, aj)
                assert lhs == rhs

    @pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "G2", "F4"])
    def test_metric_positive_definite(self, label):
        alg = build_algebra(label)
        # leading principal minors, computed exactly
        for k in range(1, alg.rank + 1):
            sub = [row[:k] for row in alg.metric[:k]]
            det = _det(sub)
            assert det > 0

    def test_long_roots_have_length_two(self):
        for label in ["B2", "B3", "C3", "G2", "F4"]:
            alg = build_algebra(label)
            norms = {alg.pairing(w, w) for w in alg.positive_roots_omega}
            assert max(norms) == 2
            assert len(norms) == 2  # exactly one short length besides the long one


def _det(m):
    n = len(m)
    if n == 1:
        return Q(m[0][0])
    total = Q(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Q(m[0][j]) * _det(minor)
    return total


class TestRoots:
    @pytest.mark.parametrize(
        "label,count",
        [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6), ("B3", 9), ("C3", 9), ("D4", 12)],
    )
    def test_positive_root_counts(self, label, count):
        assert build_algebra(label).num_positive_roots == count

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
    def test_closure_matches_independent_enumeration(self, label):
        alg = build_algebra(label)
        brute = brute_force_roots(alg)
        assert len(brute) == 2 * alg.num_positive_roots
        positives = {a for a in brute if any(x > 0 for x in a)}
        assert positives == set(alg.positive_roots_alpha)

    @pytest.mark.parametrize(
        "label,marks",
        [
            ("A2", (1, 1)),
            ("B3", (1, 2, 2)),
            ("C3", (2, 2, 1)),
            ("G2", (3, 2)),
            ("F4", (2, 3, 4, 2)),
            ("D4", (1, 2, 1, 1)),
        ],
    )
    def test_marks(self, label, marks):
        assert build_algebra(label).marks == marks

    @pytest.mark.parametrize(
        "label,hvee",
        [
            ("A1", 2),
            ("A2", 3),
            ("A3", 4),
            ("B2", 3),
            ("B3", 5),
            ("C3", 4),
            ("D4", 6),
            ("G2", 4),
            ("F4", 9),
            ("E6", 12),
            ("E7", 18),
            ("E8", 30),
        ],
    )
    def test_dual_coxeter_numbers(self, label, hvee):
        assert build_algebra(label).dual_coxeter == hvee

    def test_highest_root_length(self):
        for label in ["A2", "B2", "C3", "G2", "F4"]:
            alg = build_algebra(label)
            assert alg.pairing(alg.highest_root_omega, alg.highest_root_omega) == 2

    def test_level_of_highest_root(self):
        for label in ["A2", "B3", "G2"]:
            alg = build_algebra(label)
            # (theta, theta^vee) = 2
            assert alg.level_of(alg.highest_root_omega) == 2


class TestWeyl:
    @pytest.mark.parametrize(
        "label,order",
        [
            ("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48), ("C3", 48),
            ("A8", 362880), ("D7", 322560), ("E8", 696729600),
        ],
    )
    def test_group_orders(self, label, order):
        assert weyl_order(build_algebra(label)) == order

    @pytest.mark.parametrize(
        "label",
        [f"A{r}" for r in range(1, 8)]
        + [f"{s}{r}" for s in "BC" for r in range(2, 7)]
        + [f"D{r}" for r in range(3, 7)]
        + ["E6", "F4", "G2"],
    )
    def test_closed_form_order_counts_the_enumeration(self, label):
        alg = build_algebra(label)
        assert weyl_order(alg) == sum(len(ws) for _, ws in weyl_traverse(alg))

    @pytest.mark.parametrize(
        "label,block,cosets",
        [
            ("E6", range(1, 6), 27),
            ("E7", range(1, 7), 126),
            ("E8", range(1, 8), 2160),
            ("F4", (0, 1, 2), 24),
            ("B3", (), 48),
            ("D5", range(5), 1),
        ],
    )
    def test_cosets_are_the_orbit_of_omega_j(self, label, block, cosets):
        alg = build_algebra(label)
        inverses, signs = weyl_cosets(alg, tuple(block))
        assert len(inverses) == len(signs) == cosets
        omega = np.array([int(i not in block) for i in range(alg.rank)])
        # the points c omega_J are the whole orbit, each once
        points = {tuple(np.linalg.solve(m, omega).round().astype(int)) for m in inverses}
        assert len(points) == cosets
        for m, sign in zip(inverses, signs):
            assert round(np.linalg.det(m)) == sign

    def test_full_walk_is_the_group_inverted(self):
        alg = build_algebra("B3")
        inverses, _ = weyl_cosets(alg, ())
        elements = np.concatenate([ws for _, ws in weyl_traverse(alg)])
        assert {m.tobytes() for m in np.linalg.inv(inverses).round().astype(np.int64)} == {
            m.tobytes() for m in elements
        }

    def test_coset_cap_carries_partial_count(self):
        with pytest.raises(WeylCapExceeded) as exc:
            weyl_cosets(build_algebra("E8"), tuple(range(1, 8)), cap=2000)
        assert exc.value.cap == 2000
        assert 2000 < exc.value.partial <= 2160
        assert "raise the cap" in str(exc.value)

    def test_signs_sum_to_zero(self):
        for label in ["A2", "B2", "G2"]:
            layers = weyl_traverse(build_algebra(label))
            assert sum((-1) ** length * len(ws) for length, ws in layers) == 0

    def test_sign_matches_determinant(self):
        alg = build_algebra("B2")
        for length, ws in weyl_traverse(alg):
            for w in ws:
                m = [[Q(int(x)) for x in row] for row in w]
                assert _det(m) == (-1) ** length

    def test_layer_lengths_run_from_zero(self):
        lengths = [length for length, _ in weyl_traverse(build_algebra("A2"))]
        assert lengths == [0, 1, 2, 3]

    def test_elements_permute_roots(self):
        alg = build_algebra("G2")
        roots = set(alg.positive_roots_omega) | {
            tuple(-x for x in w) for w in alg.positive_roots_omega
        }
        for _, ws in weyl_traverse(alg):
            for w in ws:
                image = {
                    tuple(sum(int(w[r][c]) * v[c] for c in range(2)) for r in range(2))
                    for v in roots
                }
                assert image == roots

    @pytest.mark.parametrize(
        "label,sizes",
        [("A2", [1, 2, 2, 1]), ("B2", [1, 2, 2, 2, 1]), ("G2", [1, 2, 2, 2, 2, 2, 1])],
    )
    def test_layer_sizes_are_poincare_coefficients(self, label, sizes):
        assert [len(ws) for _, ws in weyl_traverse(build_algebra(label))] == sizes

    @pytest.mark.parametrize("label,order", [("F4", 1152), ("D6", 23040), ("E6", 51840)])
    def test_large_groups_are_enumerated_once(self, label, order):
        alg = build_algebra(label)
        flat = np.concatenate([ws.reshape(len(ws), -1) for _, ws in weyl_traverse(alg)])
        assert len(flat) == order
        assert len(np.unique(flat, axis=0)) == order

    def test_cap_exceeded_carries_partial_count(self):
        with pytest.raises(WeylCapExceeded) as exc:
            list(weyl_traverse(build_algebra("A3"), cap=10))
        assert exc.value.cap == 10
        assert exc.value.partial >= 10
        assert "raise the cap" in str(exc.value)


# The center of every series: Z_{n+1} for A, Z2 for B and C, Z4 for D with n
# odd and Z2 x Z2 with n even, Z3, Z2 and trivial for E6-E8, trivial for F4, G2.
CENTERS = (
    [(f"A{n}", (n + 1,)) for n in range(1, 10)]
    + [(f"B{n}", (2,)) for n in range(2, 10)]
    + [(f"C{n}", (2,)) for n in range(2, 10)]
    + [(f"D{n}", (4,) if n % 2 else (2, 2)) for n in range(3, 11)]
    + [("E6", (3,)), ("E7", (2,)), ("E8", ()), ("F4", ()), ("G2", ())]
)
CENTER_LABELS = [label for label, _ in CENTERS]


def brute_force_orders(factors):
    """Sorted orders of all elements of Z_f1 x ... x Z_fk, by enumeration."""
    orders = []
    for element in itertools.product(*(range(f) for f in factors)):
        order = 1
        for a, f in zip(element, factors):
            order = math.lcm(order, f // math.gcd(a, f))
        orders.append(order)
    return sorted(orders)


class TestCenter:
    @pytest.mark.parametrize("label,factors", CENTERS)
    def test_invariant_factors(self, label, factors):
        assert center_group(build_algebra(label)).factors == factors

    @pytest.mark.parametrize("label", CENTER_LABELS)
    def test_generator_orders(self, label):
        # each generator must have exactly the advertised order in Z^n / A Z^n,
        # and the generators are fundamental coweights of distinct nodes
        alg = build_algebra(label)
        cg = center_group(alg)
        assert len(cg.generators) == len(cg.factors)
        assert len({gen.index(1) for gen in cg.generators}) == len(cg.generators)
        for gen, order in zip(cg.generators, cg.factors):
            assert sorted(gen) == [0] * (alg.rank - 1) + [1]
            for mult in range(1, order):
                assert not _in_column_lattice(alg.cartan, [mult * g for g in gen])
            assert _in_column_lattice(alg.cartan, [order * g for g in gen])

    @pytest.mark.parametrize("label", CENTER_LABELS)
    def test_element_orders_match_the_factors(self, label):
        cg = center_group(build_algebra(label))
        assert list(cg.element_orders) == brute_force_orders(cg.factors)
        assert cg.order == math.prod(cg.factors)

    @pytest.mark.parametrize(
        "label,marks",
        [
            ("A3", (1, 2, 1)),  # fewer elements than det A
            ("D4", (1, 2, 1, 2)),
            ("G2", (1, 2)),  # more elements than det A
            ("D5", (1, 1, 2, 1, 2)),  # det A elements, two of them of order 1
        ],
    )
    def test_wrong_marks_are_refused(self, label, marks):
        alg = dataclasses.replace(build_algebra(label), marks=marks)
        with pytest.raises(InternalConsistencyError):
            center_group(alg)

    def test_describe(self):
        assert center_group(build_algebra("D4")).describe() == "Z2 x Z2"
        assert center_group(build_algebra("G2")).describe() == "trivial"


def _in_column_lattice(cartan, vec):
    """Is vec an integer combination of the columns of the Cartan matrix?"""
    from wzwkit.exact import invert_rational

    inv = invert_rational(cartan)
    return all(sum(r * v for r, v in zip(row, vec)).denominator == 1 for row in inv)


def affine_cartan_matrix(alg):
    """Untwisted affine Cartan matrix; node 0 is the affine node."""
    theta = alg.highest_root_omega
    rows = [(2, *(-t for t in theta))]
    for i in range(alg.rank):
        pair = alg.pairing(alg.cartan[i], theta)
        assert pair.denominator == 1
        rows.append((-int(pair), *alg.cartan[i]))
    return tuple(rows)


class TestAffineCartanMatrix:
    def test_affine_a1(self):
        assert affine_cartan_matrix(build_algebra("A1")) == ((2, -2), (-2, 2))

    def test_affine_matrices_have_null_vectors(self):
        # comarks (prepended with 1) span the right kernel, marks the left kernel
        for label in ["A2", "B2", "G2", "C3", "D4"]:
            alg = build_algebra(label)
            m = affine_cartan_matrix(alg)
            marks = (1,) + alg.marks
            comarks = (1,) + alg.comarks
            n = alg.rank + 1
            for i in range(n):
                assert sum(m[i][j] * comarks[j] for j in range(n)) == 0
            for j in range(n):
                assert sum(marks[i] * m[i][j] for i in range(n)) == 0
