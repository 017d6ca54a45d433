from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

import wzwkit.simplecurrent as simplecurrent
from wzwkit.affine import modular_data
from wzwkit.blocks import fourier_eigendims, untwisted_tuples
from wzwkit.boundary import classifying_algebra
from wzwkit.errors import (
    ExtensionRejected,
    IntegralityError,
    InternalConsistencyError,
    InvariantViolation,
    PreconditionError,
    UnderdeterminedCocycle,
    UnsupportedFolding,
)
from wzwkit.exact import phase_to_complex
from wzwkit.fusion import simple_currents, tensor_product, verlinde_tensor
from wzwkit.liealg import build_algebra
from wzwkit.orbifold import assemble_orbifold, inner_orbifold_input
from wzwkit.simplecurrent import (
    FixedPointData,
    abelian_characters,
    cocycle,
    extend_by_group,
    fixed_point_smatrix,
    orbit_data,
    sj_character_matrix,
)

from test_blocks import fraction_characters, klein_four_cube


def md_su2(k):
    return modular_data("A1", k)


def su2_cube(k=2):
    one = modular_data("A1", k)
    return tensor_product(tensor_product(one, one), one)


# Extension and hat-matrix theories: A1 at the levels k = 0 mod 4 (at k = 2
# mod 4 the current has spin k/4 and neither construction exists), A2 at
# k = 0 mod 3, each with its full center.
SJ_THEORIES = [("A1", k) for k in (4, 8, 12, 16)] + [("A2", k) for k in (3, 6, 9, 12)]


def entrywise_sj_sum(md, group_order, rows, cols):
    """Reference for ``sj_character_matrix``: one entry at a time, one current
    at a time, J ascending over the currents both characters are defined on
    and skipped unless it fixes both sectors."""
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for a, (mu, psi, wa) in enumerate(rows):
        for b, (nu, phi, wb) in enumerate(cols):
            acc = 0.0 + 0.0j
            for j in sorted(set(psi) & set(phi)):
                data = fixed_point_smatrix(md, j)
                if mu in data.fixed_set and nu in data.fixed_set:
                    val = data.matrix[data.fixed.index(mu), data.fixed.index(nu)]
                    acc += phase_to_complex(psi[j]) * val * np.conj(phase_to_complex(phi[j]))
            out[a, b] = group_order / np.sqrt(wa * wb) * acc
    return out


def match_up_to_bijection(s, target, tol=1e-8):
    """Try all relabelings fixing the vacuum; True if some one matches."""
    import itertools

    n = len(target)
    for perm in itertools.permutations(range(1, n)):
        p = (0,) + perm
        moved = s[np.ix_(p, p)]
        if np.abs(moved - target).max() < tol:
            return True
    return False


class TestFixedPointMatrices:
    def test_su2_odd_level_has_no_fixed_points(self):
        data = fixed_point_smatrix(md_su2(3), (3,))
        assert data.fixed == ()
        assert data.matrix.shape == (0, 0)

    def test_su2_level2_phase_defaults_to_one(self):
        data = fixed_point_smatrix(md_su2(2), (2,))
        assert data.fixed == (1,)
        assert abs(data.matrix[0, 0] - 1.0) < 1e-12

    def test_su2_level6_phase_defaults_to_one(self):
        data = fixed_point_smatrix(md_su2(6), (6,))
        assert data.fixed == (3,)
        assert abs(data.matrix[0, 0] - 1.0) < 1e-12

    def test_su2_level4_phase_is_imaginary_unit(self):
        data = fixed_point_smatrix(md_su2(4), (4,))
        assert data.fixed == (2,)
        xi = data.matrix[0, 0]
        assert abs(xi.real) < 1e-9
        assert abs(abs(xi.imag) - 1.0) < 1e-9

    def test_su2_level8_phase_squares_to_one(self):
        data = fixed_point_smatrix(md_su2(8), (8,))
        assert data.fixed == (4,)
        xi = data.matrix[0, 0]
        assert abs(xi.imag) < 1e-9
        assert abs(abs(xi.real) - 1.0) < 1e-9

    def test_su3_level3_phase(self):
        md = modular_data("A2", 3)
        data = fixed_point_smatrix(md, (3, 0))
        assert data.fixed == (md.index((1, 1)),)
        assert abs(data.matrix[0, 0] - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "algebra, level, exponent",
        [
            ("A1", 4, Q(1, 4)),
            ("A1", 8, Q(1, 2)),
            ("A1", 12, Q(3, 4)),
            ("A1", 16, Q(0)),
            ("A2", 3, Q(0)),
            ("A2", 6, Q(0)),
        ],
    )
    def test_closed_form_phase(self, algebra, level, exponent):
        md = modular_data(algebra, level)
        for j in simple_currents(md).indices[1:]:
            assert fixed_point_smatrix(md, j).matrix[0, 0] == phase_to_complex(exponent)

    @pytest.mark.parametrize(
        "algebra, level", [("A1", 4), ("A1", 8), ("A1", 12), ("A2", 3), ("A2", 6)]
    )
    def test_closed_form_is_the_only_consistent_root_of_unity(
        self, algebra, level, monkeypatch
    ):
        base = modular_data(algebra, level)
        closed = {j: fixed_point_smatrix(base, j) for j in simple_currents(base).indices[1:]}
        (xi_closed,) = {data.matrix[0, 0] for data in closed.values()}
        order = math.lcm(24, 4 * (level + build_algebra(algebra).dual_coxeter))
        build = simplecurrent._fixed_point_data
        passed = 0
        for m in range(order):
            xi = phase_to_complex(Q(m, order))

            def candidate(md, j_index, xi=xi):
                if j_index not in closed:
                    return build(md, j_index)
                return FixedPointData(closed[j_index].fixed, np.array([[xi]]), md.dim)

            monkeypatch.setattr(simplecurrent, "_fixed_point_data", candidate)
            md = dataclasses.replace(base)  # a fresh theory starts with no S^J built
            group = simple_currents(md)
            if xi == xi_closed:
                extend_by_group(md, group)
                passed += 1
            else:
                with pytest.raises(
                    (InvariantViolation, IntegralityError, InternalConsistencyError)
                ):
                    extend_by_group(md, group)
        assert passed == 1

    def test_unsupported_current_raises(self):
        md = modular_data("B2", 2)
        g = simple_currents(md)
        j = [i for i in g.indices if i != 0][0]
        with pytest.raises(UnsupportedFolding):
            fixed_point_smatrix(md, j)

    def test_tensor_product_multiplies_phases(self):
        md = su2_cube(2)
        jj = ((((2,), (2,))), (2,))
        data = fixed_point_smatrix(md, jj)
        assert data.fixed == (md.index((((1,), (1,)), (1,))),)
        assert abs(data.matrix[0, 0] - 1.0) < 1e-9

    def test_full_zero_extension(self):
        md = md_su2(4)
        data = fixed_point_smatrix(md, (4,))
        full = data.full
        assert full.shape == (5, 5)
        assert full[2, 2] == data.matrix[0, 0]
        assert np.abs(np.delete(np.delete(full, 2, 0), 2, 1)).max() == 0


class TestFixedPointEntryPoint:
    """``fixed_point_smatrix`` builds each S^J once per theory."""

    def test_lookups_return_the_same_object(self):
        md = md_su2(4)
        j = md.index((4,))
        assert fixed_point_smatrix(md, (4,)) is fixed_point_smatrix(md, j)
        assert fixed_point_smatrix(md, md.vacuum) is fixed_point_smatrix(md, (0,))
        assert fixed_point_smatrix(md, md.vacuum).matrix is md.smatrix
        assert fixed_point_smatrix(md, md.vacuum).full is md.smatrix

    def test_fixed_set_is_built_once(self):
        md = md_su2(4)
        for j in (md.vacuum, md.index((4,))):
            data = fixed_point_smatrix(md, j)
            assert data.fixed_set is data.fixed_set == frozenset(data.fixed)

    def test_new_smatrix_gives_a_fresh_object(self):
        md = md_su2(4)
        old = fixed_point_smatrix(md, (4,))
        md = dataclasses.replace(md, smatrix=md.smatrix.copy())
        new = fixed_point_smatrix(md, (4,))
        assert new is not old
        assert new.fixed == old.fixed
        assert np.array_equal(new.matrix, old.matrix)
        assert fixed_point_smatrix(md, md.vacuum).matrix is md.smatrix

    @pytest.mark.parametrize("algebra,level,fixed", [("A1", 4, (2,)), ("A2", 3, (1, 1))])
    def test_constructions_build_each_current_once(self, algebra, level, fixed, monkeypatch):
        built = []
        build = simplecurrent._fixed_point_data

        def counted(md, j_index):
            built.append(j_index)
            return build(md, j_index)

        monkeypatch.setattr(simplecurrent, "_fixed_point_data", counted)
        md = modular_data(algebra, level)
        group = simple_currents(md)
        extend_by_group(md, group)
        classifying_algebra(md, group)
        fourier_eigendims(md, group, (md.index(fixed),) * 4)
        nontrivial = sorted(j for j in built if j != md.vacuum)
        assert nontrivial == list(group.indices[1:])

    def test_product_with_an_outside_factor(self):
        su2, b2 = md_su2(2), modular_data("B2", 2)
        md = tensor_product(su2, b2)
        group = simple_currents(md)
        assert group.order == 4
        supported = 0
        for j in group.indices[1:]:
            c1, c2 = md.labels[j]
            if c2 == b2.labels[0]:
                data = fixed_point_smatrix(md, j)
                d1 = fixed_point_smatrix(su2, c1)
                assert data.fixed == tuple(d1.fixed[0] * b2.dim + i for i in range(b2.dim))
                assert np.array_equal(data.matrix, d1.matrix[0, 0] * b2.smatrix)
                supported += 1
            else:
                with pytest.raises(UnsupportedFolding, match="B2 level 2"):
                    fixed_point_smatrix(md, j)
        assert supported == 1

    def test_extension_and_orbifold_have_no_nontrivial_sj(self):
        parent = md_su2(4)
        ext = extend_by_group(parent, simple_currents(parent)).md
        orb = assemble_orbifold(inner_orbifold_input(md_su2(2), (1,))).md
        for theory in (ext, orb):
            currents = simple_currents(theory).indices
            assert len(currents) > 1
            assert fixed_point_smatrix(theory, theory.vacuum).matrix is theory.smatrix
            for j in currents[1:]:
                with pytest.raises(UnsupportedFolding):
                    fixed_point_smatrix(theory, j)


def scan_and_snap(md, group, j, jprime, mu):
    """Reference for ``cocycle``: the exponent of F_mu(J, J') read off the
    float rows of S^J.

    Each row lam whose J'-image is J-fixed, with an entry in column mu above
    1e-10, gives the ratio (T_{J' mu} / T_mu) S^J[J' lam, mu] / S^J[lam, mu];
    the ratios must agree within 1e-8, and their value is snapped to the
    nearest exp(2 pi i a/b) with b dividing 10080, which must lie within 1e-8.
    """
    if jprime == md.vacuum:
        return Q(0)
    data = fixed_point_smatrix(md, j)
    if mu not in data.fixed_set:
        raise UnderdeterminedCocycle(f"label index {mu} is not fixed by current index {j}")
    pos = {lab: r for r, lab in enumerate(data.fixed)}
    col = pos[mu]
    tfac = phase_to_complex(md.delta[group.act(jprime, mu)] - md.delta[mu])
    ratios = [
        tfac * data.matrix[pos[moved], col] / data.matrix[pos[lam], col]
        for lam in data.fixed
        if (moved := group.act(jprime, lam)) in pos and abs(data.matrix[pos[lam], col]) > 1e-10
    ]
    assert ratios and all(abs(r - ratios[0]) <= 1e-8 for r in ratios)
    expo = Q(cmath.phase(ratios[0]) / (2 * math.pi)).limit_denominator(10080) % 1
    assert abs(ratios[0] - phase_to_complex(expo)) <= 1e-8
    return expo


def cocycle_outcome(evaluate, md, group, j, jprime, mu):
    """The exponent, or the class of the exception the evaluation raised."""
    try:
        return evaluate(md, group, j, jprime, mu)
    except (UnderdeterminedCocycle, UnsupportedFolding) as exc:
        return type(exc)


class TestCocycle:
    def test_identity_slot_gives_current_spin_phase(self):
        md = md_su2(2)
        g = simple_currents(md)
        assert cocycle(md, g, md.vacuum, md.index((2,)), 1) == Q(1, 2)

    def test_current_slot_on_own_fixed_point_is_trivial(self):
        md = md_su2(2)
        g = simple_currents(md)
        j = md.index((2,))
        assert cocycle(md, g, j, j, 1) == 0

    def test_off_fixed_point_column_is_undefined(self):
        md = md_su2(2)
        g = simple_currents(md)
        with pytest.raises(UnderdeterminedCocycle):
            cocycle(md, g, md.index((2,)), md.index((2,)), 0)

    def test_triple_product_cocycle_sign(self):
        md = su2_cube(2)
        g = simple_currents(md)
        j022 = md.index((((0,), (2,)), (2,)))
        j202 = md.index((((2,), (0,)), (2,)))
        f = md.index((((1,), (1,)), (1,)))
        sub = g.subgroup((j022, j202))
        assert cocycle(md, sub, j022, j202, f) == Q(1, 2)

    # (J, J', mu) over group x group x labels: 14,687 triples in the first six
    # rows, 6,452 of them off J's fixed set; the last two hold currents with
    # no S^J, which raise UnsupportedFolding on both sides.
    @pytest.mark.parametrize(
        "theories,triples,underdetermined,unsupported",
        [
            pytest.param(lambda: [md_su2(k) for k in range(1, 41)], 3440, 840, 0, id="A1-1..40"),
            pytest.param(
                lambda: [modular_data("A2", k) for k in range(1, 16)], 7335, 3240, 0, id="A2-1..15"
            ),
            pytest.param(lambda: [tensor_product(md_su2(2), md_su2(2))], 144, 60, 0, id="A1-2^2"),
            pytest.param(lambda: [su2_cube(2)], 1728, 1064, 0, id="A1-2^3"),
            pytest.param(lambda: [tensor_product(md_su2(4), md_su2(2))], 240, 108, 0, id="A1-4*A1-2"),
            pytest.param(
                lambda: [tensor_product(modular_data("A2", 3), md_su2(4))], 1800, 1140, 0, id="A2-3*A1-4"
            ),
            pytest.param(
                lambda: [tensor_product(md_su2(2), modular_data("B2", 2))], 288, 36, 108, id="A1-2*B2-2"
            ),
            pytest.param(
                lambda: [
                    extend_by_group(md_su2(4), simple_currents(md_su2(4))).md,
                    assemble_orbifold(inner_orbifold_input(md_su2(2), (1,))).md,
                ],
                795,
                0,
                600,
                id="extension-and-orbifold",
            ),
        ],
    )
    def test_closed_form_matches_the_row_scan(self, theories, triples, underdetermined, unsupported):
        outcomes = []
        for md in theories():
            g = simple_currents(md)
            for j, jprime, mu in itertools.product(g.indices, g.indices, range(md.dim)):
                got = cocycle_outcome(cocycle, md, g, j, jprime, mu)
                assert got == cocycle_outcome(scan_and_snap, md, g, j, jprime, mu), (j, jprime, mu)
                outcomes.append(got)
        assert len(outcomes) == triples
        assert outcomes.count(UnderdeterminedCocycle) == underdetermined
        assert outcomes.count(UnsupportedFolding) == unsupported
        assert all(isinstance(f, Q) and 0 <= f < 1 for f in outcomes if not isinstance(f, type))

    def test_a_label_outside_the_group_is_refused(self):
        md = md_su2(4)
        g = simple_currents(md)
        with pytest.raises(PreconditionError, match="index 1 is not a current"):
            cocycle(md, g, 0, 1, 2)
        with pytest.raises(PreconditionError, match="index 1 is not a current"):
            cocycle(md, g, 1, 0, 2)

    def test_a_current_outside_a_subgroup_is_refused(self):
        md, sub, f = klein_four_cube()
        j = next(j for j in simple_currents(md).indices if j not in sub.perms)
        with pytest.raises(PreconditionError, match=f"index {j} is not a current"):
            cocycle(md, sub, md.vacuum, j, f)

    @pytest.mark.parametrize("mu", [5, 7, -1])
    def test_a_column_outside_the_labels_is_refused(self, mu):
        md = md_su2(4)
        g = simple_currents(md)
        with pytest.raises(PreconditionError, match=f"label index {mu} is not below 5"):
            cocycle(md, g, 0, 4, mu)

    @pytest.mark.parametrize("j", [-1, 5])
    def test_fixed_point_smatrix_refuses_an_index_outside_the_labels(self, j):
        md = md_su2(4)
        with pytest.raises(PreconditionError, match=f"current index {j} is not below 5"):
            fixed_point_smatrix(md, j)

    def test_fixed_point_smatrix_refuses_a_label_outside_the_theory(self):
        md = md_su2(4)
        with pytest.raises(PreconditionError, match=r"\(7,\) is not a label of A1 level 4"):
            fixed_point_smatrix(md, (7,))


def cyclic(n):
    return range(n), lambda x, y: (x + y) % n, 0


def tuple_group(algebra, level, label, m):
    """The untwisted tuple group of m insertions of one label."""
    md = modular_data(algebra, level)
    group = simple_currents(md)

    def compose(a, b):
        return tuple(group.compose(x, y) for x, y in zip(a, b))

    insertions = (md.index(label),) * m
    return untwisted_tuples(md, group, insertions), compose, (md.vacuum,) * m


def klein_four():
    md, sub, _ = klein_four_cube()
    return sub.indices, sub.compose, md.vacuum


def center(algebra, level):
    md = modular_data(algebra, level)
    group = simple_currents(md)
    return group.indices, group.compose, md.vacuum


CHARACTER_GROUPS = (
    [pytest.param(lambda n=n: cyclic(n), id=f"Z{n}") for n in range(2, 13)]
    + [pytest.param(klein_four, id="klein-four")]
    + [
        pytest.param(lambda m=m: tuple_group("A1", 4, (2,), m), id=f"A1-4-m{m}")
        for m in range(1, 11)
    ]
    + [
        pytest.param(lambda m=m: tuple_group("A2", 3, (1, 1), m), id=f"A2-3-m{m}")
        for m in range(1, 6)
    ]
    + [pytest.param(lambda: center("A3", 1), id="A3-center")]
)


class TestCharacters:
    def test_z2_characters(self):
        md = md_su2(2)
        g = simple_currents(md)
        nums, d = abelian_characters(g.indices, g.compose, 0)
        assert d == 2
        assert nums.tolist() == [[0, 0], [0, 1]]
        assert g.indices == (0, md.index((2,)))

    def test_z3_characters(self):
        md = modular_data("A2", 1)
        g = simple_currents(md)
        nums, d = abelian_characters(g.indices, g.compose, 0)
        assert d == 3
        assert sorted(nums[:, 1].tolist()) == [0, 1, 2]

    def test_klein_four_characters(self):
        elems, compose, identity = klein_four()
        nums, d = abelian_characters(elems, compose, identity)
        assert nums.shape == (4, 4) and d == 4
        assert set(nums.ravel().tolist()) == {0, 2}

    @pytest.mark.parametrize("build", CHARACTER_GROUPS)
    def test_numerators_match_the_fraction_extension(self, build):
        elems, compose, identity = build()
        nums, d = abelian_characters(elems, compose, identity)
        assert nums.dtype == np.int64 and d == len(set(elems))
        order = sorted(set(elems))
        expected = [[ch[e] * d for e in order] for ch in fraction_characters(elems, compose, identity)]
        assert nums.tolist() == expected

    def test_a_remainder_is_an_internal_error(self):
        # {0, 1, 2} under addition mod 4 is no group: 1 has order 4, which
        # does not divide 3, so its exponents are no numerators over 3
        with pytest.raises(InternalConsistencyError, match="not d-th roots of unity, d = 3"):
            abelian_characters(range(3), lambda x, y: (x + y) % 4, 0)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["radix", "shuffled"])
    @pytest.mark.parametrize(
        "factors",
        [(n,) for n in range(1, 13)]
        + [(2,) * k for k in range(2, 6)]
        + [(4, 2), (2, 6), (3, 3), (4, 4), (2, 2, 4)],
        ids=lambda f: "x".join(f"Z{d}" for d in f),
    )
    def test_non_basis_generators_match_the_all_pairs_check(self, factors, shuffled):
        # Group elements are coordinate lists; their labels are mixed-radix
        # integers (first factor most significant) or a seeded shuffle of
        # them.  Shuffled labels put the identity anywhere, and in several of
        # these groups they make the extension meet an element g whose power
        # g^n falls into the span before g^n is the identity, so the
        # generators met are not a basis.
        order = math.prod(factors)

        def coords(e):
            out = []
            for d in reversed(factors):
                e, c = divmod(e, d)
                out.append(c)
            return out[::-1]

        def radix(cs):
            e = 0
            for c, d in zip(cs, factors):
                e = e * d + c % d
            return e

        label = list(range(order))
        if shuffled:
            random.Random(order).shuffle(label)
        unlabel = {lab: e for e, lab in enumerate(label)}

        def compose(x, y):
            cx, cy = coords(unlabel[x]), coords(unlabel[y])
            return label[radix([a + b for a, b in zip(cx, cy)])]

        elems = range(order)
        exponent = math.lcm(*factors)
        expected = []
        for xs in itertools.product([Q(i, exponent) for i in range(exponent)], repeat=len(factors)):
            char = {
                e: sum((c * x for c, x in zip(coords(unlabel[e]), xs)), Q(0)) % 1
                for e in elems
            }
            if all((char[a] + char[b] - char[compose(a, b)]) % 1 == 0 for a in elems for b in elems):
                expected.append(char)
        expected.sort(key=lambda ch: tuple(ch[e] for e in elems))
        assert len(expected) == order
        nums, d = abelian_characters(elems, compose, label[0])
        assert [{e: Q(v, d) for e, v in zip(elems, row)} for row in nums.tolist()] == expected


class TestOrbitData:
    def test_su2_level2_flags_fractional_spin(self):
        md = md_su2(2)
        g = simple_currents(md)
        recs = orbit_data(md, g)
        assert all(not r.integer_spins for r in recs)
        fixed = [r for r in recs if r.orbit == (1,)][0]
        assert fixed.stabilizer == (0, 2)
        assert fixed.untwisted_stabilizer is None
        assert fixed.cocycle_values[(0, 2)] == Q(1, 2)

    def test_su2_level4_untwisted_stabilizer_is_full(self):
        md = md_su2(4)
        g = simple_currents(md)
        recs = orbit_data(md, g)
        fixed = [r for r in recs if r.orbit == (2,)][0]
        assert fixed.integer_spins
        assert fixed.untwisted_stabilizer == (0, 4)
        assert fixed.degeneracy == 1

    def test_triple_product_fixed_point_degeneracy(self):
        md = su2_cube(2)
        g = simple_currents(md)
        j022 = md.index((((0,), (2,)), (2,)))
        j202 = md.index((((2,), (0,)), (2,)))
        sub = g.subgroup((j022, j202))
        recs = orbit_data(md, sub)
        f = md.index((((1,), (1,)), (1,)))
        rec = [r for r in recs if r.representative == f][0]
        assert rec.orbit == (f,)
        assert len(rec.stabilizer) == 4
        assert rec.untwisted_stabilizer == (0,)
        assert rec.degeneracy == 2


class TestExtensions:
    def test_half_integer_current_rejected(self):
        md = md_su2(2)
        g = simple_currents(md)
        with pytest.raises(ExtensionRejected):
            extend_by_group(md, g)

    def test_su2_level4_extension_matches_su3_level1(self):
        md = md_su2(4)
        ext = extend_by_group(md, simple_currents(md))
        assert len(ext.classes) == 3
        s = ext.md.smatrix
        r3 = 1 / math.sqrt(3)
        assert abs(s[0, 0] - r3) < 1e-9
        assert abs(s[0, 1] - r3) < 1e-9 and abs(s[0, 2] - r3) < 1e-9
        w = complex(-0.5, math.sqrt(3) / 2)
        target = np.array([[r3, r3, r3], [r3, r3 * w, r3 * w.conjugate()], [r3, r3 * w.conjugate(), r3 * w]])
        assert match_up_to_bijection(s, target)
        su3 = modular_data("A2", 1)
        assert match_up_to_bijection(s, su3.smatrix)

    def test_su2_level4_extension_ring_is_z3(self):
        md = md_su2(4)
        ext = extend_by_group(md, simple_currents(md))
        n = verlinde_tensor(ext.md)
        for a in range(3):
            assert n[a].sum() == 3  # each row of each matrix has a single 1
        assert n[1, 1, 2] == 1 or n[1, 1, 0] == 1

    def test_su2_level4_invariant_matrix(self):
        md = md_su2(4)
        ext = extend_by_group(md, simple_currents(md))
        z = ext.zmatrix
        assert z[0, 0] == z[0, 4] == z[4, 0] == z[4, 4] == 1
        assert z[2, 2] == 2
        assert z[1, 1] == 0 and z[1, 3] == 0
        assert np.trace(z) == 4

    def test_su2_level8_extension_has_four_primaries(self):
        md = md_su2(8)
        ext = extend_by_group(md, simple_currents(md))
        assert len(ext.classes) == 4
        reps = sorted({c.rep for c in ext.classes})
        assert reps == [0, 2, 4]

    def test_su3_level3_extension_matches_so8_level1(self):
        md = modular_data("A2", 3)
        ext = extend_by_group(md, simple_currents(md))
        assert len(ext.classes) == 4
        target = 0.5 * np.array(
            [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex
        )
        assert match_up_to_bijection(ext.md.smatrix, target)

    def test_su3_level3_parent_fixed_block_entry(self):
        md = modular_data("A2", 3)
        i = md.index((1, 1))
        assert abs(md.smatrix[i, i] - (-0.5)) < 1e-9

    def test_triple_product_extension_matches_so9_level1(self):
        md = su2_cube(2)
        g = simple_currents(md)
        j022 = md.index((((0,), (2,)), (2,)))
        j202 = md.index((((2,), (0,)), (2,)))
        sub = g.subgroup((j022, j202))
        ext = extend_by_group(md, sub)
        assert len(ext.classes) == 3
        r2 = 1 / math.sqrt(2)
        target = np.array(
            [[0.5, 0.5, r2], [0.5, 0.5, -r2], [r2, -r2, 0.0]], dtype=complex
        )
        assert match_up_to_bijection(ext.md.smatrix, target)
        deltas = sorted(ext.md.delta)
        assert deltas == [Q(0), Q(1, 2), Q(9, 16)]
        assert ext.md.central_charge == Q(9, 2)
        assert np.trace(ext.zmatrix) == 12

    def test_extension_preserves_central_charge(self):
        md = md_su2(4)
        ext = extend_by_group(md, simple_currents(md))
        assert ext.md.central_charge == md.central_charge == Q(2)


class TestSjCharacterMatrix:
    @staticmethod
    def entrywise_extension(ext):
        group = ext.group
        rows = [
            (c.rep, dict(c.char), len(group.stabilizer(c.rep)) * len(c.char)) for c in ext.classes
        ]
        return entrywise_sj_sum(ext.parent, group.order, rows, rows)

    @pytest.mark.parametrize("algebra,level", SJ_THEORIES)
    def test_extension_matches_the_entrywise_sum(self, algebra, level):
        md = modular_data(algebra, level)
        ext = extend_by_group(md, simple_currents(md))
        expected = self.entrywise_extension(ext)
        if algebra == "A1":
            assert np.array_equal(ext.md.smatrix, expected)
        else:
            assert np.abs(ext.md.smatrix - expected).max() < 1e-14

    def test_klein_four_extension_matches_the_entrywise_sum(self):
        md, group, _ = klein_four_cube()
        ext = extend_by_group(md, group)
        assert np.abs(ext.md.smatrix - self.entrywise_extension(ext)).max() < 1e-14

    def test_fetches_only_currents_shared_by_rows_and_columns(self, monkeypatch):
        md = modular_data("A1", 4)
        j = md.index((4,))
        fixed = md.index((2,))
        fetched = []
        lookup = simplecurrent.fixed_point_smatrix

        def counted(theory, current):
            if current != theory.vacuum:  # the identity S^J is S itself
                fetched.append(current)
            return lookup(theory, current)

        monkeypatch.setattr(simplecurrent, "fixed_point_smatrix", counted)
        rows = [(fixed, {md.vacuum: Q(0), j: Q(1, 2)}, 4)]
        cols = [(fixed, {md.vacuum: Q(0)}, 4), (md.vacuum, {md.vacuum: Q(0)}, 1)]
        out = sj_character_matrix(md, 2, rows, cols)
        assert fetched == []
        assert np.array_equal(out, entrywise_sj_sum(md, 2, rows, cols))
        sj_character_matrix(md, 2, rows, rows)
        assert fetched == [j]
