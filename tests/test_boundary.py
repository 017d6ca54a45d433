"""Classifying algebras: labels, hat matrix, structure constants, ideals."""

from __future__ import annotations

import re
from fractions import Fraction as Q

import numpy as np
import pytest

from wzwkit.affine import modular_data
from wzwkit.boundary import (
    HatLabel,
    _label_data,
    _structure_constants,
    automorphism_type_decomposition,
    classifying_algebra,
    hat_smatrix,
    match_up_to_column_signs,
    reflection_coefficients,
    structure_constants,
    z2_wzw_hat_table,
)
from wzwkit.errors import (
    InvariantViolation,
    PreconditionError,
    UnderdeterminedCocycle,
    UnsupportedFolding,
)
from wzwkit.fusion import simple_currents, verlinde_tensor
from wzwkit.orbifold import assemble_orbifold, dual_current_label, inner_orbifold_input
from wzwkit.simplecurrent import (
    _orbit_labels,
    _stabilizer_data,
    extend_by_group,
    fixed_point_smatrix,
)

from test_blocks import klein_four_cube
from test_simplecurrent import SJ_THEORIES, entrywise_sj_sum


@pytest.fixture(scope="module")
def su2_level3():
    return modular_data("A1", 3)


@pytest.fixture(scope="module")
def trivial_algebra(su2_level3):
    group = simple_currents(su2_level3).subgroup(())
    return classifying_algebra(su2_level3, group)


def orbifold_setup(level):
    parent = modular_data("A1", level)
    orb = assemble_orbifold(inner_orbifold_input(parent, (1,)))
    idx = orb.md.index(dual_current_label(parent))
    dual = simple_currents(orb.md).subgroup((idx,))
    return parent, orb, dual


@pytest.fixture(scope="module")
def z2_level2():
    return orbifold_setup(2)


@pytest.fixture(scope="module")
def z2_level4():
    return orbifold_setup(4)


class TestTrivialGroup:
    def test_labels_are_the_sectors(self, trivial_algebra):
        hats, boundaries = trivial_algebra.hat_labels, trivial_algebra.boundary_labels
        assert len(hats) == len(boundaries) == 4
        assert hats[0] == HatLabel(0, ((0, Q(0)),))
        assert [h.sector for h in hats] == [0, 1, 2, 3]
        assert [b.rep for b in boundaries] == [0, 1, 2, 3]
        assert all(b.orbit == (b.rep,) for b in boundaries)

    def test_hat_matrix_is_the_s_matrix(self, trivial_algebra, su2_level3):
        assert np.abs(trivial_algebra.smatrix - su2_level3.smatrix).max() < 1e-12

    def test_structure_constants_are_the_fusion_ring(self, trivial_algebra, su2_level3):
        n = verlinde_tensor(su2_level3)
        assert np.abs(trivial_algebra.nhat - n).max() < 1e-8
        assert np.array_equal(np.round(trivial_algebra.nhat.real), n)

    def test_reflection_row_of_the_unit(self, trivial_algebra):
        refl = trivial_algebra.reflection
        assert np.abs(refl[0] - 1).max() < 1e-12

    def test_single_automorphism_type(self, trivial_algebra):
        dec = automorphism_type_decomposition(trivial_algebra)
        assert dec.parts == (("1", (0, 1, 2, 3)),)
        assert dec.residual < 1e-8


class TestZ2Orbifold:
    def test_label_counts(self, z2_level2):
        _, orb, dual = z2_level2
        ca = classifying_algebra(orb.md, dual)
        hats, boundaries = ca.hat_labels, ca.boundary_labels
        assert len(hats) == len(boundaries) == 6
        assert all(orb.md.labels[h.sector][2] == 0 for h in hats)
        assert [b.rep for b in boundaries] == [0, 2, 4, 6, 8, 10]
        assert all(len(b.orbit) == 2 for b in boundaries)

    def test_hat_matrix_matches_explicit_table(self, z2_level2):
        _, orb, dual = z2_level2
        ca = classifying_algebra(orb.md, dual)
        table = z2_wzw_hat_table(orb)
        signs = match_up_to_column_signs(ca.smatrix, table)
        assert signs == (1,) * 6

    def test_hat_matrix_matches_explicit_table_level_four(self, z2_level4):
        _, orb, dual = z2_level4
        ca = classifying_algebra(orb.md, dual)
        signs = match_up_to_column_signs(ca.smatrix, z2_wzw_hat_table(orb))
        assert signs == (1,) * 10

    def test_metric_is_twice_the_identity(self, z2_level2):
        _, orb, dual = z2_level2
        ca = classifying_algebra(orb.md, dual)
        gram = ca.smatrix @ ca.smatrix.T
        assert np.abs(gram - 2 * np.eye(6)).max() < 1e-10

    def test_frozen_structure_constants(self, z2_level2):
        _, orb, dual = z2_level2
        ca = classifying_algebra(orb.md, dual)
        # hats 2, 3 are the resolved (1,) doublet; 0, 1 the vacuum doublet
        assert ca.nhat[2, 2, 0].real == pytest.approx(1.0, abs=1e-9)
        assert ca.nhat[2, 2, 1].real == pytest.approx(0.0, abs=1e-9)
        assert ca.nhat[2, 3, 0].real == pytest.approx(0.0, abs=1e-9)
        assert ca.nhat[2, 3, 1].real == pytest.approx(1.0, abs=1e-9)

    def test_structure_constant_display_identity(self, z2_level4):
        parent, orb, dual = z2_level4
        ca = classifying_algebra(orb.md, dual)
        n = verlinde_tensor(parent)
        s0 = orb.input.s0
        n0 = np.einsum("lk,mk,nk->lmn", s0, s0, s0 / s0[0]).real
        dim = parent.dim
        for lh in range(2 * dim):
            for mh in range(2 * dim):
                for nh in range(2 * dim):
                    lam, ml, nl = lh // 2, mh // 2, nh // 2
                    eps = (-1) ** (lh + mh + nh)
                    eta = (-1) ** (lam + ml + nl)
                    expected = 0.5 * (n[lam, ml, nl] + eps * eta * n0[lam, ml, nl])
                    assert ca.nhat[lh, mh, nh].real == pytest.approx(
                        expected, abs=1e-8
                    ), (lh, mh, nh)

    def test_representation_property_residual(self, z2_level4):
        _, orb, dual = z2_level4
        ca = classifying_algebra(orb.md, dual)
        assert ca.residuals["representation_property"] < 1e-8
        assert ca.residuals["commutativity"] < 1e-12

    def test_reflection_coefficients_unit_row(self, z2_level2):
        _, orb, dual = z2_level2
        ca = classifying_algebra(orb.md, dual)
        refl = ca.reflection
        assert np.abs(refl[0] - 1).max() < 1e-10

    def test_automorphism_types_split_by_twist(self, z2_level2):
        _, orb, dual = z2_level2
        ca = classifying_algebra(orb.md, dual)
        dec = automorphism_type_decomposition(ca)
        assert dec.parts == (("1", (0, 1, 2)), ("sigma", (3, 4, 5)))
        assert dec.residual < 1e-8

    def test_automorphism_types_level_four(self, z2_level4):
        _, orb, dual = z2_level4
        dec = automorphism_type_decomposition(classifying_algebra(orb.md, dual))
        assert dec.parts == (("1", (0, 1, 2, 3, 4)), ("sigma", (5, 6, 7, 8, 9)))


def boundary_count_cases():
    """(theory, group, tr Z): the integer-spin groups of the criterion-9 suite,
    then the full centers of A1 at levels 4-16 and A2 at levels 3-9."""
    md = modular_data("A1", 3)
    yield md, simple_currents(md).subgroup(()), 4
    for level, trace in ((2, 6), (4, 10)):
        _, orb, dual = orbifold_setup(level)
        yield orb.md, dual, trace
    for label, level, trace in [("A1", 4, 4), ("A1", 8, 6), ("A1", 12, 8), ("A1", 16, 10),
                                ("A2", 3, 6), ("A2", 6, 12), ("A2", 9, 21)]:
        md = modular_data(label, level)
        yield md, simple_currents(md), trace


class TestBoundaryCount:
    def test_boundary_labels_count_the_ishibashi_states(self):
        # completeness: as many boundary labels as Ishibashi states, tr Z
        # (hep-th/0007174); tr ZC differs, 15 at A2 level 9
        for md, group, trace in boundary_count_cases():
            algebra = classifying_algebra(md, group)
            zmatrix = extend_by_group(md, group).zmatrix
            counts = (algebra.dim, len(algebra.boundary_labels), int(np.trace(zmatrix)))
            assert counts == (trace,) * 3, (md.algebra, md.level)
        md = modular_data("A2", 9)
        zmatrix, conj = extend_by_group(md, simple_currents(md)).zmatrix, md.conjugation_permutation()
        assert sum(zmatrix[a][conj[a]] for a in range(md.dim)) == 15


class TestGuards:
    def test_singular_hat_matrix_rejected(self):
        with pytest.raises(InvariantViolation):
            structure_constants(np.ones((2, 2)))

    def test_vanishing_vacuum_row_rejected(self):
        with pytest.raises(InvariantViolation):
            reflection_coefficients(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(PreconditionError):
            structure_constants(np.ones((2, 3)))

    def test_checked_structure_constants_are_associative(self):
        rng = np.random.default_rng(7)
        shat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        n = structure_constants(shat)
        left = np.einsum("lmr,rkn->lmkn", n, n)
        right = np.einsum("mkr,lrn->lmkn", n, n)
        assert np.abs(left - right).max() < 1e-8

    def test_representation_residual_matches_the_per_column_loop(self):
        # condition number 1e5 puts the residual far above rounding in the last product
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        v, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        shat = u @ np.diag(np.geomspace(1, 1e-5, 8)) @ v
        nhat, refl, residuals = _structure_constants(shat, 1e-6)
        loop = max(
            np.abs(np.outer(col, col) - np.einsum("lmn,n->lm", nhat, col)).max() for col in refl.T
        )
        # a-priori bound on the difference of two summation orders (Higham, ch. 4)
        bound = 2 * len(refl) * np.finfo(float).eps * (np.abs(nhat) @ np.abs(refl)).max()
        assert abs(residuals["representation_property"] - loop) <= bound

    def test_sign_match_failure_is_reported(self):
        a = np.eye(2)
        b = np.array([[1.0, 0.5], [0.0, 0.5]])
        with pytest.raises(InvariantViolation):
            match_up_to_column_signs(a, b)

    def test_sign_match_shape_guard(self):
        with pytest.raises(PreconditionError):
            match_up_to_column_signs(np.eye(2), np.eye(3))

    def test_sign_match_finds_flips(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = a.copy()
        b[:, 1] *= -1
        assert match_up_to_column_signs(a, b) == (1, -1)


class TestHatMatrixOracle:
    @staticmethod
    def entrywise_hat(md, group):
        hats, boundaries, _ = _label_data(md, group)

        def weight(mu):
            stab, _, u = _stabilizer_data(md, group, mu)
            return len(stab) * len(u)

        rows = [(h.sector, dict(h.char), weight(h.sector)) for h in hats]
        cols = [(b.rep, dict(b.char), weight(b.rep)) for b in boundaries]
        return entrywise_sj_sum(md, group.order, rows, cols)

    @pytest.mark.parametrize("algebra,level", SJ_THEORIES)
    def test_center_hat_matrix_matches_the_entrywise_sum(self, algebra, level):
        md = modular_data(algebra, level)
        group = simple_currents(md)
        shat = hat_smatrix(md, group)
        expected = self.entrywise_hat(md, group)
        if algebra == "A1":
            assert np.array_equal(shat, expected)
        else:
            assert np.abs(shat - expected).max() < 1e-14

    def test_klein_four_hat_matrix_matches_the_entrywise_sum(self):
        md, group, _ = klein_four_cube()
        assert np.abs(hat_smatrix(md, group) - self.entrywise_hat(md, group)).max() < 1e-14

    @pytest.mark.parametrize("level", [2, 4])
    def test_orbifold_dual_current_hat_matrix_matches_the_entrywise_sum(self, level):
        # the orbifold theory has no S^J for its dual current: only S^J of
        # the identity may be fetched
        _, orb, dual = orbifold_setup(level)
        with pytest.raises(UnsupportedFolding, match="/orb"):
            fixed_point_smatrix(orb.md, dual.indices[1])
        shat = hat_smatrix(orb.md, dual)
        assert np.array_equal(shat, self.entrywise_hat(orb.md, dual))


class TestOrbitLabels:
    """The boundary labels come from one pass over the orbits, which reads the
    stabilizer data of each orbit's least member only."""

    @pytest.mark.parametrize("level", [2, 6])
    def test_fractional_spin_fixed_point_is_unsupported(self, level):
        md = modular_data("A1", level)
        fixed = (level // 2,)
        message = f"label {fixed} (index {md.index(fixed)}) is a fixed point of nonzero"
        with pytest.raises(UnderdeterminedCocycle, match=re.escape(message)):
            classifying_algebra(md, simple_currents(md))

    @staticmethod
    def theories():
        for level in range(1, 13):
            md = modular_data("A1", level)
            yield f"A1-{level}", md, simple_currents(md)
        for level in range(1, 10):
            md = modular_data("A2", level)
            yield f"A2-{level}", md, simple_currents(md)
        md, group, _ = klein_four_cube()
        yield "cube-klein", md, group
        for level in (2, 4):
            _, orb, dual = orbifold_setup(level)
            yield f"orbifold-{level}", orb.md, dual

    def test_stabilizer_data_is_constant_along_orbits(self):
        for name, md, group in self.theories():
            for orbit in group.orbits():
                record = _stabilizer_data(md, group, orbit[0])[::2]
                for mu in orbit[1:]:
                    assert _stabilizer_data(md, group, mu)[::2] == record, (name, mu)

    def test_labels_in_rep_and_character_order_with_every_sector_record(self):
        for name, md, group in self.theories():
            if name in {"A1-2", "A1-6", "A1-10"}:  # fractional-spin fixed points
                continue
            labels, records = _orbit_labels(md, group)
            assert labels == tuple(sorted(labels, key=lambda b: (b.rep, b.char))), name
            assert sorted(records) == list(range(md.dim)), name
            for mu, record in records.items():
                stab, _, u = _stabilizer_data(md, group, mu)
                assert record == (stab, len(stab) * len(u)), (name, mu)
