"""Z2 orbifold assembly, structural checks, and the trace conjecture."""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction as Q

import numpy as np
import pytest

from wzwkit.affine import modular_data
from wzwkit.errors import (
    ConjectureViolation,
    InvariantViolation,
    PrecisionExhausted,
    PreconditionError,
)
from wzwkit.exact import phase_to_complex
from wzwkit.fusion import simple_currents
from wzwkit.orbifold import (
    OrbifoldInput,
    assemble_orbifold,
    conjecture2_trace,
    dual_current_label,
    inner_orbifold_input,
)
from wzwkit.simplecurrent import extend_by_group


def ladder_smatrix(oin, p):
    """Reference for ``_orbifold_smatrix``: every entry from its pair of labels."""
    base = oin.md.smatrix
    n = oin.md.dim
    labels = [(i, eps, k) for k in (0, 1) for i in range(n) for eps in (1, -1)]
    so = np.zeros((len(labels), len(labels)), dtype=complex)
    for a, (ia, ea, ka) in enumerate(labels):
        for b, (ib, eb, kb) in enumerate(labels):
            if ka == 0 and kb == 0:
                so[a, b] = 0.5 * base[ia, ib]
            elif ka == 0 and kb == 1:
                so[a, b] = 0.5 * ea / oin.eta(ia) * oin.s0[ia, ib]
            elif ka == 1 and kb == 0:
                so[a, b] = 0.5 * eb / oin.eta(ib) * oin.s0[ib, ia]
            else:
                so[a, b] = 0.5 * ea * eb * p[ia, ib]
    return so


def halved_t_pmatrix(oin):
    """Reference for ``_pmatrix`` through the twining T of the halved
    exponents: t0 = t/2 mod 1 and the middle factor 2(t0 - eta) mod 1."""
    half = np.array([phase_to_complex(x / 2) for x in oin.t1_exponents])
    t0 = [(t / 2) % 1 for t in oin.md.t_exponents]
    mid = np.array(
        [phase_to_complex((2 * (x - oin.eta_exponents[i])) % 1) for i, x in enumerate(t0)]
    )
    return (half[:, None] * half[None, :]) * (oin.s0.T @ (mid[:, None] * oin.s0))


@dataclass(frozen=True, eq=False)
class WithTwiningMatrix(OrbifoldInput):
    """An inner input whose twining matrix is ``twining`` in place of S."""

    twining: np.ndarray = None

    @classmethod
    def of(cls, oin, twining):
        return cls(oin.md, oin.eta_exponents, oin.t1_exponents, twining)

    @property
    def s0(self):
        return self.twining


@pytest.fixture(scope="module")
def su2_level2():
    return modular_data("A1", 2)


@pytest.fixture(scope="module")
def su2_level4():
    return modular_data("A1", 4)


@pytest.fixture(scope="module")
def orb_level2(su2_level2):
    return assemble_orbifold(inner_orbifold_input(su2_level2, (1,)))


@pytest.fixture(scope="module")
def orb_level4(su2_level4):
    return assemble_orbifold(inner_orbifold_input(su2_level4, (1,)))


class TestInnerInput:
    def test_eta_is_parity_of_the_label(self, su2_level2):
        oin = inner_orbifold_input(su2_level2, (1,))
        assert [oin.eta_exponents[i] for i in range(3)] == [0, Q(1, 2), 0]
        assert [oin.eta(i) for i in range(3)] == pytest.approx([1, -1, 1])

    def test_eta_at_level_four(self, su2_level4):
        oin = inner_orbifold_input(su2_level4, (1,))
        assert [oin.eta(i).real for i in range(5)] == pytest.approx([1, -1, 1, -1, 1])

    def test_all_labels_fixed_and_twining_matrix_is_s(self, su2_level2):
        oin = inner_orbifold_input(su2_level2, (1,))
        assert np.array_equal(oin.s0, su2_level2.smatrix)

    def test_twisted_t_exponents_level_two(self, su2_level2):
        oin = inner_orbifold_input(su2_level2, (1,))
        assert oin.t1_exponents == (Q(7, 8), Q(1, 4), Q(15, 8))

    def test_zero_shift_rejected(self, su2_level2):
        with pytest.raises(PreconditionError):
            inner_orbifold_input(su2_level2, (0,))

    def test_even_shift_acts_trivially(self, su2_level2):
        with pytest.raises(PreconditionError):
            inner_orbifold_input(su2_level2, (2,))

    def test_shift_must_act_by_signs(self, su2_level2):
        with pytest.raises(PreconditionError):
            inner_orbifold_input(su2_level2, (Q(1, 3),))

    def test_shift_length_checked(self, su2_level2):
        with pytest.raises(PreconditionError):
            inner_orbifold_input(su2_level2, (1, 1))

    def test_su3_has_no_inner_sign_symmetry(self):
        md = modular_data("A2", 1)
        with pytest.raises(PreconditionError):
            inner_orbifold_input(md, (1, 1))


class TestAssembleLevelTwo:
    def test_label_set(self, orb_level2):
        assert orb_level2.md.dim == 12
        assert orb_level2.md.labels[0] == ((0,), 1, 0)
        assert orb_level2.md.labels[1] == ((0,), -1, 0)
        untwisted = [lab for lab in orb_level2.md.labels if lab[2] == 0]
        twisted = [lab for lab in orb_level2.md.labels if lab[2] == 1]
        assert len(untwisted) == len(twisted) == 6

    def test_residuals_within_tolerance(self, orb_level2):
        assert orb_level2.residuals
        assert max(orb_level2.residuals.values()) < 1e-8
        assert "twining_square_permutation" in orb_level2.residuals
        assert "pmatrix_square_match" in orb_level2.residuals

    def test_vacuum_row_entries(self, orb_level2, su2_level2):
        s = su2_level2.smatrix
        assert orb_level2.smatrix[0, 0] == pytest.approx(s[0, 0] / 2)
        # both twisted signs couple to the vacuum with the same strength
        assert orb_level2.smatrix[0, 6] == pytest.approx(s[0, 0] / 2)
        assert orb_level2.smatrix[0, 7] == pytest.approx(s[0, 0] / 2)

    def test_fixed_twisted_entry_carries_eta(self, orb_level2, su2_level2):
        # row ((1,), +1, 0), column ((0,), +1, 1): eta_1 = -1 flips the sign
        s = su2_level2.smatrix
        assert orb_level2.smatrix[2, 6] == pytest.approx(-s[1, 0] / 2)
        assert orb_level2.smatrix[3, 6] == pytest.approx(s[1, 0] / 2)

    def test_twisted_conformal_weights(self, orb_level2):
        t = [e % 1 for e in orb_level2.md.t_exponents]
        assert t[6] == Q(7, 16)
        assert t[7] == Q(15, 16)
        assert t[8] == Q(1, 8)
        assert t[9] == Q(5, 8)
        assert t[10] == Q(15, 16)
        assert t[11] == Q(7, 16)

    def test_dual_current_present(self, orb_level2, su2_level2):
        label = dual_current_label(su2_level2)
        assert label == ((0,), -1, 0)
        idx = orb_level2.md.index(label)
        group = simple_currents(orb_level2.md)
        assert idx in group.indices
        assert group.element_order(idx) == 2

    def test_extension_by_dual_current_recovers_parent(self, orb_level2, su2_level2):
        idx = orb_level2.md.index(dual_current_label(su2_level2))
        z2 = simple_currents(orb_level2.md).subgroup((idx,))
        assert z2.order == 2
        ext = extend_by_group(orb_level2.md, z2)
        assert len(ext.classes) == 3
        reps = [orb_level2.md.labels[c.rep] for c in ext.classes]
        assert [r[0] for r in reps] == list(su2_level2.labels)
        assert all(r[2] == 0 for r in reps)
        assert np.abs(ext.md.smatrix - su2_level2.smatrix).max() < 1e-10
        assert ext.md.delta == su2_level2.delta


class TestAssembleLevelFour:
    def test_dimensions(self, orb_level4):
        assert orb_level4.md.dim == 20
        assert orb_level4.pmatrix.shape == (5, 5)

    def test_residuals_within_tolerance(self, orb_level4):
        assert max(orb_level4.residuals.values()) < 1e-8

    def test_pmatrix_square_is_signed_permutation(self, orb_level4):
        psq = orb_level4.pmatrix @ orb_level4.pmatrix
        mags = np.abs(psq)
        assert np.abs(mags - np.round(mags)).max() < 1e-8
        assert (np.round(mags).sum(axis=0) == 1).all()
        nonzero = np.abs(psq[mags > 0.5])
        assert np.abs(nonzero - 1).max() < 1e-8

    def test_extension_by_dual_current_recovers_parent(self, orb_level4, su2_level4):
        idx = orb_level4.md.index(dual_current_label(su2_level4))
        z2 = simple_currents(orb_level4.md).subgroup((idx,))
        ext = extend_by_group(orb_level4.md, z2)
        assert len(ext.classes) == 5
        assert np.abs(ext.md.smatrix - su2_level4.smatrix).max() < 1e-10
        assert ext.md.delta == su2_level4.delta


class TestInputValidation:
    def test_tampered_twisted_t_fails_invariants(self, su2_level2):
        oin = inner_orbifold_input(su2_level2, (1,))
        bad = OrbifoldInput(
            md=oin.md,
            eta_exponents=oin.eta_exponents,
            t1_exponents=(oin.t1_exponents[0] + Q(1, 8),) + oin.t1_exponents[1:],
        )
        with pytest.raises(InvariantViolation):
            assemble_orbifold(bad)

    def test_nonunitary_twining_matrix_rejected(self, su2_level2):
        # the twining matrix is the parent's S, so a non-unitary S reaches
        # every block of the orbifold S
        bad = replace(su2_level2, smatrix=2 * su2_level2.smatrix)
        with pytest.raises(InvariantViolation):
            assemble_orbifold(inner_orbifold_input(bad, (1,)))

    def test_t_exponents_must_cover_every_label(self, su2_level2):
        oin = inner_orbifold_input(su2_level2, (1,))
        with pytest.raises(PreconditionError, match="label count"):
            OrbifoldInput(
                md=oin.md,
                eta_exponents=oin.eta_exponents,
                t1_exponents=oin.t1_exponents[:2],
            )


INNER_CASES = [("A1", k, (1,)) for k in range(1, 9)] + [("B2", 2, (1, 0))]


class TestConjectureTwo:
    def test_inner_trace_equals_rank(self, su2_level4):
        oin = inner_orbifold_input(su2_level4, (1,))
        for a in range(5):
            for b in range(a, 5):
                for c in range(b, 5):
                    res = conjecture2_trace(oin, (a, b, c))
                    assert res.trace.real == pytest.approx(res.rank, abs=1e-9)
                    assert abs(res.trace.imag) < 1e-9
                    assert res.dim_plus == res.rank
                    assert res.dim_minus == 0

    def test_vacuum_triple(self, su2_level2):
        oin = inner_orbifold_input(su2_level2, (1,))
        res = conjecture2_trace(oin, (0, 0, 0))
        assert res.rank == 1
        assert res.trace.real == pytest.approx(1.0)

    @pytest.mark.parametrize("insertions", [(-1, -1, 0), (0, 5, 0)])
    def test_insertion_outside_the_labels_is_a_precondition(self, su2_level4, insertions):
        # -1 would read the last label's twining column and fusion row
        oin = inner_orbifold_input(su2_level4, (1,))
        with pytest.raises(PreconditionError, match="label index"):
            conjecture2_trace(oin, insertions)

    @pytest.mark.parametrize("algebra,level,shift", INNER_CASES)
    def test_orientations_agree_for_symmetric_twining(self, algebra, level, shift):
        md = modular_data(algebra, level)
        oin = inner_orbifold_input(md, shift)
        for insertions in itertools.combinations_with_replacement(range(md.dim), 3):
            plus = conjecture2_trace(oin, insertions, orientation=1)
            minus = conjecture2_trace(oin, insertions, orientation=-1)
            assert (plus.trace, plus.rank, plus.dim_plus, plus.dim_minus) == (
                minus.trace,
                minus.rank,
                minus.dim_plus,
                minus.dim_minus,
            )
            assert (plus.orientation, minus.orientation) == (1, -1)

    def test_dishonest_twining_data_raises(self, su2_level2):
        # a rotation mixing the first two labels leaves the twining matrix
        # unitary, but the trace of (1, 1, 2) becomes about -1.81, not an integer
        rot = np.eye(3)
        rot[:2, :2] = [[0.6, 0.8], [-0.8, 0.6]]
        oin = inner_orbifold_input(su2_level2, (1,))
        bad = WithTwiningMatrix.of(oin, su2_level2.smatrix @ rot)
        with pytest.raises(ConjectureViolation) as err:
            conjecture2_trace(bad, (1, 1, 2))
        assert err.value.report["trace"] == pytest.approx(-1.81, abs=0.005)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m,message",
        [
            # 6564120420.000004 against the rank 6564120420, within a bound of 2.7e-4
            (40, r"by up to 3.81e-06, within its float error bound 0.000273$"),
            # exact-looking floats whose bound, 226 and 1.8e20, is past 1/2
            (60, r"by up to 0, within its float error bound 226$"),
            (120, r"by up to 0, within its float error bound 1.78e\+20$"),
            (200, r"^conjecture-2 float trace is not finite$"),
        ],
    )
    def test_a_trace_the_floats_cannot_decide_is_precision_exhausted(self, m, message):
        oin = inner_orbifold_input(modular_data("A1", 40), (1,))
        with pytest.raises(PrecisionExhausted, match=message):
            conjecture2_trace(oin, (1,) * m)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_traces_the_floats_decide_are_kept(self, m):
        # an inner symmetry acts trivially, so the trace is the rank
        oin = inner_orbifold_input(modular_data("A1", 40), (1,))
        res = conjecture2_trace(oin, (1,) * m)
        assert abs(res.trace - res.rank) <= 1e-6
        assert (res.dim_plus, res.dim_minus) == (res.rank, 0)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_bound_size_is_the_absolute_factor_sum(self, tolerance_sizes, m):
        oin = inner_orbifold_input(modular_data("A1", 40), (1,))
        with contextlib.suppress(PrecisionExhausted):  # at m = 40
            conjecture2_trace(oin, (1,) * m)
        kept = np.abs(oin.s0[:, oin.md.vacuum]) >= 1e-14
        vac = oin.s0[kept, oin.md.vacuum]
        prod = np.abs(np.abs(vac) ** 2 * vac ** -m)
        for _ in range(m):
            prod = prod * np.abs(oin.s0[kept, 1])
        assert tolerance_sizes == [pytest.approx(prod.sum(), rel=1e-12, abs=0)]

    def test_trace_of_the_wrong_parity_raises(self, su2_level2):
        # The rank of (0, 1, 1) at level 2 is 1, and the identity as twining
        # matrix gives the trace 0.
        oin = inner_orbifold_input(su2_level2, (1,))
        bad = WithTwiningMatrix.of(oin, np.eye(3))
        with pytest.raises(ConjectureViolation) as err:
            conjecture2_trace(bad, (0, 1, 1))
        report = err.value.report
        assert (report["rank"], report["trace"], report["eigenvalue"]) == (1, 0, "+")
        assert report["dimension"] == 0.5


class TestBlockAssembly:
    @pytest.mark.parametrize("algebra,level,shift", INNER_CASES)
    def test_inner_smatrix_matches_the_entry_ladder(self, algebra, level, shift):
        oin = inner_orbifold_input(modular_data(algebra, level), shift)
        orb = assemble_orbifold(oin)
        assert np.abs(orb.smatrix - ladder_smatrix(oin, orb.pmatrix)).max() < 1e-14

    @pytest.mark.parametrize("algebra,level,shift", INNER_CASES)
    def test_pmatrix_matches_the_halved_twining_t(self, algebra, level, shift):
        # eta is a sign, so 2(t/2 - eta) = t mod 1 exactly, as Fractions
        oin = inner_orbifold_input(modular_data(algebra, level), shift)
        assert np.array_equal(assemble_orbifold(oin).pmatrix, halved_t_pmatrix(oin))

    @pytest.mark.parametrize("algebra,level,shift", INNER_CASES)
    def test_twining_residuals_read_the_base_conjugation(self, algebra, level, shift):
        # the twining matrix is S, so its square is the base theory's charge
        # conjugation C: the first residual is the base theory's own, and P^2
        # is compared with the exact permutation matrix of C; no S @ S is kept
        oin = inner_orbifold_input(modular_data(algebra, level), shift)
        orb = assemble_orbifold(oin)
        assert "s_squared" not in oin.md.invariants()
        square = oin.s0 @ oin.s0
        exact = np.zeros((oin.md.dim, oin.md.dim))
        exact[np.arange(oin.md.dim), oin.md.conjugation_permutation()] = 1
        direct = np.abs(square.real - exact).max() + np.abs(square.imag).max()
        assert orb.residuals["twining_square_permutation"] == direct
        twice = np.abs(orb.pmatrix @ orb.pmatrix)
        assert orb.residuals["pmatrix_square_match"] == np.abs(twice - exact).max()

    @pytest.mark.parametrize("algebra,level,shift", INNER_CASES)
    def test_extension_by_dual_current_recovers_parent(self, algebra, level, shift):
        md = modular_data(algebra, level)
        orb = assemble_orbifold(inner_orbifold_input(md, shift))
        assert orb.md.dim == 4 * md.dim
        idx = orb.md.index(dual_current_label(md))
        z2 = simple_currents(orb.md).subgroup((idx,))
        assert z2.order == 2
        ext = extend_by_group(orb.md, z2)
        reps = [orb.md.labels[c.rep] for c in ext.classes]
        assert [r[0] for r in reps] == list(md.labels)
        assert all(r[2] == 0 for r in reps)
        assert np.abs(ext.md.smatrix - md.smatrix).max() < 1e-10
        assert ext.md.delta == md.delta

    @pytest.mark.parametrize("algebra,level,shift", INNER_CASES)
    def test_inner_trace_equals_rank(self, algebra, level, shift):
        # with S itself as twining matrix the symmetry acts trivially on
        # every genus-zero block space of three insertions
        md = modular_data(algebra, level)
        oin = inner_orbifold_input(md, shift)
        for a in range(md.dim):
            for b in range(a, md.dim):
                for c in range(b, md.dim):
                    res = conjecture2_trace(oin, (a, b, c))
                    assert abs(res.trace - res.rank) < 1e-9
                    assert (res.dim_plus, res.dim_minus) == (res.rank, 0)
