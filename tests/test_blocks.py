from __future__ import annotations

from fractions import Fraction as Q

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wzwkit.blocks as blocks
import wzwkit.simplecurrent as simplecurrent
from wzwkit.affine import modular_data
from wzwkit.blocks import (
    TruncatedLaurent,
    LoopElement,
    admissible_tuples,
    block_rank,
    fix_compatible,
    fourier_eigendims,
    gamma_out,
    loop_bracket,
    multishift_validate,
    rank_factorization_check,
    symmetry_trace,
    trace_factorization_check,
    untwisted_tuples,
)
from wzwkit.boundary import classifying_algebra
from wzwkit.errors import (
    ConjectureViolation,
    InternalConsistencyError,
    PrecisionExhausted,
    PreconditionError,
    UnsupportedFolding,
)
from wzwkit.exact import phase_to_complex
from wzwkit.fusion import simple_currents, tensor_product, verlinde_tensor
from wzwkit.simplecurrent import (
    _stabilizer_data,
    abelian_characters,
    cocycle,
    extend_by_group,
    fixed_point_smatrix,
    orbit_data,
)


def setup_theory(k):
    md = modular_data("A1", k)
    return md, simple_currents(md)


def tuple_cocycle(md, group, t, tprime, insertions):
    """Slotwise product of the relative phases F_mu(t_s, t'_s)."""
    out = 1.0 + 0.0j
    for ts, tps, mu in zip(t, tprime, insertions):
        out *= cocycle(md, group, ts, tps, mu)
    return out


def pairwise_untwisted(md, group, rows, insertions, tol=1e-8):
    """Reference: the rows whose cocycle against every row is trivial both
    ways, one cocycle evaluation per slot and ordered pair."""
    return [
        t
        for t in rows
        if all(
            abs(tuple_cocycle(md, group, t, tp, insertions) - 1) <= tol
            and abs(tuple_cocycle(md, group, tp, t, insertions) - 1) <= tol
            for tp in rows
        )
    ]


def filtered_gamma_out(group, insertions):
    """Reference: every identity-product tuple, kept when each slot stabilizes
    its insertion."""
    stabs = [set(group.stabilizer(mu)) for mu in insertions]
    return [
        t
        for t in gamma_out(group, len(insertions))
        if all(ts in st for ts, st in zip(t, stabs))
    ]


# The theories of the conjecture-one and factorization acceptance sweeps.
SWEEP = tuple(("A1", k) for k in range(2, 9)) + tuple(("A2", k) for k in range(1, 5))


def klein_four_cube():
    """su(2)^3 at level 2 with the Klein four group of even current triples,
    and the label index of the common fixed point (1, 1, 1)."""
    one = modular_data("A1", 2)
    md = tensor_product(tensor_product(one, one), one)
    g = simple_currents(md)
    sub = g.subgroup(
        (md.index((((0,), (2,)), (2,))), md.index((((2,), (0,)), (2,))))
    )
    return md, sub, md.index((((1,), (1,)), (1,)))


def oracle_cases():
    for k in range(2, 9):
        md, g = setup_theory(k)
        for m in range(1, 7):
            yield f"A1-{k}-m{m}", md, g, (md.index((k // 2,)),) * m
    for k in (3, 6):
        md = modular_data("A2", k)
        g = simple_currents(md)
        f = md.index((k // 3, k // 3))
        for m in range(1, 5):
            yield f"A2-{k}-m{m}", md, g, (f,) * m
        yield f"A2-{k}-mixed", md, g, (f, md.vacuum, f, f)
    md, sub, f = klein_four_cube()
    for m in range(1, 4):
        yield f"cube-klein-m{m}", md, sub, (f,) * m


def fourier_loop_dims(md, group, spectrum):
    """Reference for the Fourier sum of ``fourier_eigendims``: one character
    at a time, one phase per untwisted tuple."""
    unt = spectrum.untwisted

    def compose(a, b):
        return tuple(group.compose(x, y) for x, y in zip(a, b))

    dims = {}
    for char in abelian_characters(unt, compose, (md.vacuum,) * len(spectrum.insertions)):
        val = sum(np.conj(phase_to_complex(char[t])) * spectrum.traces[t] for t in unt) / len(unt)
        dims[tuple(char[t] for t in sorted(unt))] = round(val.real)
    return dims


def glued_loop(md, insertions, split, t, glue):
    """Reference for the glued side of ``trace_factorization_check``: one
    channel label nu at a time."""
    s = md.smatrix
    mleft, mright = split + 1, len(insertions) - split + 1
    glue_full = fixed_point_smatrix(md, glue).full
    rhs = 0.0 + 0.0j
    for nu in range(md.dim):
        pl = np.ones(md.dim, dtype=complex)
        for mu, ts in zip(insertions[:split], t[:split]):
            pl = pl * fixed_point_smatrix(md, ts).full[mu]
        left = (s[0] ** (2 - mleft) * pl * glue_full[nu]).sum()
        pr = np.conj(glue_full[nu]).copy()
        for mu, ts in zip(insertions[split:], t[split:]):
            pr = pr * fixed_point_smatrix(md, ts).full[mu]
        right = (s[0] ** (2 - mright) * pr).sum()
        rhs += left * right
    return complex(rhs)


def float_rank_sum(md, genus, insertions):
    """Reference for ``block_rank``: the Verlinde-type float sum
    sum_k |S_0k|^(2-2g) S_0k^(-m) prod_s S_(mu_s) k."""
    s = md.smatrix
    value = np.abs(s[0]) ** (2 - 2 * genus) * s[0] ** (-len(insertions))
    for mu in insertions:
        value = value * s[mu]
    return complex(value.sum())


class TestBlockRank:
    @pytest.mark.parametrize("algebra,level", SWEEP)
    def test_matches_the_float_sum(self, algebra, level):
        md = modular_data(algebra, level)
        for genus in range(3):
            for m in range(4):
                for insertions in itertools.combinations_with_replacement(range(md.dim), m):
                    rank = block_rank(md, genus, insertions)
                    assert type(rank) is int
                    assert abs(float_rank_sum(md, genus, insertions) - rank) < 1e-6

    def test_exact_past_float_precision(self):
        md = modular_data("A1", 10)
        # The float sum gives 5953562257340854435840 here.
        assert block_rank(md, 12, ()) == 5953562257340934117376
        assert block_rank(md, 12, (5, 5)) == 88875941870257607540736
        assert block_rank(md, 8, (5, 5)) == 1380858267893760
        assert block_rank(modular_data("A1", 4), 10, (2, 2)) == 41278262499

    @pytest.mark.filterwarnings("error")
    def test_exact_past_float_overflow(self):
        # At genus 300 the float64 vector overflows to inf, and inf * 0 gives NaN.
        md = modular_data("A1", 4)
        tensor = verlinde_tensor(md).astype(object)
        handle = sum(row @ row.T for row in tensor)
        v = np.zeros(md.dim, object)
        v[md.vacuum] = 1
        for factor in [tensor[2], tensor[2]] + [handle] * 300:
            v = v @ factor
        rank = block_rank(md, 300, (2, 2))
        assert rank == v[md.vacuum]
        assert len(str(rank)) == 324

    def test_negative_genus_is_a_precondition(self):
        md = modular_data("A1", 4)
        for genus, insertions in [(-1, ()), (-2, (2, 2))]:
            with pytest.raises(PreconditionError, match="genus"):
                block_rank(md, genus, insertions)

    def test_handle_matrix_is_exact_on_both_sides_of_two_to_the_53(self):
        tensor = verlinde_tensor(modular_data("A2", 3))
        handle = blocks._handle_matrix(tensor)
        assert handle.dtype == np.int64
        assert np.array_equal(handle, np.einsum("nbd,ncd->bc", tensor, tensor))
        big = np.array([[[2**27, 1], [0, 2**27]], [[1, 0], [2**27, 2**27]]], dtype=np.int64)
        exact = blocks._handle_matrix(big)
        assert exact.dtype == object
        assert exact.tolist() == [[2**54 + 2, 2**28], [2**28, 3 * 2**54]]

    def test_genus_zero_triples_are_fusion_coefficients(self):
        md = modular_data("A1", 3)
        n = verlinde_tensor(md)
        conj = md.conjugation_permutation()
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert block_rank(md, 0, (a, b, c)) == n[a, b, conj[c]]

    def test_genus_one_vacuum_counts_primaries(self):
        for label, k in [("A1", 4), ("A2", 2)]:
            md = modular_data(label, k)
            assert block_rank(md, 1, ()) == md.dim
            assert block_rank(md, 1, (0,)) == md.dim

    def test_su2_level4_four_point_middle(self):
        md = modular_data("A1", 4)
        assert block_rank(md, 0, (2, 2, 2, 2)) == 3

    def test_two_point_is_conjugation_pairing(self):
        md = modular_data("A2", 2)
        conj = md.conjugation_permutation()
        for a in range(md.dim):
            for b in range(md.dim):
                assert block_rank(md, 0, (a, b)) == int(conj[a] == b)


class TestTupleSets:
    def test_gamma_out_size(self):
        md, g = setup_theory(4)
        assert len(gamma_out(g, 3)) == 4
        assert len(gamma_out(g, 4)) == 8
        for t in gamma_out(g, 4):
            acc = 0
            for j in t:
                acc = g.compose(acc, j)
            assert acc == 0

    def test_admissible_su2_level2(self):
        md, g = setup_theory(2)
        jj = md.index((2,))
        adm = admissible_tuples(g, (1, 1, 2))
        assert set(adm) == {(0, 0, 0), (jj, jj, 0)}

    def test_untwisted_su2_level2_three_point(self):
        md, g = setup_theory(2)
        jj = md.index((2,))
        unt = untwisted_tuples(md, g, (1, 1, 2))
        assert set(unt) == {(0, 0, 0), (jj, jj, 0)}

    def test_untwisted_su2_level2_four_point_drops_pairs(self):
        md, g = setup_theory(2)
        jj = md.index((2,))
        adm = admissible_tuples(g, (1, 1, 1, 1))
        assert len(adm) == 8
        unt = untwisted_tuples(md, g, (1, 1, 1, 1))
        assert set(unt) == {(0, 0, 0, 0), (jj, jj, jj, jj)}

    def test_untwisted_su2_level4_four_point_keeps_all(self):
        md, g = setup_theory(4)
        unt = untwisted_tuples(md, g, (2, 2, 2, 2))
        assert len(unt) == 8


class TestAdmissibleOracle:
    @pytest.mark.parametrize("label,k", SWEEP, ids=[f"{a}-{k}" for a, k in SWEEP])
    def test_admissible_tuples_match_the_filtered_gamma_out(self, label, k):
        md = modular_data(label, k)
        group = simple_currents(md)
        for m in (1, 2, 3, 4):
            for insertions in itertools.combinations_with_replacement(range(md.dim), m):
                assert admissible_tuples(group, insertions) == filtered_gamma_out(group, insertions)

    def test_klein_four_subgroup_matches_the_filtered_gamma_out(self):
        md, sub, f = klein_four_cube()
        for insertions in [(f,) * 3, (f, 0, f, f), (0, f, f)]:
            assert admissible_tuples(sub, insertions) == filtered_gamma_out(sub, insertions)

    def test_inverse_composes_to_the_vacuum(self):
        md, sub, _ = klein_four_cube()
        for group in (simple_currents(md), sub, simple_currents(modular_data("A2", 3))):
            for j in group.indices:
                assert group.compose(j, group.inverse(j)) == group.md.vacuum


class TestUntwistedOracle:
    """The untwisted tuples and stabilizers against the pairwise reference."""

    @pytest.mark.parametrize(
        "md,group,insertions", [pytest.param(*c[1:], id=c[0]) for c in oracle_cases()]
    )
    def test_untwisted_tuples_match_the_pairwise_loop(self, md, group, insertions):
        adm = admissible_tuples(group, insertions)
        expected = pairwise_untwisted(md, group, adm, insertions)
        assert untwisted_tuples(md, group, insertions) == expected

    @pytest.mark.parametrize(
        "md,group",
        [pytest.param(c[1], c[2], id=c[0][:-3]) for c in oracle_cases() if c[0].endswith("-m1")],
    )
    def test_untwisted_stabilizers_match_the_pairwise_loop(self, md, group):
        # Fractional-spin currents (A1 at k = 2 mod 4) have F_mu(1, J) = -1
        # but F_mu(J, 1) = 1, so a check in one direction only keeps J.
        for rec in orbit_data(md, group):
            mu, stab = rec.representative, rec.stabilizer
            rows = [(t,) for t in stab]
            expected = tuple(t for (t,) in pairwise_untwisted(md, group, rows, (mu,)))
            assert _stabilizer_data(md, group, mu)[2] == expected
            assert rec.untwisted_stabilizer == (expected if rec.integer_spins else None)

    @pytest.mark.parametrize(
        "md,group,insertions", [pytest.param(*c[1:], id=c[0]) for c in oracle_cases()]
    )
    def test_eigendims_match_the_per_character_loop(self, md, group, insertions):
        spectrum = fourier_eigendims(md, group, insertions)
        assert spectrum.dims == fourier_loop_dims(md, group, spectrum)

    def test_klein_four_untwisted_set_is_smaller_than_admissible(self):
        md, sub, f = klein_four_cube()
        assert len(admissible_tuples(sub, (f,) * 3)) == 16
        assert len(untwisted_tuples(md, sub, (f,) * 3)) == 1


class TestCocycleCost:
    """Each cocycle value is evaluated once, from one table per label."""

    @pytest.fixture
    def cocycle_calls(self, monkeypatch):
        calls = []
        original = simplecurrent.cocycle

        def counted(*args, **kwargs):
            calls.append(args[2:5])
            return original(*args, **kwargs)

        monkeypatch.setattr(simplecurrent, "cocycle", counted)
        return calls

    def test_untwisted_tuples_tabulate_each_label_once(self, cocycle_calls):
        md, g = setup_theory(4)
        insertions = (2,) * 6
        unt = untwisted_tuples(md, g, insertions)
        assert len(unt) == 32
        bound = sum(len(g.stabilizer(mu)) ** 2 for mu in set(insertions))
        assert bound == 4
        assert len(cocycle_calls) <= bound

    @staticmethod
    def theory(name):
        if name == "cube-klein":
            md, group, _ = klein_four_cube()
            return md, group
        algebra, level = name.split("-")
        md = modular_data(algebra, int(level))
        return md, simple_currents(md)

    @pytest.mark.parametrize("theory", ["A1-4", "A2-3", "cube-klein"])
    def test_orbit_data_evaluates_each_pair_once(self, cocycle_calls, theory):
        md, group = self.theory(theory)
        records = orbit_data(md, group)
        assert all(rec.integer_spins for rec in records)
        expected = sorted(
            (t, tp, rec.representative)
            for rec in records
            for t in rec.stabilizer
            for tp in rec.stabilizer
        )
        assert sorted(cocycle_calls) == expected

    @pytest.mark.parametrize("build", [extend_by_group, classifying_algebra])
    @pytest.mark.parametrize("theory", ["A1-4", "A2-3", "cube-klein"])
    def test_extension_and_boundary_evaluate_each_pair_once_per_orbit(
        self, cocycle_calls, theory, build
    ):
        md, group = self.theory(theory)
        build(md, group)
        expected = sorted(
            (t, tp, orbit[0])
            for orbit in group.orbits()
            for t in group.stabilizer(orbit[0])
            for tp in group.stabilizer(orbit[0])
        )
        assert sorted(cocycle_calls) == expected


class TestCocycleExactness:
    """A cocycle value off the roots of unity is an internal error, not a
    twisted current."""

    @pytest.fixture
    def off_root(self, monkeypatch):
        value = complex(np.exp(2j * np.pi * 0.1234567))
        monkeypatch.setattr(simplecurrent, "cocycle", lambda *args, **kwargs: value)

    def test_untwisted_tuples_raise(self, off_root):
        md, g = setup_theory(4)
        with pytest.raises(InternalConsistencyError, match="not a root of unity"):
            untwisted_tuples(md, g, (2, 2))

    @pytest.mark.parametrize("build", [extend_by_group, classifying_algebra])
    def test_extension_and_classifying_algebra_raise(self, off_root, build):
        md, g = setup_theory(4)
        with pytest.raises(InternalConsistencyError, match="not a root of unity"):
            build(md, g)


class TestTraces:
    def test_identity_tuple_reproduces_rank(self):
        md, g = setup_theory(4)
        for insertions in [(2, 2, 2), (2, 2, 2, 2), (1, 1, 2)]:
            tr = symmetry_trace(md, insertions, (0,) * len(insertions))
            assert abs(tr - block_rank(md, 0, insertions)) < 1e-9

    def test_su2_level2_pair_trace(self):
        md, g = setup_theory(2)
        jj = md.index((2,))
        tr = symmetry_trace(md, (1, 1, 2), (jj, jj, 0))
        assert abs(tr - (-1.0)) < 1e-9

    def test_su2_level2_full_tuple_trace(self):
        md, g = setup_theory(2)
        jj = md.index((2,))
        tr = symmetry_trace(md, (1, 1, 1, 1), (jj,) * 4)
        assert abs(tr - 2.0) < 1e-9

    def test_su2_level4_pair_and_full_traces(self):
        md, g = setup_theory(4)
        jj = md.index((4,))
        assert abs(symmetry_trace(md, (2, 2, 2), (jj, jj, 0)) - 1.0) < 1e-9
        assert abs(symmetry_trace(md, (2, 2, 2, 2), (jj, jj, 0, 0)) - (-1.0)) < 1e-9
        assert abs(symmetry_trace(md, (2, 2, 2, 2), (jj,) * 4) - 3.0) < 1e-9

    def test_su2_level6_traces(self):
        md, g = setup_theory(6)
        jj = md.index((6,))
        assert abs(symmetry_trace(md, (3, 3, 0), (jj, jj, 0)) - 1.0) < 1e-9
        assert abs(symmetry_trace(md, (3, 3, 3, 3), (jj,) * 4) - 4.0) < 1e-9


class TestEigendims:
    def test_su2_level2_three_point(self):
        md, g = setup_theory(2)
        spec = fourier_eigendims(md, g, (1, 1, 2))
        assert spec.rank == 1
        assert sorted(spec.dims.values()) == [0, 1]

    def test_su2_level2_four_point(self):
        md, g = setup_theory(2)
        spec = fourier_eigendims(md, g, (1, 1, 1, 1))
        assert spec.rank == 2
        assert sorted(spec.dims.values()) == [0, 2]

    def test_su2_level4_three_point(self):
        md, g = setup_theory(4)
        spec = fourier_eigendims(md, g, (2, 2, 2))
        assert spec.rank == 1
        assert sorted(spec.dims.values()) == [0, 0, 0, 1]

    def test_su2_level4_four_point(self):
        md, g = setup_theory(4)
        spec = fourier_eigendims(md, g, (2, 2, 2, 2))
        assert spec.rank == 3
        assert sorted(spec.dims.values()) == [0, 0, 0, 0, 0, 1, 1, 1]
        assert sum(spec.dims.values()) == 3

    def test_su2_level6_pairs(self):
        md, g = setup_theory(6)
        spec3 = fourier_eigendims(md, g, (3, 3, 0))
        assert sorted(spec3.dims.values()) == [0, 1]
        spec4 = fourier_eigendims(md, g, (3, 3, 3, 3))
        assert sorted(spec4.dims.values()) == [0, 4]

    def test_identity_trace_is_the_exact_rank(self):
        md, g = setup_theory(4)
        spec = fourier_eigendims(md, g, (2, 2), genus=10)
        assert spec.rank == 41278262499
        assert spec.traces[(0, 0)] == complex(spec.rank)
        assert sum(spec.dims.values()) == spec.rank

    def test_dims_must_divide_exactly(self, monkeypatch):
        # rank 9 with the other trace moved from -3 to -2: (9 - 2) / 2 is no integer
        md, g = setup_theory(4)
        exact = blocks.symmetry_trace
        monkeypatch.setattr(blocks, "symmetry_trace", lambda *args: exact(*args) + 1)
        with pytest.raises(ConjectureViolation, match="not a non-negative integer") as err:
            fourier_eigendims(md, g, (2, 2), genus=1)
        assert err.value.report["rank"] == 9
        assert err.value.report["value"] == pytest.approx(3.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "insertions,genus,message",
        [
            ((2, 2), 300, "genus-300 block rank of 1075 bits is past float range"),
            ((2, 2, 2, 2), 285, "genus-285 float trace or Fourier sum is not finite"),
        ],
    )
    def test_past_float_range_is_precision_exhausted(self, insertions, genus, message):
        # At genus 285 the rank still fits a float, but a trace weight overflows.
        md, g = setup_theory(4)
        with pytest.raises(PrecisionExhausted) as err:
            fourier_eigendims(md, g, insertions, genus)
        assert str(err.value) == message

    def test_su3_level3_fixed_point_tuple(self):
        md = modular_data("A2", 3)
        g = simple_currents(md)
        f = md.index((1, 1))
        spec = fourier_eigendims(md, g, (f, f, f))
        assert sum(spec.dims.values()) == spec.rank
        assert all(d >= 0 for d in spec.dims.values())


class TestFactorization:
    def test_rank_factorization_su2(self):
        md = modular_data("A1", 3)
        for insertions in [(1, 2, 1, 2), (3, 3, 2, 2), (1, 1, 1, 1)]:
            lhs, rhs = rank_factorization_check(md, insertions, 2)
            assert lhs == rhs

    def test_rank_factorization_su3(self):
        md = modular_data("A2", 2)
        one = md.index((1, 0))
        bar = md.index((0, 1))
        lhs, rhs = rank_factorization_check(md, (one, bar, one, bar), 2)
        assert lhs == rhs

    def test_trace_factorization_full_tuple(self):
        md, g = setup_theory(4)
        jj = md.index((4,))
        lhs, rhs = trace_factorization_check(md, (2, 2, 2, 2), 2, (jj,) * 4, jj)
        assert abs(lhs - rhs) < 1e-8
        assert abs(lhs - 3.0) < 1e-9

    def test_trace_factorization_pair_with_identity_glue(self):
        md, g = setup_theory(4)
        jj = md.index((4,))
        lhs, rhs = trace_factorization_check(md, (2, 2, 2, 2), 2, (jj, jj, 0, 0), 0)
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("algebra,level", [("A1", k) for k in range(2, 9)] + [("A2", 3)])
    def test_glued_side_matches_the_per_label_loop(self, algebra, level):
        md = modular_data(algebra, level)
        g = simple_currents(md)
        checked = 0
        for m in (3, 4):
            for insertions in itertools.combinations_with_replacement(range(md.dim), m):
                for t in untwisted_tuples(md, g, insertions):
                    for glue in g.indices:
                        if not fix_compatible(md, t, glue):
                            continue
                        _, rhs = trace_factorization_check(md, insertions, m // 2, t, glue)
                        expected = glued_loop(md, insertions, m // 2, t, glue)
                        assert abs(rhs - expected) <= 1e-14 * max(1.0, abs(expected))
                        checked += 1
        assert checked > 0

    def test_incompatible_glue_rejected(self):
        md, g = setup_theory(4)
        jj = md.index((4,))
        assert not fix_compatible(md, (0, 0, 0, 0), jj)
        with pytest.raises(PreconditionError):
            trace_factorization_check(md, (2, 2, 2, 2), 2, (0, 0, 0, 0), jj)

    def test_identity_glue_always_compatible(self):
        md, g = setup_theory(2)
        assert fix_compatible(md, (0, 0, 0), 0)


class TestTruncatedLaurent:
    def test_shifted_inverse_at_origin(self):
        phi = TruncatedLaurent.shifted_inverse(0, 10)
        assert phi.as_dict() == {-1: Q(1)}
        assert phi.hi is None

    def test_shifted_inverse_times_linear_is_one(self):
        phi = TruncatedLaurent.shifted_inverse(Q(3), 12)
        linear = TruncatedLaurent.make({1: Q(1), 0: Q(3)})
        prod = phi * linear
        assert prod.coefficient(0) == 1
        for e in range(1, prod.hi + 1):
            assert prod.coefficient(e) == 0

    def test_window_shrinks_with_products(self):
        phi = TruncatedLaurent.shifted_inverse(Q(1), 8)
        shifted = phi * TruncatedLaurent.monomial(5)
        assert shifted.hi == 13
        squared = phi * phi
        assert squared.hi == 8  # hi + low of the other factor: 8 + 0

    def test_derivative_and_residue(self):
        f = TruncatedLaurent.make({-1: Q(2), 0: Q(5), 3: Q(1)})
        assert f.residue() == 2
        assert f.derivative().as_dict() == {-2: Q(-2), 2: Q(3)}

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.dictionaries(st.integers(-3, 3), st.fractions(), max_size=4),
        b=st.dictionaries(st.integers(-3, 3), st.fractions(), max_size=4),
        c=st.dictionaries(st.integers(-3, 3), st.fractions(), max_size=4),
    )
    def test_polynomial_ring_laws(self, a, b, c):
        fa = TruncatedLaurent.make(a)
        fb = TruncatedLaurent.make(b)
        fc = TruncatedLaurent.make(c)
        assert ((fa + fb) * fc).as_dict() == (fa * fc + fb * fc).as_dict()
        assert (fa * fb).as_dict() == (fb * fa).as_dict()


class TestMultiShift:
    def test_sl2_bracket_basics(self):
        e = LoopElement.generator("E", 0)
        f = LoopElement.generator("F", 0)
        h = loop_bracket(e, f)
        assert h.part("H").as_dict() == {0: Q(1)}
        assert h.central == 0

    def test_central_term_from_loop_exponents(self):
        e = LoopElement.generator("E", 2)
        f = LoopElement.generator("F", -2)
        out = loop_bracket(e, f)
        assert out.part("H").as_dict() == {0: Q(1)}
        assert out.central == Q(2)

    def test_two_point_shift_is_automorphism(self):
        report = multishift_validate(2, grade=3)
        assert report["max_residual"] == 0
        assert report["pairs_checked"] == (3 * 7 + 1) ** 2

    def test_three_point_shift_is_automorphism(self):
        report = multishift_validate(3, grade=3)
        assert report["max_residual"] == 0

    def test_unsupported_point_count(self):
        with pytest.raises(UnsupportedFolding):
            multishift_validate(4)

    def test_repeated_points_rejected(self):
        with pytest.raises(PreconditionError):
            multishift_validate(2, grade=2, points=(Q(1), Q(1)))

    def test_custom_points(self):
        report = multishift_validate(2, grade=2, points=(Q(0), Q(1, 2)))
        assert report["max_residual"] == 0
