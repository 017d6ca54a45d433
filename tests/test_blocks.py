from __future__ import annotations

from fractions import Fraction as Q

import dataclasses
import itertools
import tracemalloc

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
    symmetry_trace,
    trace_factorization_check,
    untwisted_tuples,
)
from wzwkit.boundary import classifying_algebra
from wzwkit.errors import (
    ConjectureViolation,
    IntegralityError,
    PrecisionExhausted,
    PreconditionError,
    UnsupportedFolding,
)
from wzwkit.exact import phase_to_complex
from wzwkit.fusion import simple_currents, tensor_product, verlinde_tensor
from wzwkit.orbifold import assemble_orbifold, inner_orbifold_input
from wzwkit.simplecurrent import (
    _stabilizer_data,
    cocycle,
    extend_by_group,
    fixed_point_smatrix,
    orbit_data,
)


def setup_theory(k):
    md = modular_data("A1", k)
    return md, simple_currents(md)


def rank_factorization_check(md, insertions, split, genus=0):
    """Left and right side of the gluing identity for block ranks.

    The m-point rank equals the sum over the glued channel of the two
    factor ranks, with the channel conjugated on one side.
    """
    conj = md.conjugation_permutation()
    lhs = block_rank(md, genus, insertions)
    rhs = 0
    for nu in range(md.dim):
        left = block_rank(md, genus, tuple(insertions[:split]) + (nu,))
        right = block_rank(md, 0, (conj[nu],) + tuple(insertions[split:]))
        rhs += left * right
    return lhs, rhs


def tuple_cocycle(md, group, t, tprime, insertions):
    """Exponent of the slotwise product of the relative phases F_mu(t_s, t'_s)."""
    return sum(cocycle(md, group, ts, tps, mu) for ts, tps, mu in zip(t, tprime, insertions)) % 1


def pairwise_untwisted(md, group, rows, insertions):
    """Reference: the rows whose cocycle against every row is trivial both
    ways, one cocycle evaluation per slot and ordered pair."""
    return [
        t
        for t in rows
        if all(
            tuple_cocycle(md, group, t, tp, insertions) == 0
            and tuple_cocycle(md, group, tp, t, insertions) == 0
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


def fraction_characters(elements, compose, identity):
    """Reference for ``abelian_characters``: the extension along the sorted
    elements in ``Fraction`` exponents, one dict per character.

    Each element g outside the span H of the earlier ones has a least n with
    g^n in H; each character chi of H extends in the n ways
    chi(g) = (chi(g^n) + r) / n, r = 0..n-1.  Sorted by the exponent tuple
    over the sorted elements.
    """
    elems = sorted(set(elements))
    span = {identity}
    chars = [{identity: Q(0)}]
    for g in elems:
        if g in span:
            continue
        powers, top = [identity], g
        while top not in span:
            powers.append(top)
            top = compose(top, g)
        n = len(powers)
        cosets = [(s, i, compose(s, p)) for s in span for i, p in enumerate(powers)]
        span = {e for _, _, e in cosets}
        chars = [
            {e: (chi[s] + i * x) % 1 for s, i, e in cosets}
            for chi in chars
            for x in ((chi[top] + r) / n for r in range(n))
        ]
    assert span == set(elems) and len(chars) == len(elems)
    chars = [{e: ch[e] for e in elems} for ch in chars]
    chars.sort(key=lambda ch: tuple(ch[e] for e in elems))
    return chars


def fourier_loop_dims(md, group, spectrum):
    """Reference for the Fourier sum of ``fourier_eigendims``: one character
    at a time, one phase per untwisted tuple, keyed by the numerators."""
    unt, d = spectrum.untwisted, spectrum.denominator

    def compose(a, b):
        return tuple(group.compose(x, y) for x, y in zip(a, b))

    dims = {}
    for char in fraction_characters(unt, compose, (md.vacuum,) * len(spectrum.insertions)):
        val = sum(np.conj(phase_to_complex(char[t])) * spectrum.traces[t] for t in unt) / d
        dims[tuple(int(char[t] * d) for t in sorted(unt))] = round(val.real)
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


def tensor_factors(md):
    """Reference factors for ``block_rank``: the rows of the whole streamed
    Verlinde tensor N, and H = sum_nu N_nu N_nu^T under None, as int64."""
    tensor = verlinde_tensor(md)
    return {**dict(enumerate(tensor)), None: np.einsum("nbd,ncd->bc", tensor, tensor)}


def tensor_block_rank(factors, vacuum, genus, insertions):
    """(e_0 N_mu1 ... N_mum H^g)_0 over ``tensor_factors``, exact at the ranks compared."""
    v = np.zeros(len(factors) - 1, np.int64)
    v[vacuum] = 1
    for key in list(insertions) + [None] * genus:
        v = v @ factors[key]
    return int(v[vacuum])


def float_then_int_rank(md, factors, genus, insertions):
    """Reference for ``block_rank``: a float64 row-vector product over the
    factors of ``factors`` (label index or None to int64 matrix), exact while
    its sum stays below 2**53; past that, or once it overflows, the whole
    product is redone over Python ints."""
    keys = list(insertions) + [None] * genus
    v = np.eye(1, md.dim, md.vacuum)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for key in keys:
            v = v @ factors[key].astype(float)
    if not v.sum() < 2.0**53:
        v = np.eye(1, md.dim, md.vacuum, dtype=object)[0]
        for key in keys:
            v = v @ factors[key].astype(object)
    return int(v[md.vacuum])


def python_int_rank(md, genus, insertions):
    """Reference for ``block_rank``: the product over Python ints throughout."""
    v = np.eye(1, md.dim, md.vacuum, dtype=object)[0]
    for key in list(insertions) + [None] * genus:
        v = v @ blocks._rank_factor(md, key).astype(object)
    return int(v[md.vacuum])


def orbifold_a1_4():
    return assemble_orbifold(inner_orbifold_input(modular_data("A1", 4), (1,))).md


# The theories on which ``block_rank`` is compared with the tensor route, built on use.
ORACLE_THEORIES = {
    **{f"A1-{k}": (modular_data, "A1", k) for k in range(1, 41)},
    **{f"A2-{k}": (modular_data, "A2", k) for k in range(1, 10)},
    **{f"{alg}-{k}": (modular_data, alg, k) for alg, k in [("B3", 4), ("G2", 5), ("C3", 4)]},
    "A1-2xA1-3": (lambda: tensor_product(modular_data("A1", 2), modular_data("A1", 3)),),
    "A1-4-orbifold": (orbifold_a1_4,),
}


# H is also compared where the rank sweep would be slow.
HANDLE_THEORIES = {**ORACLE_THEORIES, "A2-15": (modular_data, "A2", 15)}


def oracle_theory(name):
    build, *args = HANDLE_THEORIES[name]
    return build(*args)


class TestRowRoute:
    """Ranks from the rows they read against the tensor route."""

    @pytest.mark.parametrize("name", ORACLE_THEORIES)
    def test_ranks_match_the_tensor_route(self, name):
        md = oracle_theory(name)
        conj = md.conjugation_permutation()
        tuples = [()] + [(a,) for a in range(md.dim)]
        tuples += [(a, b) for a in range(md.dim) for b in range(a, md.dim)]
        tuples += [(a, b, conj[b]) for a in range(md.dim) for b in range(md.dim)]
        factors = tensor_factors(md)
        for mu in range(md.dim):
            assert np.array_equal(blocks._rank_factor(md, mu), factors[mu])
        for genus in range(3):
            for insertions in tuples:
                assert block_rank(md, genus, insertions) == tensor_block_rank(factors, md.vacuum, genus, insertions)

    @pytest.mark.parametrize("name", HANDLE_THEORIES)
    def test_handle_matches_the_tensor_sum(self, name):
        md = oracle_theory(name)
        tensor = verlinde_tensor(md)
        assert np.array_equal(blocks._rank_factor(md, None), np.einsum("nbd,ncd->bc", tensor, tensor))

    @pytest.mark.parametrize("genus,insertions,what", [(0, (1, 1), "fusion coefficient"), (1, (), "handle")])
    def test_tampered_smatrix_raises(self, genus, insertions, what):
        md = modular_data("A1", 6)
        tampered = md.smatrix.copy()
        tampered[2, 1] += 1e-3
        md = dataclasses.replace(md, smatrix=tampered)
        with pytest.raises(IntegralityError, match=what):
            block_rank(md, genus, insertions)

    def test_negative_fusion_coefficient_raises(self):
        # D S D with D = diag(1, -1, 1, 1, 1) is symmetric and unitary, and its
        # Verlinde sums are integers, but N_{1,2}^3 turns -1
        md = modular_data("A1", 4)
        signs = np.array([1, -1, 1, 1, 1])
        md = dataclasses.replace(md, smatrix=signs[:, None] * md.smatrix * signs)
        with pytest.raises(IntegralityError, match=r"fusion coefficient \(negative\)"):
            block_rank(md, 0, (1,))

    def test_peak_memory_is_a_few_smatrices(self):
        # the A2 level 27 tensor alone is 406^3 int64 entries, 535 MB
        md = modular_data("A2", 27)
        tracemalloc.start()
        try:
            assert block_rank(md, 1, (1, 1, 1)) == 2187
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * md.dim**2


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
        # A rank past float range (1075 bits): the vector leaves int64 early and stays Python ints.
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

    @pytest.mark.parametrize("insertions", [(-1, -1), (5,), (0, 5, 0)])
    def test_insertion_outside_the_labels_is_a_precondition(self, insertions):
        # -1 would read the last label, 5 is past the five labels of A1 level 4
        with pytest.raises(PreconditionError, match="label index"):
            block_rank(modular_data("A1", 4), 0, insertions)

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


class TestIntegerProduct:
    """The rank is one product over int64 factors, Python ints past int64."""

    @pytest.mark.parametrize(
        "algebra,level", [("A1", k) for k in range(1, 41)] + [("A2", k) for k in range(1, 13)]
    )
    def test_matches_the_float_then_int_product(self, algebra, level):
        # every insertion alone, then pairs and triples of a spread of labels
        md = modular_data(algebra, level)
        n = md.dim
        spread = sorted({0, 1 % n, 2 % n, n // 3, n // 2, n - 1})
        tuples = [()] + [(a,) for a in range(n)]
        tuples += [t for m in (2, 3) for t in itertools.combinations_with_replacement(spread, m)]
        factors = {key: blocks._rank_factor(md, key) for key in [None, *range(n)]}
        for genus in range(4):
            for insertions in tuples:
                assert block_rank(md, genus, insertions) == float_then_int_rank(md, factors, genus, insertions)

    def test_crossing_int64_midway_matches_python_ints(self):
        md = modular_data("A1", 10)
        # the vector starts int64 and turns to Python ints among the handles
        assert block_rank(md, 6, (5, 5)) < 2**63 < block_rank(md, 12, (5, 5))
        assert block_rank(md, 12, (5, 5)) == python_int_rank(md, 12, (5, 5)) == 88875941870257607540736

    @pytest.mark.parametrize("algebra,level", [("A1", 4), ("A2", 6), ("G2", 5)])
    def test_factors_are_int64(self, algebra, level):
        md = modular_data(algebra, level)
        for key in (None, 0, md.dim - 1):
            assert blocks._rank_factor(md, key).dtype == np.int64

    def test_each_factor_is_multiplied_once_in_integers(self):
        # spy factors record each product: int64 until the bound passes 2**63
        products = []

        class Spy(np.ndarray):
            def __rmatmul__(self, other):
                products.append(other.dtype.name)
                return np.asarray(other) @ np.asarray(self)

        md = dataclasses.replace(modular_data("A1", 10))
        for key in (5, None):
            factor = blocks._rank_factor(md, key).view(Spy)
            md._derived(("rank_factor", key), lambda md, factor=factor: factor)
        assert block_rank(md, 12, (5, 5)) == 88875941870257607540736
        assert len(products) == 14
        switch = products.index("object")
        assert 2 < switch and products == ["int64"] * switch + ["object"] * (14 - switch)


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

    def test_empty_insertions_are_a_precondition(self):
        md, g = setup_theory(4)
        calls = [
            lambda: admissible_tuples(g, ()),
            lambda: untwisted_tuples(md, g, ()),
            lambda: fourier_eigendims(md, g, (), 1),
            lambda: gamma_out(g, 0),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match="at least one insertion"):
                call()

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
        assert list(spectrum.dims) == sorted(spectrum.dims)

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


class TestTraceLayerIndices:
    """A negative genus, a tuple of the wrong length or an index outside the
    labels is refused (A1 level 4 has the five labels 0..4 and the currents
    0 and 4)."""

    @pytest.mark.parametrize("insertions,t", [((2, 2), (4,)), ((2,), (4, 4)), ((2, 2, 2), ())])
    def test_trace_of_a_tuple_of_the_wrong_length(self, insertions, t):
        md, _ = setup_theory(4)
        with pytest.raises(PreconditionError, match=f"{len(t)} currents for {len(insertions)} insertions"):
            symmetry_trace(md, insertions, t)

    @pytest.mark.parametrize("insertions", [(-3, 2), (2, 5)])
    def test_trace_of_an_insertion_outside_the_labels(self, insertions):
        md, _ = setup_theory(4)
        with pytest.raises(PreconditionError, match="is not a label index below 5"):
            symmetry_trace(md, insertions, (0, 0))

    @pytest.mark.parametrize("current", [-1, 7])
    def test_trace_of_a_current_outside_the_labels(self, current):
        md, _ = setup_theory(4)
        with pytest.raises(PreconditionError, match=f"current index {current} is not below 5"):
            symmetry_trace(md, (2, 2), (0, current))

    @pytest.mark.parametrize("insertions", [(2, 9), (-1, 2)])
    def test_admissible_tuples_of_an_insertion_outside_the_labels(self, insertions):
        _, g = setup_theory(4)
        with pytest.raises(PreconditionError, match="is not a label index below 5"):
            admissible_tuples(g, insertions)

    @pytest.mark.parametrize("insertions", [(2, -3), (9, 2)])
    def test_untwisted_tuples_of_an_insertion_outside_the_labels(self, insertions):
        md, g = setup_theory(4)
        with pytest.raises(PreconditionError, match="is not a label index below 5"):
            untwisted_tuples(md, g, insertions)

    def test_trace_at_a_negative_genus(self):
        md, _ = setup_theory(4)
        with pytest.raises(PreconditionError, match="genus must be non-negative, not -1"):
            symmetry_trace(md, (2, 2), (4, 4), genus=-1)

    def test_factorization_check_refuses_through_the_trace(self):
        md, _ = setup_theory(4)
        with pytest.raises(PreconditionError, match="insertion 9 is not a label index below 5"):
            trace_factorization_check(md, (2, 2, 2, 9), 2, (0, 0, 0, 0), 0)
        with pytest.raises(PreconditionError, match="2 currents for 3 insertions"):
            trace_factorization_check(md, (2, 2, 2), 1, (0, 0), 0)


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

    @pytest.mark.parametrize(
        "insertions,genus,shift,rank,value,character",
        [
            # rank 9 with the other trace moved from -3 to -2: (9 - 2) / 2 is no integer
            ((2, 2), 1, {(4, 4): 1}, 9, 3.5, {"(0, 0)": "0", "(4, 4)": "0"}),
            # X_chi moves by 2 where chi tells the two moved tuples apart
            (
                (2, 2, 2, 2),
                0,
                {(0, 0, 4, 4): 1, (0, 4, 0, 4): -1},
                3,
                0.25,
                {
                    "(0, 0, 0, 0)": "0", "(0, 0, 4, 4)": "0", "(0, 4, 0, 4)": "1/2",
                    "(0, 4, 4, 0)": "1/2", "(4, 0, 0, 4)": "0", "(4, 0, 4, 0)": "0",
                    "(4, 4, 0, 0)": "1/2", "(4, 4, 4, 4)": "1/2",
                },
            ),
            # a miss of 1e-3 is far past the float error bound of these sums
            ((2, 2), 1, {(4, 4): 1e-3}, 9, 3.0005, {"(0, 0)": "0", "(4, 4)": "0"}),
        ],
        ids=["all-characters", "one-character", "past-the-float-bound"],
    )
    def test_dims_must_divide_exactly(
        self, monkeypatch, insertions, genus, shift, rank, value, character
    ):
        md, g = setup_theory(4)
        exact = blocks.symmetry_trace
        monkeypatch.setattr(
            blocks, "symmetry_trace", lambda md, ins, t, gen: exact(md, ins, t, gen) + shift.get(t, 0)
        )
        with pytest.raises(ConjectureViolation, match="not a non-negative integer") as err:
            fourier_eigendims(md, g, insertions, genus)
        assert err.value.report["rank"] == rank
        assert err.value.report["value"] == pytest.approx(value)
        assert err.value.report["character"] == character

    def test_lost_precision_is_not_a_conjecture_failure(self):
        # the one other trace is 6^12, off by 7.6e-6 in floats, within the bound
        md, g = setup_theory(10)
        assert 1e-6 < abs(symmetry_trace(md, (5, 5), (10, 10), 12) - 6**12) < 1e-5
        with pytest.raises(PrecisionExhausted, match="within its float error bound") as err:
            fourier_eigendims(md, g, (5, 5), genus=12)
        assert float(str(err.value).rsplit(" ", 1)[1]) < 1e-4

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
