"""End-to-end acceptance suite.

One test per shipped guarantee, each run at its stated tolerance, so the
verbose test report reads as one pass or fail line per criterion.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from wzwkit.affine import modular_data, verify_modular_invariants
from wzwkit.blocks import (
    block_rank,
    fix_compatible,
    fourier_eigendims,
    multishift_validate,
    trace_factorization_check,
    untwisted_tuples,
)
from wzwkit.boundary import (
    automorphism_type_decomposition,
    classifying_algebra,
    match_up_to_column_signs,
    z2_wzw_hat_table,
)
from wzwkit.characters import (
    numeric_modular_check,
    orbit_verma_character,
    twining_verma_character,
)
from wzwkit.errors import ConjectureViolation
from wzwkit.fusion import simple_currents, tensor_product, verlinde_tensor
from wzwkit.liealg import build_algebra, center_group
from wzwkit.orbifold import (
    assemble_orbifold,
    conjecture2_trace,
    dual_current_label,
    inner_orbifold_input,
)
from wzwkit.simplecurrent import extend_by_group, orbit_data

RANK_LE3 = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")
SUITE_LEVELS = range(1, 7)

SWEEP = tuple((("A1", k) for k in range(2, 9))) + tuple(
    ("A2", k) for k in range(1, 5)
)


@pytest.fixture(scope="module")
def modular_suite():
    """Every rank <= 3 theory at levels 1..6, with residuals and timing."""
    start = time.monotonic()
    built = {}
    for name in RANK_LE3:
        for level in SUITE_LEVELS:
            md = modular_data(name, level)
            residuals = verify_modular_invariants(md, tol=1e-8)
            tensor = verlinde_tensor(md, tol=1e-6)
            built[(name, level)] = (md, max(residuals.values()), int(tensor.min()))
    return built, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_theories():
    out = []
    for name, level in SWEEP:
        md = modular_data(name, level)
        out.append((md, simple_currents(md)))
    return out


@pytest.fixture(scope="module")
def orbifold_suite():
    out = {}
    for level in (2, 4):
        parent = modular_data("A1", level)
        oin = inner_orbifold_input(parent, (Q(1),))
        out[level] = (parent, oin, assemble_orbifold(oin, tol=1e-8))
    return out


def test_criterion_01_modular_data_suite_invariants(modular_suite):
    built, elapsed = modular_suite
    assert len(built) == len(RANK_LE3) * len(SUITE_LEVELS)
    worst = max(residual for _, residual, _ in built.values())
    assert worst < 1e-8
    assert min(low for _, _, low in built.values()) >= 0
    assert elapsed < 60.0


def test_criterion_02_simple_currents_realize_the_center(modular_suite):
    built, _ = modular_suite
    for (name, level), (md, _, _) in built.items():
        group = simple_currents(md)
        detected = sorted(group.element_order(j) for j in group.indices)
        factors = center_group(build_algebra(name)).factors
        expected = []
        for element in itertools.product(*(range(d) for d in factors)):
            order = 1
            for a, d in zip(element, factors):
                part = d // math.gcd(a, d)
                order = order * part // math.gcd(order, part)
            expected.append(order)
        assert detected == sorted(expected), f"{name} level {level}"


def test_criterion_03_su2_level_four_extension():
    md = modular_data("A1", 4)
    ext = extend_by_group(md, simple_currents(md))
    assert len(ext.classes) == 3
    assert [md.labels[cls.rep] for cls in ext.classes] == [(0,), (2,), (2,)]
    residuals = verify_modular_invariants(ext.md, tol=1e-8)
    assert max(residuals.values()) < 1e-8
    tensor = verlinde_tensor(ext.md, tol=1e-6)
    for a in range(3):
        matrix = tensor[a]
        assert matrix.min() >= 0 and matrix.max() == 1
        assert (matrix.sum(axis=0) == 1).all()
        assert (matrix.sum(axis=1) == 1).all()
    assert simple_currents(ext.md).order == 3
    z = np.asarray(ext.zmatrix, dtype=float)
    assert z[2, 2] == 2.0
    s = md.smatrix
    t = md.t_diagonal()
    assert np.abs(z @ s - s @ z).max() < 1e-9
    assert np.abs(z * t[np.newaxis, :] - t[:, np.newaxis] * z).max() < 1e-9


def test_criterion_04_triple_tensor_embedding_resolves_to_so9():
    a = modular_data("A1", 2)
    triple = tensor_product(tensor_product(a, a), a)

    def index(l1, l2, l3):
        return triple.labels.index((((l1,), (l2,)), (l3,)))

    group = simple_currents(triple).subgroup((index(2, 2, 0), index(2, 0, 2)))
    assert group.order == 4
    assert sorted(group.element_order(j) for j in group.indices) == [1, 2, 2, 2]

    diagonal = index(1, 1, 1)
    record = next(r for r in orbit_data(triple, group) if diagonal in r.orbit)
    assert len(record.stabilizer) == 4
    assert record.untwisted_stabilizer is not None
    assert len(record.untwisted_stabilizer) == 1
    assert record.degeneracy == 2

    ext = extend_by_group(triple, group)
    reference = modular_data("B4", 1)
    assert ext.md.dim == reference.dim == 3
    assert ext.md.central_charge == reference.central_charge
    assert sorted(ext.md.delta) == sorted(reference.delta)
    lineup = [ext.md.delta.index(d) for d in reference.delta]
    shuffled = ext.md.smatrix[np.ix_(lineup, lineup)]
    assert np.abs(shuffled - reference.smatrix).max() < 1e-8


def test_criterion_05_conjecture_one_sweep(sweep_theories):
    start = time.monotonic()
    checked = 0
    for md, group in sweep_theories:
        for m in (3, 4):
            for insertions in itertools.combinations_with_replacement(
                range(md.dim), m
            ):
                spectrum = fourier_eigendims(md, group, insertions, genus=0)
                identity = (md.vacuum,) * m
                assert abs(spectrum.traces[identity] - spectrum.rank) < 1e-6
                for value in spectrum.traces.values():
                    assert abs(value.imag) < 1e-6
                    assert abs(value.real - round(value.real)) < 1e-6
                checked += 1
    assert checked == sum(
        math.comb(md.dim + m - 1, m) for md, _ in sweep_theories for m in (3, 4)
    )
    assert time.monotonic() - start < 600.0


def test_criterion_06_factorization_identities(sweep_theories):
    for md, group in sweep_theories:
        conj = md.conjugation_permutation()
        for m in (3, 4):
            for insertions in itertools.combinations_with_replacement(
                range(md.dim), m
            ):
                genus_one = block_rank(md, 1, insertions)
                glued = sum(
                    block_rank(md, 0, tuple(insertions) + (nu, int(conj[nu])))
                    for nu in range(md.dim)
                )
                assert genus_one == glued
                split = m // 2
                for t in untwisted_tuples(md, group, insertions):
                    for glue in group.indices:
                        if not fix_compatible(md, t, glue):
                            continue
                        lhs, rhs = trace_factorization_check(
                            md, insertions, split, t, glue
                        )
                        assert abs(lhs - rhs) < 1e-6


def test_criterion_07_inner_orbifold_suite(orbifold_suite):
    for level, (parent, oin, orb) in orbifold_suite.items():
        assert max(orb.residuals.values()) < 1e-8
        tensor = verlinde_tensor(orb.md, tol=1e-6)
        assert tensor.min() >= 0
        square = oin.s0 @ oin.s0
        magnitude = np.abs(square)
        permutation = np.round(magnitude)
        assert np.abs(magnitude - permutation).max() < 1e-8
        assert (permutation.sum(axis=0) == 1).all()
        assert (permutation.sum(axis=1) == 1).all()
        twice = orb.pmatrix @ orb.pmatrix
        assert np.abs(np.abs(twice) - magnitude).max() < 1e-8


def test_criterion_08_conjecture_two_on_the_orbifold_suite(orbifold_suite):
    passing = {1: True, -1: True}
    for level, (parent, oin, orb) in orbifold_suite.items():
        for triple in itertools.combinations_with_replacement(range(parent.dim), 3):
            for orientation in (1, -1):
                try:
                    outcome = conjecture2_trace(oin, triple, orientation=orientation)
                except ConjectureViolation:
                    passing[orientation] = False
                    continue
                assert outcome.dim_plus >= 0
                assert outcome.dim_minus >= 0
                assert outcome.dim_plus + outcome.dim_minus == outcome.rank
    assert passing[1] or passing[-1]


def test_criterion_09_boundary_suite(orbifold_suite):
    md = modular_data("A1", 3)
    trivial = simple_currents(md).subgroup(())
    algebra = classifying_algebra(md, trivial)
    fusion = verlinde_tensor(md)
    assert np.array_equal(np.round(algebra.nhat.real).astype(int), fusion)
    assert np.abs(algebra.nhat - fusion).max() < 1e-8

    for level, (parent, oin, orb) in orbifold_suite.items():
        dual = orb.md.labels.index(dual_current_label(parent))
        group = simple_currents(orb.md).subgroup((dual,))
        assert group.order == 2
        ca = classifying_algebra(orb.md, group)
        table = z2_wzw_hat_table(orb)
        signs = match_up_to_column_signs(ca.smatrix, table, tol=1e-8)
        assert len(signs) == ca.dim
        assert ca.residuals["representation_property"] < 1e-8
        decomposition = automorphism_type_decomposition(ca, tol=1e-8)
        assert decomposition.residual < 1e-8
        assert len(decomposition.parts) == 2


def test_criterion_10_character_and_shift_oracles():
    foldings = [
        ("A1", 3, (1,), (0, 1)),
        ("A1", 3, (2,), (0, 1)),
        ("A2", 2, (1, 1), (0, 1, 2)),
        ("A2", 2, (0, 1), (0, 1, 2)),
        ("A1", 2, (1,), (1, 0)),
        ("A1", 4, (2,), (1, 0)),
        ("A1", 6, (3,), (1, 0)),
    ]
    for algebra, level, weight, automorphism in foldings:
        twined = twining_verma_character(algebra, level, weight, automorphism, grade=6)
        folded = orbit_verma_character(algebra, level, weight, automorphism, grade=6)
        assert twined == folded
    for level in (1, 2, 3, 4):
        report = numeric_modular_check(modular_data("A1", level), grade=40)
        assert report["max_residual"] < 1e-4
    for m in (2, 3):
        report = multishift_validate(m, grade=4)
        assert report["max_residual"] == 0
