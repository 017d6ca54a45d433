"""Tests for truncated characters, twining traces, and the S-check."""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from wzwkit.affine import integrable_weights, modular_data
from wzwkit.blocks import LoopElement, loop_bracket
from wzwkit.characters import (
    QSeries,
    _a1_swap_cycles,
    irreducible_character,
    numeric_modular_check,
    orbit_verma_character,
    twining_verma_character,
    verma_character,
)
from wzwkit.errors import (
    InternalConsistencyError,
    PreconditionError,
    UnsupportedFolding,
)
from wzwkit.liealg import build_algebra

RANK_LE4 = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2",
)
PAIR_SWEEP = tuple((name, level) for name in RANK_LE4 for level in (1, 2, 3))


# ---------------------------------------------------------------------------
# Test-only A1 oracle: the bivariate Weyl-Kac quotient, in the variable y with
# y^2 tracking the weight lattice, divided exactly grade by grade.
# ---------------------------------------------------------------------------


def _laurent_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _divide_antisymmetric(poly: dict[int, int]) -> dict[int, int]:
    """Divide an antisymmetric Laurent polynomial by (y - 1/y) exactly.

    Uses (y^e - y^-e) / (y - 1/y) = y^{e-1} + y^{e-3} + ... + y^{1-e}.
    """
    out: dict[int, int] = {}
    for e, c in poly.items():
        if c == 0:
            continue
        if poly.get(-e, 0) != -c:
            raise InternalConsistencyError(
                "character numerator is not divisible by the Weyl denominator"
            )
        if e <= 0:
            continue
        for i in range(e):
            key = e - 1 - 2 * i
            out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def _weyl_kac_term(shift: int, ell: int, grade: int) -> dict[int, dict[int, int]]:
    """Each integer n contributes q^{ell n^2 + shift n} times
    (y^{2 ell n + shift} - y^{-(2 ell n + shift)})."""
    out: dict[int, dict[int, int]] = {}
    bound = int((grade + abs(shift)) ** 0.5) + 2
    for n in range(-bound, bound + 1):
        e = ell * n * n + shift * n
        if e > grade:
            continue
        row = out.setdefault(e, {})
        top = 2 * ell * n + shift
        row[top] = row.get(top, 0) + 1
        row[-top] = row.get(-top, 0) - 1
    return out


def _a1_quotient(level: int, lam: int, grade: int) -> tuple[int, ...]:
    numerator = _weyl_kac_term(lam + 1, level + 2, grade)
    denominator = _weyl_kac_term(1, 2, grade)
    quotient: list[dict[int, int]] = []
    for n in range(grade + 1):
        rhs = dict(numerator.get(n, {}))
        for j in range(1, n + 1):
            for e, c in _laurent_mul(denominator.get(j, {}), quotient[n - j]).items():
                rhs[e] = rhs.get(e, 0) - c
        quotient.append(_divide_antisymmetric(rhs))
    return tuple(sum(part.values()) for part in quotient)


def _e8_level_one(grade: int) -> tuple[int, ...]:
    """E4 / prod (1 - q^n)^8, with E4 = 1 + 240 sum sigma_3(n) q^n."""
    coeffs = [1] + [
        240 * sum(d**3 for d in range(1, n + 1) if n % d == 0)
        for n in range(1, grade + 1)
    ]
    for m in range(1, grade + 1):
        for _ in range(8):
            for n in range(m, grade + 1):
                coeffs[n] += coeffs[n - m]
    return tuple(coeffs)


def _weyl_dimension(algebra: str, weight) -> Q:
    """prod_{alpha > 0} (lambda + rho, alpha) / (rho, alpha) over the metric."""
    alg = build_algebra(algebra)
    rho = (1,) * alg.rank
    shifted = tuple(x + 1 for x in weight)
    return math.prod(
        alg.pairing(shifted, alpha) / alg.pairing(rho, alpha)
        for alpha in alg.positive_roots_omega
    )


# ---------------------------------------------------------------------------
# Test-only oracle: the A1 node swap derived by closing its two seed images
# under the loop bracket, and its graded trace by enumerating every invariant
# monomial of lowering generators.  Keys are (generator, m) for x t^-m.
# ---------------------------------------------------------------------------

_GENERATOR_DEGREE = {"F": 1, "E": -1, "H": 0}


def _principal_degree(gen: str, m: int) -> int:
    return 2 * m + _GENERATOR_DEGREE[gen]


def _scale_element(elem: LoopElement, factor: Q) -> LoopElement:
    parts = {gen: laurent.scale(factor) for gen, laurent in elem.parts}
    return LoopElement.make(parts, central=elem.central * factor)


def _signed_generator(elem: LoopElement) -> tuple[tuple[str, int], int]:
    """Read off a single basis element with coefficient +-1."""
    assert elem.central == 0, "automorphism image acquired a central term"
    assert len(elem.parts) == 1, "automorphism image is not a single generator"
    gen, laurent = elem.parts[0]
    live = [(e, c) for e, c in laurent.coeffs if c]
    assert len(live) == 1 and live[0][1] in (1, -1), (gen, live)
    exponent, coeff = live[0]
    return (gen, -exponent), int(coeff)


def _a1_flip_action(grade: int) -> dict[tuple[str, int], tuple[tuple[str, int], int]]:
    """Signed-permutation action of the node swap, from its seed images.

    Only F t^0 <-> E t^-1 is postulated; every other image follows from the
    loop bracket, and the result must keep the principal degree and square
    to the identity.
    """
    images: dict[tuple[str, int], LoopElement] = {
        ("F", 0): LoopElement.generator("E", -1),
        ("E", 1): LoopElement.generator("F", 0),
    }
    for m in range(1, grade // 2 + 3):
        if m >= 2:
            images[("E", m)] = _scale_element(
                loop_bracket(images[("H", m - 1)], images[("E", 1)]), Q(1, 2)
            )
        images[("H", m)] = loop_bracket(images[("E", m)], images[("F", 0)])
        images[("F", m)] = _scale_element(
            loop_bracket(images[("H", m)], images[("F", 0)]), Q(-1, 2)
        )
    action = {key: _signed_generator(elem) for key, elem in images.items()}
    for source, (target, sign) in action.items():
        assert _principal_degree(*source) == _principal_degree(*target), source
        if target in action:
            assert action[target] == (source, sign), source
    return action


def _basis(action, grade: int) -> list[tuple[str, int]]:
    return sorted(b for b in action if 0 < _principal_degree(*b) <= grade)


def _action_cycles(action, grade: int) -> list[tuple[int, int, int]]:
    """(length, degree, phase) of each cycle on the degree-<=grade basis."""
    basis = _basis(action, grade)
    seen: set[tuple[str, int]] = set()
    cycles = []
    for start in basis:
        if start in seen:
            continue
        members, phase, cur = 0, 1, start
        while True:
            assert cur in basis, f"cycle through {start} escapes the basis"
            seen.add(cur)
            members += 1
            cur, sign = action[cur]
            phase *= sign
            if cur == start:
                break
        cycles.append((members, _principal_degree(*start), phase))
    return cycles


def _brute_force_trace(action, grade: int) -> list[int]:
    """Graded trace by direct enumeration of invariant monomials.

    Walks every multiset of lowering generators up to the cutoff; a
    monomial contributes its accumulated sign when the automorphism
    permutes its factors among themselves and zero otherwise.
    """
    basis = _basis(action, grade)
    index = {b: i for i, b in enumerate(basis)}
    degrees = [_principal_degree(*b) for b in basis]
    out = [0] * (grade + 1)
    mults = [0] * len(basis)

    def contribution() -> None:
        phase = 1
        for i, b in enumerate(basis):
            target, sign = action[b]
            if mults[index[target]] != mults[i]:
                return
            phase *= sign ** mults[i]
        out[sum(m * d for m, d in zip(mults, degrees))] += phase

    def walk(pos: int, total: int) -> None:
        if pos == len(basis):
            contribution()
            return
        m = 0
        while total + m * degrees[pos] <= grade:
            mults[pos] = m
            walk(pos + 1, total + m * degrees[pos])
            m += 1
        mults[pos] = 0

    walk(0, 0)
    return out


class TestQSeries:
    def test_grade_counts_retained_coefficients(self):
        series = QSeries((1, 0, 2), Q(1, 8))
        assert series.grade == 2

    def test_evaluate_sums_shifted_powers(self):
        series = QSeries((1, 2), Q(-1, 24))
        got = series.evaluate(1j)
        expected = cmath.exp(-2 * cmath.pi * (-1 / 24)) + 2 * cmath.exp(
            -2 * cmath.pi * (23 / 24)
        )
        assert got == pytest.approx(expected)


class TestVermaCharacter:
    def test_rank_one_coefficients(self):
        series = verma_character("A1", 2, (1,), grade=6)
        assert series.coeffs == (1, 3, 9, 22, 51, 108, 221)

    def test_rank_two_coefficients(self):
        series = verma_character("A2", 1, (0, 0), grade=4)
        assert series.coeffs == (1, 8, 44, 192, 726)

    def test_exponent_is_weight_minus_central_term(self):
        series = verma_character("A1", 2, (1,), grade=2)
        assert series.exponent == Q(3, 16) - Q(1, 16)

    def test_coefficients_do_not_depend_on_weight(self):
        a = verma_character("A1", 4, (0,), grade=5)
        b = verma_character("A1", 4, (3,), grade=5)
        assert a.coeffs == b.coeffs
        assert a.exponent != b.exponent

    @given(
        level=st.integers(min_value=1, max_value=6),
        lam=st.integers(min_value=0, max_value=6),
        grade=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_coefficients_start_at_one_and_weakly_increase(self, level, lam, grade):
        series = verma_character("A1", level, (lam,), grade=grade)
        assert series.coeffs[0] == 1
        for earlier, later in zip(series.coeffs, series.coeffs[1:]):
            assert later >= earlier

    def test_rejects_wrong_weight_length(self):
        with pytest.raises(PreconditionError):
            verma_character("A2", 2, (1,), grade=3)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(PreconditionError):
            verma_character("A1", 0, (0,), grade=3)


class TestFlipAction:
    def test_seed_images_swap(self):
        action = _a1_flip_action(6)
        assert action[("F", 0)] == (("E", 1), 1)
        assert action[("E", 1)] == (("F", 0), 1)

    def test_cartan_modes_pick_up_a_sign(self):
        action = _a1_flip_action(6)
        assert action[("H", 1)] == (("H", 1), -1)
        assert action[("H", 2)] == (("H", 2), -1)
        assert action[("H", 3)] == (("H", 3), -1)

    def test_higher_pairs_swap_without_sign(self):
        action = _a1_flip_action(6)
        assert action[("E", 2)] == (("F", 1), 1)
        assert action[("F", 1)] == (("E", 2), 1)
        assert action[("E", 3)] == (("F", 2), 1)

    @pytest.mark.parametrize("grade", [0, 1, 6, 13, 30])
    def test_closed_form_cycles_match_the_derived_action(self, grade):
        derived = _action_cycles(_a1_flip_action(grade), grade)
        assert sorted(_a1_swap_cycles(grade)) == sorted(derived)


class TestTwiningVerma:
    def test_identity_reproduces_verma(self):
        plain = verma_character("A1", 3, (1,), grade=6)
        twined = twining_verma_character("A1", 3, (1,), (0, 1), grade=6)
        assert twined == plain

    def test_identity_on_rank_two(self):
        plain = verma_character("A2", 2, (1, 1), grade=4)
        twined = twining_verma_character("A2", 2, (1, 1), (0, 1, 2), grade=4)
        assert twined == plain

    def test_node_swap_collapses_to_leading_term(self):
        series = twining_verma_character("A1", 2, (1,), (1, 0), grade=6)
        assert series.coeffs == (1, 0, 0, 0, 0, 0, 0)
        assert series.exponent == Q(1, 8)

    def test_node_swap_at_level_four(self):
        series = twining_verma_character("A1", 4, (2,), (1, 0), grade=8)
        assert series.coeffs == (1,) + (0,) * 8

    @pytest.mark.parametrize("grade", range(0, 19, 3))
    def test_node_swap_matches_monomial_enumeration(self, grade):
        series = twining_verma_character("A1", 4, (2,), (1, 0), grade=grade)
        assert list(series.coeffs) == _brute_force_trace(_a1_flip_action(grade), grade)

    def test_node_swap_rejects_moved_weight(self):
        with pytest.raises(PreconditionError):
            twining_verma_character("A1", 2, (0,), (1, 0), grade=4)

    def test_rejects_malformed_permutation(self):
        with pytest.raises(PreconditionError):
            twining_verma_character("A1", 2, (1,), (0, 0), grade=4)
        with pytest.raises(PreconditionError):
            twining_verma_character("A1", 2, (1,), (0, 1, 2), grade=4)

    def test_unsupported_foldings_are_flagged(self):
        with pytest.raises(UnsupportedFolding):
            twining_verma_character("A2", 3, (1, 1), (1, 2, 0), grade=4)
        with pytest.raises(UnsupportedFolding):
            twining_verma_character("A3", 2, (1, 0, 1), (0, 3, 2, 1), grade=4)


class TestOrbitVerma:
    def test_identity_orbit_is_the_algebra_itself(self):
        assert orbit_verma_character("A1", 3, (2,), (0, 1), grade=5) == (
            verma_character("A1", 3, (2,), grade=5)
        )

    @pytest.mark.parametrize("level", [2, 4, 6])
    def test_node_swap_orbit_matches_twining(self, level):
        lam = level // 2
        twined = twining_verma_character("A1", level, (lam,), (1, 0), grade=6)
        folded = orbit_verma_character("A1", level, (lam,), (1, 0), grade=6)
        assert twined == folded

    def test_node_swap_rejects_moved_weight(self):
        with pytest.raises(PreconditionError):
            orbit_verma_character("A1", 4, (1,), (1, 0), grade=4)

    def test_unsupported_folding_is_flagged(self):
        with pytest.raises(UnsupportedFolding):
            orbit_verma_character("A2", 2, (0, 0), (2, 0, 1), grade=4)


class TestIrreducibleCharacter:
    def test_level_one_vacuum_coefficients(self):
        series = irreducible_character("A1", 1, (0,), grade=6)
        assert series.coeffs == (1, 3, 4, 7, 13, 19, 29)
        assert series.exponent == Q(-1, 24)

    def test_level_one_fundamental_coefficients(self):
        series = irreducible_character("A1", 1, (1,), grade=6)
        assert series.coeffs == (2, 2, 6, 8, 14, 20, 34)
        assert series.exponent == Q(1, 4) - Q(1, 24)

    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    def test_leading_coefficient_is_the_finite_dimension(self, lam):
        series = irreducible_character("A1", 3, (lam,), grade=3)
        assert series.coeffs[0] == lam + 1

    def test_bounded_by_the_induced_module(self):
        level = 2
        for lam in range(level + 1):
            irr = irreducible_character("A1", level, (lam,), grade=6)
            verma = verma_character("A1", level, (lam,), grade=6)
            for tight, loose in zip(irr.coeffs, verma.coeffs):
                assert 0 < tight <= (lam + 1) * loose

    @pytest.mark.parametrize("level", range(1, 7))
    def test_matches_the_a1_quotient_oracle(self, level):
        for lam in range(level + 1):
            series = irreducible_character("A1", level, (lam,), grade=40)
            assert series.coeffs == _a1_quotient(level, lam, 40)

    def test_e8_level_one_is_e4_over_eta8(self):
        series = irreducible_character("E8", 1, (0,) * 8, grade=12)
        assert series.coeffs == _e8_level_one(12)
        assert series.exponent == Q(-1, 3)

    def test_e8_level_two(self):
        alg = build_algebra("E8")
        leading = {
            irreducible_character("E8", 2, lab, grade=0).coeffs[0]
            for lab in integrable_weights(alg, 2)
        }
        assert leading == {1, 248, 3875}
        vacuum = irreducible_character("E8", 2, (0,) * 8, grade=2)
        assert vacuum.coeffs == (1, 248, 31124)

    @pytest.mark.parametrize("algebra,level", PAIR_SWEEP)
    def test_leading_coefficient_is_the_weyl_dimension(self, algebra, level):
        for lab in integrable_weights(build_algebra(algebra), level):
            series = irreducible_character(algebra, level, lab, grade=0)
            assert series.coeffs[0] == _weyl_dimension(algebra, lab)

    def test_rejects_non_integrable_weight(self):
        cases = [
            ("A1", 2, (3,)),
            ("A2", 2, (-1, 1)),
            ("A2", 2, (2, 1)),
            ("G2", 2, (0, -1)),
            ("G2", 1, (0, 1)),
            ("G2", 2, (1, 1)),
        ]
        for algebra, level, weight in cases:
            alg = build_algebra(algebra)
            assert min(weight) < 0 or alg.level_of(weight) > level
            with pytest.raises(PreconditionError):
                irreducible_character(algebra, level, weight, grade=4)


class TestAntisymmetricDivision:
    def test_divides_a_theta_difference(self):
        assert _divide_antisymmetric({2: 1, -2: -1}) == {1: 1, -1: 1}

    def test_three_term_quotient(self):
        got = _divide_antisymmetric({3: 2, -3: -2})
        assert got == {2: 2, 0: 2, -2: 2}

    def test_rejects_symmetric_defect(self):
        with pytest.raises(InternalConsistencyError):
            _divide_antisymmetric({2: 1})

    def test_rejects_constant_term(self):
        with pytest.raises(InternalConsistencyError):
            _divide_antisymmetric({0: 5})


class TestNumericModularCheck:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_characters_are_fixed_by_s_at_the_self_dual_point(self, level):
        md = modular_data("A1", level)
        report = numeric_modular_check(md, grade=40)
        assert report["max_residual"] < 1e-4
        assert report["tail_estimate"] < 1e-10
        assert len(report["residuals"]) == md.dim

    def test_pair_residuals_vanish_up_to_rank_four(self):
        start = time.monotonic()
        for algebra, level in PAIR_SWEEP:
            report = numeric_modular_check(modular_data(algebra, level), grade=12)
            assert report["max_residual"] < 1e-10, (algebra, level)
            assert report["tail_estimate"] < 1e-10
        assert time.monotonic() - start < 10

    def test_second_pair_sees_more_than_the_fixed_point(self):
        # A common factor q^(1/2) keeps the vector at tau = i fixed by S, so
        # the self-dual comparison alone passes it; the pair (1.25i, 0.8i)
        # sees that the shifted series no longer transform.
        md = modular_data("A1", 2)

        def shifted(index):
            series = irreducible_character("A1", 2, md.labels[index], grade=20)
            return QSeries(series.coeffs, series.exponent + Q(1, 2))

        at_i = [shifted(i).evaluate(1j) for i in range(md.dim)]
        assert max(abs(at_i - md.smatrix @ at_i)) < 1e-12
        report = numeric_modular_check(md, char_supplier=shifted, grade=20)
        assert report["max_residual"] > 1e-3

    def test_custom_supplier_reports_without_raising(self):
        md = modular_data("A1", 1)

        def supplier(index):
            return verma_character("A1", 1, md.labels[index], grade=6)

        report = numeric_modular_check(md, char_supplier=supplier, grade=6)
        assert len(report["residuals"]) == 2
        assert report["max_residual"] >= 0.0
