from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wzwkit.fusion
from wzwkit.affine import modular_data, verify_modular_invariants
from wzwkit.blocks import block_rank
from wzwkit.errors import IntegralityError, InternalConsistencyError, InvariantViolation
from wzwkit.fusion import simple_currents, tensor_product, verify_fusion, verlinde_tensor
from wzwkit.liealg import build_algebra, center_group
from wzwkit.orbifold import assemble_orbifold, inner_orbifold_input
from wzwkit.simplecurrent import extend_by_group, fixed_point_smatrix


def su2_fusion_oracle(k: int, a: int, b: int, c: int) -> int:
    """Truncated angular-momentum addition rule for level-k su(2)."""
    if (a + b + c) % 2 != 0:
        return 0
    lo = abs(a - b)
    hi = min(a + b, 2 * k - a - b)
    return 1 if lo <= c <= hi else 0


def full_tensor_verlinde(md, s=None):
    """The Verlinde sum as one stored n^3 tensor, each N_a formed whole as
    (S diag(S_a / S_0)) S^dagger, then its worst residual and its smallest
    entry over the whole tensor.  ``s`` defaults to the complex S.

    Returns (tensor, residual, worst, value, neg, lowest, current permutations).
    """
    s = md.smatrix if s is None else s
    n = len(s)
    tensor = np.empty((n, n, n), dtype=np.int64)
    residual, where, value = np.empty(n), np.empty(n, dtype=np.intp), np.empty(n, dtype=complex)
    for a in range(n):
        raw = (s * (s[a] / s[0])) @ s.conj().T
        rounded = np.round(raw.real)
        tensor[a] = rounded
        off = np.abs(raw - rounded)
        where[a] = np.argmax(off)
        residual[a], value[a] = off.flat[where[a]], raw.flat[where[a]]
    a = int(np.argmax(residual))
    worst = (a, *divmod(int(where[a]), n))
    neg = tuple(int(i) for i in np.unravel_index(int(np.argmin(tensor)), tensor.shape))
    perms = {
        j: tuple(int(np.argmax(tensor[j, b])) for b in range(n))
        for j in range(n)
        if (tensor[j].sum(axis=1) == 1).all()
    }
    return tensor, float(residual[a]), worst, complex(value[a]), neg, float(tensor[neg]), perms


def streamed_operand(md):
    """The S matrix the row pass sums over: its real part when S is exactly
    real, or self-conjugate (S^2 = 1) with an imaginary part of at most n eps."""
    s = md.smatrix
    noise = np.abs(s.imag).max() <= md.dim * np.finfo(float).eps
    if not s.imag.any() or (noise and np.allclose(s @ s, np.eye(md.dim))):
        return s.real
    return s


def summation_bound(s):
    """A-priori bound on the difference of two summation orders of the
    Verlinde sums of ``s`` (Higham, ch. 4): 2 n eps max_abc sum_k |S_ak S_bk S_ck / S_0k|."""
    a = np.abs(s)
    weight = (a / a[0]).T
    return 2 * len(s) * np.finfo(float).eps * max(((a * row) @ weight).max() for row in a)


def full_row_entry(s, a, b, c):
    """The raw sum N_ab^c as ``full_tensor_verlinde`` forms it, from the full row a."""
    return ((s * (s[a] / s[0])) @ s.conj().T)[b, c]


def verify_streamed(md, tol=1e-6):
    """``verify_fusion`` as it reads the streamed pass, the route of every theory
    without a Pieri certificate, whichever route ``md`` takes."""
    return wzwkit.fusion._checked(md, wzwkit.fusion._summary(md), tol)


def oracle_theories():
    yield from (pytest.param("A1", k, id=f"A1-{k}") for k in range(1, 61))
    yield from (pytest.param("A2", k, id=f"A2-{k}") for k in range(1, 11))
    yield pytest.param("B3", 3, id="B3-3")
    yield pytest.param("G2", 6, id="G2-6")
    yield pytest.param("A1*A2", 2, id="A1xA2-2")
    yield pytest.param("A1/ext", 16, id="A1-16-ext")


def oracle_theory(label, k):
    if label == "A1*A2":
        return tensor_product(modular_data("A1", k), modular_data("A2", k))
    if label.endswith("/ext"):
        parent = modular_data(label[:-4], k)
        return extend_by_group(parent, simple_currents(parent)).md
    if label.endswith("/orb"):
        return assemble_orbifold(inner_orbifold_input(modular_data(label[:-4], k), (1,))).md
    return modular_data(label, k)


def flipped(md, i):
    """``md`` with row and column i of S negated: still unitary and symmetric,
    but N_ab^c changes sign when an odd number of a, b, c equal i."""
    sign = np.ones(md.dim)
    sign[i] = -1
    return dataclasses.replace(md, smatrix=md.smatrix * np.outer(sign, sign))


@pytest.fixture(scope="module")
def su2_data():
    return {k: modular_data("A1", k) for k in range(1, 7)}


class TestVerlinde:
    def test_su2_level1_ising_like_ring(self, su2_data):
        n = verlinde_tensor(su2_data[1])
        assert n[1, 1, 0] == 1
        assert n[1, 1, 1] == 0

    def test_su2_level2_spin_half_square(self, su2_data):
        n = verlinde_tensor(su2_data[2])
        assert n[1, 1].tolist() == [1, 0, 1]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_su2_matches_truncated_addition(self, k, su2_data):
        n = verlinde_tensor(su2_data[k])
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    assert n[a, b, c] == su2_fusion_oracle(k, a, b, c)

    def test_vacuum_fuses_trivially(self):
        md = modular_data("B2", 2)
        n = verlinde_tensor(md)
        assert np.array_equal(n[0], np.eye(md.dim, dtype=np.int64))

    def test_fusion_with_conjugate_reaches_vacuum_once(self):
        md = modular_data("A2", 2)
        n = verlinde_tensor(md)
        conj = md.conjugation_permutation()
        for a in range(md.dim):
            assert n[a, :, 0].tolist() == [1 if b == conj[a] else 0 for b in range(md.dim)]

    def test_associativity(self):
        md = modular_data("B2", 2)
        n = verlinde_tensor(md)
        for a in range(md.dim):
            for b in range(md.dim):
                lhs = n[a] @ n[b]
                rhs = sum(n[a, b, c] * n[c] for c in range(md.dim))
                assert np.array_equal(lhs, rhs)

    def test_a2_level1_cyclic_ring(self):
        md = modular_data("A2", 1)
        n = verlinde_tensor(md)
        one = md.index((0, 1))
        two = md.index((1, 0))
        assert n[one, one, two] == 1
        assert n[one, two, 0] == 1
        assert n[one, one, 0] == 0

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 10), a=st.integers(0, 10), b=st.integers(0, 10))
    def test_su2_oracle_property(self, k, a, b):
        a, b = min(a, k), min(b, k)
        md = modular_data("A1", k)
        n = verlinde_tensor(md)
        expect = [su2_fusion_oracle(k, a, b, c) for c in range(k + 1)]
        assert n[a, b].tolist() == expect


class TestDerivedOncePerSMatrix:
    def test_each_call_applies_its_own_tolerance(self):
        md = modular_data("A1", 4)
        verlinde_tensor(md)
        residuals = verify_modular_invariants(md)
        fusion_residual = verify_streamed(md)
        assert 0 < fusion_residual <= 1e-6
        with pytest.raises(IntegralityError) as exc:
            verlinde_tensor(md, tol=fusion_residual / 2)
        assert exc.value.residual == fusion_residual
        certificate = verify_fusion(md)
        assert 0 < certificate <= 1e-6
        with pytest.raises(IntegralityError) as exc:
            verify_fusion(md, tol=certificate / 2)
        assert exc.value.residual == certificate == verify_fusion(md)
        with pytest.raises(InvariantViolation) as exc:
            verify_modular_invariants(md, tol=residuals["unitarity"] / 2)
        assert exc.value.relation == "unitarity"

    def test_theory_is_frozen(self):
        md = modular_data("A1", 4)
        for field in dataclasses.fields(md):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(md, field.name, getattr(md, field.name))
        with pytest.raises(ValueError, match="read-only"):
            md.smatrix[1, 2] += 1e-3

    def test_replaced_smatrix_is_checked_afresh(self):
        md = modular_data("A1", 4)
        verlinde_tensor(md)
        verify_modular_invariants(md)
        tampered = md.smatrix.copy()
        tampered[1, 2] += 1e-3
        md = dataclasses.replace(md, smatrix=tampered)
        with pytest.raises(IntegralityError):
            verlinde_tensor(md)
        with pytest.raises(InvariantViolation):
            verify_modular_invariants(md)

    @pytest.mark.parametrize("field", ["delta", "central_charge"])
    def test_replaced_t_data_derives_afresh(self, field):
        md = modular_data("A1", 4)
        tensor = verlinde_tensor(md)
        sj = fixed_point_smatrix(md, (4,))
        verify_modular_invariants(md)
        if field == "delta":
            other = dataclasses.replace(md, delta=(md.delta[0] + Q(1, 3),) + md.delta[1:])
        else:
            other = dataclasses.replace(md, central_charge=md.central_charge + 1)
        again = verlinde_tensor(other)
        assert again is not tensor and np.array_equal(again, tensor)
        assert fixed_point_smatrix(other, (4,)) is not sj
        with pytest.raises(InvariantViolation) as exc:
            verify_modular_invariants(other)
        assert exc.value.relation == "st_cubed"
        assert verlinde_tensor(md) is tensor and fixed_point_smatrix(md, (4,)) is sj

    @pytest.mark.parametrize("label,k", [("A1", 60), ("A2", 8), ("B3", 3), ("G2", 6)])
    def test_in_place_residual_matches_the_direct_expression(self, label, k):
        md = modular_data(label, k)
        s = md.smatrix
        raw = np.einsum("ak,bk,ck->abc", s, s, s.conj() / s[0])
        residual = np.abs(raw - np.round(raw.real))
        bound = summation_bound(s)
        assert np.array_equal(verlinde_tensor(md), np.round(raw.real))
        assert abs(verify_streamed(md) - residual.max()) <= bound
        with pytest.raises(IntegralityError) as exc:
            verlinde_tensor(md, tol=0.0)
        worst = tuple(md.index(lab) for lab in exc.value.where)
        assert residual.max() - residual[worst] <= bound
        assert abs(exc.value.value - raw[worst]) <= bound
        assert exc.value.residual == verify_streamed(md)

    def test_peak_memory_is_the_integer_tensor(self):
        md = modular_data("A1", 60)
        tracemalloc.start()
        try:
            tensor = verlinde_tensor(md)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * tensor.nbytes

    def test_memoized_arrays_are_read_only(self):
        md = modular_data("A1", 4)
        tensor = verlinde_tensor(md)
        with pytest.raises(ValueError):
            md.smatrix[1, 2] += 1e-3
        with pytest.raises(ValueError):
            tensor[0, 0, 0] = 2


class TestStreamedSummary:
    """The row pass against the whole stored tensor."""

    @pytest.mark.parametrize("label,k", oracle_theories())
    def test_summary_matches_the_full_tensor(self, label, k):
        # BLAS sums the rows b >= a in another order than the full rows, so the
        # float fields agree within the bound on two summation orders
        md = oracle_theory(label, k)
        s = streamed_operand(md)
        summary = wzwkit.fusion._verlinde(md)
        _, residual, _, _, neg, lowest, _ = full_tensor_verlinde(md, s)
        assert (summary.neg, summary.lowest) == (neg, lowest)
        assert summary.worst[0] <= summary.worst[1]
        bound = summation_bound(s)
        assert abs(summary.residual - residual) <= bound
        assert abs(summary.value - full_row_entry(s, *summary.worst)) <= bound

    @pytest.mark.parametrize("label,k", oracle_theories())
    def test_tensor_is_symmetric_and_matches_the_full_rows(self, label, k):
        md = oracle_theory(label, k)
        tensor = verlinde_tensor(md)
        assert np.array_equal(tensor, tensor.transpose(1, 0, 2))
        assert np.array_equal(tensor, full_tensor_verlinde(md, streamed_operand(md))[0])

    @pytest.mark.parametrize("label,k", [("A1", 20), ("A2", 6)])
    def test_pass_multiplies_the_pairs_a_le_b(self, label, k):
        rows = []

        class Spy(np.ndarray):
            def __matmul__(self, other):
                rows.append(len(self))
                return np.asarray(self) @ np.asarray(other)

        md = modular_data(label, k)
        spied = dataclasses.replace(md, smatrix=md.smatrix.view(Spy))
        summary = wzwkit.fusion._verlinde(spied)
        # one product per row a, over its n - a rows b >= a
        assert rows == list(range(md.dim, 0, -1))
        assert sum(rows) == md.dim * (md.dim + 1) // 2
        assert summary == wzwkit.fusion._verlinde(md)

    @pytest.mark.parametrize("k", range(1, 61))
    def test_real_path_tensor_matches_the_complex_sum(self, k):
        md = modular_data("A1", k)
        assert not md.smatrix.imag.any()
        assert np.array_equal(verlinde_tensor(md), full_tensor_verlinde(md)[0])

    def test_self_conjugate_pass_multiplies_float64(self):
        # G2 level 6 is self-conjugate, so S is real, yet it carries |Im S| ~ 1e-16
        products = []

        class Spy(np.ndarray):
            def __matmul__(self, other):
                products.append((self.dtype.name, other.dtype.name))
                return np.asarray(self) @ np.asarray(other)

        md = modular_data("G2", 6)
        assert md.smatrix.imag.any()
        spied = dataclasses.replace(md, smatrix=md.smatrix.view(Spy))
        summary = wzwkit.fusion._verlinde(spied)
        assert products[-md.dim :] == [("float64", "float64")] * md.dim
        assert tuple(summary) == full_tensor_verlinde(md, md.smatrix.real)[1:-1]

    @pytest.mark.parametrize("label,k,dtype", [("A1", 20, "float64"), ("G2", 6, "float64"), ("A2", 6, "complex128")])
    def test_currents_and_block_ranks_multiply_in_the_operand_type(self, label, k, dtype):
        # the pass's operand rule: G2 level 6 runs real like A1, A2 stays complex
        products = []

        class Spy(np.ndarray):
            def __matmul__(self, other):
                products.append((self.dtype.name, other.dtype.name))
                return np.asarray(self) @ np.asarray(other)

        md = modular_data(label, k)
        spied = dataclasses.replace(md, smatrix=md.smatrix.view(Spy))
        spied.invariants()
        products.clear()
        group = simple_currents(spied)
        assert group.perms == simple_currents(md).perms
        # one insertion row and the handle
        assert block_rank(spied, 1, (1,)) == block_rank(md, 1, (1,))
        assert products == [(dtype, dtype)] * (group.order + 2)

    @pytest.mark.parametrize("label,k", [("B3", 3), ("G2", 6), ("A1/ext", 16), ("A1/orb", 4)])
    def test_pass_reads_the_one_product(self, label, k):
        # the tensor's slices are the whole products, rows b < a from the mirror,
        # and the streamed residual is the largest over the row products
        md = oracle_theory(label, k)
        tensor = verlinde_tensor(md)
        for a in range(md.dim):
            assert np.array_equal(tensor[a], wzwkit.fusion._fusion_product(md, a)[0])
        rows = [wzwkit.fusion._fusion_product(md, a, a)[1].residual for a in range(md.dim)]
        assert verify_streamed(md, 1.0) == max(rows)

    def test_tensor_pass_fills_the_summary(self):
        md = modular_data("A2", 4)
        tensor = verlinde_tensor(md)
        assert md._memo["verlinde_summary"] == wzwkit.fusion._verlinde(md)
        assert np.array_equal(tensor, full_tensor_verlinde(md)[0])

    @pytest.mark.parametrize("label,k", [("A1", 6), ("A2", 3)])
    @pytest.mark.parametrize("shift", [1e-3, 1e-3j])
    def test_tampered_smatrix_raises_at_the_worst_entry(self, label, k, shift):
        md = modular_data(label, k)
        tampered = md.smatrix.copy()
        tampered[1, 2] += shift
        md = dataclasses.replace(md, smatrix=tampered)
        _, residual, worst, value, *_ = full_tensor_verlinde(md, streamed_operand(md))
        for check in (verify_streamed, verlinde_tensor):
            with pytest.raises(IntegralityError) as exc:
                check(md)
            assert exc.value.what == "fusion coefficient"
            assert exc.value.where == tuple(md.labels[i] for i in worst)
            assert (exc.value.value, exc.value.residual) == (value, residual)

    @pytest.mark.parametrize("label,k", [("A1", 6), ("A2", 3)])
    @pytest.mark.parametrize("shift", [1e-3, 1e-3j])
    @pytest.mark.parametrize("entry", [(2, 1), (-1, 1)], ids=["below-diagonal", "last-row"])
    def test_tampered_mirror_half_raises_at_the_worst_entry(self, label, k, shift, entry):
        md = modular_data(label, k)
        tampered = md.smatrix.copy()
        tampered[entry] += shift
        md = dataclasses.replace(md, smatrix=tampered)
        s = streamed_operand(md)
        _, residual, (a, b, c), value, *_ = full_tensor_verlinde(md, s)
        bound = summation_bound(s)
        for check in (verify_streamed, verlinde_tensor):
            with pytest.raises(IntegralityError) as exc:
                check(md)
            assert exc.value.what == "fusion coefficient"
            assert tuple(md.index(lab) for lab in exc.value.where) in {(a, b, c), (b, a, c)}
            assert abs(exc.value.residual - residual) <= bound
            assert abs(exc.value.value - value) <= bound

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label,k", [("A1", 4), ("A2", 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_smatrix_raises_at_the_first_such_sum(self, label, k, bad, row):
        md = modular_data(label, k)
        tampered = md.smatrix.copy()
        tampered[row, 1] = bad
        md = dataclasses.replace(md, smatrix=tampered)
        # every sum with ``row`` among a, b, c (or, for row 0, every sum) takes
        # the bad entry, so the first in C order is (0, 0, row)
        for check in (verify_streamed, verlinde_tensor):
            with pytest.raises(IntegralityError) as exc:
                check(md)
            assert exc.value.what == "fusion coefficient"
            assert exc.value.residual == np.inf
            assert exc.value.where == (md.labels[0], md.labels[0], md.labels[row])

    @pytest.mark.parametrize("label,k", [("A1", 6), ("A2", 3)])
    def test_negative_entry_raises_at_the_first_one(self, label, k):
        md = flipped(modular_data(label, k), 1)
        *_, neg, lowest, _ = full_tensor_verlinde(md, streamed_operand(md))
        assert lowest == -1
        for check in (verify_streamed, verlinde_tensor):
            with pytest.raises(IntegralityError) as exc:
                check(md)
            assert exc.value.what == "fusion coefficient (negative)"
            assert exc.value.where == tuple(md.labels[i] for i in neg)
            assert exc.value.value == lowest


def fundamental(md, i):
    """Label index of the i-th fundamental weight of an A_r theory."""
    return md.index(tuple(int(j == i - 1) for j in range(len(md.labels[0]))))


def pieri_matrix(md, i):
    """N_{omega_i} of an A_r theory as a dense integer matrix, from the targets
    that the Pieri certificate gathers."""
    n = md.dim
    dense = np.zeros((n, n + 1), dtype=np.int64)
    for row in wzwkit.fusion._pieri_targets(md, len(md.labels[0]))[i - 1]:
        dense[np.arange(n), row] += 1  # lambda -> lambda + w is one to one
    return dense[:, :n]


def pieri_theories(a1, a2, a3):
    for label, levels in (("A1", a1), ("A2", a2), ("A3", a3)):
        yield from (pytest.param(label, k, id=f"{label}-{k}") for k in levels)


CERTIFIED = [("A1", 6), ("A2", 3), ("A3", 4)]


class TestPieriCertificate:
    """``verify_fusion`` on A_r: the eigen-relation of the Pieri matrices plus
    unitarity, against the streamed pass."""

    @pytest.mark.parametrize("label,k", pieri_theories(range(1, 61), range(1, 11), range(1, 7)))
    def test_pieri_matrices_are_the_fundamental_fusion_matrices(self, label, k):
        md = modular_data(label, k)
        tensor = verlinde_tensor(md)
        for i in range(1, int(label[1:]) + 1):
            assert np.array_equal(pieri_matrix(md, i), tensor[fundamental(md, i)])

    # every certified level up to 60, 12 and 12, then every 20th to 300 and 4th to 40
    @pytest.mark.parametrize(
        "label,k",
        pieri_theories(
            [*range(2, 61), *range(80, 301, 20)], [*range(3, 13), *range(16, 41, 4)], range(3, 13)
        ),
    )
    def test_true_smatrix_is_certified(self, label, k):
        md = modular_data(label, k)
        assert wzwkit.fusion._pieri_rank(md) == int(label[1:])
        assert verify_fusion(md) <= 1e-12

    def test_route_is_chosen_from_the_theory(self, monkeypatch):
        rank = wzwkit.fusion._pieri_rank
        # 2^(r+1) - 2 gathers against the n row products of the pass
        on = [("A1", 2), ("A2", 3), ("A3", 3), ("A4", 3)]
        off = [("A1", 1), ("A2", 2), ("A3", 2), ("A4", 2), ("A5", 2), ("A6", 1), ("A9", 1)]
        assert [rank(modular_data(*t)) for t in on] == [1, 2, 3, 4]
        assert [rank(modular_data(*t)) for t in off] == [0] * len(off)
        for label, k in [("B3", 3), ("G2", 6), ("A1*A2", 2), ("A1/ext", 16), ("A1/orb", 4)]:
            assert rank(oracle_theory(label, k)) == 0
        md = modular_data("A2", 10)
        monkeypatch.setattr(wzwkit.fusion, "_verlinde", None)  # no pass may run
        assert verify_fusion(md) <= 1e-12
        assert "pieri_certificate" in md._memo and "verlinde_summary" not in md._memo

    @pytest.mark.parametrize("label,k", CERTIFIED)
    @pytest.mark.parametrize("shift", [1e-3, 1e-3j])
    @pytest.mark.parametrize("entry", [(1, 2), (2, 1), (-1, 1)], ids=["upper", "lower", "last-row"])
    def test_tampered_smatrix_raises_at_least_the_streamed_residual(self, label, k, shift, entry):
        md = modular_data(label, k)
        tampered = md.smatrix.copy()
        tampered[entry] += shift
        md = dataclasses.replace(md, smatrix=tampered)
        oracle = full_tensor_verlinde(md, streamed_operand(md))[1]
        with pytest.raises(IntegralityError) as exc:
            verify_fusion(md)
        assert exc.value.what == "fusion coefficient (Pieri certificate)"
        assert exc.value.residual >= oracle > 1e-6
        omega, row = exc.value.where
        assert md.index(omega) in {fundamental(md, i) for i in range(1, int(label[1:]) + 1)}
        assert row in md.labels

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label,k", CERTIFIED)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_smatrix_raises_with_residual_inf(self, label, k, bad, row):
        md = modular_data(label, k)
        tampered = md.smatrix.copy()
        tampered[row, 1] = bad
        md = dataclasses.replace(md, smatrix=tampered)
        with pytest.raises(IntegralityError) as exc:
            verify_fusion(md)
        assert exc.value.residual == np.inf
        # omega_1 comes first, and row ``row`` of S diag(S_omega / S_0) is non-finite
        omega, first = exc.value.where
        assert omega == md.labels[fundamental(md, 1)]
        assert md.index(first) <= row

    @pytest.mark.parametrize("label,k", CERTIFIED)
    def test_negative_fusion_raises(self, label, k):
        md = flipped(modular_data(label, k), 1)
        assert full_tensor_verlinde(md, streamed_operand(md))[5] == -1
        with pytest.raises(IntegralityError) as exc:
            verify_fusion(md)
        assert exc.value.residual > 1

    @pytest.mark.parametrize("label,k", CERTIFIED)
    def test_scaled_smatrix_fails_on_unitarity(self, label, k):
        md = modular_data(label, k)
        md = dataclasses.replace(md, smatrix=2 * md.smatrix)
        # 2 S obeys the eigen-relation and passes the streamed pass
        assert verify_streamed(md) < 1e-12
        with pytest.raises(IntegralityError) as exc:
            verify_fusion(md)
        assert exc.value.where is None
        assert exc.value.residual == md.invariants()["unitarity"] == pytest.approx(3)


class TestSimpleCurrents:
    def test_su2_group(self, su2_data):
        g = simple_currents(su2_data[4])
        assert g.labels == ((0,), (4,))
        assert g.element_order(g.indices[1]) == 2

    def test_su3_group_is_z3(self):
        g = simple_currents(modular_data("A2", 2))
        assert g.order == 3
        j = [i for i in g.indices if i != 0][0]
        assert g.element_order(j) == 3
        assert g.compose(j, g.inverse(j)) == 0

    @pytest.mark.parametrize(
        "label,k",
        [("A1", 3), ("A1", 6), ("A2", 1), ("A2", 3), ("B2", 2), ("B2", 4), ("G2", 2),
         ("A3", 2), ("C3", 2), ("B3", 1), ("D4", 1)],
    )
    def test_group_order_matches_center(self, label, k):
        md = modular_data(label, k)
        g = simple_currents(md)
        assert g.order == center_group(build_algebra(label)).order

    def test_su2_charges_are_half_spin(self, su2_data):
        for k in (2, 4, 6):
            g = simple_currents(su2_data[k])
            j = k  # index of the current in the lex label list
            for mu in range(k + 1):
                assert g.charge(g.md.index((k,)), mu) == Q(mu, 2) % 1

    def test_orbits_and_stabilizers(self, su2_data):
        g = simple_currents(su2_data[4])
        jj = g.md.index((4,))
        assert g.orbit(1) == (1, 3)
        assert g.stabilizer(1) == (0,)
        assert g.orbit(2) == (2,)
        assert g.stabilizer(2) == (0, jj)

    def test_subgroup_closure(self):
        md = modular_data("A2", 3)
        g = simple_currents(md)
        j = [i for i in g.indices if i != 0][0]
        sub = g.subgroup((j,))
        assert sub.order == 3

    @pytest.mark.parametrize(
        "label,k",
        [
            *oracle_theories(),
            pytest.param("A2/ext", 3, id="A2-3-ext"),
            pytest.param("A1/orb", 4, id="A1-4-orb"),
            pytest.param("A1/orb", 30, id="A1-30-orb"),
        ],
    )
    def test_permutations_match_the_full_tensor(self, label, k):
        md = oracle_theory(label, k)
        perms = full_tensor_verlinde(md)[-1]
        g = simple_currents(md)
        assert g.perms == perms
        assert g.indices == tuple(sorted(perms))

    @pytest.mark.parametrize("label,k", [("A1", 80), ("A2", 27), ("B3", 4), ("E8", 2)])
    def test_residual_is_bit_identical_to_the_direct_expression(self, label, k):
        md = modular_data(label, k)
        s = md.smatrix
        for j in simple_currents(md).perms:
            raw = (s * (s[j] / s[0])) @ s.conj().T
            rounded, off = wzwkit.fusion._rounded(raw)
            assert np.array_equal(rounded, np.round(raw.real))
            assert off.tobytes() == np.abs(raw - np.round(raw.real)).tobytes()

    def test_peak_memory_is_three_smatrices(self):
        # S^dagger, the scaled S and the product while it is formed; the last
        # current's arrays are freed before the next product
        md = modular_data("A2", 30)
        tracemalloc.start()
        try:
            simple_currents(md)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * md.smatrix.nbytes

    def test_runs_no_whole_ring_pass(self, monkeypatch):
        monkeypatch.setattr(wzwkit.fusion, "_verlinde", None)
        md = modular_data("A2", 6)
        assert simple_currents(md).order == 3
        assert "verlinde_summary" not in md._memo

    @pytest.mark.parametrize("label,k", [("A1", 6), ("A2", 3)])
    @pytest.mark.parametrize("shift", [1e-3, 1e-3j])
    def test_tampered_current_row_raises_at_the_current(self, label, k, shift):
        md = modular_data(label, k)
        j = simple_currents(md).indices[-1]
        tampered = md.smatrix.copy()
        tampered[j, 2] += shift
        md = dataclasses.replace(md, smatrix=tampered)
        with pytest.raises(IntegralityError) as exc:
            simple_currents(md)
        assert exc.value.what == "fusion coefficient"
        assert exc.value.where[0] == md.labels[j]
        assert exc.value.residual > 1e-6
        # the first worst entry of |raw - round(raw)| over the currents, bit for bit
        s = md.smatrix
        offs = {}
        for i in range(md.dim):
            if not i or abs(s[0, i] - s[0, 0]) <= 1e-9:
                raw = (s * (s[i] / s[0])) @ s.conj().T
                offs[i] = raw, np.abs(raw - np.round(raw.real))
        i = max(offs, key=lambda i: (offs[i][1].max(), -i))
        raw, off = offs[i]
        a, c = divmod(int(np.argmax(off)), md.dim)
        assert exc.value.residual == off.max()
        assert exc.value.where == tuple(md.labels[x] for x in (i, a, c))
        assert exc.value.value == raw[a, c]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label,k", [("A1", 6), ("A2", 3)])
    @pytest.mark.parametrize("vacuum", [False, True], ids=["current-row", "vacuum-entry"])
    def test_non_finite_current_row_raises(self, label, k, vacuum):
        # a NaN S_00 makes no label pass the S-entry test, yet the vacuum row is checked
        md = modular_data(label, k)
        j = simple_currents(md).indices[-1]
        tampered = md.smatrix.copy()
        tampered[(0, 0) if vacuum else (j, 1)] = np.nan
        md = dataclasses.replace(md, smatrix=tampered)
        with pytest.raises(IntegralityError) as exc:
            simple_currents(md)
        assert exc.value.residual == np.inf

    def test_flipped_sign_is_not_a_permutation(self):
        # the current's row stays integral, but N_{J1}^{J-1} becomes -1
        with pytest.raises(InternalConsistencyError, match="not a permutation"):
            simple_currents(flipped(modular_data("A1", 6), 1))


class TestTensorProduct:
    def test_two_ising_like_factors(self):
        md1 = modular_data("A1", 1)
        prod = tensor_product(md1, md1)
        assert prod.dim == 4
        assert prod.labels[0] == ((0,), (0,))
        assert prod.central_charge == Q(2)
        assert prod.delta[prod.index(((1,), (1,)))] == Q(1, 2)

    def test_product_smatrix_is_kron(self):
        a = modular_data("A1", 2)
        b = modular_data("A2", 1)
        prod = tensor_product(a, b)
        assert np.array_equal(prod.smatrix, np.kron(a.smatrix, b.smatrix))

    def test_product_fusion_factorizes(self):
        a = modular_data("A1", 1)
        prod = tensor_product(a, a)
        n = verlinde_tensor(prod)
        na = verlinde_tensor(a)
        for x in range(prod.dim):
            for y in range(prod.dim):
                for z in range(prod.dim):
                    x1, x2 = divmod(x, 2)
                    y1, y2 = divmod(y, 2)
                    z1, z2 = divmod(z, 2)
                    assert n[x, y, z] == na[x1, y1, z1] * na[x2, y2, z2]

    def test_triple_product_currents(self):
        md = modular_data("A1", 2)
        cube = tensor_product(tensor_product(md, md), md)
        g = simple_currents(cube)
        assert g.order == 8
        assert cube.dim == 27
