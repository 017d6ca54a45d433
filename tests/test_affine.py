from __future__ import annotations

import base64
import dataclasses
import itertools
import json
import math
import sys
import tracemalloc
from collections import deque
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from wzwkit.affine import (
    cache_path,
    central_charge,
    conformal_weight,
    integrable_weights,
    kac_peterson_smatrix,
    load_modular_data,
    modular_data,
    save_modular_data,
    verify_modular_invariants,
)
from wzwkit.errors import InvariantViolation, PreconditionError
from wzwkit.fusion import simple_currents, tensor_product
from wzwkit.liealg import build_algebra, weyl_order, weyl_traverse
from wzwkit.orbifold import assemble_orbifold, inner_orbifold_input
from wzwkit.simplecurrent import extend_by_group


def invariant_residuals_oracle(md) -> dict:
    """The invariants pass as one expression per relation, every product kept."""
    s = md.smatrix
    eye = np.eye(md.dim)
    s2 = s @ s
    perm = np.round(s2.real)
    st = s * md.t_diagonal()[np.newaxis, :]
    return {
        "unitarity": float(np.abs(s @ s.conj().T - eye).max()),
        "symmetry": float(np.abs(s - s.T).max()),
        "vacuum_row_imag": float(np.abs(s[0].imag).max()),
        "vacuum_row_min": float(s[0].real.min()),
        "conjugation_permutation": float(np.abs(s2.real - perm).max() + np.abs(s2.imag).max()),
        "conjugation_involution": bool(np.array_equal(perm @ perm, eye)),
        "st_cubed": float(np.abs(st @ st @ st - s2).max()),
        "conjugation": tuple(np.argmax(np.abs(s2), axis=1).tolist()),
    }


def su2_smatrix(k: int) -> np.ndarray:
    """Closed-form S matrix of the level-k su(2) theory."""
    n = k + 2
    return np.array(
        [
            [math.sqrt(2.0 / n) * math.sin(math.pi * (a + 1) * (b + 1) / n) for b in range(k + 1)]
            for a in range(k + 1)
        ]
    )


def per_element_smatrix(alg, level: int) -> np.ndarray:
    """The Weyl sum one element at a time, as computed before the layered sum.

    Breadth-first over words, Python integer matrix products and a set of
    every matrix seen; each element adds its own signed exponential.
    """
    n = alg.rank
    labels = integrable_weights(alg, level)
    gens = [
        tuple(
            tuple(int(k == j) - (alg.cartan[i][k] if j == i else 0) for j in range(n))
            for k in range(n)
        )
        for i in range(n)
    ]

    def apply(g, m):
        return tuple(
            tuple(sum(g[r][k] * m[k][c] for k in range(n)) for c in range(n)) for r in range(n)
        )

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, queue = {ident}, deque([(ident, 1)])
    shifted = np.array([[x + 1 for x in lab] for lab in labels], dtype=np.int64)
    gram = np.array([[float(v) for v in row] for row in alg.metric])
    kappa = level + alg.dual_coxeter
    raw = np.zeros((len(labels), len(labels)), dtype=complex)
    while queue:
        m, sign = queue.popleft()
        pairing = shifted @ np.array(m, dtype=np.int64).T @ gram @ shifted.T
        raw += sign * np.exp((-2j * np.pi / kappa) * pairing)
        for g in gens:
            m2 = apply(g, m)
            if m2 not in seen:
                seen.add(m2)
                queue.append((m2, -sign))
    return np.conj(raw[0, 0]) / abs(raw[0, 0]) / np.linalg.norm(raw[0]) * raw


def layered_smatrix(alg, level: int) -> np.ndarray:
    """The Weyl sum over all of W, one length layer at a time, with no cap.

    This is the sum the library ran for |W| <= 24 before every S became a
    sum over W/W_J, with the normalization lines of ``kac_peterson_smatrix``.
    At A1 every pairing is an exact half-integer, so the two agree bit for bit.
    """
    labels = integrable_weights(alg, level)
    kappa = level + alg.dual_coxeter
    shifted = np.array([[x + 1 for x in lab] for lab in labels], dtype=np.int64)
    n = len(shifted)
    gram = np.array([[float(v) for v in row] for row in alg.metric])
    raw = np.zeros((n, n), dtype=complex)
    for length, ws in weyl_traverse(alg, cap=weyl_order(alg)):
        pairing = shifted @ ws.transpose(0, 2, 1) @ gram @ shifted.T
        raw += (-1) ** length * np.exp((-2j * np.pi / kappa) * pairing).sum(axis=0)
    scale = 1.0 / np.linalg.norm(raw[0])
    phase = np.conj(raw[0, 0]) / abs(raw[0, 0])
    return phase * scale * raw


class TestIntegrableWeights:
    def test_a2_level_1(self):
        alg = build_algebra("A2")
        assert integrable_weights(alg, 1) == ((0, 0), (0, 1), (1, 0))

    def test_a1_counts(self):
        alg = build_algebra("A1")
        for k in range(7):
            assert integrable_weights(alg, k) == tuple((j,) for j in range(k + 1))

    def test_vacuum_first_and_sorted(self):
        for label, k in [("B3", 4), ("G2", 3), ("C3", 2)]:
            weights = integrable_weights(build_algebra(label), k)
            assert weights[0] == (0,) * build_algebra(label).rank
            assert list(weights) == sorted(weights)

    def test_matches_filter_enumeration(self):
        import itertools

        for label, k in [("B3", 6), ("G2", 4), ("A3", 3)]:
            alg = build_algebra(label)
            brute = sorted(
                lam
                for lam in itertools.product(range(k + 1), repeat=alg.rank)
                if sum(l * c for l, c in zip(lam, alg.comarks)) <= k
            )
            assert list(integrable_weights(alg, k)) == brute

    def test_level_zero_is_vacuum_only(self):
        assert integrable_weights(build_algebra("D4"), 0) == ((0, 0, 0, 0),)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: integrable_weights(build_algebra("A1"), -1),
            lambda: kac_peterson_smatrix(build_algebra("A1"), -1),
            lambda: modular_data("A1", -1),
        ],
        ids=["integrable_weights", "kac_peterson_smatrix", "modular_data"],
    )
    def test_negative_level_is_a_precondition_error(self, call):
        with pytest.raises(PreconditionError, match="level must be a non-negative integer"):
            call()


class TestConformalData:
    @pytest.mark.parametrize(
        "k,lam,expect",
        [
            (1, 1, Q(1, 4)),
            (2, 1, Q(3, 16)),
            (2, 2, Q(1, 2)),
            (4, 2, Q(1, 3)),
            (4, 4, Q(1)),
            (6, 3, Q(15, 32)),
            (8, 2, Q(1, 5)),
            (8, 4, Q(3, 5)),
        ],
    )
    def test_su2_conformal_weights(self, k, lam, expect):
        assert conformal_weight(build_algebra("A1"), k, (lam,)) == expect

    def test_su2_current_weight_is_k_over_4(self):
        alg = build_algebra("A1")
        for k in range(1, 9):
            assert conformal_weight(alg, k, (k,)) == Q(k, 4)

    def test_su3_current_weight_is_k_over_3(self):
        alg = build_algebra("A2")
        for k in range(1, 5):
            assert conformal_weight(alg, k, (k, 0)) == Q(k, 3)
            assert conformal_weight(alg, k, (0, k)) == Q(k, 3)

    @pytest.mark.parametrize(
        "label,k,expect",
        [
            ("A1", 1, Q(1)),
            ("A1", 2, Q(3, 2)),
            ("A1", 4, Q(2)),
            ("A2", 3, Q(4)),
            ("G2", 1, Q(14, 5)),
        ],
    )
    def test_central_charges(self, label, k, expect):
        assert central_charge(build_algebra(label), k) == expect

    def test_t_exponents_exact(self):
        md = modular_data("A1", 1)
        assert md.t_exponents == (Q(-1, 24), Q(5, 24))


class TestSmatrix:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_su2_closed_form(self, k):
        alg = build_algebra("A1")
        s = kac_peterson_smatrix(alg, k)
        assert np.abs(s - su2_smatrix(k)).max() < 1e-12

    def test_su2_level2_frozen(self):
        s = kac_peterson_smatrix(build_algebra("A1"), 2)
        r = 1 / math.sqrt(2)
        expect = np.array([[0.5, r, 0.5], [r, 0.0, -r], [0.5, -r, 0.5]])
        assert np.abs(s - expect).max() < 1e-12

    def test_level_zero_trivial(self):
        for label in ["A1", "A2", "B2"]:
            s = kac_peterson_smatrix(build_algebra(label), 0)
            assert s.shape == (1, 1)
            assert abs(s[0, 0] - 1.0) < 1e-12

    @pytest.mark.parametrize("label,k", [("A2", 2), ("B2", 3), ("G2", 2), ("A3", 1), ("C3", 1)])
    def test_invariants_pass(self, label, k):
        md = modular_data(label, k)
        residuals = verify_modular_invariants(md, tol=1e-9)
        assert set(residuals) >= {"unitarity", "symmetry", "st_cubed"}
        assert max(residuals.values()) <= 1e-9

    @pytest.mark.parametrize(
        "label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"]
    )
    def test_layered_sum_matches_per_element_sum(self, label):
        alg = build_algebra(label)
        for k in range(1, 7):
            s = kac_peterson_smatrix(alg, k)
            assert np.abs(s - per_element_smatrix(alg, k)).max() <= 1e-12, k

    @pytest.mark.parametrize(
        "label,k",
        [
            *itertools.product(
                ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4"],
                range(1, 7),
            ),
            *itertools.product(["F4", "G2"], range(1, 7)),
            *itertools.product(["A5", "A6", "B5", "C5", "D5", "D6", "E6"], (1, 2)),
        ],
    )
    def test_coset_determinants_match_the_layered_sum(self, label, k):
        alg = build_algebra(label)
        assert np.abs(kac_peterson_smatrix(alg, k) - layered_smatrix(alg, k)).max() <= 1e-12

    @pytest.mark.parametrize("k", [*range(1, 41), 80, 150, 200, 250, 300])
    def test_a1_is_the_layered_sum_bit_for_bit(self, k):
        # boundary reports list the constants that float noise puts past 1/2,
        # so A1's S may not move by one bit
        alg = build_algebra("A1")
        assert np.array_equal(kac_peterson_smatrix(alg, k), layered_smatrix(alg, k))

    @pytest.mark.parametrize("rank", range(1, 10))
    def test_level_one_a_series_is_the_cyclic_fourier_matrix(self, rank):
        n = rank + 1
        md = modular_data(f"A{rank}", 1)
        charge = np.array([sum(i * x for i, x in enumerate(lab, 1)) for lab in md.labels])
        fourier = np.exp(2j * np.pi * np.outer(charge, charge) / n) / math.sqrt(n)
        assert np.abs(md.smatrix - fourier).max() < 1e-12

    def test_e7_level_one_is_the_z2_theory(self):
        md = modular_data("E7", 1)
        assert md.delta == (0, Q(3, 4))
        assert np.abs(md.smatrix - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-12

    def test_e8_level_one_is_holomorphic(self):
        md = modular_data("E8", 1)
        assert md.labels == ((0,) * 8,)
        assert np.abs(md.smatrix - 1).max() < 1e-12

    def test_e8_level_two_is_the_ising_theory(self):
        md = modular_data("E8", 2)
        assert md.delta == (0, Q(15, 16), Q(3, 2))
        r = 1 / math.sqrt(2)
        ising = np.array([[0.5, r, 0.5], [r, 0.0, -r], [0.5, -r, 0.5]])
        assert np.abs(md.smatrix - ising).max() < 1e-12

    def test_determinant_pass_holds_no_array_past_a_few_s(self):
        alg = build_algebra("A5")
        n = len(integrable_weights(alg, 6))
        tracemalloc.start()
        try:
            kac_peterson_smatrix(alg, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * n * n

    def test_e6_level_one_is_the_z3_theory(self):
        # Z3 simple currents of weight 2/3: S_JJ = S_0J exp(2 pi i Q_J(J)), Q_J(J) = 2/3
        md = modular_data("E6", 1)
        assert md.labels == ((0,) * 6, (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0))
        assert md.delta == (0, Q(2, 3), Q(2, 3))
        w = np.exp(-2j * np.pi / 3)
        expect = np.array([[1, 1, 1], [1, w, w.conjugate()], [1, w.conjugate(), w]]) / math.sqrt(3)
        assert np.abs(md.smatrix - expect).max() < 1e-12

    def test_invariant_violation_raised_on_tampered_matrix(self):
        md = modular_data("A1", 2)
        tampered = md.smatrix.copy()
        tampered[1, 2] += 1e-3
        with pytest.raises(InvariantViolation) as exc:
            verify_modular_invariants(dataclasses.replace(md, smatrix=tampered))
        assert exc.value.residual > exc.value.tol

    def test_a2_conjugation_transposes_labels(self):
        md = modular_data("A2", 3)
        perm = md.conjugation_permutation()
        for i, lab in enumerate(md.labels):
            assert md.labels[perm[i]] == (lab[1], lab[0])

    @pytest.mark.parametrize("theory", ["A1/40", "A2/6", "B2/3", "A1/2 x A1/2"])
    def test_invariants_pass_equals_the_oracle_bit_for_bit(self, theory):
        if theory == "A1/2 x A1/2":
            md = tensor_product(modular_data("A1", 2), modular_data("A1", 2))
        else:
            algebra, level = theory.split("/")
            md = modular_data(algebra, int(level))
        expected = invariant_residuals_oracle(md)
        actual = md.invariants()
        assert list(actual) == list(expected)
        for name, value in expected.items():
            assert type(actual[name]) is type(value)
            if isinstance(value, float):
                assert math.copysign(1, actual[name]) == math.copysign(1, value), name
            assert actual[name] == value, name

    def test_su2_self_conjugate(self):
        md = modular_data("A1", 5)
        assert md.conjugation_permutation() == tuple(range(6))

    def test_quantum_dimensions_at_least_one(self):
        md = modular_data("B2", 4)
        qdims = md.smatrix[0].real / md.smatrix[0, 0].real
        assert qdims.min() > 1 - 1e-9


class TestCache:
    def test_roundtrip_byte_identical(self, tmp_path):
        md = modular_data("A2", 2)
        p1 = save_modular_data(md, tmp_path / "one")
        loaded = load_modular_data("A2", 2, tmp_path / "one")
        assert loaded is not None
        assert loaded.labels == md.labels
        assert loaded.delta == md.delta
        assert loaded.central_charge == md.central_charge
        assert np.array_equal(loaded.smatrix, md.smatrix)
        p2 = save_modular_data(loaded, tmp_path / "two")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["tensor", "extension", "orbifold"])
    def test_theory_without_a_simple_algebra_is_refused(self, tmp_path, kind):
        # its labels, weights and c could not be derived from its name on load
        if kind == "tensor":
            md = tensor_product(modular_data("A1", 2), modular_data("A1", 2))
        elif kind == "extension":
            parent = modular_data("A1", 4)
            md = extend_by_group(parent, simple_currents(parent)).md
        else:
            md = assemble_orbifold(inner_orbifold_input(modular_data("A1", 2), (1,))).md
        cache_dir = tmp_path / "c"
        cache_dir.mkdir()
        with pytest.raises(PreconditionError, match="cannot cache"):
            save_modular_data(md, cache_dir)
        assert list(cache_dir.iterdir()) == []

    def test_cache_hit_skips_weyl_traversal(self, tmp_path, coset_walks):
        modular_data("B2", 2, cache_dir=tmp_path)
        before = len(coset_walks)
        md = modular_data("B2", 2, cache_dir=tmp_path)
        assert len(coset_walks) == before
        assert md.dim == len(integrable_weights(build_algebra("B2"), 2))

    def test_corrupt_cache_recomputes_with_warning(self, tmp_path):
        modular_data("A1", 3, cache_dir=tmp_path)
        cache_path("A1", 3, tmp_path).write_text("{not json")
        with pytest.warns(UserWarning, match="unreadable cache"):
            md = modular_data("A1", 3, cache_dir=tmp_path)
        assert md.dim == 4

    def test_entry_that_is_not_utf8_recomputes_with_warning(self, tmp_path):
        modular_data("A1", 3, cache_dir=tmp_path)
        cache_path("A1", 3, tmp_path).write_bytes(b"\x80not json")
        with pytest.warns(UserWarning, match="unreadable cache .*utf-8"):
            md = modular_data("A1", 3, cache_dir=tmp_path)
        assert md.dim == 4

    def test_schema_mismatch_invalidates(self, tmp_path):
        modular_data("A1", 1, cache_dir=tmp_path)
        p = cache_path("A1", 1, tmp_path)
        payload = json.loads(p.read_text())
        payload["schema"] = 0
        p.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match=r"schema 0, expected \d"):
            assert load_modular_data("A1", 1, tmp_path) is None
        with pytest.warns(UserWarning, match="stale cache"):
            md = modular_data("A1", 1, cache_dir=tmp_path)
        assert md.dim == 2

    @pytest.mark.parametrize("entry", ["[]", json.dumps({"schema": 0})])
    def test_cache_warning_names_the_calling_line(self, tmp_path, entry):
        # the warning points at the line that called the library, not into it
        cache_path("A1", 1, tmp_path).write_text(entry)
        with pytest.warns(UserWarning, match="cache file") as records:
            line = sys._getframe().f_lineno + 1
            modular_data("A1", 1, cache_dir=tmp_path)
        cache_path("A1", 1, tmp_path).write_text(entry)
        with pytest.warns(UserWarning, match="cache file") as direct:
            load_modular_data("A1", 1, tmp_path)
        for record in (*records, *direct):
            assert record.filename == __file__
        assert [r.lineno for r in records] == [line]
        assert [r.lineno for r in direct] == [line + 3]

    def test_failed_write_keeps_previous_entry(self, tmp_path, monkeypatch):
        md = modular_data("A1", 2)
        path = save_modular_data(md, tmp_path)
        before = path.read_bytes()
        write_text = Path.write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(PreconditionError, match="is unusable: disk full"):
            save_modular_data(md, tmp_path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded = load_modular_data("A1", 2, tmp_path)
        assert loaded is not None
        assert np.array_equal(loaded.smatrix, md.smatrix)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_awkward_floats_roundtrip_bit_for_bit(self, tmp_path):
        md = modular_data("A1", 2)
        parts = [-0.0, 5e-324, 1.5e-310, 0.1 + 0.2, 1 / 3, -2.2250738585072014e-308, 1e300]
        s = np.array([[complex(x, y) for y in parts[i : i + 3]] for i, x in enumerate(parts[:3])])
        save_modular_data(dataclasses.replace(md, smatrix=s), tmp_path)
        loaded = load_modular_data("A1", 2, tmp_path)
        assert loaded is not None
        assert loaded.smatrix.tobytes() == s.tobytes()

    def _tamper_smatrix(self, tmp_path, smatrix):
        modular_data("A1", 3, cache_dir=tmp_path)
        p = cache_path("A1", 3, tmp_path)
        payload = json.loads(p.read_text())
        payload["smatrix"] = smatrix(payload["smatrix"])
        p.write_text(json.dumps(payload))

    @pytest.mark.parametrize(
        "smatrix,reason",
        [
            (lambda text: "!" + text[1:], ""),
            (lambda text: text[:-1], ""),
            (lambda text: base64.b64encode(base64.b64decode(text)[:-16]).decode(), "expected 256"),
            (lambda text: base64.b64encode(base64.b64decode(text) + bytes(8)).decode(), "expected 256"),
        ],
        ids=["bad-base64", "cut-base64", "short-payload", "long-payload"],
    )
    def test_bad_smatrix_payload_recomputes(self, tmp_path, coset_walks, smatrix, reason):
        self._tamper_smatrix(tmp_path, smatrix)
        before = len(coset_walks)
        with pytest.warns(UserWarning, match=f"unreadable cache .*{reason}"):
            md = modular_data("A1", 3, cache_dir=tmp_path)
        assert len(coset_walks) == before + 1
        assert np.allclose(md.smatrix, su2_smatrix(3))

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda payload: None,
            lambda payload: payload.update(delta=payload["delta"][:2]),
            lambda payload: payload.update(labels=payload["labels"][:0:-1]),
        ],
        ids=["intact", "short-delta", "permuted-labels"],
    )
    def test_schema_three_entry_is_stale(self, tmp_path, coset_walks, tamper):
        md = modular_data("A1", 3)
        p = cache_path("A1", 3, tmp_path)
        p.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": 3,
            "algebra": "A1",
            "level": 3,
            "labels": [list(lab) for lab in md.labels],
            "smatrix": base64.b64encode(md.smatrix.tobytes()).decode("ascii"),
            "delta": [str(d) for d in md.delta],
            "central_charge": str(md.central_charge),
        }
        tamper(payload)
        p.write_text(json.dumps(payload, sort_keys=True) + "\n")
        before = len(coset_walks)
        with pytest.warns(UserWarning, match=r"stale cache .*schema 3, expected 4"):
            again = modular_data("A1", 3, cache_dir=tmp_path)
        assert len(coset_walks) == before + 1
        assert again.delta == md.delta
        assert np.array_equal(again.smatrix, md.smatrix)
        assert json.loads(p.read_text())["schema"] == 4

    @pytest.mark.parametrize("text", ["[]", "null", '"x"', "3"])
    def test_entry_that_is_not_an_object_recomputes(self, tmp_path, coset_walks, text):
        md = modular_data("A1", 3, cache_dir=tmp_path)
        cache_path("A1", 3, tmp_path).write_text(text)
        before = len(coset_walks)
        with pytest.warns(UserWarning, match="unreadable cache .*not a JSON object"):
            again = modular_data("A1", 3, cache_dir=tmp_path)
        assert len(coset_walks) == before + 1
        assert np.array_equal(again.smatrix, md.smatrix)

    def test_entry_holds_only_the_smatrix(self, tmp_path):
        md = modular_data("A2", 2)
        payload = json.loads(save_modular_data(md, tmp_path).read_text())
        assert sorted(payload) == ["algebra", "level", "schema", "smatrix"]
        assert (payload["schema"], payload["algebra"], payload["level"]) == (4, "A2", 2)
        assert base64.b64decode(payload["smatrix"]) == md.smatrix.tobytes()

    def test_missing_cache_dir_returns_none(self, tmp_path):
        assert load_modular_data("A1", 1, tmp_path / "absent") is None
