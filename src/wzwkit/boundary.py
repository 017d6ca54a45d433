"""Classifying algebras for boundary conditions preserving an orbifold subalgebra.

Given a theory together with a group of simple currents, boundary conditions
that preserve the orbifold subalgebra are governed by a commutative algebra
whose structure constants come from a Verlinde-like formula.  Bulk fields are
indexed by hat labels (a zero-charge sector with a character of its full
stabilizer); boundary conditions by the orbit labels of
``simplecurrent.OrbitLabel``: group orbits of arbitrary sectors dressed with
a character of the central (untwisted) stabilizer.  The two label sets have
the same size and the diagonalizing matrix connecting them is built from the
fixed-point S matrices of the theory, in one call to
``simplecurrent.sj_character_matrix`` (O(|G| n^2) for n labels).  The raised
structure constants take O(n^4) work and an n^3 tensor.

The explicit table for Z2 orbifolds of WZW theories is also provided, so the
generic construction can be cross-checked entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .affine import ModularData
from .errors import InternalConsistencyError, InvariantViolation, PreconditionError
from .fusion import SimpleCurrentGroup
from .orbifold import OrbifoldModularData
from .simplecurrent import OrbitLabel, _character_exponents, _orbit_labels, sj_character_matrix

__all__ = [
    "HatLabel",
    "ClassifyingAlgebra",
    "TypeDecomposition",
    "hat_smatrix",
    "structure_constants",
    "reflection_coefficients",
    "classifying_algebra",
    "automorphism_type_decomposition",
    "z2_wzw_hat_table",
    "match_up_to_column_signs",
]


@dataclass(frozen=True)
class HatLabel:
    """A bulk field: zero-charge sector plus a character of its full stabilizer."""

    sector: int
    char: tuple[tuple[int, Q], ...]


@dataclass(eq=False)
class ClassifyingAlgebra:
    """The boundary classifying algebra of one theory and current group.

    ``hat_labels`` index the bulk fields and ``boundary_labels`` (orbit
    labels, the type of the extension primaries) the boundary conditions.
    ``smatrix`` is indexed by (hat label, boundary label); ``nhat`` holds the
    raised structure constants and ``reflection`` the reflection
    coefficients, both computed with the checks of ``structure_constants``.
    Hat index 0, the vacuum with the trivial character, is the unit.
    ``nhat`` is the only n^3 array a boundary job holds: it is built,
    checked and tabulated (``cli._nonzero_table``) one leading hat index at
    a time.
    """

    md: ModularData
    group: SimpleCurrentGroup
    hat_labels: tuple[HatLabel, ...]
    boundary_labels: tuple[OrbitLabel, ...]
    smatrix: np.ndarray
    nhat: np.ndarray
    reflection: np.ndarray
    residuals: dict[str, float]

    @property
    def dim(self) -> int:
        return len(self.hat_labels)


def _label_data(md: ModularData, group: SimpleCurrentGroup):
    """Hat labels, boundary labels and the stabilizer and weight of every sector.

    Hat labels are the sectors of zero charge, one per character of the full
    stabilizer; boundary labels are the current orbits of all sectors, one
    per character of the central stabilizer.  The boundary labels and the
    orbit records come from one pass over the orbits; each hat label reads
    the stabilizer of its sector's orbit.
    """
    boundaries, records = _orbit_labels(md, group)
    hats = tuple(
        HatLabel(i, char)
        for i in range(md.dim)
        if all(group.charge(j, i) == 0 for j in group.indices)
        for char in _character_exponents(records[i][0], group.compose, md.vacuum)
    )
    if len(hats) != len(boundaries):
        raise InternalConsistencyError(
            f"{len(hats)} hat labels but {len(boundaries)} boundary labels; "
            "stabilizer data is inconsistent"
        )
    return hats, boundaries, records


def hat_smatrix(md: ModularData, group: SimpleCurrentGroup) -> np.ndarray:
    """The diagonalizing matrix of the classifying algebra.

    Entry (mu-hat, a) sums psi(J) S^J_{mu,rho} psi_a(J)* over the currents in
    the intersection of the hat label's stabilizer with the boundary label's
    central stabilizer, normalized by the usual square-root prefactor.
    """
    return _hat_matrix(md, group, _label_data(md, group))


def _hat_matrix(md: ModularData, group: SimpleCurrentGroup, label_data) -> np.ndarray:
    hats, boundaries, records = label_data
    return sj_character_matrix(
        md,
        group.order,
        [(h.sector, dict(h.char), records[h.sector][1]) for h in hats],
        [(b.rep, dict(b.char), records[b.rep][1]) for b in boundaries],
    )


def reflection_coefficients(shat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Columns of the hat matrix normalized by the vacuum row.

    Each column is a one-dimensional representation of the classifying
    algebra (an eigenvalue assignment for every hat generator).  Checked:
    the hat matrix is square and invertible with a nonvanishing vacuum row.
    """
    if shat.ndim != 2 or shat.shape[0] != shat.shape[1]:
        raise PreconditionError("the hat matrix must be square")
    if not shat.size or not np.isfinite(shat).all():
        raise PreconditionError("the hat matrix must be nonempty and finite")
    svals = np.linalg.svd(shat, compute_uv=False)
    if not svals[-1] > tol * svals[0]:
        raise InvariantViolation(
            "hat_matrix_invertible", float(svals[-1]), tol, "singular hat matrix"
        )
    vac = shat[0]
    small = np.abs(vac).min()
    if not small >= tol:
        raise InvariantViolation(
            "vacuum_row_nonvanishing", float(small), tol, "degenerate boundary"
        )
    return shat / vac


def structure_constants(shat: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Raised structure constants of the classifying algebra.

    The all-lower tensor is the Verlinde-like sum over boundary labels; the
    last index is raised with the inverse of C = N_{..unit} = S-hat S-hat^T.
    Checked: S-hat is square and invertible with a nonvanishing vacuum row;
    hat index 0 is the unit; every boundary column a is a representation,
    chi_a(l) chi_a(m) = sum_n N_lm^n chi_a(n), chi_a(l) = S-hat[l,a] / S-hat[0,a].
    Associativity and commutativity follow: R[n, a] = chi_a(n) is S-hat with
    rescaled columns, so invertible, and the representation check reads
    L_l R = R diag(chi(l)) for (L_l)_mn = N_lm^n.  So L_l = R diag(chi(l)) R^-1,
    and l -> chi(l) maps the algebra onto C^n with the pointwise product.
    The tensor is built and checked one hat index l at a time, so it is the
    only n^3 array formed.
    """
    return _structure_constants(shat, tol)[0]


def _structure_constants(
    shat: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Raised structure constants, reflection coefficients and check residuals."""
    refl = reflection_coefficients(shat, tol)
    inv = np.linalg.inv(shat @ shat.T)
    n = shat.shape[0]
    raised = np.empty((n, n, n), dtype=np.result_type(shat, refl, inv))
    for l in range(n):
        raised[l] = np.einsum("mr,rn->mn", np.einsum("a,ma,na->mn", shat[l], shat, refl), inv)

    # checked after the build: a BLAS product between the einsums keeps its
    # threads spinning; the array max keeps a NaN that Python's max drops
    unit_res = float(np.abs(raised[0] - np.eye(n)).max())
    if not unit_res <= tol:
        raise InvariantViolation("classifying_unit", unit_res, tol, "")
    rep_res = float(np.array([np.abs(raised[l] @ refl - refl[l] * refl).max() for l in range(n)]).max())
    if not rep_res <= tol:
        raise InvariantViolation("classifying_representation", rep_res, tol, "")
    return raised, refl, {
        "unit": unit_res,
        "representation_property": rep_res,
        "commutativity": float(np.array([np.abs(raised[l] - raised[:, l]).max() for l in range(n)]).max()),
    }


def classifying_algebra(
    md: ModularData,
    group: SimpleCurrentGroup,
    tol: float = 1e-8,
) -> ClassifyingAlgebra:
    """Build the classifying algebra and verify its defining properties.

    The hat unit must be the vacuum with the trivial character; then the
    checks of ``structure_constants`` run once (invertible hat matrix, unit,
    every boundary column a one-dimensional representation; together they
    imply associativity and commutativity) and their residuals are recorded.
    """
    label_data = _label_data(md, group)
    hats, boundaries = label_data[:2]
    if hats[0].sector != md.vacuum or any(v != 0 for _, v in hats[0].char):
        raise InternalConsistencyError("hat unit is not the vacuum with trivial character")
    shat = _hat_matrix(md, group, label_data)
    nhat, refl, residuals = _structure_constants(shat, tol)
    return ClassifyingAlgebra(
        md=md,
        group=group,
        hat_labels=hats,
        boundary_labels=boundaries,
        smatrix=shat,
        nhat=nhat,
        reflection=refl,
        residuals=residuals,
    )


@dataclass(frozen=True)
class TypeDecomposition:
    """Partition of the boundary labels into ideals, one per automorphism type."""

    parts: tuple[tuple[str, tuple[int, ...]], ...]
    residual: float


def automorphism_type_decomposition(
    ca: ClassifyingAlgebra, tol: float = 1e-8
) -> TypeDecomposition:
    """Split the boundary labels by automorphism type and verify ideal-ness.

    For a Z2 group, orbits of zero monodromy charge give the trivial type and
    the rest the nontrivial one; for larger groups the parts are keyed by the
    charge vector without a symmetry interpretation.  The partition must be a
    direct sum of ideals: sums of primitive idempotents from different parts
    multiply to zero.
    """
    group = ca.group
    nontrivial = [j for j in group.indices if j != ca.md.vacuum]
    buckets: dict[str, list[int]] = {}
    for a, b in enumerate(ca.boundary_labels):
        charges = tuple(group.charge(j, b.rep) for j in nontrivial)
        if not nontrivial:
            key = "1"
        elif len(nontrivial) == 1:
            key = "1" if charges[0] == 0 else "sigma"
        else:
            key = "q=(" + ",".join(str(q) for q in charges) + ")"
        buckets.setdefault(key, []).append(a)
    parts = tuple(sorted((k, tuple(v)) for k, v in buckets.items()))

    refl = ca.reflection
    idem = np.linalg.inv(refl.T)
    sums = {k: idem[:, list(v)].sum(axis=1) for k, v in parts}
    residual = 0.0
    keys = [k for k, _ in parts]
    for i, ki in enumerate(keys):
        for kj in keys[i:]:
            prod = np.einsum("l,m,lmn->n", sums[ki], sums[kj], ca.nhat)
            target = sums[ki] if ki == kj else 0.0
            residual = float(np.maximum(residual, np.abs(prod - target).max()))
    if not residual <= tol:
        raise InvariantViolation("automorphism_type_ideals", residual, tol, "")
    return TypeDecomposition(parts=parts, residual=residual)


def z2_wzw_hat_table(orb: OrbifoldModularData) -> np.ndarray:
    """Explicit hat matrix of an inner Z2 WZW orbifold, from parent data.

    Rows run over (parent label, sign) pairs in parent order; columns over
    untwisted orbits then twisted orbits.  Untwisted columns carry the parent
    S matrix; twisted columns carry the sign times eta inverse times the
    twisted-block matrix.
    """
    oin = orb.input
    parent = oin.md
    n = parent.dim
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for lam in range(n):
        for row, eps in ((2 * lam, 1), (2 * lam + 1, -1)):
            eta = oin.eta(lam)
            for mu in range(n):
                out[row, mu] = parent.smatrix[lam, mu]
                out[row, n + mu] = eps / eta * oin.s0[lam, mu]
    return out


def match_up_to_column_signs(
    computed: np.ndarray, reference: np.ndarray, tol: float = 1e-8
) -> tuple[int, ...]:
    """Column signs making two matrices agree entrywise, or a hard failure.

    The sign freedom reflects the conventional resolution labels of fixed
    points; a column that matches neither way raises InvariantViolation.
    """
    if computed.shape != reference.shape:
        raise PreconditionError("matrices to compare must have equal shapes")
    signs = []
    for c in range(computed.shape[1]):
        plus = np.abs(computed[:, c] - reference[:, c]).max()
        minus = np.abs(computed[:, c] + reference[:, c]).max()
        if plus <= tol:
            signs.append(1)
        elif minus <= tol:
            signs.append(-1)
        else:
            raise InvariantViolation(
                "hat_table_match", float(min(plus, minus)), tol, f"column {c}"
            )
    return tuple(signs)
