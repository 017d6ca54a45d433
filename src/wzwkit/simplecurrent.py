"""Fixed-point S matrices of simple currents, their cocycle, and extensions.

A simple current J acting on a theory comes with a unitary matrix S^J indexed
by the J-fixed primaries.  ``fixed_point_smatrix`` is the one way to obtain
it, built once for each theory: the identity current's S^J is S;
a tensor product's is the Kronecker product of its factors' S^J; and the
catalogue covers the currents whose folded theory has rank zero (the cyclic
rotations of the level-k su(2) and su(3) theories), for which S^J is at
most one by one.  Its single entry is the phase of the orbit-Lie-algebra
S^J of Fuchs, Schellekens and Schweigert ("A matrix S for all simple
current extensions", hep-th/9601078), in closed form: exp(-3 pi i k / 8)
for su(2) at k = 0 mod 4, and 1 for su(3) at k = 0 mod 3.  The fractional-spin su(2) currents
(k = 2 mod 4) take the phase 1 by convention; it never enters downstream
results.  ``extend_by_group`` verifies the extensions built from these phases.

The relative phases F_mu(J, J') of these matrices control which characters
of the stabilizer survive in extensions, boundary data, and trace formulas.
``cocycle`` gives each in closed form from conformal weights, as an exact
exponent; ``_stabilizer_data`` is the one place they are evaluated, and the
untwisted subgroup is found by exact integer sums of exponents.
``_orbit_labels`` takes it once per current orbit and labels the orbit by
the characters of its untwisted stabilizer; the zero-charge labels are the
extension primaries and all of them the boundary labels.  The extended S
matrix and the classifying algebra's hat matrix are both
|G| / sqrt(|S_a||U_a||S_b||U_b|) sum_J psi_a(J) S^J_{ab} psi_b(J)*, built
whole by ``sj_character_matrix``: one (rows x columns) array step per current,
O(|G| n^2) for n labels, and one phase per label and current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .affine import ModularData, verify_modular_invariants
from .errors import (
    ExtensionRejected,
    IntegralityError,
    InternalConsistencyError,
    InvariantViolation,
    PreconditionError,
    UnderdeterminedCocycle,
    UnsupportedFolding,
)
from .exact import phase_to_complex
from .fusion import SimpleCurrentGroup, verify_fusion

__all__ = [
    "FixedPointData",
    "fixed_point_smatrix",
    "cocycle",
    "abelian_characters",
    "sj_character_matrix",
    "OrbitRecord",
    "orbit_data",
    "OrbitLabel",
    "ExtendedTheory",
    "extend_by_group",
]

_BLOCK_ENTRIES = 1 << 16  # entries of the tuple cocycle matrix formed at once


@dataclass(frozen=True, eq=False)
class FixedPointData:
    """The matrix S^J restricted to the J-fixed primaries of one theory."""

    fixed: tuple[int, ...]
    matrix: np.ndarray
    dim: int

    @property
    def fixed_set(self) -> frozenset:
        return frozenset(self.fixed)

    @cached_property
    def full(self) -> np.ndarray:
        """S^J zero-extended over the full primary index set; the identity
        current fixes every primary, and its S^J is S itself, not a copy."""
        if len(self.fixed) == self.dim:
            return self.matrix
        out = np.zeros((self.dim, self.dim), dtype=complex)
        idx = np.array(self.fixed, dtype=np.intp)
        if len(idx):
            out[np.ix_(idx, idx)] = self.matrix
        return out


def fixed_point_smatrix(md: ModularData, current) -> FixedPointData:
    """S^J for one simple current (a label index or a label), built once per theory.

    The identity current gives S itself, and a tensor product the Kronecker
    block of its factors' S^J.  Beyond those, the su(2) current (level even
    or odd) and the two su(3) rotation currents are supported.  Their folded
    theories have rank zero, so the matrix is empty or the single phase xi of
    the orbit-Lie-algebra S^J (hep-th/9601078):

    * su(2) at level k = 0 mod 4: xi = exp(-3 pi i k / 8);
    * su(2) at level k = 2 mod 4: xi = 1.  The current has spin k/4, so no
      extension constrains xi and nothing downstream depends on it;
    * su(3) at level k = 0 mod 3: xi = 1.

    For the integer-spin currents xi is the only root of unity of order
    lcm(24, 4(k + h^vee)) for which the extension by the current passes the
    checks of ``extend_by_group``.  Any other current raises
    ``UnsupportedFolding``, and an index outside 0..n-1 ``PreconditionError``.
    """
    j_index = current if isinstance(current, int) else md.index(tuple(current))
    return md._derived(("fixed_point_smatrix", j_index), lambda md: _fixed_point_data(md, j_index))


def _fixed_point_data(md: ModularData, j_index: int) -> FixedPointData:
    if not 0 <= j_index < md.dim:
        raise PreconditionError(f"current index {j_index} is not below {md.dim}")
    if j_index == md.vacuum:
        return FixedPointData(tuple(range(md.dim)), md.smatrix, md.dim)
    label = md.labels[j_index]
    if md.factors is not None:
        (md1, md2), (c1, c2) = md.factors, label
        d1, d2 = fixed_point_smatrix(md1, c1), fixed_point_smatrix(md2, c2)
        fixed = tuple(i1 * md2.dim + i2 for i1 in d1.fixed for i2 in d2.fixed)
        return FixedPointData(fixed, np.kron(d1.matrix, d2.matrix), md.dim)
    k = md.level
    if md.algebra == "A1" and label == (k,):
        if k % 2:
            return FixedPointData((), np.zeros((0, 0), dtype=complex), md.dim)
        fixed_index = md.index((k // 2,))
        phase = Q(-3 * k, 16) % 1 if k % 4 == 0 else Q(0)
    elif md.algebra == "A2" and label in {(k, 0), (0, k)}:
        if k % 3:
            return FixedPointData((), np.zeros((0, 0), dtype=complex), md.dim)
        fixed_index = md.index((k // 3, k // 3))
        phase = Q(0)
    else:
        raise UnsupportedFolding(
            f"no fixed-point S matrix available for current {label} of {md.algebra} level {k}"
        )
    xi = phase_to_complex(phase)
    return FixedPointData((fixed_index,), np.array([[xi]]), md.dim)


def cocycle(
    md: ModularData,
    group: SimpleCurrentGroup,
    j: int,
    jprime: int,
    mu: int,
) -> Q:
    """The exponent f in [0, 1) of F_mu(J, J') = exp(2 pi i f), defined for mu
    fixed by J by S^J[J' lam, mu] = (T_mu / T_{J' mu}) F_mu(J, J') S^J[lam, mu].

    On S (J the identity) S[J' lam, mu] = exp(2 pi i Q_{J'}(mu)) S[lam, mu]
    (Schellekens and Yankielowicz, Int. J. Mod. Phys. A5 (1990) 2903) leaves
    f = Delta_{J'} mod 1; a one-by-one S^J gives 0, as J' fixes J's one fixed
    point; a Kronecker S^J adds its factors' exponents.  J' the identity
    gives 0.  An index outside 0..n-1, or a J or J' outside ``group``, raises
    ``PreconditionError``; a column that J does not fix, ``UnderdeterminedCocycle``.
    """
    if not 0 <= mu < md.dim:
        raise PreconditionError(f"label index {mu} is not below {md.dim}")
    for current in (j, jprime):
        if current not in group.perms:
            raise PreconditionError(f"index {current} is not a current of the group")
    if jprime == md.vacuum:
        return Q(0)
    if mu not in fixed_point_smatrix(md, j).fixed_set:
        raise UnderdeterminedCocycle(
            f"label index {mu} is not fixed by current index {j}; F is undefined there"
        )
    return _cocycle_exponent(md, j, jprime)


def _cocycle_exponent(md: ModularData, j: int, jprime: int) -> Q:
    """Delta_{J'} mod 1 if J is the identity, else 0, summed over tensor factors
    (index i of a product is (i // n2, i % n2) for a second factor of n2 labels)."""
    if j == md.vacuum:
        return md.delta[jprime] % 1
    if md.factors is None:
        return Q(0)
    md1, md2 = md.factors
    (j1, j2), (jp1, jp2) = divmod(j, md2.dim), divmod(jprime, md2.dim)
    return (_cocycle_exponent(md1, j1, jp1) + _cocycle_exponent(md2, j2, jp2)) % 1


def abelian_characters(elements: Iterable, compose, identity) -> tuple[np.ndarray, int]:
    """All characters of a finite abelian group G, as integer numerators over d = |G|.

    Row r holds chi_r on the sorted elements g_c: chi_r(g_c) = exp(2 pi i num / d).
    The rows are built by extension along the sorted elements: each element
    g outside the span H of the earlier ones has a least n with g^n in H,
    the span grows to the n cosets H g^i, and each character of H extends in
    exactly the n ways num(g) = (num(g^n) + r d) / n, r = 0..n-1, with
    num(h) + i num(g) on h g^i.  The division is exact, as characters of
    subgroups of G take d-th roots of unity; a remainder raises
    ``InternalConsistencyError``.  Nothing is searched; the work is O(|G|^2)
    array entries.  The rows are lexsorted, so the trivial one comes first.
    """
    elems = sorted(set(elements))
    d = len(elems)
    span, where = [identity], {identity: 0}
    nums = np.zeros((1, 1), dtype=np.int64)
    for g in elems:
        if g in where:
            continue
        powers, top = [identity], g
        while top not in where:
            powers.append(top)
            top = compose(top, g)
        n = len(powers)
        steps, rest = np.divmod(nums[:, where[top], None] + d * np.arange(n), n)
        if rest.any():
            raise InternalConsistencyError(f"character values are not d-th roots of unity, d = {d}")
        # row (chi, r), column (h, i): num_chi(h) + i num(g)
        nums = nums[:, None, :, None] + steps[:, :, None, None] * np.arange(n)
        nums = np.remainder(nums, d, out=nums).reshape(-1, nums.shape[2] * n)
        span = [compose(s, p) for s in span for p in powers]
        where = {e: c for c, e in enumerate(span)}
    if set(span) != set(elems):
        raise InternalConsistencyError("generator search did not span the group")
    if len(nums) != d:
        raise InternalConsistencyError(f"found {len(nums)} characters for a group of order {d}")
    nums = nums[:, [where[e] for e in elems]]
    return nums[np.lexsort(nums.T[::-1])], d


def _character_exponents(elements, compose, identity) -> list[tuple[tuple[int, Q], ...]]:
    """Each character of ``abelian_characters`` as sorted (element, exponent) pairs."""
    nums, d = abelian_characters(elements, compose, identity)
    elems = sorted(set(elements))
    return [tuple(zip(elems, (Q(v, d) for v in row))) for row in nums.tolist()]


def sj_character_matrix(
    md: ModularData,
    group_order: int,
    rows: Sequence[tuple[int, Mapping[int, Q], int]],
    cols: Sequence[tuple[int, Mapping[int, Q], int]],
) -> np.ndarray:
    """|G| / sqrt(w_a w_b) * sum_J psi_a(J) S^J_{mu_a, nu_b} phi_b(J)*, for every a, b.

    Each row and column is a triple (sector, character, weight): the
    character maps the currents of its domain to exact phase exponents, and
    the weight is |S| |U|, the orders of the sector's stabilizer and
    untwisted stabilizer.  This is the extended S matrix and the classifying
    algebra's hat matrix.  The characters are tabulated as phases that are 0
    off their domain, and S^J is zero off the J-fixed sectors, so each
    current J adds psi_J phi_J^* times S^J[rows, cols], entrywise: one
    (rows x cols) array operation per current.  J runs in ascending order
    over the currents in some row's domain and some column's domain; only
    those S^J are fetched from ``fixed_point_smatrix``, so a theory whose
    nontrivial currents have no S^J (an extension or an orbifold) works as
    long as no such current is nontrivial.
    """
    currents = sorted(
        set().union(*(char for _, char, _ in rows))
        & set().union(*(char for _, char, _ in cols))
    )

    def phases(labels):
        out = np.zeros((len(labels), len(currents)), dtype=complex)
        for r, (_, char, _) in enumerate(labels):
            for c, j in enumerate(currents):
                if j in char:
                    out[r, c] = phase_to_complex(char[j])
        return out

    psi, phi = phases(rows), phases(cols).conj()
    block = np.ix_([mu for mu, _, _ in rows], [nu for nu, _, _ in cols])
    acc = np.zeros((len(rows), len(cols)), dtype=complex)
    for c, j in enumerate(currents):
        acc += psi[:, c, None] * fixed_point_smatrix(md, j).full[block] * phi[None, :, c]
    weight = np.outer([w for _, _, w in rows], [w for _, _, w in cols])
    return group_order / np.sqrt(weight) * acc


@dataclass(frozen=True, eq=False)
class OrbitRecord:
    """One orbit of the current group on primaries, with stabilizer data.

    ``untwisted_stabilizer`` and ``degeneracy`` are only set when every
    current in the group has integer spin; otherwise the relative phases
    F_mu(J, J') need not form a bihomomorphism and ``integer_spins`` is
    False with no square-root constraint enforced.
    """

    representative: int
    orbit: tuple[int, ...]
    stabilizer: tuple[int, ...]
    integer_spins: bool
    cocycle_values: dict[tuple[int, int], Q]
    untwisted_stabilizer: tuple[int, ...] | None = None
    degeneracy: int | None = None


def _stabilizer_data(
    md: ModularData, group: SimpleCurrentGroup, mu: int
) -> tuple[tuple[int, ...], tuple[tuple[Q, ...], ...], tuple[int, ...]]:
    """The stabilizer of mu, its cocycle exponents and its untwisted subgroup.

    ``exps[a][b]`` is the exact exponent of F_mu(stab[a], stab[b]): one
    ``cocycle`` call per pair, in closed form from conformal weights.  This
    is the only place the cocycle is evaluated.
    """
    stab = group.stabilizer(mu)
    exps = tuple(tuple(cocycle(md, group, t, tp, mu) for tp in stab) for t in stab)
    rows = np.arange(len(stab)).reshape(-1, 1)
    return stab, exps, tuple(stab[i] for i in _untwisted_rows([exps], rows))


def _untwisted_rows(tables: Sequence[Sequence[Sequence[Q]]], rows: np.ndarray) -> list[int]:
    """Indices of the rows with trivial cocycle against every row, both ways.

    ``rows`` holds one stabilizer position per slot (shape rows x slots) and
    ``tables[s]`` the cocycle exponents of slot s; the cocycle of two rows is
    the slotwise sum of exponents, trivial when it is an integer.  The
    exponents are taken as int64 numerators over their common denominator d,
    reduced mod d, so the test is exact.  Row i is kept when row i and column
    i of the matrix C[i, r] (row i's cocycle against row r) are 0 mod d.  C
    is formed a block of rows at a time from each slot's exponents against
    every row, so memory stays O(slots x |stabilizer| x rows + block x rows).
    """
    d = math.lcm(*(e.denominator for table in tables for line in table for e in line))
    nums = [np.array([[int(e * d) for e in line] for line in table], np.int64) % d for table in tables]
    lines = [num[:, column] for num, column in zip(nums, rows.T)]  # lines[s][t, r]: F(t, rows[r, s])
    block = max(1, _BLOCK_ENTRIES // max(1, len(rows)))
    trivial_row = np.empty(len(rows), dtype=bool)
    twisted_column = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), block):
        c = np.zeros((min(block, len(rows) - start), len(rows)), dtype=np.int64)
        for line, pos in zip(lines, rows[start : start + block].T):
            c += line[pos]
        twisted = c % d != 0
        trivial_row[start : start + block] = ~twisted.any(axis=1)
        twisted_column |= twisted.any(axis=0)
    return np.flatnonzero(trivial_row & ~twisted_column).tolist()


def orbit_data(md: ModularData, group: SimpleCurrentGroup) -> list[OrbitRecord]:
    """Orbits, stabilizers and cocycle phases of a current group on primaries."""
    integer_spins = all(md.delta[j].denominator == 1 for j in group.indices)
    records: list[OrbitRecord] = []
    for orbit in group.orbits():
        rep = orbit[0]
        stab, exps, u = _stabilizer_data(md, group, rep)
        untwisted = degeneracy = None
        if integer_spins:
            ratio, rest = divmod(len(stab), len(u))
            untwisted, degeneracy = u, math.isqrt(ratio)
            if rest or degeneracy * degeneracy != ratio:
                raise IntegralityError(
                    "fixed-point degeneracy squared", ratio, float(ratio), md.labels[rep]
                )
        cocycles = {(t, tp): e for t, line in zip(stab, exps) for tp, e in zip(stab, line)}
        records.append(
            OrbitRecord(rep, orbit, stab, integer_spins, cocycles, untwisted, degeneracy)
        )
    return records


@dataclass(frozen=True)
class OrbitLabel:
    """A current orbit plus a character of its untwisted stabilizer U.

    ``rep`` is the least orbit member and ``char`` maps each current of U to
    its exact phase exponent, as sorted (current, exponent) pairs.  The
    zero-charge labels are the primaries of a simple-current extension; all
    of them are the boundary labels of a classifying algebra.
    """

    rep: int
    char: tuple[tuple[int, Q], ...]
    orbit: tuple[int, ...]


def _orbit_labels(
    md: ModularData, group: SimpleCurrentGroup
) -> tuple[tuple[OrbitLabel, ...], dict[int, tuple[tuple[int, ...], int]]]:
    """Every orbit label, and the stabilizer S and weight |S| |U| of every
    sector's orbit, the weight that ``sj_character_matrix`` takes.

    One pass over ``group.orbits()``: ``_stabilizer_data`` of each orbit's
    least member, which holds for the whole orbit, then one label per
    character of U.  The labels come out ordered by (rep, char).  An orbit
    whose U lacks the vacuum is a fixed point of nonzero monodromy charge
    and raises ``UnderdeterminedCocycle``; for an integer-spin group every
    current fixing a sector has charge zero there, so it never does.
    """
    labels: list[OrbitLabel] = []
    records: dict[int, tuple[tuple[int, ...], int]] = {}
    for orbit in group.orbits():
        rep = orbit[0]
        stab, _, u = _stabilizer_data(md, group, rep)
        if md.vacuum not in u:
            raise UnderdeterminedCocycle(
                f"label {md.labels[rep]} (index {rep}) is a fixed point of nonzero "
                "monodromy charge: its cocycle is nontrivial on the vacuum, so its "
                "stabilizer has no untwisted subgroup; not supported"
            )
        records.update(dict.fromkeys(orbit, (stab, len(stab) * len(u))))
        labels.extend(
            OrbitLabel(rep, char, orbit)
            for char in _character_exponents(u, group.compose, md.vacuum)
        )
    return tuple(labels), records


@dataclass(eq=False)
class ExtendedTheory:
    """Result of extending by an integer-spin simple-current group.

    ``classes`` are the zero-charge orbit labels, in the order of the
    extended primaries; ``md`` labels each primary by its (rep, char) pair.
    """

    parent: ModularData
    group: SimpleCurrentGroup
    classes: tuple[OrbitLabel, ...]
    md: ModularData
    zmatrix: np.ndarray


def extend_by_group(
    md: ModularData,
    group: SimpleCurrentGroup,
    tol: float = 1e-8,
) -> ExtendedTheory:
    """Extend a theory by a group of integer-spin simple currents.

    The extension primaries are the orbit labels of ``_orbit_labels`` with
    vanishing monodromy charge under the whole group (checked exactly): one
    per zero-charge orbit and character of its untwisted stabilizer.  The
    extended S matrix is ``sj_character_matrix`` over them.  The extended S
    and T matrices are verified as modular data, the extended fusion rules
    must be non-negative integers, and the diagonal-invariant matrix Z must
    commute with S and T.
    """
    for j in group.indices:
        if md.delta[j].denominator != 1:
            raise ExtensionRejected(
                f"current {md.labels[j]} has non-integer conformal weight {md.delta[j]}; "
                "the extension only exists for integer-spin currents"
            )

    labels, records = _orbit_labels(md, group)
    classes = tuple(
        c for c in labels if all(group.charge(j, c.rep) == 0 for j in group.indices)
    )
    rows = [(c.rep, dict(c.char), records[c.rep][1]) for c in classes]
    s_ext = sj_character_matrix(md, group.order, rows, rows)

    ext_md = ModularData(
        algebra=f"{md.algebra}/ext",
        level=md.level,
        labels=tuple((c.rep, c.char) for c in classes),
        smatrix=s_ext,
        delta=tuple(md.delta[c.rep] for c in classes),
        central_charge=md.central_charge,
    )
    if classes[0].rep != md.vacuum or any(v != 0 for _, v in classes[0].char):
        raise InternalConsistencyError("extension vacuum class is not first")
    verify_modular_invariants(ext_md, tol)
    verify_fusion(ext_md)

    z = np.zeros((md.dim, md.dim), dtype=np.int64)
    for orbit in {c.orbit for c in classes}:
        z[np.ix_(orbit, orbit)] = len(records[orbit[0]][0])
    if z[md.vacuum, md.vacuum] != 1:
        raise InternalConsistencyError("vacuum entry of the invariant matrix is not 1")
    t_diag = md.t_diagonal()
    comm_s = np.abs(z @ md.smatrix - md.smatrix @ z).max()
    comm_t = np.abs(z * t_diag[np.newaxis, :] - t_diag[:, np.newaxis] * z).max()
    if comm_s > 1e-9:
        raise InvariantViolation("invariant_commutes_with_s", float(comm_s), 1e-9)
    if comm_t > 1e-9:
        raise InvariantViolation("invariant_commutes_with_t", float(comm_t), 1e-9)

    return ExtendedTheory(parent=md, group=group, classes=classes, md=ext_md, zmatrix=z)
