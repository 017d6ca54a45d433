"""Modular data of untwisted affine Lie algebras at non-negative integer level.

The S matrix is computed from the Weyl-group character sum over shifted
weights and normalized so the vacuum row is real and positive.  Conformal
weights and the central charge are kept as exact rationals; the S matrix
itself is a complex floating-point array whose defining invariants are
verified to tight tolerance at construction time.
"""

from __future__ import annotations

import base64
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import CartanDataError, InvariantViolation, PreconditionError
from .exact import phase_to_complex
from .liealg import (
    SimpleLieAlgebra,
    build_algebra,
    parse_algebra_label,
    weyl_cosets,
    weyl_order,
)

__all__ = [
    "ModularData",
    "integrable_weights",
    "conformal_weight",
    "central_charge",
    "kac_peterson_smatrix",
    "verify_modular_invariants",
    "modular_data",
    "cache_path",
    "save_modular_data",
    "load_modular_data",
]

SCHEMA_VERSION = 4


def integrable_weights(alg: SimpleLieAlgebra, level: int) -> tuple[tuple[int, ...], ...]:
    """Dominant weights integrable at the given level, in lexicographic order.

    The vacuum (all labels zero) always comes first.
    """
    if level < 0:
        raise PreconditionError("level must be a non-negative integer")
    out = []
    bound = [level // c for c in alg.comarks]

    def rec(prefix: list[int], budget: int) -> None:
        i = len(prefix)
        if i == alg.rank:
            out.append(tuple(prefix))
            return
        for v in range(min(bound[i], budget // alg.comarks[i]) + 1):
            prefix.append(v)
            rec(prefix, budget - v * alg.comarks[i])
            prefix.pop()

    rec([], level)
    out.sort()
    return tuple(out)


def conformal_weight(alg: SimpleLieAlgebra, level: int, label: Sequence[int]) -> Q:
    """Exact conformal weight (lam, lam + 2 rho) / (2 (level + h_vee))."""
    lam = tuple(label)
    shifted = tuple(x + 2 for x in lam)
    return alg.pairing(lam, shifted) / (2 * (level + alg.dual_coxeter))


def central_charge(alg: SimpleLieAlgebra, level: int) -> Q:
    return Q(level * alg.dim, level + alg.dual_coxeter)


@dataclass(frozen=True, eq=False)
class ModularData:
    """Labels, S matrix and exact conformal data of one rational theory.

    ``labels[0]`` is always the vacuum.  ``smatrix`` is unitary and symmetric
    with a positive real vacuum row; ``delta`` and ``central_charge`` are
    exact.  ``factors`` is set on a tensor product to its two factor theories
    (labels are pairs in factor order), from which its fixed-point S matrices
    are built.

    A theory is frozen and its S matrix read-only, so every quantity derived
    from it is computed once per theory; ``dataclasses.replace`` makes a new
    theory that derives its own.
    """

    algebra: str
    level: int
    labels: tuple[tuple, ...]
    smatrix: np.ndarray
    delta: tuple[Q, ...]
    central_charge: Q
    factors: tuple["ModularData", "ModularData"] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.smatrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def vacuum(self) -> int:
        return 0

    def _derived(self, key: Hashable, compute: Callable[["ModularData"], object]):
        """``compute(self)``, computed once per theory and stored under ``key``."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    def index(self, label) -> int:
        indices = self._derived("index", lambda md: {lab: i for i, lab in enumerate(md.labels)})
        if label not in indices:
            raise PreconditionError(f"{label!r} is not a label of {self.algebra} level {self.level}")
        return indices[label]

    @property
    def t_exponents(self) -> tuple[Q, ...]:
        shift = self.central_charge / 24
        return tuple(d - shift for d in self.delta)

    def t_diagonal(self) -> np.ndarray:
        return self._derived(
            "t_diagonal", lambda md: np.array([phase_to_complex(e) for e in md.t_exponents])
        )

    def invariants(self) -> dict:
        """The invariants pass, run once per theory; it keeps residuals and the
        conjugation permutation, not S @ S."""
        return self._derived("invariants", _invariant_residuals)

    def conjugation_permutation(self) -> tuple[int, ...]:
        """Permutation i -> conj(i) read off from S squared in the invariants pass."""
        return self.invariants()["conjugation"]


# Largest |W| that the Weyl sum runs over with J empty, that is over W itself.
_PLAIN_MAX_ORDER = 24

# Entries of theta per block of the determinant pass, 0.5 MB as float64.
_BLOCK_ENTRIES = 1 << 16


def kac_peterson_smatrix(
    alg: SimpleLieAlgebra,
    level: int,
    labels: Sequence[tuple[int, ...]] | None = None,
    weyl_cap: int = 200000,
) -> np.ndarray:
    """S matrix from the Weyl sum over shifted weights, vacuum row positive.

    S_lm is proportional to the Kac-Peterson sum over w in W of
    eps(w) exp(t (w x, y)), with x = l + rho, y = m + rho and
    t = -2 pi i / (level + h^vee) (Kac-Peterson, Adv. Math. 53 (1984) 125),
    scaled so the vacuum row has norm 1 and a positive first entry.  With
    W = W^J W_J for a parabolic subgroup W_J of classical type,

        S_lm ~ sum over c in W/W_J of eps(c) D_J(x, c^-1 y),

    and ``weyl_cap`` bounds the cosets.  D_J(x, z) is the sum over W_J,
    Weyl's determinant form (Fulton-Harris 24.2) times exp(t (x', z')),
    where ' is the part orthogonal to the roots of J.  Let x_i, z_j be the
    coordinates in the epsilon frame of J's simple roots (Bourbaki, plates
    I-IV), g the invariant form on that frame (half the dot product for
    C_r, else the dot product) and theta_ij = -2 pi g x_i z_j / (level +
    h^vee).  Up to a constant factor the determinant form is

        type A      det exp(i theta)
        types B, C  det sin theta
        type D      det cos theta + i^m det sin theta,  m the rank of J

    and 1 when J is empty, where W/W_J is W itself.

    =====================  ====================  ===============
    series                 J                     cosets
    =====================  ====================  ===============
    A1-A3, B2, C2, D3, G2  empty                 |W|
    other A-D              every node            1
    E_r                    nodes 2..r, D_{r-1}   27, 126, 2160
    F4                     nodes 1-3, B3         24
    =====================  ====================  ===============

    J is empty when |W| <= 24: G2 has no determinant form, A1-A3 are faster
    as plain sums (A1/300 0.011 s against 0.033 s with J every node, A2/28
    0.034 s against 0.090 s, A3/12 0.13 s against 0.17 s; B2, C2 and D3
    within noise; best of five on a 2-vCPU VM), and every A1 pairing is an
    exact half-integer, so A1's S does not depend on the order of the sum.

    The sum runs over blocks of rows and cosets, each row block over the
    columns from its first row on, and the upper triangle is mirrored onto
    the lower, so S is exactly symmetric; when one block holds every row (A1
    up to level 180) the whole square is summed.  Besides S, only the mask
    of its lower triangle grows with n^2.
    """
    if labels is None:
        labels = integrable_weights(alg, level)
    kappa = level + alg.dual_coxeter
    shifted = np.array([[x + 1 for x in lab] for lab in labels], dtype=np.int64)
    raw = _coset_sum(alg, kappa, shifted, weyl_cap)
    scale = 1.0 / np.linalg.norm(raw[0])
    phase = np.conj(raw[0, 0]) / abs(raw[0, 0])
    return phase * scale * raw


def _parabolic_block(alg: SimpleLieAlgebra) -> tuple[str, tuple[int, ...]]:
    """Type of J and its nodes, listed in J's own Bourbaki order."""
    if weyl_order(alg) <= _PLAIN_MAX_ORDER:
        return alg.series, ()
    if alg.series == "E":
        return "D", tuple(range(alg.rank - 1, 0, -1))
    if alg.series == "F":
        return "B", (0, 1, 2)
    return alg.series, tuple(range(alg.rank))


def _frame(
    alg: SimpleLieAlgebra, kind: str, block: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(g, eps, gperp)`` with (x, y) = g (x eps).(y eps) + x gperp y.

    ``eps`` maps Dynkin labels to the epsilon coordinates of J's frame (for
    type A, the coordinates projected to sum zero).  ``gperp`` is the Gram
    matrix, on Dynkin labels, of the projection to the span of the
    fundamental weights outside J, the part orthogonal to the roots of J:
    the metric itself when J is empty, zero when J is every node.
    """
    gram = np.array([[float(v) for v in row] for row in alg.metric])
    m = len(block)
    if not m:
        return 1.0, np.zeros((alg.rank, 0)), gram
    roots = np.eye(m, m + (kind == "A")) - np.eye(m, m + (kind == "A"), 1)
    if kind == "C":
        roots[-1] *= 2
    elif kind == "D":
        roots[-1, -2] = 1
    lengths = np.array([float(alg.root_lengths[j]) for j in block])
    g = lengths[0]  # (alpha_1, alpha_1) = 2 g, as alpha_1 = e_1 - e_2
    # x eps solves roots (x eps) = ((alpha_j, x) / g)_j, and (alpha_j, x) = lengths_j x_j
    eps = np.zeros((alg.rank, roots.shape[1]))
    eps[list(block)] = (lengths / g)[:, np.newaxis] * np.linalg.pinv(roots).T
    rest = [i for i in range(alg.rank) if i not in block]
    return g, eps, gram[:, rest] @ np.linalg.solve(gram[np.ix_(rest, rest)], gram[rest])


def _alternating_det(kind: str, theta: np.ndarray) -> np.ndarray:
    """Weyl's determinant form of type ``kind`` at each matrix ``theta[..., :, :]``,
    up to a constant factor (see ``kac_peterson_smatrix``)."""
    if kind == "A":
        return np.linalg.det(np.exp(1j * theta))
    odd = np.linalg.det(np.sin(theta))
    if kind in "BC":
        return odd
    return np.linalg.det(np.cos(theta)) + 1j ** theta.shape[-1] * odd


def _coset_sum(alg: SimpleLieAlgebra, kappa: int, shifted: np.ndarray, cap: int) -> np.ndarray:
    kind, block = _parabolic_block(alg)
    inverses, signs = weyl_cosets(alg, block, cap)
    g, eps, gperp = _frame(alg, kind, block)
    images = shifted @ inverses.transpose(0, 2, 1)  # c^-1 y, one (n, rank) array per coset
    x, z = shifted @ eps, images @ eps
    x_gperp = shifted @ gperp
    n, width = x.shape
    per_coset = n * max(1, width * width)
    block_cosets = max(1, min(len(signs), _BLOCK_ENTRIES // per_coset))
    block_rows = max(1, _BLOCK_ENTRIES // (block_cosets * per_coset))
    t = -2 * np.pi / kappa
    raw = np.zeros((n, n), dtype=complex)
    for r0 in range(0, n, block_rows):
        rs = slice(r0, r0 + block_rows)
        xs = t * g * x[rs, np.newaxis, np.newaxis, :, np.newaxis]
        for c0 in range(0, len(signs), block_cosets):
            cs = slice(c0, c0 + block_cosets)
            # the columns m >= r0 only: S is symmetric
            terms = _alternating_det(kind, xs * z[cs, r0:, np.newaxis, :]) if width else 1
            if gperp.any():
                pairing = (x_gperp[rs] @ images[cs, r0:].transpose(0, 2, 1)).transpose(1, 0, 2)
                terms = terms * np.exp(1j * t * pairing)
            raw[rs, r0:] += np.tensordot(terms, signs[cs], axes=(1, 0))
    lower = np.tri(n, k=-1, dtype=bool)
    raw[lower] = raw.T[lower]
    return raw


def _invariant_residuals(md: ModularData) -> dict:
    """Residual of each defining relation and the conjugation permutation,
    each product freed before the next: at most three n×n arrays beside S."""
    s = md.smatrix
    product = s @ s.conj().T
    product.flat[:: md.dim + 1] -= 1
    unitarity = float(np.abs(product).max())
    product = s * md.t_diagonal()[np.newaxis, :]
    product = product @ product @ product
    s2 = s @ s
    st_cubed = float(np.abs(np.subtract(product, s2, out=product)).max())
    del product
    perm = np.round(s2.real)
    return {
        "unitarity": unitarity,
        "symmetry": float(np.abs(s - s.T).max()),
        "vacuum_row_imag": float(np.abs(s[0].imag).max()),
        "vacuum_row_min": float(s[0].real.min()),
        "conjugation_permutation": float(np.abs(s2.real - perm).max() + np.abs(s2.imag).max()),
        "conjugation_involution": bool(np.array_equal(perm @ perm, np.eye(md.dim))),
        "st_cubed": st_cubed,
        "conjugation": tuple(np.argmax(np.abs(s2), axis=1).tolist()),
    }


def verify_modular_invariants(md: ModularData, tol: float = 1e-9) -> dict[str, float]:
    """Check the defining relations of the modular data; raise on violation.

    Returns the residual of each relation so callers can report them.  The
    residuals are computed once per theory; each call compares them with
    its own ``tol`` and raises on the first relation that fails.
    """
    table = md.invariants()
    residuals: dict[str, float] = {}

    def check(name: str) -> None:
        residuals[name] = table[name]
        if not table[name] <= tol:
            raise InvariantViolation(name, table[name], tol, "")

    check("unitarity")
    check("symmetry")
    check("vacuum_row_imag")
    if table["vacuum_row_min"] <= 0:
        raise InvariantViolation(
            "vacuum_row_positive", -table["vacuum_row_min"], 0.0, "vacuum row must be positive"
        )
    residuals["vacuum_row_positive"] = 0.0
    check("conjugation_permutation")
    if not table["conjugation_involution"]:
        raise InvariantViolation("conjugation_involution", 1.0, tol, "S^2 is not an involution")
    residuals["conjugation_involution"] = 0.0
    check("st_cubed")
    return residuals


def _theory(
    alg: SimpleLieAlgebra, level: int, smatrix: Callable[[tuple], np.ndarray]
) -> ModularData:
    """The WZW theory of ``alg`` at ``level`` with S = ``smatrix(labels)``; labels,
    conformal weights and c are derived here whether S is computed or read."""
    labels = integrable_weights(alg, level)
    return ModularData(
        algebra=alg.name,
        level=level,
        labels=labels,
        smatrix=smatrix(labels),
        delta=tuple(conformal_weight(alg, level, lab) for lab in labels),
        central_charge=central_charge(alg, level),
    )


def modular_data(
    algebra: str,
    level: int,
    cache_dir: str | Path | None = None,
    weyl_cap: int = 200000,
    tol: float = 1e-9,
) -> ModularData:
    """Compute (or load from cache) verified modular data for one affine theory."""
    alg = build_algebra(algebra)
    md = load_modular_data(algebra, level, cache_dir) if cache_dir is not None else None
    hit = md is not None
    if not hit:
        md = _theory(alg, level, lambda labels: kac_peterson_smatrix(alg, level, labels, weyl_cap))
    verify_modular_invariants(md, tol)
    if cache_dir is not None and not hit:
        save_modular_data(md, cache_dir)
    return md


def cache_path(algebra: str, level: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"{algebra}_k{level}.json"


def save_modular_data(md: ModularData, cache_dir: str | Path) -> Path:
    """Write the S matrix of a theory as deterministic JSON; returns the file path.

    The entry holds only ``schema``, ``algebra``, ``level`` and ``smatrix``:
    labels, conformal weights and the central charge are derived from the
    algebra and the level when the entry is read.  S is stored as base64 of
    its little-endian complex128 bytes in C order, one encode of 16 n^2
    bytes with no per-entry work; the bytes round-trip bit for bit.  The
    JSON goes to a temporary file beside the entry, which then replaces the
    entry in one step, so a failed write leaves the old entry intact.

    Raises PreconditionError, before anything is written, unless
    ``md.algebra`` names a simple algebra: a tensor product, extension or
    orbifold could not be derived again from its label.  It also raises
    PreconditionError, naming the directory, when the operating system
    refuses the directory or the write.
    """
    try:
        parse_algebra_label(md.algebra)
    except CartanDataError as exc:
        raise PreconditionError(f"cannot cache theory {md.algebra!r}: {exc}") from None
    path = cache_path(md.algebra, md.level, cache_dir)
    s_bytes = md.smatrix.astype("<c16", copy=False).tobytes()
    payload = {
        "schema": SCHEMA_VERSION,
        "algebra": md.algebra,
        "level": md.level,
        "smatrix": base64.b64encode(s_bytes).decode("ascii"),
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise _unusable(cache_dir, exc) from None
    return path


def _unusable(cache_dir: str | Path, exc: OSError) -> PreconditionError:
    """The error for a cache directory the operating system refuses."""
    return PreconditionError(f"cache directory {str(cache_dir)!r} is unusable: {exc.strerror or exc}")


def _decode_smatrix(text: str, n: int) -> np.ndarray:
    """The n x n S matrix from base64 of exactly 16 n^2 bytes, as a view of them."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 16 * n * n:
        raise ValueError(f"S payload has {len(raw)} bytes, expected {16 * n * n}")
    return np.frombuffer(raw, dtype="<c16").reshape(n, n)


def _warn_outside(message: str) -> None:
    """Warn at the innermost calling line outside this module: the caller of
    ``load_modular_data``, or of ``modular_data`` when that read the entry."""
    frame, level = sys._getframe(2), 3
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def load_modular_data(algebra: str, level: int, cache_dir: str | Path) -> ModularData | None:
    """Read a cached theory; None if absent, stale-schema, or unreadable.

    The theory is built as on a miss, with S read from the entry instead of
    computed.  An entry that is not a JSON object naming this algebra and
    level, or whose S payload is not base64 of exactly 16 n^2 bytes for the
    n integrable weights, counts as unreadable.  S is a read-only view of the
    decoded bytes (one base64 decode, no per-entry work and no copy); it is
    verified by the caller like a freshly computed one.  The entry is the one
    of the canonical name (``"a1"`` reads what ``"A1"`` wrote).  A path the
    operating system refuses (a name too long, say) raises PreconditionError.
    """
    alg = build_algebra(algebra)
    path = cache_path(alg.name, level, cache_dir)
    try:
        if not path.exists():
            return None
        raw = path.read_bytes()
    except OSError as exc:
        raise _unusable(cache_dir, exc) from None
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("cache entry is not a JSON object")
        if payload.get("schema") != SCHEMA_VERSION:
            _warn_outside(
                f"ignoring stale cache file {path}: schema {payload.get('schema')!r},"
                f" expected {SCHEMA_VERSION}"
            )
            return None
        if payload["algebra"] != alg.name or payload["level"] != level:
            raise ValueError("cache file does not match requested theory")
        text = payload["smatrix"]
        return _theory(alg, level, lambda lab: _decode_smatrix(text, len(lab)))
    except (ValueError, KeyError, TypeError) as exc:
        _warn_outside(f"ignoring unreadable cache file {path}: {exc}")
        return None
