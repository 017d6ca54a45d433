"""Batch command-line front end with deterministic machine-readable reports.

Every invocation runs one construction, prints one report to stdout, and
exits with a status that classifies the outcome: 0 for success, 2 when a
verified invariant or conjecture fails (the failure is itself reported as
data), 3 for configuration and parse problems, 4 when the Weyl sum needs
more cosets W/W_J than its cap, 5 for constructions the
library does not support, and 6 when a float computation runs out of
range or precision.

Reports embed the input echo, the library version, and the residual table
of every invariant that was checked, and identical configurations produce
byte-identical output.  Single constructions emit JSON; sweeps emit CSV.

A report is the text ``json.dumps`` gives the document (sorted keys,
compact or ``indent=2``), with every float in shortest round-trip repr.
Numeric arrays, which make up most of a large report, are written at
array speed: each distinct value is formatted once and the array's text
is joined from those words and the list separators, then spliced in where
``json.dumps`` wrote a placeholder.  An S matrix repeats most of its
values, so this costs far fewer float reprs than it has entries.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

from . import __version__
from .affine import ModularData, modular_data, verify_modular_invariants
from .blocks import fourier_eigendims, symmetry_trace
from .boundary import automorphism_type_decomposition, classifying_algebra
from .errors import (
    CartanDataError,
    ConjectureViolation,
    ExtensionRejected,
    IntegralityError,
    InternalConsistencyError,
    InvariantViolation,
    PrecisionExhausted,
    PreconditionError,
    UnderdeterminedCocycle,
    UnsupportedFolding,
    WeylCapExceeded,
)
from .fusion import SimpleCurrentGroup, simple_currents, verify_fusion, verlinde_tensor
from .liealg import build_algebra, center_group, parse_algebra_label
from .orbifold import assemble_orbifold, conjecture2_trace, inner_orbifold_input
from .simplecurrent import extend_by_group

__all__ = [
    "JobConfig",
    "run",
    "build_parser",
    "main",
    "EXIT_OK",
    "EXIT_INVARIANT",
    "EXIT_PARSE",
    "EXIT_CAP",
    "EXIT_UNSUPPORTED",
    "EXIT_PRECISION",
]

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_UNSUPPORTED = 5
EXIT_PRECISION = 6

CACHE_ENV = "WZWKIT_CACHE_DIR"

SWEEP_COLUMNS = (
    "algebra",
    "level",
    "status",
    "dim",
    "max_residual",
    "fusion_residual",
    "simple_current_order",
    "center_match",
)


@dataclass
class JobConfig:
    """One batch job: a construction plus everything it needs.

    Field names are the command-line ``dest`` names and the field defaults
    are the command-line defaults; ``validate`` enforces that the
    parameters are complete for the chosen construction.
    """

    construction: str
    algebra: str = ""
    level: int = 0
    group: str | None = None
    shift: tuple[Q, ...] | None = None
    insertions: tuple[int, ...] | None = None
    genus: int = 0
    current_tuple: tuple[int, ...] | None = None
    conjecture: int | None = None
    levels: tuple[int, int] | None = None
    tolerance: float = 1e-8
    weyl_cap: int = 200000
    cache_dir: str | None = None
    fmt: str = "json"

    def validate(self) -> None:
        constructions = (*_HANDLERS, "sweep")
        if self.construction not in constructions:
            raise PreconditionError(
                f"unknown construction {self.construction!r}; "
                f"expected one of {', '.join(constructions)}"
            )
        if not self.algebra:
            raise PreconditionError("an algebra label is required")
        parse_algebra_label(self.algebra)
        if self.tolerance <= 0:
            raise PreconditionError("tolerances must be positive")
        if not np.isfinite(self.tolerance):
            raise PreconditionError(f"tolerances must be finite, got {self.tolerance!r}")
        if self.weyl_cap < 1:
            raise PreconditionError("--weyl-cap must be a positive integer")
        if self.fmt not in ("json", "csv", "pretty"):
            raise PreconditionError(f"unknown output format {self.fmt!r}")
        if self.fmt == "csv" and self.construction != "sweep":
            raise PreconditionError("csv output is only defined for sweeps")
        if self.cache_dir is not None:
            # the nearest existing ancestor of the directory must be a directory
            path = os.path.abspath(self.cache_dir)
            while not os.path.lexists(path):
                path = os.path.dirname(path)
            if not os.path.isdir(path):
                raise PreconditionError(
                    f"cache directory {self.cache_dir!r} is, or lies under, {path!r}, "
                    "which is not a directory"
                )
        if self.construction == "sweep":
            if self.levels is None:
                raise PreconditionError("sweep requires --levels, e.g. --levels 1-6")
            lo, hi = self.levels
            if lo < 1 or hi < lo:
                raise PreconditionError(f"bad level range {lo}-{hi}")
            return
        if self.level < 1:
            raise PreconditionError("--level must be a positive integer")
        if self.construction in ("extend", "boundary") and not self.group:
            raise PreconditionError(f"{self.construction} requires --group")
        if self.construction == "orbifold" and self.shift is None:
            raise PreconditionError("orbifold requires --shift")
        if self.construction == "trace":
            if self.conjecture not in (1, 2):
                raise PreconditionError("trace requires --conjecture 1 or 2")
            if self.insertions is None:
                raise PreconditionError("trace requires --insertions")
            if self.genus < 0:
                raise PreconditionError("--genus must be a non-negative integer")
            if self.conjecture == 1 and self.shift is not None:
                raise PreconditionError("trace --conjecture 1 takes no --shift")
            if self.current_tuple is not None and len(self.current_tuple) != len(self.insertions):
                raise PreconditionError("--tuple must assign one current per insertion")
            if self.conjecture == 2:
                if self.shift is None:
                    raise PreconditionError("trace --conjecture 2 requires --shift")
                if len(self.insertions) != 3:
                    raise PreconditionError(
                        "trace --conjecture 2 takes exactly three insertions"
                    )
                if self.genus or self.current_tuple is not None:
                    raise PreconditionError(
                        "trace --conjecture 2 is a genus-0 trace and takes no --genus or --tuple"
                    )

    def echo(self) -> dict:
        """Input echo for the report; omits unset optional fields."""
        out: dict = {
            "construction": self.construction,
            "algebra": self.algebra,
            "tolerance": self.tolerance,
            "weyl_cap": self.weyl_cap,
            "format": self.fmt,
        }
        if self.construction == "sweep":
            out["levels"] = list(self.levels) if self.levels else None
        else:
            out["level"] = self.level
        for name in ("group", "genus", "conjecture", "cache_dir"):
            value = getattr(self, name)
            if value not in (None, 0):
                out[name] = value
        if self.shift is not None:
            out["shift"] = [str(x) for x in self.shift]
        if self.insertions is not None:
            out["insertions"] = list(self.insertions)
        if self.current_tuple is not None:
            out["tuple"] = list(self.current_tuple)
        return out


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _encode(value, arrays: list, depth: int = 0):
    """Make a value JSON-ready with a fixed, reproducible convention.

    Rationals become exact strings, complex numbers become [re, im]
    pairs, and arrays become nested lists.  Floats rely on shortest
    round-trip repr, which stays within 17 significant digits.

    A non-empty numeric array of at least one dimension is not converted
    here: it is appended to ``arrays`` with its nesting depth (the number
    of enclosing lists and dicts), and a placeholder string holding its
    position and a NUL character stands in for it; ``_render`` splices the
    array's text in.  A complex array is first stacked into a trailing
    (re, im) axis, so each entry still reads [re, im].  Empty and 0-d
    arrays cost one ``tolist()``; object arrays (of rationals, say) are
    walked element by element, like lists.
    """
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Q):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return _encode(value.tolist(), arrays, depth)
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), -1)
        # tolist() leaves a longdouble a numpy scalar, which json refuses.
        numeric = value.dtype.kind in "biuf" and value.dtype.itemsize <= 8
        if not numeric or value.size == 0 or value.ndim == 0:
            return value.tolist()
        arrays.append((value, depth))
        return f"\x00{len(arrays) - 1}"
    if isinstance(value, dict):
        return {str(key): _encode(item, arrays, depth + 1) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_encode(item, arrays, depth + 1) for item in items]
    raise PreconditionError(f"cannot serialize a {type(value).__name__} into a report")


def _words(flat: np.ndarray) -> tuple[list[str], np.ndarray]:
    """JSON text of each distinct entry of a flat array, and the index into it.

    Entries are compared as json would print them after ``tolist()``:
    floats as float64 by bit pattern (so -0.0 and 0.0, or NaNs with
    different payloads, stay apart), integers and bools by value.
    """
    if flat.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # a signalling NaN, as tolist() allows
            flat = flat.astype(np.float64)
        bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
        distinct = bits.view(np.float64)
        words = list(map(float.__repr__, distinct.tolist()))
        for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
            x = distinct[i]
            words[i] = "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
        return words, inverse
    distinct, inverse = np.unique(flat, return_inverse=True)
    if flat.dtype.kind == "b":
        return ["true" if x else "false" for x in distinct.tolist()], inverse
    return list(map(int.__repr__, distinct.tolist())), inverse


def _array_text(array: np.ndarray, indent: int | None, depth: int) -> str:
    """The text ``json.dumps`` gives ``array.tolist()`` at nesting ``depth``.

    Each distinct entry is formatted once (``_words``).  Before every entry
    but the first goes the separator for the number j of axis boundaries
    it crosses, which closes j lists, writes a comma and opens j lists;
    there are only ``ndim`` such separators.  ``indent`` None is the
    compact ``separators=(",", ":")`` layout, else the pretty one.
    """
    ndim = array.ndim
    inner = depth + ndim

    def newline(level: int) -> str:
        return "" if indent is None else "\n" + " " * (indent * level)

    def opens(j: int) -> str:
        return "".join(newline(level) + "[" for level in range(inner - j, inner)) + newline(inner)

    def closes(j: int) -> str:
        return "".join(newline(level) + "]" for level in range(inner - 1, inner - 1 - j, -1))

    crossed = np.zeros(array.size, dtype=np.intp)
    stride = 1
    for length in array.shape[:0:-1]:
        stride *= length
        crossed[::stride] += 1
    words, inverse = _words(array.reshape(-1))
    pieces = np.empty(2 * array.size, dtype=object)
    pieces[0::2] = np.array([closes(j) + "," + opens(j) for j in range(ndim)], dtype=object)[crossed]
    pieces[1::2] = np.array(words, dtype=object)[inverse]
    pieces[0] = "[" + opens(ndim - 1)
    return "".join(pieces.tolist()) + closes(ndim)


_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def _render(document: dict, fmt: str) -> str:
    """Serialize a report: ``json.dumps`` with sorted keys, arrays spliced in.

    ``json.dumps`` writes the document with a placeholder for each numeric
    array (see ``_encode``); each placeholder is then replaced by
    ``_array_text``, which gives the bytes ``json.dumps`` would give the
    array's ``tolist()``.  An array of N entries with D distinct values
    costs one sort of N keys, D float reprs and one join of 2N shared
    strings, instead of N Python floats and N reprs; S matrices repeat
    most of their values (A1 level 300: 181,202 floats, 17,084 distinct).
    """
    arrays: list = []
    payload = _encode(document, arrays)
    indent = 2 if fmt == "pretty" else None
    separators = None if indent else (",", ":")
    text = json.dumps(payload, sort_keys=True, indent=indent, separators=separators)

    def splice(match: re.Match) -> str:
        array, depth = arrays[int(match.group(1))]
        return _array_text(array, indent, depth)

    text, spliced = _PLACEHOLDER.subn(splice, text)
    if spliced != len(arrays):
        raise InternalConsistencyError("a report string imitates an array placeholder")
    return text + "\n"


def _document(config: JobConfig, result: dict, residuals: dict) -> dict:
    return {
        "input": config.echo(),
        "version": __version__,
        "status": "ok",
        "result": result,
        "residuals": residuals,
    }


_ERROR_TABLE: tuple[tuple[type, str, int], ...] = (
    (WeylCapExceeded, "cap-exceeded", EXIT_CAP),
    (UnsupportedFolding, "unsupported", EXIT_UNSUPPORTED),
    (UnderdeterminedCocycle, "unsupported", EXIT_UNSUPPORTED),
    (ExtensionRejected, "extension-rejected", EXIT_INVARIANT),
    (ConjectureViolation, "conjecture-failure", EXIT_INVARIANT),
    (PrecisionExhausted, "precision-exhausted", EXIT_PRECISION),
    (InvariantViolation, "invariant-failure", EXIT_INVARIANT),
    (IntegralityError, "invariant-failure", EXIT_INVARIANT),
    (InternalConsistencyError, "invariant-failure", EXIT_INVARIANT),
    (PreconditionError, "parse-error", EXIT_PARSE),
    (CartanDataError, "parse-error", EXIT_PARSE),
)


def _classify(exc: Exception) -> tuple[str, int] | None:
    for etype, code, status in _ERROR_TABLE:
        if isinstance(exc, etype):
            return code, status
    return None


def _error_detail(exc: Exception) -> dict:
    if isinstance(exc, InvariantViolation):
        return {
            "relation": exc.relation,
            "residual": exc.residual,
            "tolerance": exc.tol,
        }
    if isinstance(exc, IntegralityError):
        return {"quantity": exc.what, "residual": exc.residual}
    if isinstance(exc, WeylCapExceeded):
        return {"cap": exc.cap}
    if isinstance(exc, ConjectureViolation):
        return {"report": exc.report}
    return {}


def _error_document(config: JobConfig, exc: Exception, code: str) -> dict:
    return {
        "input": config.echo(),
        "version": __version__,
        "status": "error",
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
            **_error_detail(exc),
        },
    }


# ---------------------------------------------------------------------------
# Construction handlers.  Each returns (result, residuals).
# ---------------------------------------------------------------------------


def _load(config: JobConfig) -> ModularData:
    return modular_data(
        config.algebra,
        config.level,
        cache_dir=config.cache_dir,
        weyl_cap=config.weyl_cap,
        tol=config.tolerance,
    )


def _group_from_spec(md: ModularData, spec: str) -> SimpleCurrentGroup:
    full = simple_currents(md)
    if spec == "center":
        return full
    if spec == "trivial":
        return full.subgroup(())
    try:
        generators = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise PreconditionError(
            f"--group must be 'center', 'trivial', or comma-separated "
            f"label indices, got {spec!r}"
        ) from None
    for g in generators:
        if g not in full.indices:
            raise PreconditionError(f"label index {g} is not a simple current")
    return full.subgroup(generators)


def _run_modular_data(config: JobConfig):
    md = _load(config)
    residuals = verify_modular_invariants(md, config.tolerance)
    result = {
        "algebra": md.algebra,
        "level": md.level,
        "dim": md.dim,
        "labels": [list(lab) for lab in md.labels],
        "central_charge": md.central_charge,
        "delta": list(md.delta),
        "smatrix": md.smatrix,
    }
    return result, residuals


def _nonzero_table(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows [a, b, c, values[a, b, c]] where ``mask`` holds, in C order.

    C order is the order of ``itertools.product`` over the three indices.
    """
    index = np.nonzero(mask)
    return np.column_stack((*index, values[index].astype(np.int64)))


def _run_fusion(config: JobConfig):
    md = _load(config)
    residuals = verify_modular_invariants(md, config.tolerance)
    tensor = verlinde_tensor(md)
    residuals["fusion_integrality"] = verify_fusion(md)
    group = simple_currents(md)
    result = {
        "dim": md.dim,
        "labels": [list(lab) for lab in md.labels],
        "nonzero": _nonzero_table(tensor != 0, tensor),
        "simple_currents": [list(md.labels[j]) for j in group.indices],
    }
    return result, residuals


def _run_extend(config: JobConfig):
    md = _load(config)
    group = _group_from_spec(md, config.group)
    ext = extend_by_group(md, group, tol=config.tolerance)
    residuals = verify_modular_invariants(ext.md, config.tolerance)
    result = {
        "group_order": group.order,
        "classes": [
            {
                "rep": list(md.labels[cls.rep]),
                "char": {str(j): v for j, v in cls.char},
            }
            for cls in ext.classes
        ],
        "dim": ext.md.dim,
        "delta": list(ext.md.delta),
        "smatrix": ext.md.smatrix,
        "zmatrix": ext.zmatrix,
    }
    return result, residuals


def _run_orbifold(config: JobConfig):
    md = _load(config)
    oin = inner_orbifold_input(md, config.shift)
    orb = assemble_orbifold(oin, tol=config.tolerance)
    result = {
        "dim": orb.md.dim,
        "labels": [[list(lab), sign, twist] for lab, sign, twist in orb.labels],
        "delta": list(orb.md.delta),
        "smatrix": orb.md.smatrix,
        "pmatrix": orb.pmatrix,
    }
    return result, dict(orb.residuals)


def _run_boundary(config: JobConfig):
    md = _load(config)
    group = _group_from_spec(md, config.group)
    algebra = classifying_algebra(md, group, tol=config.tolerance)
    residuals = dict(algebra.residuals)
    nhat = algebra.nhat
    result = {
        "dim": algebra.dim,
        "hat_labels": [
            {"sector": h.sector, "char": {str(j): v for j, v in h.char}}
            for h in algebra.hat_labels
        ],
        "boundary_labels": [
            {"rep": b.rep, "orbit": list(b.orbit), "char": {str(j): v for j, v in b.char}}
            for b in algebra.boundary_labels
        ],
        "smatrix": algebra.smatrix,
        "nhat_nonzero": _nonzero_table(np.abs(nhat) > 0.5, np.round(nhat.real)),
        "reflection": algebra.reflection,
    }
    if group.order == 2:
        decomposition = automorphism_type_decomposition(algebra, tol=config.tolerance)
        residuals["automorphism_type_ideals"] = decomposition.residual
        result["automorphism_types"] = [
            {"type": name, "members": list(members)}
            for name, members in decomposition.parts
        ]
    return result, residuals


def _check_current_tuple(group: SimpleCurrentGroup, insertions, current_tuple) -> None:
    """Reject a --tuple whose trace is undefined: it must be admissible.

    Each slot must be a simple current that fixes its insertion, and the
    product of the slots must be the vacuum.
    """
    product = group.md.vacuum
    for slot, (mu, j) in enumerate(zip(insertions, current_tuple)):
        if j not in group.indices:
            raise PreconditionError(f"--tuple slot {slot}: label {j} is not a simple current")
        if j not in group.stabilizer(mu):
            raise PreconditionError(
                f"--tuple slot {slot}: current {j} does not fix insertion {mu}"
            )
        product = group.compose(j, product)
    if product != group.md.vacuum:
        raise PreconditionError(
            f"--tuple: the product of the currents is label {product}, not the vacuum"
        )


def _run_trace(config: JobConfig):
    md = _load(config)
    for slot, mu in enumerate(config.insertions):
        if not 0 <= mu < md.dim:
            raise PreconditionError(
                f"--insertions slot {slot}: {mu} is not a label index below {md.dim}"
            )
    if config.conjecture == 1:
        group = simple_currents(md)
        if config.current_tuple is not None:
            _check_current_tuple(group, config.insertions, config.current_tuple)
        spectrum = fourier_eigendims(
            md, group, config.insertions, genus=config.genus
        )
        exponents = [str(Q(j, spectrum.denominator)) for j in range(spectrum.denominator)]
        result = {
            "rank": spectrum.rank,
            "admissible": [list(t) for t in spectrum.admissible],
            "untwisted": [list(t) for t in spectrum.untwisted],
            "traces": {str(t): spectrum.traces[t] for t in spectrum.untwisted},
            "dims": {
                ",".join(map(exponents.__getitem__, key)): dim
                for key, dim in spectrum.dims.items()
            },
        }
        if config.current_tuple in spectrum.traces:
            result["tuple_trace"] = spectrum.traces[config.current_tuple]
        elif config.current_tuple is not None:
            result["tuple_trace"] = symmetry_trace(
                md, config.insertions, config.current_tuple, config.genus
            )
        return result, {}
    oin = inner_orbifold_input(md, config.shift)
    outcome = conjecture2_trace(oin, config.insertions, orientation=1)
    result = {
        "trace": outcome.trace,
        "rank": outcome.rank,
        "dim_plus": outcome.dim_plus,
        "dim_minus": outcome.dim_minus,
        "orientation": outcome.orientation,
    }
    return result, {}


def _run_check(config: JobConfig):
    """Invariants, fusion, and the simple currents against their prediction.

    The simple currents of a WZW theory are the center of the group, except
    at E8 level 2, which has one more Z2 current, the primary of weight 3/2
    (J. Fuchs, Commun. Math. Phys. 136 (1991) 345).  A mismatch with that
    prediction raises; ``center_match`` reports the literal comparison with
    the center.
    """
    md = _load(config)
    residuals = verify_modular_invariants(md, config.tolerance)
    residuals["fusion_integrality"] = verify_fusion(md)
    group = simple_currents(md)
    detected = sorted(group.element_order(j) for j in group.indices)
    center = center_group(build_algebra(config.algebra))
    expected = list(center.element_orders)
    predicted = [1, 2] if (md.algebra, md.level) == ("E8", 2) else expected
    residuals["simple_current_center"] = 0.0 if detected == predicted else 1.0
    if detected != predicted:
        raise InvariantViolation(
            "simple_current_center",
            1.0,
            0.0,
            f"element orders {detected} vs predicted orders {predicted}",
        )
    result = {
        "dim": md.dim,
        "simple_current_order": group.order,
        "center_invariant_factors": list(center.factors),
        "center_match": detected == expected,
    }
    return result, residuals


_HANDLERS = {
    "modular-data": _run_modular_data,
    "fusion": _run_fusion,
    "extend": _run_extend,
    "orbifold": _run_orbifold,
    "boundary": _run_boundary,
    "trace": _run_trace,
    "check": _run_check,
}


def _run_sweep(config: JobConfig) -> tuple[str, int]:
    """Run the check pipeline over a level range; failures become rows."""
    lo, hi = config.levels
    rows = []
    worst = EXIT_OK
    for level in range(lo, hi + 1):
        sub = replace(config, construction="check", level=level, levels=None)
        row = {"algebra": config.algebra, "level": level}
        try:
            result, residuals = _run_check(sub)
        except Exception as exc:
            classified = _classify(exc)
            if classified is None:
                raise
            code, _ = classified
            worst = EXIT_INVARIANT
            row.update(dict.fromkeys(SWEEP_COLUMNS[3:], ""), status=code)
        else:
            fusion_residual = residuals.pop("fusion_integrality")
            residuals.pop("simple_current_center", None)
            row.update(
                status="ok",
                dim=result["dim"],
                max_residual=max(residuals.values()),
                fusion_residual=fusion_residual,
                simple_current_order=result["simple_current_order"],
                center_match=result["center_match"],
            )
        rows.append(row)
    if config.fmt in ("json", "pretty"):
        document = {
            "input": config.echo(),
            "version": __version__,
            "status": "ok" if worst == EXIT_OK else "error",
            "rows": rows,
        }
        return _render(document, config.fmt), worst
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([str(row[col]) for col in SWEEP_COLUMNS])
    return buffer.getvalue(), worst


def run(config: JobConfig) -> tuple[str, int]:
    """Execute one job and return (report text, exit status).

    Failures of checked invariants are reported as structured error
    documents with a stable code, never as tracebacks.
    """
    try:
        config.validate()
        if config.construction == "sweep":
            return _run_sweep(config)
        result, residuals = _HANDLERS[config.construction](config)
        return _render(_document(config, result, residuals), config.fmt), EXIT_OK
    except Exception as exc:
        classified = _classify(exc)
        if classified is None:
            raise
        code, status = classified
        fmt = "json" if config.fmt == "csv" else config.fmt
        return _render(_error_document(config, exc, code), fmt), status


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit.

    A word that starts with '-' and then a digit, '.', 'inf' or 'nan' is a
    value, never an option, so a negative tolerance, shift or insertion
    reaches its validator; argparse's own pattern admits only plain
    negative integers and decimals, not -1e-8, -inf or -1,0,0.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise PreconditionError(message)


def _parse_rationals(text: str) -> tuple[Q, ...]:
    try:
        return tuple(Q(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_levels(text: str) -> tuple[int, int]:
    """``lo-hi``, or a single level ``k`` for ``k-k``."""
    try:
        lo, sep, hi = text.partition("-")
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a level range like 2-6, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wzwkit",
        description="Modular data, fusion, extensions, orbifolds and boundaries "
        "for affine Lie algebra theories.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="construction")

    def common(sub, with_level: bool = True):
        sub.add_argument("algebra", help="algebra label such as A1, B3, or G2")
        if with_level:
            sub.add_argument("--level", type=int, default=JobConfig.level)
        sub.add_argument("--tolerance", type=float, default=JobConfig.tolerance)
        sub.add_argument("--weyl-cap", type=int, default=JobConfig.weyl_cap)
        sub.add_argument("--cache-dir")
        sub.add_argument("--format", dest="fmt", choices=("json", "csv", "pretty"))

    common(subparsers.add_parser("modular-data", help="S matrix and weights"))
    common(subparsers.add_parser("fusion", help="Verlinde coefficients"))

    extend = subparsers.add_parser("extend", help="simple-current extension")
    common(extend)
    extend.add_argument("--group", required=True, help="center, trivial, or indices")

    orbifold = subparsers.add_parser("orbifold", help="inner Z2 orbifold")
    common(orbifold)
    orbifold.add_argument(
        "--shift", type=_parse_rationals, required=True, help="comma-separated rationals"
    )

    boundary = subparsers.add_parser("boundary", help="classifying algebra")
    common(boundary)
    boundary.add_argument("--group", required=True, help="center, trivial, or indices")

    trace = subparsers.add_parser("trace", help="conjecture traces")
    common(trace)
    trace.add_argument("--conjecture", type=int, choices=(1, 2), required=True)
    trace.add_argument(
        "--insertions", type=_parse_ints, required=True, help="comma-separated label indices"
    )
    trace.add_argument("--genus", type=int, default=JobConfig.genus)
    trace.add_argument("--tuple", dest="current_tuple", type=_parse_ints)
    trace.add_argument("--shift", type=_parse_rationals)

    common(subparsers.add_parser("check", help="full invariant suite"))

    sweep = subparsers.add_parser("sweep", help="check across a level range")
    common(sweep, with_level=False)
    sweep.add_argument("--levels", type=_parse_levels, required=True, help="range like 1-6")

    return parser


def config_from_args(argv: Sequence[str] | None = None) -> JobConfig:
    args = build_parser().parse_args(argv)
    if args.construction is None:
        raise PreconditionError("a construction subcommand is required")
    if args.fmt is None:
        args.fmt = "csv" if args.construction == "sweep" else "json"
    args.cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    return JobConfig(**vars(args))


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point; prints one report and returns the exit status."""
    try:
        config = config_from_args(argv)
    except PreconditionError as exc:
        stub = JobConfig(construction="invalid", algebra="")
        sys.stdout.write(_render(_error_document(stub, exc, "parse-error"), "json"))
        return EXIT_PARSE
    text, status = run(config)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
