"""Batch command-line front end with deterministic machine-readable reports.

Every invocation runs one construction, prints one report to stdout, and
exits with a status that classifies the outcome: 0 for success, 2 when a
verified invariant or conjecture fails (the failure is itself reported as
data), 3 for configuration and parse problems, 4 when the Weyl sum needs
more cosets W/W_J than its cap, 5 for constructions the
library does not support, and 6 when a float computation runs out of
range or precision.

A row of ``_SUBCOMMANDS`` is a subcommand's one declaration, which the
parsers, ``JobConfig.validate``, the input echo and ``run`` all read.

Reports embed the input echo, the library version, and the residual table
of every invariant that was checked, and identical configurations produce
byte-identical output.  Single constructions emit JSON; sweeps emit CSV.

A report is the text ``json.dumps`` gives the document (sorted keys,
compact or ``indent=2``), with every float in shortest round-trip repr.
Numeric arrays, which make up most of a large report, are written at
array speed and in bounded memory: each distinct value is formatted once,
and the array's text is joined from those words and the list separators
in slices, each written as it is formed; ``run`` returns the same bytes.
An S matrix repeats most of its values, so few of its floats need a repr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import numbers
import os
import re
import sys
from collections import namedtuple
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
_SLICE_ENTRIES = 1 << 15  # entries per slice of a report's array text, about a megabyte

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


def _number(kind):
    """A test passed by an instance of the ``numbers`` class ``kind`` that is not a bool."""
    return lambda value: isinstance(value, kind) and not isinstance(value, bool)


def _entries(test, length=None):
    """A test passed by a tuple, list or 1-d array (of ``length`` entries, if
    given) whose every entry passes ``test``."""
    return lambda value: (
        (isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim == 1)
        and length in (None, len(value))
        and all(map(test, value))
    )


# The type each ``JobConfig`` field must hold: (fields, test, what the test asks
# for).  A field whose default is None may also be None.
_FIELD_TYPES = (
    (("algebra", "group", "cache_dir", "fmt"), lambda value: isinstance(value, str), "a string"),
    (("level", "genus", "weyl_cap", "conjecture"), _number(numbers.Integral), "an integer"),
    (("tolerance",), _number(numbers.Real), "a real number"),
    (("insertions", "current_tuple"), _entries(_number(numbers.Integral)), "a sequence of integers"),
    (("levels",), _entries(_number(numbers.Integral), 2), "a pair of integers"),
    (("shift",), _entries(_number(numbers.Rational)), "a sequence of rationals"),
)


@dataclass
class JobConfig:
    """One batch job: a construction plus everything it needs.

    Field names are the command-line ``dest`` names and the field defaults
    are the command-line defaults; ``validate`` checks each field's type
    (``_FIELD_TYPES``: integers are never bools, numpy integers and arrays
    pass), then the job against its ``_SUBCOMMANDS`` row and the rules that
    tie several fields together.
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
        if self.construction not in _SUBCOMMANDS:
            raise PreconditionError(
                f"unknown construction {self.construction!r}; "
                f"expected one of {', '.join(_SUBCOMMANDS)}"
            )
        for fields, test, kind in _FIELD_TYPES:
            for name in fields:
                value = getattr(self, name)
                if not (value is None and getattr(JobConfig, name) is None or test(value)):
                    raise PreconditionError(f"{name} must be {kind}, got {value!r}")
        if not self.algebra:
            raise PreconditionError("an algebra label is required")
        parse_algebra_label(self.algebra)
        if self.tolerance <= 0:
            raise PreconditionError("tolerances must be positive")
        if not np.isfinite(self.tolerance):
            raise PreconditionError(f"tolerances must be finite, got {self.tolerance!r}")
        if self.weyl_cap < 1:
            raise PreconditionError("--weyl-cap must be a positive integer")
        if self.fmt not in _FORMATS:
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
        row = _SUBCOMMANDS[self.construction]
        if row.takes_level and self.level < 1:
            raise PreconditionError("--level must be a positive integer")
        for flag, options in row.arguments:
            value = getattr(self, _dest(flag, options))
            if options.get("required") and (value is None or isinstance(value, str) and not value):
                raise PreconditionError(f"{self.construction} requires {flag}")
            choices = options.get("choices")
            if choices and value is not None and value not in choices:
                raise PreconditionError(f"{flag} must be one of {choices}, got {value!r}")
        if self.construction == "sweep":
            lo, hi = self.levels
            if lo < 1 or hi < lo:
                raise PreconditionError(f"bad level range {lo}-{hi}")
        if self.construction == "trace":
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
        """Input echo: the shared fields, then the row's arguments not at their default."""
        out: dict = {
            "construction": self.construction,
            "algebra": self.algebra,
            "tolerance": self.tolerance,
            "weyl_cap": self.weyl_cap,
            "format": self.fmt,
        }
        row = _SUBCOMMANDS.get(self.construction)
        if row is None or row.takes_level:
            out["level"] = self.level
        if self.cache_dir is not None:
            out["cache_dir"] = self.cache_dir
        for flag, options in row.arguments if row else ():
            value, default = getattr(self, _dest(flag, options)), options.get("default")
            if value is not None and (default is None or value != default):
                out[flag[2:]] = value
        return out


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _encode(value, texts: list, indent: int | None, depth: int = 0):
    """Make a value JSON-ready with a fixed, reproducible convention.

    Rationals become exact strings, complex numbers become [re, im]
    pairs, and arrays become nested lists.  Floats rely on shortest
    round-trip repr, which stays within 17 significant digits.

    A non-empty numeric array of at least one dimension is not converted
    here: its lazy text (``_array_text`` at its nesting depth, the number
    of enclosing lists and dicts) goes to ``texts``, and a placeholder
    string holding its position and a NUL character stands in for it; so
    does a string holding a NUL, with its JSON text, so no string can
    imitate a placeholder (a key holding a NUL is refused).  A complex
    array is first read as floats with a trailing (re, im) axis, so each
    entry still reads [re, im], and its two planes are sorted apart.  Empty
    and 0-d arrays cost one ``tolist()``; object arrays (of rationals, say)
    are walked element by element, like lists.
    """
    if isinstance(value, str) and "\x00" in value:
        texts.append([json.dumps(value)])
        return f"\x00{len(texts) - 1}"
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
            return _encode(value.tolist(), texts, indent, depth)
        planes = 2 if np.iscomplexobj(value) else 1
        if planes == 2:
            value = np.ascontiguousarray(value).view(value.real.dtype).reshape(*value.shape, 2)
        # tolist() leaves a longdouble a numpy scalar, which json refuses.
        numeric = value.dtype.kind in "biuf" and value.dtype.itemsize <= 8
        if not numeric or value.size == 0 or value.ndim == 0:
            return value.tolist()
        texts.append(_array_text(value, indent, depth, planes))
        return f"\x00{len(texts) - 1}"
    if isinstance(value, dict):
        if any("\x00" in str(key) for key in value):
            raise PreconditionError("cannot serialize a key holding a NUL character into a report")
        return {str(key): _encode(item, texts, indent, depth + 1) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_encode(item, texts, indent, depth + 1) for item in items]
    raise PreconditionError(f"cannot serialize a {type(value).__name__} into a report")


def _distinct(keys: np.ndarray, kind: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a flat array and an int32 index into them.

    This is ``np.unique(keys, return_inverse=True)`` at about 16 bytes per
    entry, where that keeps about 40: one argsort (of sort ``kind``), a
    gather, a boundary flag and an int32 cumsum scattered back, each
    temporary freed before the next.
    """
    order = np.argsort(keys, kind=kind)
    ranks = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
    distinct = ranks[first]
    del ranks
    ranks = np.cumsum(first, dtype=np.int32 if keys.size < 2**31 else np.int64)
    del first
    ranks -= 1
    index = np.empty_like(ranks)
    index[order] = ranks
    return distinct, index


def _distinct_planes(keys: np.ndarray, planes: int) -> tuple[np.ndarray, np.ndarray]:
    """``_distinct`` of a flat array whose entry i lies in plane i % ``planes``,
    each plane sorted apart and their distinct entries merged by one small sort."""
    parts, indices = zip(*(_distinct(keys[p::planes]) for p in range(planes)))
    # the parts are sorted runs, which a stable sort merges in one pass
    distinct, merged = _distinct(np.concatenate(parts), kind="stable")
    offsets = np.cumsum([0, *map(len, parts)]).tolist()
    index = np.empty(keys.size, dtype=merged.dtype)
    for p, plane in enumerate(indices):
        index[p::planes] = merged[offsets[p] : offsets[p + 1]][plane]
    return distinct, index


def _words(flat: np.ndarray, planes: int) -> tuple[list[str], np.ndarray]:
    """JSON text of each distinct entry of a flat array, and the index into it.

    Entries are compared as json would print them after ``tolist()``:
    floats as float64 by bit pattern (so -0.0 and 0.0, or NaNs with
    different payloads, stay apart), integers and bools by value.  Integers
    spanning (with 0) fewer values than entries are their own index: no sort.
    Other entries are sorted once (``_distinct``), floats a plane at a time:
    entry i is in plane i % ``planes`` (2 for a complex array's interleaved
    (re, im) floats, whose imaginary parts are often all +0.0).  One sort of
    the planes' distinct floats merges them, so each is formatted once.
    """
    if flat.dtype.kind in "iu":
        lo, hi = min(int(flat.min()), 0), max(int(flat.max()), -1)
        if hi - lo < flat.size:
            return list(map(int.__repr__, [*range(hi + 1), *range(lo, 0)])), flat  # v < 0 reads from the end
    if flat.dtype.kind != "f":
        distinct, index = _distinct(flat)
        if flat.dtype.kind == "b":
            return ["true" if x else "false" for x in distinct.tolist()], index
        return list(map(int.__repr__, distinct.tolist())), index
    with np.errstate(invalid="ignore"):  # a signalling NaN, as tolist() allows
        keys = flat.astype(np.float64, copy=False).view(np.uint64)
    bits, index = _distinct(keys) if planes == 1 else _distinct_planes(keys, planes)
    distinct = bits.view(np.float64)
    words = list(map(float.__repr__, distinct.tolist()))
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        words[i] = json.dumps(distinct[i].item())  # NaN, Infinity or -Infinity
    return words, index


def _array_text(array: np.ndarray, indent: int | None, depth: int, planes: int):
    """The text ``json.dumps`` gives ``array.tolist()`` at nesting ``depth``,
    in slices of ``_SLICE_ENTRIES`` entries.

    Each distinct entry is formatted once (``_words``, which sorts the
    entries by ``planes``).  Before each entry
    goes the separator for the number j of axis boundaries its index
    crosses (all ``ndim`` for the first, which opens the array): it closes
    j lists, writes a comma and opens j lists.  ``indent`` None is the
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

    separators = [closes(j) + "," + opens(j) for j in range(ndim)] + ["[" + opens(ndim - 1)]
    separators = np.array(separators, dtype=object)
    strides = np.cumprod(array.shape[::-1]).tolist()
    words, index = _words(array.reshape(-1), planes)
    words = np.array(words, dtype=object)
    for start in range(0, array.size, _SLICE_ENTRIES):
        stop = min(start + _SLICE_ENTRIES, array.size)
        crossed = np.zeros(stop - start, dtype=np.intp)
        for stride in strides:
            crossed[-start % stride :: stride] += 1
        pieces = np.empty(2 * (stop - start) + 1, dtype=object)
        pieces[0:-1:2] = separators[crossed]
        pieces[1::2] = words[index[start:stop]]
        pieces[-1] = closes(ndim) if stop == array.size else ""
        yield "".join(pieces.tolist())


_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def _render(document: dict, fmt: str):
    """Serialize a report: an iterator over its text, in pieces.

    ``json.dumps`` writes the document with sorted keys and a placeholder
    for each numeric array and NUL-bearing string (see ``_encode``); the
    pieces are the text between placeholders and the text each stands for.
    Only array slices are formed lazily, so a document that cannot be
    rendered raises before any piece exists.  An array of N entries with D
    distinct values costs at most one sort of N keys (``_distinct``, about
    16 bytes per entry), D reprs and joins of shared strings a slice at a
    time.  A complex array's real and imaginary planes are sorted apart, N/2
    keys each, and their distinct floats merged by one sort of at most D
    keys, so each is still formatted once.  S matrices repeat most of their
    values (A1 level 300: 181,202 floats, 17,084 distinct; the imaginary
    plane is all +0.0, which sorts almost for free).
    """
    texts: list = []
    indent = 2 if fmt == "pretty" else None
    payload = _encode(document, texts, indent)
    separators = None if indent else (",", ":")
    parts = _PLACEHOLDER.split(json.dumps(payload, sort_keys=True, indent=indent, separators=separators))
    if sorted(map(int, parts[1::2])) != list(range(len(texts))):
        raise InternalConsistencyError("report placeholders do not match the texts they stand for")
    parts[-1] += "\n"
    return (piece for k, part in enumerate(parts) for piece in (texts[int(part)] if k % 2 else [part]))


def _document(config: JobConfig, status: str = "ok", **fields) -> dict:
    """A report: the input echo, the version, the status and ``fields``."""
    return {"input": config.echo(), "version": __version__, "status": status, **fields}


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
    error = {"code": code, "type": type(exc).__name__, "message": str(exc), **_error_detail(exc)}
    return _document(config, "error", error=error)


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


def _nonzero_table(values: np.ndarray) -> np.ndarray:
    """Rows [a, b, c, round(values[a, b, c])] where that rounded value is nonzero,
    in C order, the order of ``itertools.product`` over the three indices.

    Rounding is half to even, so the rows are the entries with |v| > 0.5 (a
    tie ±0.5 rounds to 0).  Each leading slice is rounded and tested alone,
    once to count its rows and once to fill them, so no n^3 mask is formed.
    """
    counts = [np.count_nonzero(np.round(v)) for v in values]
    table = np.empty((sum(counts), 4), dtype=np.int64)
    stop = 0
    for a, (v, count) in enumerate(zip(values, counts)):
        keep = np.round(v) != 0
        rows = table[stop : stop + count]
        stop += count
        rows[:, 0], rows[:, 1], rows[:, 2] = a, *np.nonzero(keep)
        rows[:, 3] = np.round(v[keep])
    return table


def _run_fusion(config: JobConfig):
    md = _load(config)
    residuals = verify_modular_invariants(md, config.tolerance)
    tensor = verlinde_tensor(md)
    residuals["fusion_integrality"] = verify_fusion(md)
    group = simple_currents(md)
    result = {
        "dim": md.dim,
        "labels": [list(lab) for lab in md.labels],
        "nonzero": _nonzero_table(tensor),
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
        "nhat_nonzero": _nonzero_table(algebra.nhat.real),
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
        document = _document(config, "ok" if worst == EXIT_OK else "error", rows=rows)
        return _render(document, config.fmt), worst
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([str(row[col]) for col in SWEEP_COLUMNS])
    return [buffer.getvalue()], worst


def _report(config: JobConfig):
    try:
        config.validate()
        handler = _SUBCOMMANDS[config.construction].handler
        if config.construction == "sweep":
            return handler(config)
        result, residuals = handler(config)
        return _render(_document(config, result=result, residuals=residuals), config.fmt), EXIT_OK
    except Exception as exc:
        classified = _classify(exc)
        if classified is None:
            raise
        code, status = classified
        fmt = "json" if config.fmt == "csv" else config.fmt
        return _render(_error_document(config, exc, code), fmt), status


def run(config: JobConfig) -> tuple[str, int]:
    """Execute one job and return (report text, exit status).

    Failures of checked invariants are reported as structured error
    documents with a stable code, never as tracebacks.  The text is the
    bytes ``main`` writes for the same job.
    """
    pieces, status = _report(config)
    return "".join(pieces), status


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit.

    A word that starts with '-' and then a digit, '.', 'inf' or 'nan' is a
    value, never an option, so a negative tolerance, shift or insertion
    reaches its validator; argparse's own pattern admits only plain
    negative integers and decimals, not -1e-8, -inf or -1,0,0.  No option is
    abbreviated, else ``sweep --level`` would pass as ``--levels``.  An option
    that takes a value is given at most once, in either spelling, so a line
    that contradicts itself is refused, not read by its last value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        flags = [word.partition("=")[0] for word in args[: args.index("--") if "--" in args else None]]
        for flag in flags:
            action = self._option_string_actions.get(flag)
            if action is not None and action.nargs is None and flags.count(flag) > 1:
                self.error(f"argument {flag}: given more than once")
        return super().parse_known_args(args, namespace)

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


# A subcommand's one declaration: its help, its handler (which returns
# (result, residuals); a sweep's returns the report and the exit status),
# whether it takes --level, and its own arguments as (flag, add_argument
# options), which validate and echo read too.
_Subcommand = namedtuple("_Subcommand", "summary handler takes_level arguments", defaults=((),))


def _dest(flag: str, options: dict) -> str:
    """The ``JobConfig`` field an argument sets, as argparse derives it."""
    return options.get("dest", flag[2:].replace("-", "_"))


_FORMATS = ("json", "csv", "pretty")
# The arguments every subcommand takes before its own (``--level`` if the row takes it).
_SHARED = (
    ("algebra", dict(help="algebra label such as A1, B3, or G2")),
    ("--level", dict(type=int, default=JobConfig.level)),
    ("--tolerance", dict(type=float, default=JobConfig.tolerance)),
    ("--weyl-cap", dict(type=int, default=JobConfig.weyl_cap)),
    ("--cache-dir", {}),
    ("--format", dict(dest="fmt", choices=_FORMATS)),
)
_GROUP = ("--group", dict(required=True, help="center, trivial, or indices"))
_SUBCOMMANDS = {
    "modular-data": _Subcommand("S matrix and weights", _run_modular_data, True),
    "fusion": _Subcommand("Verlinde coefficients", _run_fusion, True),
    "extend": _Subcommand("simple-current extension", _run_extend, True, (_GROUP,)),
    "orbifold": _Subcommand("inner Z2 orbifold", _run_orbifold, True, (
        ("--shift", dict(type=_parse_rationals, required=True, help="comma-separated rationals")),
    )),
    "boundary": _Subcommand("classifying algebra", _run_boundary, True, (_GROUP,)),
    "trace": _Subcommand("conjecture traces", _run_trace, True, (
        ("--conjecture", dict(type=int, choices=(1, 2), required=True)),
        ("--insertions", dict(type=_parse_ints, required=True, help="comma-separated label indices")),
        ("--genus", dict(type=int, default=JobConfig.genus)),
        ("--tuple", dict(dest="current_tuple", type=_parse_ints)),
        ("--shift", dict(type=_parse_rationals)),
    )),
    "check": _Subcommand("full invariant suite", _run_check, True),
    "sweep": _Subcommand("check across a level range", _run_sweep, False, (
        ("--levels", dict(type=_parse_levels, required=True, help="range like 1-6")),
    )),
}


def _arguments(row) -> list:
    """A subcommand's (flag, options) in parser order: the shared ones, then its own."""
    return [arg for arg in _SHARED if row.takes_level or arg[0] != "--level"] + list(row.arguments)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with all eight subcommands, for every line that
    ``_read_plain`` declines; no report shows its usage line, as
    ``_Parser.error`` keeps only the message."""
    parser = _Parser(
        prog="wzwkit",
        description="Modular data, fusion, extensions, orbifolds and boundaries "
        "for affine Lie algebra theories.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="construction")
    for name, row in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=row.summary)
        for flag, options in _arguments(row):
            sub.add_argument(flag, **options)
    return parser


def _read_plain(argv: Sequence[str]) -> dict | None:
    """What argparse reads from ``SUB ALGEBRA (--flag VALUE)*``, flags not given
    left to their ``JobConfig`` defaults, if each flag is one of SUB's, spelled
    out and given once, no value starts with '-', each value converts by its
    ``type`` into its ``choices`` and every required flag is given; else None."""
    row = _SUBCOMMANDS.get(argv[0]) if argv else None
    if row is None or len(argv) % 2 or argv[1].startswith("-"):
        return None
    options = dict(_arguments(row)[1:])
    values = {"construction": argv[0], "algebra": argv[1]}
    for flag, text in zip(argv[2::2], argv[3::2]):
        opts = options.pop(flag, None)
        if opts is None or text.startswith("-"):
            return None
        try:
            values[_dest(flag, opts)] = value = opts.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in opts.get("choices", (value,)):
            return None
    return None if any(opts.get("required") for opts in options.values()) else values


def config_from_args(argv: Sequence[str] | None = None) -> JobConfig:
    """Parse ``argv`` (default ``sys.argv[1:]``): a plain job line with no parser
    (``_read_plain``), any line the reader declines with argparse, built whole
    with all eight subcommands by ``build_parser``."""
    argv = sys.argv[1:] if argv is None else argv
    values = _read_plain(argv) or vars(build_parser().parse_args(argv))
    if values["construction"] is None:
        raise PreconditionError("a construction subcommand is required")
    if values.get("fmt") is None:
        values["fmt"] = "csv" if values["construction"] == "sweep" else "json"
    values["cache_dir"] = values.get("cache_dir") or os.environ.get(CACHE_ENV)
    return JobConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point; writes one report as it is formed, returns the exit status."""
    try:
        config = config_from_args(argv)
    except PreconditionError as exc:
        stub = JobConfig(construction="invalid", algebra="")
        pieces, status = _render(_error_document(stub, exc, "parse-error"), "json"), EXIT_PARSE
    else:
        pieces, status = _report(config)
    sys.stdout.writelines(pieces)
    return status


if __name__ == "__main__":
    sys.exit(main())
