"""Checks a job's exit status and report against its reference.

Exact fields (labels, dims, conformal weights, fusion and structure
coefficients, classes, ranks, eigendimensions, exit status, error code)
must be equal.  A float field may differ from the reference by at most
``FLOAT_TOL`` times ``max(1, |reference|)``: an absolute tolerance on S, P
and reflection entries, which lie within [-1, 1] or near it, and a relative
one on large values.  Traces are sums of large float terms that the
program itself rounds at 1e-6, so they get ``TRACE_TOL`` on the same scale.
Residuals need only stay at or below the job's ``--tolerance``.  A later
change that reorders float arithmetic therefore still passes.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
from pathlib import Path

FLOAT_TOL = 1e-9
TRACE_TOL = 1e-6

REFS = Path(__file__).resolve().parent / "refs"
RESIDUAL_COLUMNS = ("max_residual", "fusion_residual")


def ref_path(corpus: str, workload: str, jid: str) -> Path:
    return REFS / corpus / workload / f"{jid}.json.xz"


def load_ref(corpus: str, workload: str, jid: str) -> dict:
    return json.loads(lzma.decompress(ref_path(corpus, workload, jid).read_bytes()))


def write_ref(corpus: str, workload: str, jid: str, status: int, text: str) -> None:
    path = ref_path(corpus, workload, jid)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"status": status, "report": text}
    path.write_bytes(lzma.compress(json.dumps(record, sort_keys=True).encode(), preset=9))


def check(ref: dict, status: int, text: str) -> list[str]:
    """Differences between a job's outcome and its reference; empty if none."""
    if status != ref["status"]:
        return [f"exit status {status}, reference {ref['status']}"]
    if text == ref["report"]:
        return []
    if not ref["report"].startswith("{"):
        return _check_csv(ref["report"], text)
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    want = json.loads(ref["report"])
    tolerance = want["input"]["tolerance"]
    problems: list[str] = []
    _compare(want, got, "", tolerance, problems)
    return problems


def _compare(want, got, path: str, tolerance: float, problems: list[str]) -> None:
    key = path.rsplit(".", 1)[-1]
    if isinstance(want, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        if key == "error":
            want, got = {"code": want["code"]}, {"code": got.get("code")}
        for name in sorted(want.keys() | got.keys()):
            sub = f"{path}.{name}"
            if sub == ".input.cache_dir":
                continue  # each run uses its own cache directory
            if name not in got or name not in want:
                problems.append(f"{sub}: present in only one of reference and report")
            elif name == "residuals":
                _check_residuals(want[name], got[name], sub, tolerance, problems)
            else:
                _compare(want[name], got[name], sub, tolerance, problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: expected a list of {len(want)}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(w, g, f"{path}[{i}]", tolerance, problems)
    elif isinstance(want, float):
        tol = TRACE_TOL if ".trace" in path else FLOAT_TOL
        if not _is_number(got) or abs(got - want) > tol * max(1.0, abs(want)):
            problems.append(f"{path}: {got!r}, reference {want!r}")
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r}, reference {want!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_residuals(want: dict, got, path: str, tolerance: float, problems: list[str]) -> None:
    if not isinstance(got, dict):
        problems.append(f"{path}: expected an object")
        return
    for name in want.keys() - got.keys():
        problems.append(f"{path}.{name}: residual missing")
    for name, value in got.items():
        if not _is_number(value) or not value <= tolerance:
            problems.append(f"{path}.{name}: {value!r} above tolerance {tolerance}")


def _check_csv(want_text: str, got_text: str) -> list[str]:
    want = list(csv.DictReader(io.StringIO(want_text)))
    got = list(csv.DictReader(io.StringIO(got_text)))
    if len(got) != len(want) or (got and got[0].keys() != want[0].keys()):
        return ["sweep table has other rows or columns than the reference"]
    problems = []
    for i, (w, g) in enumerate(zip(want, got)):
        for column, value in w.items():
            if column in RESIDUAL_COLUMNS and value:
                # sweeps run with the default tolerance
                if not g[column] or not float(g[column]) <= 1e-8:
                    problems.append(f"row {i} {column}: {g[column]!r} above tolerance")
            elif g[column] != value:
                problems.append(f"row {i} {column}: {g[column]!r}, reference {value!r}")
    return problems


def check_rank(expected_rank: int, status: int, text: str) -> list[str]:
    """Exact-value check of a trace job whose rank the reference got wrong."""
    if status != 0:
        return [f"exit status {status}, expected 0 with rank {expected_rank}"]
    try:
        result = json.loads(text)["result"]
        rank, dims = result["rank"], list(result["dims"].values())
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        return [f"report has no rank and eigendimensions: {exc!r}"]
    problems = []
    if rank != expected_rank:
        problems.append(f"rank {rank}, expected {expected_rank}")
    if not all(type(d) is int and d >= 0 for d in dims) or sum(dims) != expected_rank:
        problems.append(f"eigendimensions {dims} are not non-negative integers summing to the rank")
    return problems
