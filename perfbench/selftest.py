"""Quick self-test of the benchmark on the tiny corpus (``run.py --selftest``).

Checks that the oracle accepts a reference report and flags one with an S
entry shifted by 1e-6 and one with a fusion coefficient off by one, and that
every workload emits exactly the metrics BENCHMARK.json names, untraced and
traced, with every tiny job passing.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracle
from workloads import TINY, job_id

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _require(condition: bool, detail) -> None:
    if not condition:
        raise AssertionError(detail)


def _mutated(corpus: str, workload: str, job: str, mutate) -> list[str]:
    ref = oracle.load_ref(corpus, workload, job_id(job))
    _require(not oracle.check(ref, ref["status"], ref["report"]), job)
    document = json.loads(ref["report"])
    mutate(document["result"])
    return oracle.check(ref, ref["status"], json.dumps(document))


def _shift_s(result: dict) -> None:
    result["smatrix"][1][2][0] += 1e-6


def _bump_fusion(result: dict) -> None:
    result["nonzero"][0][3] += 1


def check_oracle() -> None:
    problems = _mutated("tiny", "dense", "modular-data A1 --level 4", _shift_s)
    _require(bool(problems) and "smatrix" in problems[0], problems)
    problems = _mutated("tiny", "dense", "fusion A1 --level 2", _bump_fusion)
    _require(bool(problems) and "nonzero" in problems[0], problems)
    print("oracle flags an S entry shifted by 1e-6 and a fusion coefficient off by one")


def main(report) -> int:
    """``report`` is run.report; returns the process exit status."""
    check_oracle()
    spec = json.loads(BENCHMARK.read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        names = [m["name"] for m in spec[key]]
        for workload in TINY:
            result = report(workload, seed=1, seconds=0, trace=trace, corpus="tiny")
            emitted = list(result["metrics"])
            _require(emitted == names, (workload.name, key, set(emitted) ^ set(names)))
            _require(result["correct"] and result["failed"] == 0, result)
    print("selftest ok: every workload emits every named metric and passes its checks")
    return 0
