#!/usr/bin/env python3
"""Benchmark of the wzwkit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-refs

Run from the root of a checkout.  A workload is a fixed list of CLI jobs
(see workloads.py).  The load is a closed loop with one client: one job at a
time, each in a fresh Python process that imports ``wzwkit.cli`` from
``src/`` and calls ``main``.  The seed only permutes the job order of each
pass, so every run does the same work.  Jobs repeat, pass after pass, for
about ``--seconds`` (see ``measure``).  Every report is checked against its
reference.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics without tracing and the
per-layer metrics with it.  ``failed`` leaves out the known-defect jobs of
``workloads.EXPECTED_RANKS``; ``ok_frac`` counts them.  Timings are sums over the jobs of each job's
median over its runs; end-to-end times are scaled to a reference host speed
(see ``end_to_end``).  The lines before it give the environment and a
readable summary; the same data, with every span of a traced run, goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
CACHE_DIR = ".perfbench_work/cache"  # relative to ROOT, the jobs' working directory

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import CORPORA, EXPECTED_RANKS, Workload, job_id  # noqa: E402

# Typical probe() time on the host the benchmark was sized on (2 vCPUs of an
# Intel Xeon VM, Python 3.11, numpy 2.4): end-to-end times are scaled to it.
REFERENCE_PROBE_S = 0.13

JOB_TIMEOUT = 60.0
DEADLINE = 165.0  # seconds after start; no job runs past it

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
)

STARTED = time.monotonic()


@dataclass
class JobRun:
    index: int
    job: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    setup: float = 0.0
    status: int | None = None
    problems: list[str] = field(default_factory=list)
    wrong: bool = False  # exited as expected but the report disagrees
    spans: list | None = None
    text: str = ""
    probe: float = 0.0


@dataclass
class Pass:
    traced: bool
    fill_s: float
    jobs: list[JobRun]
    seconds: float


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WZWKIT_CACHE_DIR", None)  # the cache is used only where a job asks for it
    return env


def run_job(index: int, job: str, workload: Workload, traced: bool) -> JobRun:
    record = JobRun(index, job)
    argv = job.split()
    if workload.uses_cache:
        argv += ["--cache-dir", CACHE_DIR]
    timing, spans = WORK / "timing.json", WORK / "spans.json"
    report, errors = WORK / "report.out", WORK / "stderr.out"
    for path in (timing, spans):
        path.unlink(missing_ok=True)
    command = [sys.executable, str(CHILD), "job", str(timing), str(spans) if traced else "-", *argv]
    timeout = max(1.0, min(JOB_TIMEOUT, DEADLINE - (time.monotonic() - STARTED)))
    with report.open("w") as out, errors.open("w") as err:
        spawned = time.monotonic()
        try:
            subprocess.run(command, stdout=out, stderr=err, cwd=ROOT, env=_child_env(), timeout=timeout)
        except subprocess.TimeoutExpired:
            record.problems.append(f"timed out after {timeout:.0f} s")
            return record
    if not timing.exists():
        tail = errors.read_text()[-400:].strip()
        record.problems.append(f"crashed: {tail}")
        return record
    t = json.loads(timing.read_text())
    record.setup = t["enter"] - spawned
    record.wall = t["exit"] - t["enter"]
    record.cpu = t["cpu"]
    record.rss_mb = t["maxrss_kb"] / 1024
    record.status = t["status"]
    record.text = report.read_text()
    if traced:
        record.spans = json.loads(spans.read_text())
    return record


def prepare_cache(workload: Workload) -> float:
    """Fill the cache through the library, then plant the bad entries; seconds taken."""
    cache = ROOT / CACHE_DIR
    shutil.rmtree(cache, ignore_errors=True)
    if not workload.uses_cache:
        return 0.0
    paths_file = WORK / "fill.json"
    entries = [f"{a}:{k}" for a, k in workload.fill]
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(CHILD), "fill", str(paths_file), CACHE_DIR, *entries],
        cwd=ROOT,
        env=_child_env(),
        check=True,
        timeout=JOB_TIMEOUT,
    )
    paths = json.loads(paths_file.read_text())
    stale = ROOT / paths["{}:{}".format(*workload.stale)]
    payload = json.loads(stale.read_text())
    payload["schema"] = f"stale-{payload['schema']}"
    stale.write_text(json.dumps(payload))
    truncated = ROOT / paths["{}:{}".format(*workload.truncated)]
    data = truncated.read_bytes()
    truncated.write_bytes(data[: len(data) // 2])
    return time.monotonic() - start


def probe() -> float:
    """Seconds to start a Python process that imports numpy and exits."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=_child_env(), check=True)
    return time.monotonic() - start


def run_pass(workload: Workload, order: list[int], traced: bool, fits=None) -> Pass:
    """Run the jobs in ``order``; with ``fits``, stop before a job it rejects."""
    start = time.monotonic()
    fill_s = prepare_cache(workload)
    jobs = []
    for i in order:
        if fits is not None and not fits(i):
            break
        jobs.append(run_job(i, workload.jobs[i], workload, traced))
        jobs[-1].probe = probe()
    return Pass(traced, fill_s, jobs, time.monotonic() - start)


class Checker:
    """Checks each job's outcome, reading every reference once per run."""

    def __init__(self, corpus: str, workload: str):
        self.corpus = corpus
        self.workload = workload
        self.refs: dict[str, dict] = {}
        self.seen: dict[tuple, tuple] = {}

    def __call__(self, run: JobRun) -> None:
        if run.status is None:
            return  # crashed or timed out; problems already recorded
        key = (run.job, run.status, run.text)
        if key not in self.seen:
            if run.job in EXPECTED_RANKS:
                problems = oracle.check_rank(EXPECTED_RANKS[run.job], run.status, run.text)
                wrong = bool(problems) and run.status == 0
            else:
                jid = job_id(run.job)
                if jid not in self.refs:
                    self.refs[jid] = oracle.load_ref(self.corpus, self.workload, jid)
                ref = self.refs[jid]
                problems = oracle.check(ref, run.status, run.text)
                wrong = bool(problems) and run.status == ref["status"]
            self.seen[key] = (problems, wrong)
        problems, wrong = self.seen[key]
        run.problems, run.wrong = list(problems), wrong
        run.text = ""


def measure(workload: Workload, corpus: str, seed: int, seconds: float, trace: bool) -> list[Pass]:
    """Run passes over the workload for about ``seconds``.

    The first pass (with ``trace``, the first untraced and the first traced
    one) always runs whole.  Untraced runs then go on job by job while the
    next job, at its last duration, still fits; traced runs only take
    another pass if the whole pass fits, since per-layer sums need whole
    passes.
    """
    subprocess.run([sys.executable, str(CHILD), "warm"], cwd=ROOT, env=_child_env(), check=True)
    check = Checker(corpus, workload.name)
    passes: list[Pass] = []
    took: dict[int, float] = {}  # job index -> seconds it took last, start-up included
    start = time.monotonic()

    def left() -> float:
        return min(seconds - (time.monotonic() - start), DEADLINE - (time.monotonic() - STARTED))

    while True:
        traced = trace and len(passes) % 2 == 1
        order = list(range(len(workload.jobs)))
        random.Random(seed * 1000 + len(passes)).shuffle(order)
        fits = None
        if passes and not (trace and len(passes) < 2):
            if trace:
                if passes[-2].seconds > left():
                    return passes
            else:
                if passes[-1].fill_s + took[order[0]] > left():
                    return passes
                fits = lambda i: took[i] <= left()  # noqa: E731
        done = run_pass(workload, order, traced, fits)
        for run in done.jobs:
            check(run)
            took[run.index] = run.setup + run.wall
        passes.append(done)


def _per_job_median(passes: list[Pass], attr: str) -> list[float]:
    by_job: dict[int, list[float]] = {}
    for p in passes:
        for run in p.jobs:
            if run.status is not None:
                by_job.setdefault(run.index, []).append(getattr(run, attr))
    return [statistics.median(v) for v in by_job.values()]


def ok_fraction(passes: list[Pass]) -> float:
    """Share of jobs that passed, each job weighted by the share of its runs
    that passed, so jobs run more often in a partial pass weigh no more."""
    passed: dict[int, list[bool]] = {}
    for p in passes:
        for run in p.jobs:
            passed.setdefault(run.index, []).append(not run.problems)
    return statistics.mean(sum(v) / len(v) for v in passed.values())


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """End-to-end metrics, plus the raw times and the probe they are scaled by.

    The host's speed drifts by up to 1.6x over minutes, for every job alike.
    Times are therefore scaled to a reference host speed: multiplied by
    REFERENCE_PROBE_S over the mean probe time of this run.
    """
    plain = [p for p in passes if not p.traced]
    probe_s = statistics.mean(run.probe for p in plain for run in p.jobs)
    raw = {
        "wall_s": sum(_per_job_median(plain, "wall")),
        "cpu_s": sum(_per_job_median(plain, "cpu")),
        "setup_s": sum(_per_job_median(plain, "setup")) + statistics.median(p.fill_s for p in plain),
    }
    return {
        **{name: value * REFERENCE_PROBE_S / probe_s for name, value in raw.items()},
        "peak_rss_mb": max(_per_job_median(plain, "rss_mb"), default=0.0),
        "ok_frac": ok_fraction(passes),
        **{f"raw_{name}": value for name, value in raw.items()},
        "probe_s": probe_s,
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    totals = []
    for p in traced:
        total = dict.fromkeys((name for name, _ in tracer.PER_LAYER), 0.0)
        for run in p.jobs:
            if run.spans is not None:
                for name, value in tracer.job_metrics(run.spans).items():
                    total[name] += value
        tracer.add_ratios(total)
        totals.append(total)
    out = {name: statistics.median(t[name] for t in totals) for name, _ in tracer.PER_LAYER}
    out["trace.overhead_s"] = sum(_per_job_median(traced, "wall")) - end_to_end(passes)["raw_wall_s"]
    return out


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "job_processes_at_once": 1,
        "seed": seed,
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def report(workload: Workload, seed: int, seconds: float, trace: bool, corpus: str = "full") -> dict:
    """Run one workload and return the result object printed last."""
    passes = measure(workload, corpus, seed, seconds, trace)
    runs = [run for p in passes for run in p.jobs]
    # A job with a known defect (workloads.EXPECTED_RANKS) that fails shows in
    # ok_frac and below, not in ``failed``, which counts only unexpected
    # failures: its count would otherwise vary with how often the job ran.
    failed = [run for run in runs if run.problems and run.job not in EXPECTED_RANKS]
    known = [run for run in runs if run.problems and run.job in EXPECTED_RANKS]
    values = per_layer(passes) if trace else end_to_end(passes)
    units = dict(tracer.PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not any(run.wrong for run in runs),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {workload.name}: {len(passes)} passes "
        f"({sum(p.traced for p in passes)} traced) of {len(workload.jobs)} jobs"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        print(
            "  unscaled: " + ", ".join(f"{n} {values['raw_' + n]:.6g} s" for n in ("wall_s", "cpu_s", "setup_s"))
            + f"; probe {values['probe_s']:.4g} s against {REFERENCE_PROBE_S} s"
        )
    print(
        f"  {'fail_frac':34s} {1 - ok_fraction(passes):.4f} ({len(failed)} unexpected and "
        f"{len(known)} known-defect failures of {len(runs)} job runs)"
    )
    for label, bad in (("FAILED", failed), ("KNOWN DEFECT", known)):
        for job in dict.fromkeys(run.job for run in bad):
            problems = next(run.problems for run in bad if run.job == job)
            print(f"  {label} {job}: {'; '.join(problems)[:300]}")
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "result": result,
        "values": values,
        "passes": [
            {"traced": p.traced, "fill_s": p.fill_s, "jobs": [vars(run) for run in p.jobs]}
            for p in passes
        ],
    }
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail))
    return result


def write_refs() -> None:
    """Record every job's report as its reference (run once, at the commit that
    defines the benchmark); jobs with an exact expected rank are skipped."""
    for corpus, workloads in CORPORA.items():
        for workload in workloads:
            done = run_pass(workload, list(range(len(workload.jobs))), traced=False)
            for run in done.jobs:
                if run.job in EXPECTED_RANKS or oracle.ref_path(corpus, workload.name, job_id(run.job)).exists():
                    continue
                if run.status is None:
                    raise SystemExit(f"{run.job}: {run.problems}")
                oracle.write_ref(corpus, workload.name, job_id(run.job), run.status, run.text)
                print(f"{corpus} {run.job}: exit {run.status}, {len(run.text)} bytes")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in CORPORA["full"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="quick check on a tiny corpus")
    parser.add_argument("--write-refs", action="store_true", help="record reference reports")
    args = parser.parse_args(argv)
    if not (SRC / "wzwkit" / "cli.py").is_file():
        print(f"no wzwkit sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.selftest:
            import selftest

            return selftest.main(report)
        if args.write_refs:
            write_refs()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = next(w for w in CORPORA["full"] if w.name == args.workload)
        result = report(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
