"""The benchmark's job lists: which wzwkit CLI invocations each workload runs.

Every job is one ``wzwkit`` command line, run in a fresh Python process.
Most jobs are checked against a reference report stored under ``refs/``;
the jobs in ``EXPECTED_RANKS`` are checked against exact values instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Jobs of one workload, plus the disk-cache state they start from.

    With ``uses_cache`` every job gets ``--cache-dir`` pointing at a fresh
    directory per pass.  Before the timed jobs run, ``fill`` entries are
    computed into it through the library, then ``stale`` gets a schema it
    does not have and ``truncated`` is cut to half its length.
    """

    name: str
    why: str
    jobs: tuple[str, ...]
    uses_cache: bool = False
    fill: tuple[tuple[str, int], ...] = ()
    stale: tuple[str, int] | None = None
    truncated: tuple[str, int] | None = None


# Block ranks whose exact values the float rank sum in blocks.block_rank
# misses.  At the commit that introduced this benchmark both jobs exit 2,
# so they fail until the rank computation is made exact.  A job here passes
# when it exits 0, reports this rank, and its eigendimensions are
# non-negative integers summing to it.  Their failures lower ok_frac and are
# printed as known defects, but stay out of the result's ``failed`` count.
EXPECTED_RANKS = {
    "trace A1 --level 10 --conjecture 1 --insertions 5,5 --genus 8": 1380858267893760,
    "trace A1 --level 4 --conjecture 1 --insertions 2,2 --genus 10": 41278262499,
}

_HITS = (
    "modular-data A1 --level 300",
    "modular-data A2 --level 20",
    "check A6 --level 1",
)

FULL = (
    Workload(
        "weyl",
        "rank 4-6 and exceptional algebras at low level: time goes to Weyl group "
        "enumeration (384 to 23040 elements) and the S matrix sum over it",
        (
            "check D6 --level 1",
            "check A6 --level 1",
            "check B5 --level 1",
            "check D5 --level 1",
            "check F4 --level 2",
            "check A5 --level 2",
            "check C4 --level 3",
            "check B4 --level 3",
            "check G2 --level 10",
        ),
    ),
    Workload(
        "dense",
        "rank 1-2 at high level (n up to ~150, tiny Weyl group): time goes to the "
        "Verlinde tensor, boundary structure constants and report serialization",
        (
            "check A1 --level 150",
            "check A2 --level 14",
            "boundary A1 --level 80 --group center",
            "orbifold A1 --level 30 --shift 1",
            "fusion A2 --level 10",
            "modular-data A1 --level 200",
            "sweep A1 --levels 1-40",
        ),
    ),
    Workload(
        "currents",
        "simple currents with fixed points and block spaces: fixed-point phase "
        "searches, classifying algebras, trace spectra and exact block ranks",
        (
            "extend A2 --level 12 --group center",
            "extend A2 --level 15 --group center",
            "extend A1 --level 24 --group center",
            "extend A1 --level 40 --group center",
            "extend A1 --level 56 --group center",
            "boundary A2 --level 9 --group center",
            "boundary A1 --level 40 --group center",
            "trace A1 --level 16 --conjecture 1 --insertions 8,8,8,8,8,8,8 --genus 1",
            "trace A2 --level 9 --conjecture 1 --insertions 30,30,30,30 --genus 1",
            "trace A1 --level 20 --conjecture 2 --shift 1 --insertions 2,2,2",
            *EXPECTED_RANKS,
        ),
    ),
    Workload(
        "cache",
        "disk cache in use: large hits loaded and verified, misses computed and "
        "written, one stale-schema and one truncated entry recomputed",
        (
            *_HITS,
            *_HITS,
            *_HITS,
            "modular-data A1 --level 250",
            "modular-data B3 --level 8",
            "modular-data D5 --level 1",
            "modular-data C3 --level 6",
            "modular-data A2 --level 16",
            "modular-data A1 --level 200",
        ),
        uses_cache=True,
        fill=(("A1", 300), ("A2", 20), ("A6", 1), ("A2", 16), ("A1", 200)),
        stale=("A2", 16),
        truncated=("A1", 200),
    ),
)

# A few cheap jobs per workload with the same structure, for --selftest.
TINY = (
    Workload("weyl", "", ("check B2 --level 1", "check G2 --level 1")),
    Workload(
        "dense",
        "",
        (
            "check A1 --level 4",
            "boundary A1 --level 4 --group center",
            "orbifold A1 --level 2 --shift 1",
            "fusion A1 --level 2",
            "modular-data A1 --level 4",
            "sweep A1 --levels 1-3",
        ),
    ),
    Workload(
        "currents",
        "",
        (
            "extend A1 --level 4 --group center",
            "boundary A2 --level 3 --group center",
            "trace A1 --level 4 --conjecture 1 --insertions 2,2 --genus 1",
            "trace A1 --level 4 --conjecture 2 --shift 1 --insertions 2,2,2",
        ),
    ),
    Workload(
        "cache",
        "",
        (
            "modular-data A1 --level 5",
            "modular-data A1 --level 5",
            "modular-data A1 --level 3",
            "modular-data A1 --level 6",
            "modular-data A1 --level 7",
        ),
        uses_cache=True,
        fill=(("A1", 5), ("A1", 6), ("A1", 7)),
        stale=("A1", 6),
        truncated=("A1", 7),
    ),
)

CORPORA = {"full": FULL, "tiny": TINY}


def job_id(job: str) -> str:
    """File-name-safe identifier of a job's command line."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", job.replace("--", "")).strip("_")
