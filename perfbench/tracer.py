"""Layer spans recorded from outside wzwkit, and the per-layer metrics they give.

``install`` runs inside a job process after ``wzwkit.cli`` is imported and
before ``main`` is called.  It replaces each traced public function, in
every wzwkit module that binds it, by a wrapper that records a span:
``[name, parent, start, duration, value]``, where ``parent`` is the index of
the enclosing span (-1 at the top) and ``value`` a size or outcome taken
from the call.  Spans stay in memory until the process ends.

``job_metrics`` turns the spans of one job into the per-layer metrics.
Times named ``<layer>.<function>_s`` are inclusive; a span nested in one of
the same name adds to counts but not to time.  ``<layer>.self_s`` is the
layer's self time: each span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter

TRACED = {
    "liealg": ("weyl_traverse",),
    "affine": (
        "modular_data",
        "kac_peterson_smatrix",
        "verify_modular_invariants",
        "load_modular_data",
        "save_modular_data",
    ),
    "fusion": ("verlinde_tensor", "simple_currents"),
    "simplecurrent": ("fixed_point_smatrix", "extend_by_group", "abelian_characters"),
    "blocks": ("block_rank", "admissible_tuples", "untwisted_tuples", "fourier_eigendims"),
    "orbifold": ("inner_orbifold_input", "assemble_orbifold", "conjecture2_trace"),
    "boundary": (
        "classifying_algebra",
        "hat_smatrix",
        "structure_constants",
        "automorphism_type_decomposition",
    ),
    "cli": ("main", "run"),
}

# liealg has one traced function, so its self time is liealg.weyl_s.
SELF_LAYERS = ("affine", "fusion", "simplecurrent", "blocks", "orbifold", "boundary")

# (metric, unit) in the order they are reported.
PER_LAYER = (
    ("liealg.weyl_elements", "count"),
    ("liealg.weyl_s", "s"),
    ("affine.smatrix_s", "s"),
    ("affine.verify_calls", "count"),
    ("affine.verify_s", "s"),
    ("affine.cache_hits", "count"),
    ("affine.cache_misses", "count"),
    ("affine.cache_rejected", "count"),
    ("affine.cache_load_s", "s"),
    ("affine.cache_save_s", "s"),
    ("affine.cache_bytes_written", "bytes"),
    ("fusion.verlinde_calls", "count"),
    ("fusion.verlinde_s", "s"),
    ("fusion.verlinde_work", "count"),
    ("fusion.simple_currents_s", "s"),
    ("simplecurrent.phase_searches", "count"),
    ("simplecurrent.phase_attempts", "count"),
    ("simplecurrent.phase_useful", "ratio"),
    ("simplecurrent.phase_s", "s"),
    ("simplecurrent.extend_s", "s"),
    ("simplecurrent.characters_calls", "count"),
    ("simplecurrent.characters_s", "s"),
    ("blocks.eigendims_s", "s"),
    ("blocks.untwisted_s", "s"),
    ("blocks.block_rank_calls", "count"),
    ("blocks.tuples_admissible", "count"),
    ("blocks.tuples_untwisted", "count"),
    ("orbifold.assemble_s", "s"),
    ("orbifold.dim", "count"),
    ("orbifold.conjecture2_calls", "count"),
    ("orbifold.orientation_retries", "count"),
    ("boundary.classifying_s", "s"),
    ("boundary.hat_s", "s"),
    ("boundary.structure_s", "s"),
    ("boundary.structure_work", "count"),
    ("boundary.automorphism_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.jobs", "count"),
    *((f"{layer}.self_s", "s") for layer in SELF_LAYERS),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Spans of one job process, kept in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, clock(), 0.0, None]
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, value=None, before=None):
        """Time each call of ``fn``.

        ``value(args, kwargs, result, pre)`` sizes a call that returned, where
        ``pre`` is what ``before(*args, **kwargs)`` gave ahead of the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            span = self._open(name)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = clock() - span[2]
            if value is not None:
                span[4] = value(args, kwargs, result, pre)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Time a generator inside its ``next()`` only; value = items yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._open(name)
            span[4] = 0
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    span[3] += clock() - start
                span[4] += 1
                yield item

        return traced


def _entry_exists(cache_path, algebra, level, cache_dir) -> bool:
    return cache_path(algebra, level, cache_dir).exists()


def _cache_outcome(args, kwargs, result, existed) -> str:
    # A file that existed but did not load was rejected (stale or corrupt).
    return "hit" if result is not None else "rejected" if existed else "miss"


_VALUES = {
    "affine.load_modular_data": _cache_outcome,
    "affine.save_modular_data": lambda a, k, path, p: Path(path).stat().st_size,
    "fusion.verlinde_tensor": lambda a, k, r, p: a[0].dim,
    "blocks.admissible_tuples": lambda a, k, r, p: len(r),
    "blocks.untwisted_tuples": lambda a, k, r, p: len(r),
    "orbifold.assemble_orbifold": lambda a, k, r, p: r.md.dim,
    "boundary.structure_constants": lambda a, k, r, p: a[0].shape[0],
    "cli.run": lambda a, k, r, p: len(r[0].encode()),
}


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever a wzwkit module binds it."""
    modules = [m for n, m in sys.modules.items() if n == "wzwkit" or n.startswith("wzwkit.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"wzwkit.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            if fname == "weyl_traverse":
                wrapper = recorder.wrap_generator(name, original)
            else:
                before = None
                if fname == "load_modular_data":
                    before = functools.partial(_entry_exists, home.cache_path)
                wrapper = recorder.wrap(name, original, _VALUES.get(name), before)
            for module in modules:
                for attr, bound in list(vars(module).items()):
                    if bound is original:
                        setattr(module, attr, wrapper)


def add_ratios(m: dict[str, float]) -> None:
    """Set the ratio metrics from their summed counts (0 where the base is 0)."""
    attempts = m["simplecurrent.phase_attempts"]
    m["simplecurrent.phase_useful"] = m["simplecurrent.phase_searches"] / attempts if attempts else 0.0


def job_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one job's spans; ratios and
    trace.overhead_s are left to the caller, which sums jobs first."""
    names = [s[0] for s in spans]
    children = defaultdict(float)
    for name, parent, _start, dur, _value in spans:
        if parent >= 0:
            children[parent] += dur

    def ancestors(i: int):
        p = spans[i][1]
        while p >= 0:
            yield p
            p = spans[p][1]

    def inside(i: int, name: str) -> bool:
        return any(names[a] == name for a in ancestors(i))

    def picks(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    def count(name: str) -> int:
        return len(picks(name))

    def incl(name: str) -> float:
        return sum(spans[i][3] for i in picks(name) if not inside(i, name))

    def total(name: str, fn=lambda v: v, where=lambda i: True) -> float:
        # Calls that raised carry no value.
        return sum(fn(spans[i][4]) for i in picks(name) if where(i) and spans[i][4] is not None)

    def self_time(i: int) -> float:
        return spans[i][3] - children[i]

    loads = [spans[i][4] for i in picks("affine.load_modular_data")]
    fixed = "simplecurrent.fixed_point_smatrix"
    extend = "simplecurrent.extend_by_group"
    # A phase search is a fixed_point_smatrix call that tried extensions.
    searched = [next((a for a in ancestors(j) if names[a] == fixed), None) for j in picks(extend)]
    attempts = sum(a is not None for a in searched)
    searches = len({a for a in searched if a is not None})
    conj2 = count("orbifold.conjecture2_trace")
    m = {
        "liealg.weyl_elements": total("liealg.weyl_traverse"),
        "liealg.weyl_s": incl("liealg.weyl_traverse"),
        "affine.smatrix_s": sum(self_time(i) for i in picks("affine.kac_peterson_smatrix")),
        "affine.verify_calls": count("affine.verify_modular_invariants"),
        "affine.verify_s": incl("affine.verify_modular_invariants"),
        "affine.cache_hits": loads.count("hit"),
        "affine.cache_misses": loads.count("miss") + loads.count("rejected"),
        "affine.cache_rejected": loads.count("rejected"),
        "affine.cache_load_s": incl("affine.load_modular_data"),
        "affine.cache_save_s": incl("affine.save_modular_data"),
        "affine.cache_bytes_written": total("affine.save_modular_data"),
        "fusion.verlinde_calls": count("fusion.verlinde_tensor"),
        "fusion.verlinde_s": incl("fusion.verlinde_tensor"),
        "fusion.verlinde_work": total("fusion.verlinde_tensor", lambda n: n**4),
        "fusion.simple_currents_s": incl("fusion.simple_currents"),
        "simplecurrent.phase_searches": searches,
        "simplecurrent.phase_attempts": attempts,
        "simplecurrent.phase_s": incl(fixed),
        "simplecurrent.extend_s": incl(extend),
        "simplecurrent.characters_calls": count("simplecurrent.abelian_characters"),
        "simplecurrent.characters_s": incl("simplecurrent.abelian_characters"),
        "blocks.eigendims_s": incl("blocks.fourier_eigendims"),
        "blocks.untwisted_s": incl("blocks.untwisted_tuples"),
        "blocks.block_rank_calls": count("blocks.block_rank"),
        "blocks.tuples_admissible": total(
            "blocks.admissible_tuples",
            where=lambda i: not inside(i, "blocks.untwisted_tuples"),
        ),
        "blocks.tuples_untwisted": total("blocks.untwisted_tuples"),
        "orbifold.assemble_s": incl("orbifold.assemble_orbifold"),
        "orbifold.dim": total("orbifold.assemble_orbifold"),
        "orbifold.conjecture2_calls": conj2,
        "orbifold.orientation_retries": max(0, conj2 - 1),
        "boundary.classifying_s": incl("boundary.classifying_algebra"),
        "boundary.hat_s": incl("boundary.hat_smatrix"),
        "boundary.structure_s": incl("boundary.structure_constants"),
        "boundary.structure_work": total("boundary.structure_constants", lambda n: n**5),
        "boundary.automorphism_s": incl("boundary.automorphism_type_decomposition"),
        "cli.self_s": sum(self_time(i) for i, n in enumerate(names) if n.startswith("cli.")),
        "cli.report_bytes": total("cli.run"),
        "cli.jobs": count("cli.run"),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_time(i) for i, n in enumerate(names) if n.startswith(layer + ".")
        )
    return m
