"""One benchmark process: runs a single wzwkit CLI job, or fills a disk cache.

    child.py job OUT SPANS ARG...    run wzwkit.cli.main(ARG...) once
    child.py fill OUT CACHE_DIR ALG:LEVEL...
    child.py warm                    import wzwkit.cli and exit

``job`` writes to OUT the monotonic clock at entry to and return from
``main``, the CPU seconds and the process's peak RSS; the report goes to
stdout as usual.  With SPANS other than ``-`` the layer wrappers of
``tracer`` are installed first and the spans are written to SPANS at exit.
``fill`` computes each entry through ``wzwkit.affine.modular_data`` and
writes the cache file paths to OUT.  The library is imported from ``src/``
of the checkout that holds this file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import wzwkit

    if not Path(wzwkit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"wzwkit was imported from {wzwkit.__file__}, not {SRC}")
    return wzwkit


def _peak_rss_kb() -> int:
    # ru_maxrss would do, but Linux carries it across exec from the process
    # that spawned this one; VmHWM belongs to this process's memory alone.
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_job(out: str, spans_out: str, argv: list[str]) -> None:
    _import_library()
    import wzwkit.cli

    recorder = None
    if spans_out != "-":
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    cpu0 = _cpu()
    enter = time.monotonic()
    status = wzwkit.cli.main(argv)
    leave = time.monotonic()
    cpu1 = _cpu()
    sys.stdout.flush()
    record = {
        "enter": enter,
        "exit": leave,
        "cpu": cpu1 - cpu0,
        "maxrss_kb": _peak_rss_kb(),
        "status": status,
    }
    Path(out).write_text(json.dumps(record))
    if recorder is not None:
        Path(spans_out).write_text(json.dumps(recorder.spans))


def fill(out: str, cache_dir: str, entries: list[str]) -> None:
    _import_library()
    from wzwkit.affine import cache_path, modular_data

    paths = {}
    for entry in entries:
        algebra, level = entry.split(":")
        modular_data(algebra, int(level), cache_dir=cache_dir)
        paths[entry] = str(cache_path(algebra, int(level), cache_dir))
    Path(out).write_text(json.dumps(paths))


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "job":
        run_job(rest[0], rest[1], rest[2:])
    elif mode == "fill":
        fill(rest[0], rest[1], rest[2:])
    elif mode == "warm":
        _import_library()
        import wzwkit.cli  # noqa: F401
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
