"""One slice of a workload, in a fresh process (see ``run.py``).

Usage, from the root of a checkout::

    python3 perfbench/slice.py WORKLOAD SEED SCALE INDEX TRACE SPANS_PATH

A fresh process per slice keeps slices independent: no cache the program
keeps for the life of a process can carry one slice's work into the
next, and the program's import and prelude compilation count as set-up.
Prints the slice's measurements as one JSON object; with ``TRACE`` 1 it
also installs the layer wrappers and writes the spans, with ``INDEX``
as their run id, to ``SPANS_PATH`` at exit.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import fields
from pathlib import Path

HERE = Path(__file__).resolve().parent

from hostclock import HostClock  # noqa: E402  (the script's own directory)


def main(argv) -> int:
    workload, seed, scale, index, trace, spans_path = argv
    seed, trace = int(seed), int(trace) == 1
    clock = HostClock()
    started = time.perf_counter()
    region = clock.start()
    sys.path.insert(0, str(HERE.parent / "src"))
    import layers
    from repro.compiler.compile import compile_prelude
    from workloads import WORKLOADS

    recorder = layers.SpanRecorder(int(index)) if trace else None
    uninstall = layers.install(recorder) if trace else (lambda: None)
    try:
        compile_prelude()
        boot_wall_s, boot_s = clock.stop(region)
        result = WORKLOADS[workload](seed, scale, recorder)
    finally:
        uninstall()
    wall_ms = (time.perf_counter() - started) * 1e3
    result.setup_s += boot_s
    result.setup_wall_s += boot_wall_s
    payload = {f.name: getattr(result, f.name)
               for f in fields(result) if f.name != "clock"}
    payload["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if recorder is not None:
        payload["layers"] = layers.layer_values(recorder, result.counts,
                                                wall_ms)
        recorder.write(spans_path)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
