"""Host-time benchmark of the Jvolve reproduction: serving and live updates.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Workloads: ``serve``, ``update-stream``, ``heap-update`` (see
``workloads.py``). A run starts slices one after another, each in a
fresh process (``slice.py``: set-up plus the timed steps, on the same
seeded inputs), until ``--seconds`` have passed, and reports medians
over the slices:

* ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1`` alternates untraced and traced slices and prints the
  per-layer metrics (``layers.LAYER_METRICS``), the tracing overhead
  among them; the traced slices write their spans to ``perfbench/out/``.

The line before the last is the full report, with the metrics that only
some workloads have (requests, update and pause host time, the simulated
clock's pause and latency, failure shares). The last line is the JSON
result: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when every correctness check passed, 1 when one failed or a
slice crashed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("serve", "update-stream", "heap-update")
#: end-to-end metrics every workload reports (``BENCHMARK.json``)
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "instr_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: one slice may take this long before the run gives up on it
SLICE_TIMEOUT_S = 150
#: slice fields that must repeat exactly for a seed
DETERMINISTIC = ("instructions", "requests", "sim_pause_ms", "sim_latency_ms",
                 "sessions", "sessions_failed", "updates_aborted", "counts")


class SliceCrashed(Exception):
    """A slice process exited without printing its measurements."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_s(slices, field: str = "steps") -> float:
    """One slice's timed region: the sum over its steps of each step's
    median across ``slices`` (robust to a burst of machine noise)."""
    return sum(_median([s[field][name] for s in slices])
               for name in slices[0]["steps"])


def _report(slices) -> dict:
    """Every end-to-end metric that applies to the workload."""
    first = slices[0]
    n = len(slices)
    run_s = _run_s(slices)
    metrics = {
        "setup_s": (_median([s["setup_s"] for s in slices]), "s", n),
        "run_s": (run_s, "s", n),
        "instr_per_s": (first["instructions"] / run_s, "1/s", n),
        "peak_rss_mb": (_median([s["peak_rss_mb"] for s in slices]), "MB", n),
        "setup_wall_s": (_median([s["setup_wall_s"] for s in slices]), "s", n),
        "run_wall_s": (_run_s(slices, "wall_steps"), "s", n),
    }
    if first["requests"]:
        metrics["requests_per_s"] = (first["requests"] / run_s, "1/s", n)
    if first["updates"]:
        updates = [v for s in slices for v in s["update_host_ms"]]
        pauses = [v for s in slices for v in s["pause_host_ms"]]
        metrics["update_host_ms_p50"] = (_median(updates), "ms", len(updates))
        metrics["pause_host_ms_p50"] = (_median(pauses), "ms", len(pauses))
        metrics["updates_aborted_share"] = (
            first["updates_aborted"] / first["updates"], "share",
            first["updates"])
    sim_pause = first["sim_pause_ms"]
    if sim_pause:
        metrics["sim_pause_ms_p50"] = (_median(sim_pause), "ms", len(sim_pause))
        metrics["sim_pause_ms_max"] = (max(sim_pause), "ms", len(sim_pause))
    if first["sim_latency_ms"]:
        ordered = sorted(first["sim_latency_ms"])
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        metrics["sim_latency_ms_p50"] = (_median(ordered), "ms", len(ordered))
        metrics["sim_latency_ms_p99"] = (p99, "ms", len(ordered))
    if first["sessions"]:
        metrics["sessions_failed_share"] = (
            first["sessions_failed"] / first["sessions"], "share",
            first["sessions"])
    return {name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in metrics.items()}


def _per_layer(untraced, traced, problems) -> dict:
    """The per-layer metrics: medians over the traced slices for times,
    the (repeating) value for counts, and the tracing overhead."""
    import layers

    runs = [s["layers"] for s in traced]
    timed = {name for name, row in layers.LAYER_METRICS.items()
             if row[0] in ("ms", "s")}
    counted = [{k: v for k, v in run.items() if k not in timed}
               for run in runs]
    if any(run != counted[0] for run in counted[1:]):
        problems.append("traced slices did not repeat their per-layer counts")
    values = {name: _median([run[name] for run in runs]) if name in timed
              else runs[0][name] for name in runs[0]}
    counts = traced[0]["counts"]
    at_safepoint = (counts.get("dsu.updates_applied", 0)
                    - counts.get("dsu.updates_bypassed", 0))
    scans = values["dsu.safepoint.scans"]
    values["dsu.safepoint.useful_ratio"] = at_safepoint / scans if scans else 0.0
    values["bench.untraced_run_s"] = _run_s(untraced)
    values["bench.traced_run_s"] = _run_s(traced)
    values["bench.trace_overhead_s"] = (values["bench.traced_run_s"]
                                        - values["bench.untraced_run_s"])
    return {name: {"value": values[name], "unit": row[0]}
            for name, row in layers.LAYER_METRICS.items()}


def _slice(workload: str, seed: int, scale: str, index: int,
           trace: bool) -> dict:
    stem = f"{workload}-seed{seed}-slice{index}"
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "slice.py"), workload, str(seed),
             scale, str(index), str(int(trace)),
             str(OUT / f"{stem}-spans.jsonl")],
            capture_output=True, text=True, timeout=SLICE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SliceCrashed(f"slice {index} ran over {SLICE_TIMEOUT_S} s")
    if completed.returncode != 0:
        raise SliceCrashed(f"slice {index} exited {completed.returncode}:\n"
                           f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def bench(workload: str, seed: int, seconds: float, trace: bool,
          scale: str = "full"):
    """Run slices for ``seconds``; return the full report and the result
    line."""
    OUT.mkdir(exist_ok=True)
    untraced, traced = [], []
    started = time.perf_counter()
    index = 0
    while (index < (2 if trace else 1)
           or time.perf_counter() - started < seconds):
        traced_slice = trace and index % 2 == 1
        result = _slice(workload, seed, scale, index, traced_slice)
        (traced if traced_slice else untraced).append(result)
        index += 1

    slices = untraced + traced
    problems = sorted({p for s in slices for p in s["problems"]})
    reference = [slices[0][key] for key in DETERMINISTIC]
    for number, other in enumerate(slices[1:], start=1):
        if [other[key] for key in DETERMINISTIC] != reference:
            problems.append(f"slice {number} did not repeat slice 0's "
                            f"simulated metrics and counts")
            break
    report = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "slices": {"untraced": len(untraced), "traced": len(traced)},
        "slice_setup_s": [s["setup_s"] for s in untraced],
        "slice_run_s": [sum(s["steps"].values()) for s in untraced],
        "slice_run_wall_s": [sum(s["wall_steps"].values()) for s in untraced],
        "metrics": _report(untraced),
        "problems": problems,
    }
    if trace:
        report["per_layer"] = _per_layer(untraced, traced, problems)
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in slices),
        "failed": sum(s["failed"] for s in slices),
        "metrics": (report["per_layer"] if trace else {
            name: {"value": report["metrics"][name]["value"], "unit": unit}
            for name, unit in END_TO_END.items()
        }),
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting slices until this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a fraction of a second per slice, for "
                             "smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        report, result = bench(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.scale)
    except SliceCrashed as crash:
        print(f"perfbench: {crash}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**report, "result": result}, handle, indent=2)
        handle.write("\n")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
