"""Smoke test of the benchmark: every workload at a tiny size.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For each workload it runs ``run.py --scale tiny`` untraced and traced
and checks that:

* the run exits 0, its correctness checks pass, and the last line names
  exactly the metrics ``BENCHMARK.json`` lists, each with its unit;
* a second traced run with the same seed repeats the simulated metrics
  and every per-layer count exactly, and a run with another seed also
  passes its checks;
* every per-layer metric of ``BENCHMARK.json`` is in ``layers.py``'s
  table with the same unit and direction, and ``README.md`` lists it.

It also checks that the benchmark fails, printing no result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

#: report-line metrics driven by the simulated clock or by counts only
DETERMINISTIC = ("sim_pause_ms_p50", "sim_pause_ms_max", "sim_latency_ms_p50",
                 "sim_latency_ms_p99", "sessions_failed_share",
                 "updates_aborted_share")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    report = json.loads(lines[-2]) if len(lines) >= 2 else {}
    result = json.loads(lines[-1]) if lines else {}
    return completed.returncode, report, result, completed.stderr


def _expected(spec: dict, trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def _deterministic(report: dict) -> dict:
    values = {name: report["metrics"][name]["value"]
              for name in DETERMINISTIC if name in report["metrics"]}
    values.update({name: metric["value"]
                   for name, metric in report["per_layer"].items()
                   if metric["unit"] not in ("ms", "s")})
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    readme = (HERE / "README.md").read_text()
    for metric in spec["per_layer"]:
        row = layers.LAYER_METRICS.get(metric["name"])
        if row is None or row[:2] != (metric["unit"], metric["better"]):
            problems.append(f"{metric['name']}: BENCHMARK.json and "
                            f"layers.LAYER_METRICS disagree")
        if f"`{metric['name']}`" not in readme:
            problems.append(f"{metric['name']}: not in README.md")
    if set(layers.LAYER_METRICS) != set(_expected(spec, 1)):
        problems.append("layers.LAYER_METRICS and BENCHMARK.json list "
                        "different per-layer metrics")

    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed, trace in ((1, 0), (1, 1), (1, 1), (2, 1)):
            code, report, result, stderr = _run(workload, seed, trace)
            label = f"{workload} seed {seed} trace {trace}"
            if code != 0 or not result.get("correct"):
                problems.append(f"{label}: exit {code}, result {result}, "
                                f"{stderr.strip()[-500:]}")
                continue
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            if got != _expected(spec, trace):
                problems.append(f"{label}: metrics {sorted(got.items())} "
                                f"differ from BENCHMARK.json")
            if not result["attempted"] >= 1:
                problems.append(f"{label}: attempted {result['attempted']}")
            runs.setdefault((seed, trace), []).append(report)
        traced = runs.get((1, 1), [])
        if len(traced) == 2 and (_deterministic(traced[0])
                                 != _deterministic(traced[1])):
            problems.append(f"{workload}: two traced runs of seed 1 differ "
                            f"in simulated metrics or per-layer counts")
        print(f"{workload}: {len(sum(runs.values(), []))} runs done",
              flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, _, result, _ = _run(spec["workloads"][0]["name"], 1, 0, bare)
        if code == 0 or result:
            problems.append("the benchmark did not fail without the program")

    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
