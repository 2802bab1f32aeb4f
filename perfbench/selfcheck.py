#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny sizes, in about a minute.

    python3 perfbench/selfcheck.py

For every workload it checks that

* every metric BENCHMARK.json declares is emitted, with its unit, in the
  untraced and in the traced run;
* span self times are non-negative and add up to each traced pass's wall
  time;
* a deliberately degenerate fit is counted as failed (completed_fit_share
  drops below 1);
* a corrupted output trips the correctness check;

and that the benchmark refuses to run, without a result line, in a
directory that holds only BENCHMARK.json and perfbench/.  Exits non-zero
on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

TINY = {"size": "tiny", "seconds": 0.0, "setup_probes": False}


def _fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    raise SystemExit(1)


def check_metrics(name: str, declared: dict) -> None:
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_benchmark(name, 1, traced=traced, **TINY)
        if not result["correct"]:
            _fail(f"{name} trace={int(traced)}: {result['details'].get('error')}")
        emitted = run.with_units(result["metrics"], declared[kind])
        for metric in declared[kind]:
            value = emitted[metric["name"]]
            if value["unit"] != metric["unit"] or not isinstance(value["value"], (int, float)):
                _fail(f"{name}: {metric['name']} emitted as {value}")
        if traced:
            check_self_times(name, result)


def check_self_times(name: str, result: dict) -> None:
    import tracing

    spans = result["spans"]
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    walls = result["details"]["measured_walls_traced_s"]
    if len(roots) != len(walls) or not roots:
        _fail(f"{name}: {len(roots)} root spans for {len(walls)} traced passes")
    bounds = roots[1:] + [len(spans)]
    for root, end, wall in zip(roots, bounds, walls):
        block = [[n, s, e, p - root if p >= 0 else -1] for n, s, e, p in spans[root:end]]
        self_s = tracing.self_times(block)
        duration = block[0][2] - block[0][1]
        if self_s.min() < -1e-9:
            _fail(f"{name}: negative self time {self_s.min()!r}")
        if abs(self_s.sum() - duration) > 1e-9 * max(duration, 1.0):
            _fail(f"{name}: self times add to {self_s.sum()!r}, pass took {duration!r}")
        reference_s = sum(e - s for n, s, e, p in block if n == "reference.step")
        if abs(duration - reference_s - wall) > 1e-3:
            _fail(f"{name}: root span less reference steps is {duration - reference_s!r} s "
                  f"against measured wall {wall!r} s")


def check_degenerate(name: str) -> None:
    result = run.run_benchmark(name, 1, traced=False, degenerate=True, **TINY)
    if not result["correct"]:
        _fail(f"{name} degenerate: {result['details'].get('error')}")
    if result["failed"] < 1 or not result["metrics"]["completed_fit_share"] < 1.0:
        _fail(f"{name}: degenerate fit not counted ({result['metrics']['completed_fit_share']!r})")


def _corrupt_cli(workload, raw):
    path = workload.workdir / "cv-lda.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) / 2)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    return raw


def _corrupt_in_memory(workload, raw):
    raw[-1] = raw[-1]._replace(accuracy=raw[-1].accuracy / 2)
    return raw


def check_corruption(name: str) -> None:
    cls = workloads.WORKLOADS[name]
    original = cls.run_pass
    corrupt = _corrupt_cli if cls is workloads.CliPipeline else _corrupt_in_memory
    calls = []

    def corrupted(self, pause=lambda: None):
        raw = original(self, pause)
        calls.append(1)
        return corrupt(self, raw) if len(calls) == 2 else raw

    cls.run_pass = corrupted
    try:
        result = run.run_benchmark(name, 1, traced=False, **TINY)
    finally:
        cls.run_pass = original
    if result["correct"] or "error" not in result["details"] or result["metrics"]:
        _fail(f"{name}: corrupted output passed the correctness check")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide-scarce", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.load_package()
    for name in run.WORKLOAD_NAMES:
        check_metrics(name, declared)
        check_degenerate(name)
        check_corruption(name)
        print(f"selfcheck {name}: ok")
    check_bare_directory()
    print("selfcheck bare directory: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
