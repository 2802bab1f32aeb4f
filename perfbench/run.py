#!/usr/bin/env python3
"""Benchmark of momentclf on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package under test is
imported from ``src/`` of that checkout and nowhere else.  After set-up
the workload's pass is repeated until S seconds have gone by.  Each pass
is followed by the same pass of a frozen reference copy of the package
(``frozen/momentclf_ref``) in a child process, and the times of the
package under test are reported on the reference's nominal scale (see
NOTES.md, "Reported seconds").  Every pass's outputs are checked, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and
traced passes alternate and the metrics are the per-layer ones from the
traced passes plus the tracing overhead.  The full result with
provenance goes to ``.perfbench_out/`` in the checkout, next to the spans
of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import CorrectnessError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = HERE / "frozen"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("cli-pipeline", "outlier-splits", "wide-scarce")
SETUP_PROBES = 5

# End-to-end quality metrics: held-out means, on every workload's methods.
QUALITY_METRICS = ("acc.error-direct", "auc.auc-direct", "acc.lda")
# Any quality below this means a fit collapsed rather than a slower path.
QUALITY_FLOOR = 0.6


def load_package():
    """Put this checkout's src/ and the frozen reference on the path, or exit."""
    if not (SRC / "momentclf" / "__init__.py").is_file():
        print(f"error: no momentclf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(FROZEN), str(HERE)]
    # locate without importing: the reference's processes must not load it
    origin = importlib.util.find_spec("momentclf").origin
    if Path(origin).resolve().parent != SRC / "momentclf":
        print(f"error: momentclf resolves to {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(name: str, seed: int, size: str = "full", degenerate: bool = False,
                  reference: bool = False):
    package = importlib.import_module("momentclf_ref" if reference else "momentclf")
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliPipeline:
        tag = "ref-" if reference else ""
        return cls(seed, package, size, degenerate, workdir=OUT / f"work-{tag}{name}-{os.getpid()}")
    return cls(seed, package, size, degenerate)


def remove_workdir(workload) -> None:
    workdir = getattr(workload, "workdir", None)
    if workdir is not None and workdir.exists():
        shutil.rmtree(workdir)


# -- provenance -------------------------------------------------------------


def blas_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None, "core": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if threads is not None and info["threads"] is None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if core is not None and info["core"] is None:
                    core.restype = ctypes.c_char_p
                    info["core"] = core().decode()
    return info


def _cpu_info() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    llc = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(cache.glob("index*")):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        llc = max(levels)[1]
    return {"cpu_model": model, "llc_size": llc, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _source_id() -> dict:
    """Git commit when the checkout is a repository, and hashes of src/ and the reference."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": _tree_sha256(SRC / "momentclf"),
            "reference_sha256": _tree_sha256(FROZEN / "momentclf_ref")}


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    return {
        **_source_id(),
        **_cpu_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# -- measurement --------------------------------------------------------------


def _probe_seconds(workload: str, seed: int, reference: bool) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done.

    The probe prints its own perf_counter (CLOCK_MONOTONIC, shared by all
    processes) when set-up is done, so interpreter exit and the parent's
    polling of the child are not counted.
    """
    started = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)] + (["--reference"] if reference else []),
        cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
    )
    return float(probe.stdout.split()[-1]) - started


class ReferenceWorker:
    """The frozen reference package running the same workload in a child.

    The two run in lockstep, one fit or CLI command at a time, never both
    at once: after each step of the checkout's pass the child runs the
    same step.  Both so see the same machine speed within a fraction of a
    second, and the child's memory stays out of the run's peak.
    """

    def __init__(self, workload: str, seed: int, size: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--reference-worker",
             "--workload", workload, "--seed", str(seed), "--size", size],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._reply() != "ready":
            raise RuntimeError("reference worker did not start")

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited with code {self.proc.wait()}")
        return line.strip()

    def step(self, command: str) -> float:
        """Send "pass" (first step), "step" or "finish"; seconds the child worked."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def reference_worker_main(workload: str, seed: int, size: str) -> int:
    """Child side of ReferenceWorker: a pass per "pass", a step per reply."""
    bench = make_workload(workload, seed, size, reference=True)
    started = 0.0

    def pause():
        nonlocal started
        print(repr(time.perf_counter() - started), flush=True)
        sys.stdin.readline()  # "step", or "finish" after the last step
        started = time.perf_counter()

    try:
        bench.setup()
        print("ready", flush=True)
        while sys.stdin.readline():
            started = time.perf_counter()
            bench.run_pass(pause)
            print(repr(time.perf_counter() - started), flush=True)
    finally:
        remove_workdir(bench)
    return 0


class Run:
    """Passes of one workload, their checks, and the metrics they give.

    ``walls`` holds the measured seconds of the checkout's passes,
    ``reference_walls`` those of the interleaved reference passes, and
    ``ratios`` the quotient of each pair.
    """

    def __init__(self, workload, reference: ReferenceWorker, traced: bool):
        import tracing

        self.workload = workload
        self.reference = reference
        self.tracer = tracing.Tracer() if traced else None
        self.walls = {False: [], True: []}
        self.ratios = {False: [], True: []}
        self.reference_walls: list[float] = []
        self.layers: list[dict] = []
        self.first = None
        self.attempted = 0
        self.failed = 0

    def traced_setup(self) -> dict:
        """Set the workload up once more under the tracer; its layer numbers."""
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        root = tracer.begin("bench.setup")
        try:
            self.workload.setup()
        finally:
            tracer.end(root)
            tracer.uninstall()
        return tracing.layer_metrics(tracer.spans, [], 0)

    def one_pass(self, traced: bool, timed: bool = True) -> None:
        import tracing

        tracer = self.tracer if traced else None
        if tracer is not None:
            first_span, first_fit, bytes_before = len(tracer.spans), len(tracer.fits), tracer.bytes_loaded
            tracer.install()
            root = tracer.begin("bench.pass")
        self.workload.tracer = tracer
        reference_wall = paused = 0.0
        command = "pass"

        def pause():
            nonlocal reference_wall, paused, command
            step_started = time.perf_counter()
            index = tracer.begin("reference.step") if tracer is not None else None
            reference_wall += self.reference.step(command)
            command = "step"
            if index is not None:
                tracer.end(index)
            paused += time.perf_counter() - step_started

        started = time.perf_counter()
        try:
            raw = self.workload.run_pass(pause)
        finally:
            wall = time.perf_counter() - started - paused
            if tracer is not None:
                tracer.end(root)
                tracer.uninstall()
        reference_wall += self.reference.step("finish")
        result = self.workload.check(raw)
        if tracer is not None:
            spans = [[n, start, end, parent - first_span if parent >= 0 else -1]
                     for n, start, end, parent in tracer.spans[first_span:]]
            self_s = tracing.self_times(spans)
            root_s = spans[0][2] - spans[0][1]
            if self_s.min() < -1e-9 or abs(self_s.sum() - root_s) > 1e-6 * root_s:
                raise CorrectnessError("span self times do not add up to the traced pass")
            if tracer.count_mismatches:
                raise CorrectnessError("; ".join(tracer.count_mismatches))
            layers = tracing.layer_metrics(
                spans, tracer.fits[first_fit:], tracer.bytes_loaded - bytes_before
            )
            layers["harness.failed_runs"] = result.failed_runs
            self.layers.append(layers)
        if self.first is None:
            self.first = result
        elif (result.fingerprint, result.quality, result.attempted, result.failed) != (
            self.first.fingerprint, self.first.quality, self.first.attempted, self.first.failed
        ):
            raise CorrectnessError("a pass's outputs differ from the first pass's")
        if timed:
            self.walls[traced].append(wall)
            self.ratios[traced].append(wall / reference_wall)
            self.reference_walls.append(reference_wall)
        self.attempted += result.attempted
        self.failed += result.failed


COUNT_SUFFIXES = (".calls", ".evals", ".iterations", ".backtracks", ".failed_runs")


def per_layer_metrics(run: Run, setup_layers: dict, nominal_pass: float) -> dict[str, float]:
    """Medians over the traced passes, times on the reference's nominal scale."""
    out = {}
    for name in run.layers[0]:
        values = [layers[name] for layers in run.layers]
        if name.endswith(COUNT_SUFFIXES) or "share" in name or "ratio" in name:
            if any(v != values[0] for v in values):
                raise CorrectnessError(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    # in-memory workloads generate their data in set-up, cli-pipeline in the pass
    out["data.gen_gaussian.s"] += setup_layers["data.gen_gaussian.s"]
    scale = nominal_pass / statistics.median(run.reference_walls)
    for name in out:
        if name.endswith("mb_per_s"):
            out[name] /= scale
        elif name.endswith(("_s", ".s", ".s_per_eval")):
            out[name] *= scale
    out["trace.wall_s"] = nominal_pass * statistics.median(run.ratios[True])
    out["trace.untraced_wall_s"] = nominal_pass * statistics.median(run.ratios[False])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.overhead_share"] = out["trace.overhead_s"] / out["trace.untraced_wall_s"]
    out["reference.measured_pass_s"] = statistics.median(run.reference_walls)
    out["fits.attempted"] = run.first.attempted
    out["fits.failed"] = run.first.failed
    out["quality.direct_win_share"] = (
        run.first.wins / run.first.comparisons if run.first.comparisons else 0.0
    )
    return out


def _reference_file() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def check_quality(workload: str, seed: int, size: str, quality: dict) -> str:
    """Compare quality with the recorded reference; returns what was checked."""
    if size != "full":
        return "tiny size: no reference"
    for name in QUALITY_METRICS:
        if name not in quality:
            raise CorrectnessError(f"no completed fit gives {name}")
        if not quality[name] > QUALITY_FLOOR:
            raise CorrectnessError(f"{name} = {quality[name]!r} is at chance level")
    reference = _reference_file()
    recorded = reference["quality"].get(workload, {}).get(str(seed))
    if recorded is None:
        return "no reference for this seed"
    blas = blas_info()
    if (blas["threads"], blas["core"]) != (reference["blas"]["threads"], reference["blas"]["core"]):
        return "reference skipped: recorded with another BLAS thread count or kernel"
    if recorded != quality:
        raise CorrectnessError(f"quality {quality} differs from the reference {recorded}")
    return "equal to the reference"


def run_benchmark(name: str, seed: int, seconds: float, traced: bool, size: str = "full",
                  degenerate: bool = False, setup_probes: bool = True) -> dict:
    """Set up, run passes for `seconds`, check them; the result dictionary."""
    # nominal seconds of the frozen reference; tiny sizes report measured seconds
    nominal = _reference_file()["nominal_s"][name] if size == "full" else None
    probes = []
    for _ in range(SETUP_PROBES if setup_probes else 0):
        probes.append((_probe_seconds(name, seed, False), _probe_seconds(name, seed, True)))
    workload = make_workload(name, seed, size, degenerate)
    reference = ReferenceWorker(name, seed, size)
    run = Run(workload, reference, traced)
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    try:
        workload.setup()
        setup_layers = run.traced_setup() if traced else {}
        started = time.perf_counter()
        run.one_pass(False, timed=False)  # warm-up: caches, allocator, file pages
        traced_next = False
        while True:
            run.one_pass(traced_next)
            if traced:
                traced_next = not traced_next
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (not traced or (run.walls[True] and not traced_next)):
                break
        details["quality_check"] = check_quality(name, seed, size, run.first.quality)
        share = run.first.failed / run.first.attempted
        nominal_pass = nominal["pass"] if nominal else statistics.median(run.reference_walls)
        if traced:
            metrics = per_layer_metrics(run, setup_layers, nominal_pass)
        else:
            setup_ratio = statistics.median(c / r for c, r in probes) if probes else 0.0
            metrics = {
                "wall_s": nominal_pass * statistics.median(run.ratios[False]),
                "setup_s": (nominal["setup"] if nominal else 1.0) * setup_ratio,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "completed_fit_share": 1.0 - share,
            }
            metrics.update({k: run.first.quality[k] for k in QUALITY_METRICS})
        result = {"correct": True, "attempted": run.attempted, "failed": run.failed,
                  "metrics": metrics}
        details.update({
            "measured_walls_untraced_s": run.walls[False],
            "measured_walls_traced_s": run.walls[True],
            "reference_walls_s": run.reference_walls,
            "nominal_s": nominal,
            "setup_probes_s": probes,
            "quality": run.first.quality,
            "direct_wins": [run.first.wins, run.first.comparisons],
            "failed_fit_share": share,
        })
    except CorrectnessError as exc:
        details["error"] = str(exc)
    finally:
        reference.close()
        remove_workdir(workload)
    result["details"] = details
    if run.tracer is not None:
        result["spans"] = run.tracer.spans
    return result


def with_units(metrics: dict[str, float], declared: list[dict]) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def _write_outputs(name: str, seed: int, traced: bool, result: dict, prov: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT / f"spans-{name}-seed{seed}.csv", "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (span_name, start, end, parent) in enumerate(spans):
                fh.write(f"{i},{span_name},{start!r},{end!r},{parent}\n")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up probes and the reference worker are this script too
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_package()
    if args.reference_worker:
        return reference_worker_main(args.workload, args.seed, args.size)
    if args.setup_probe:
        workload = make_workload(args.workload, args.seed, reference=args.reference)
        workload.setup()
        print(repr(time.perf_counter()))
        remove_workdir(workload)
        return 0

    traced = bool(args.trace)
    result = run_benchmark(args.workload, args.seed, args.seconds, traced)
    prov = provenance(args.workload, args.seed, traced)
    if result["correct"]:
        metrics = result["metrics"]
        if traced:
            prov["tracing_overhead_s"] = metrics["trace.overhead_s"]
            prov["tracing_overhead_share"] = metrics["trace.overhead_share"]
        result["metrics"] = with_units(metrics, declared["per_layer" if traced else "end_to_end"])
    _write_outputs(args.workload, args.seed, traced, result, prov)
    details = result.pop("details")
    print("# provenance " + json.dumps(prov))
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
