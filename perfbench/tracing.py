"""In-memory span tracing of momentclf, installed from outside the package.

The tracer replaces the package's public functions at the names their
callers look them up (``momentclf.harness.load_libsvm``,
``momentclf.cli.gd_backtracking``, ``Dataset.subset``, the objective
closures returned by ``error_objective`` and its siblings, ...) with
wrappers that record one span per call: name, start, end and parent
span.  Spans stay in memory until the run ends.  ``uninstall`` puts every
original back, so untraced passes run the unmodified package.

A span's self time is its duration minus the durations of its direct
children; because calls nest strictly, the self times of one pass add
up to the duration of the pass's root span.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

import numpy as np

import momentclf
from momentclf import cli, data, harness, optimizer

# Method name each objective factory trains, and the span its closure records.
OBJECTIVE_FACTORIES = {
    "error_objective": ("error-direct", "objectives.error"),
    "auc_objective": ("auc-direct", "objectives.auc"),
    "logistic_objective": ("logistic", "surrogates.logistic"),
    "hinge_objective": ("hinge", "surrogates.hinge"),
}

# Public functions timed as one span per call, by the name they are defined under.
TIMED_FUNCTIONS = {
    "gen_gaussian": "data.gen_gaussian",
    "inject_outliers": "data.inject_outliers",
    "kfold_split": "data.kfold_split",
    "load_libsvm": "data.load_libsvm",
    "format_libsvm": "data.format_libsvm",
    "normalize_zscore": "data.normalize_zscore",
    "estimate_class_moments": "moments.estimate",
    "auc_moments": "moments.auc_moments",
    "lda_fit": "surrogates.lda_fit",
    "empirical_accuracy": "metrics.score",
    "empirical_auc": "metrics.score",
    "evaluate_model": "metrics.score",
    "run_experiment": "harness.run_experiment",
    "emit_report": "harness.emit_report",
    "emit_trace": "harness.emit_trace",
    "save_model": "model.save",
    "load_model": "model.load",
}

# Namespaces callers use: the package itself (in-memory workloads), the
# harness and the CLI.  Inside ``data`` only the calls one data function
# makes to another are wrapped, so that save_libsvm's formatting and the
# generator's label flips show as their own spans.
CALLER_NAMESPACES = (momentclf, harness, cli)
DATA_INTERNAL = ("format_libsvm", "inject_outliers")

METHODS_WITH_OPTIMIZER = ("error-direct", "auc-direct", "logistic", "hinge")


@dataclass(frozen=True)
class FitRecord:
    """What one gd_backtracking call did, read from its OptimizationTrace."""

    method: str
    iterations: int
    backtracks: int
    evaluations: int
    reason: str


class Tracer:
    """Span recorder plus the install/uninstall of wrappers around momentclf."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.fits: list[FitRecord] = []
        self.bytes_loaded = 0
        self.count_mismatches: list[str] = []
        self._evals = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    # -- wrappers with counts ------------------------------------------

    def _load_wrapper(self, fn):
        timed = self.timed("data.load_libsvm", fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            self.bytes_loaded += os.path.getsize(path)
            return timed(path, *args, **kwargs)

        return wrapper

    def _factory_wrapper(self, fn, method: str, span: str):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            objective = fn(*args, **kwargs)

            def evaluate(w):
                self._evals += 1
                index = self.begin(span)
                try:
                    return objective(w)
                finally:
                    self.end(index)

            evaluate.bench_method = method
            return evaluate

        return factory

    def _gd_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            method = getattr(objective, "bench_method", "unknown")
            config = kwargs.get("config", args[1] if len(args) > 1 else optimizer.LineSearchConfig())
            evals_before = self._evals
            index = self.begin(f"optimizer.{method}")
            try:
                model, trace = fn(objective, *args, **kwargs)
            except Exception as exc:
                self.end(index)
                partial = getattr(exc, "partial_trace", None)
                iterations = partial.iterations if partial is not None else 0
                self.fits.append(
                    FitRecord(method, iterations, 0, self._evals - evals_before, "error")
                )
                raise
            self.end(index)
            self._record_fit(method, trace, config, self._evals - evals_before)
            return model, trace

        return wrapper

    def _record_fit(self, method, trace, config, evaluations) -> None:
        # The trace stores cumulative backtracks on accepted steps only; a
        # final line search that fails rejects max_backtracks + 1 trial steps
        # that no record carries.  The evaluation count cross-checks both.
        backtracks = trace.records[-1].backtracks if trace.records else 0
        if trace.reason == optimizer.REASON_LINE_SEARCH:
            backtracks += config.max_backtracks + 1
        if evaluations != 1 + trace.iterations + backtracks:
            self.count_mismatches.append(
                f"{method}: {evaluations} evaluations but trace says "
                f"{trace.iterations} steps and {backtracks} backtracks"
            )
        self.fits.append(FitRecord(method, trace.iterations, backtracks, evaluations, trace.reason))

    # -- install -------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for name, span in TIMED_FUNCTIONS.items():
            original = getattr(momentclf, name)
            replacements[original] = (
                self._load_wrapper(original) if name == "load_libsvm" else self.timed(span, original)
            )
        for name, (method, span) in OBJECTIVE_FACTORIES.items():
            original = getattr(momentclf, name)
            replacements[original] = self._factory_wrapper(original, method, span)
        replacements[optimizer.gd_backtracking] = self._gd_wrapper(optimizer.gd_backtracking)
        for namespace in CALLER_NAMESPACES:
            for attr, value in list(vars(namespace).items()):
                if callable(value) and value in replacements:
                    self._patch(namespace, attr, replacements[value])
        for name in DATA_INTERNAL:
            self._patch(data, name, replacements[getattr(data, name)])
        self._patch(data.Dataset, "subset", self.timed("data.subset", data.Dataset.subset))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def self_times(spans: list[list]) -> np.ndarray:
    """Self time of every span: its duration minus its direct children's."""
    durations = np.array([s[2] - s[1] for s in spans])
    self_s = durations.copy()
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_s[span[3]] -= durations[i]
    return self_s


def layer_metrics(spans: list[list], fits: list[FitRecord], bytes_loaded: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass, every name present (0 if unused)."""
    self_s = self_times(spans)
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(spans):
        name = span[0]
        # a span nested in one of its own name is already inside the outer one
        parent = span[3]
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + (span[2] - span[1])
        own[name] = own.get(name, 0.0) + float(self_s[i])
        calls[name] = calls.get(name, 0) + 1

    def incl(name):
        return inclusive.get(name, 0.0)

    def per_call(name):
        return incl(name) / calls[name] if calls.get(name) else 0.0

    load_s = incl("data.load_libsvm")
    out = {
        "data.load_libsvm.s": load_s,
        "data.load_libsvm.calls": calls.get("data.load_libsvm", 0),
        "data.load_libsvm.mb_per_s": bytes_loaded / 1e6 / load_s if load_s > 0 else 0.0,
    }
    for layer in ("format_libsvm", "normalize_zscore", "subset", "kfold_split",
                  "inject_outliers", "gen_gaussian"):
        out[f"data.{layer}.s"] = incl(f"data.{layer}")
    out["moments.estimate.s"] = incl("moments.estimate")
    out["moments.estimate.calls"] = calls.get("moments.estimate", 0)
    out["moments.auc_moments.s"] = incl("moments.auc_moments")
    for span in ("objectives.error", "objectives.auc", "surrogates.hinge", "surrogates.logistic"):
        out[f"{span}.evals"] = calls.get(span, 0)
        out[f"{span}.s_per_eval"] = per_call(span)
    out["surrogates.lda_fit.s"] = incl("surrogates.lda_fit")
    for method in METHODS_WITH_OPTIMIZER:
        mine = [f for f in fits if f.method == method]
        trials = sum(f.evaluations - 1 for f in mine)
        accepted = sum(f.iterations for f in mine)
        prefix = f"optimizer.{method}"
        out[f"{prefix}.self_s"] = own.get(prefix, 0.0)
        out[f"{prefix}.iterations"] = accepted
        out[f"{prefix}.backtracks"] = sum(f.backtracks for f in mine)
        out[f"{prefix}.accept_ratio"] = accepted / trials if trials else 0.0
        out[f"{prefix}.maxiter_share"] = (
            sum(f.reason == optimizer.REASON_MAX_ITERS for f in mine) / len(mine) if mine else 0.0
        )
        out[f"{prefix}.linesearch_fail_share"] = (
            sum(f.reason == optimizer.REASON_LINE_SEARCH for f in mine) / len(mine) if mine else 0.0
        )
    out["metrics.score.s"] = incl("metrics.score")
    out["harness.run_experiment.self_s"] = own.get("harness.run_experiment", 0.0)
    out["harness.emit_report.s"] = incl("harness.emit_report")
    out["harness.emit_trace.s"] = incl("harness.emit_trace")
    out["model.save.s"] = incl("model.save")
    out["model.load.s"] = incl("model.load")
    for command in ("gen", "cv", "train", "eval"):
        out[f"cli.{command}.s"] = incl(f"cli.{command}")
    out["bench.self_s"] = own.get("bench.pass", 0.0)
    return out
