"""Cross-validated benchmark runner and CSV reporting.

run_experiment drives one (method, data source) pair through repeated
k-fold cross-validation and collects per-run metrics plus optimizer
traces; emit_report / emit_trace write the audit CSVs.  Everything is
seeded, so a config reproduces the same numbers byte for byte (wall-clock
columns excepted).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Union

import numpy as np

from .data import (
    Dataset,
    GaussianSpec,
    NormalizationStats,
    apply_zscore,
    gen_gaussian,
    kfold_split,
    load_libsvm,
    load_moments,
    normalize_zscore,
)
from .errors import _check_ints, _write_lines
from .metrics import evaluate_model
from .model import LinearModel
from .moments import ClassMoments, _built, auc_moments, estimate_class_moments
from .objectives import auc_objective, error_objective
from .optimizer import LineSearchConfig, OptimizationTrace, gd_backtracking, init_random, init_w0_error
from .surrogates import hinge_objective, lda_fit, logistic_objective

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "RunResult",
    "ExperimentReport",
    "run_experiment",
    "emit_report",
    "emit_trace",
]

METHODS = ("error-direct", "auc-direct", "logistic", "hinge", "lda")
# Methods that see the data only through class moments; only they can use exact ones.
MOMENT_METHODS = ("error-direct", "auc-direct", "lda")

TRACE_HEADER = "iter,objective,grad_norm,step,backtracks,seconds"

DataSource = Union[GaussianSpec, str]


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark cell: a method, a data source, and the CV protocol.

    moments picks where the MOMENT_METHODS, the only methods that take
    exact moments, get their Gaussian moments: None estimates them on each
    training fold, a path reads exact ones from that sidecar, for file and
    generated data alike, and "generator" takes a GaussianSpec data
    source's exact moments.  The report labels the first "empirical" and
    the other two "exact".  A file is z-scored once, up front, and
    generated data is left alone; per_fold_norm instead learns the z-score
    on each training fold, for files and generated data alike, and applies
    it to the test fold.  Either way exact moments are mapped through the
    same z-score, so every fit sees features and moments in one space.
    """

    method: str
    data: DataSource
    moments: str | None = None
    folds: int = 5
    repeats: int = 4
    optimizer: LineSearchConfig = LineSearchConfig()
    seed: int = 0
    per_fold_norm: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not isinstance(self.data, GaussianSpec) and not isinstance(self.data, str):
            raise ValueError("data must be a GaussianSpec or a file path string")
        _check_ints(self, folds=2, repeats=1, seed=0)
        if not isinstance(self.per_fold_norm, bool):
            raise TypeError(f"per_fold_norm must be a bool, got {self.per_fold_norm!r}")
        if not (self.moments is None or isinstance(self.moments, str)):
            raise TypeError(f"moments must be a str or None, got {self.moments!r}")
        if not isinstance(self.optimizer, LineSearchConfig):
            raise TypeError(f"optimizer must be a LineSearchConfig, got {self.optimizer!r}")
        _check_source(self.method, self.data, self.moments)

    @property
    def moment_source(self) -> str:
        """The report's label for moments: "empirical" or "exact"."""
        return "empirical" if self.moments is None else "exact"


@dataclass(frozen=True)
class RunResult:
    """Metrics and optimizer trace of one (repeat, fold) run.

    A failed run carries the reason instead.  trace is None for
    closed-form lda and for failed runs.  The fields before trace, in
    order, are the report row's columns after method and moment source.
    """

    run: int
    fold: int
    repeat: int
    accuracy: float | None = None
    auc: float | None = None
    train_seconds: float | None = None
    reason: str = ""
    trace: OptimizationTrace | None = None

    @property
    def failed(self) -> bool:
        return bool(self.reason)


_REPORT_FIELDS = tuple(f.name for f in fields(RunResult) if f.name != "trace")
REPORT_HEADER = ",".join(("method", "moment_source", *_REPORT_FIELDS))


class ReportSummary(NamedTuple):
    """Aggregates of a report's completed runs, in the summary row's order."""

    mean_accuracy: float
    std_accuracy: float
    mean_auc: float
    std_auc: float
    mean_seconds: float


@dataclass
class ExperimentReport:
    """All runs of one config; summary() aggregates them."""

    config: ExperimentConfig
    runs: list[RunResult] = field(default_factory=list)

    @property
    def completed_runs(self) -> int:
        return sum(1 for r in self.runs if not r.failed)

    def summary(self) -> ReportSummary:
        """Means over the completed runs, nan without one, and stds with the
        (runs - 1) denominator, nan below two."""
        done = [r for r in self.runs if not r.failed]
        nan = float("nan")

        def stats(name: str) -> tuple[float, float]:
            values = np.array([getattr(r, name) for r in done], dtype=float)
            return (float(values.mean()) if done else nan,
                    float(values.std(ddof=1)) if len(done) >= 2 else nan)

        (mean_acc, std_acc), (mean_auc, std_auc), (mean_seconds, _) = map(
            stats, ("accuracy", "auc", "train_seconds"))
        return ReportSummary(mean_acc, std_acc, mean_auc, std_auc, mean_seconds)


def _check_source(method: str, data: DataSource, moments: str | None) -> None:
    """Check a method and data source against its moments.

    Exact moments come from the generator or a sidecar and feed only the
    MOMENT_METHODS.
    """
    if moments is None:
        return
    if method not in MOMENT_METHODS:
        raise ValueError(f"{method} trains on samples, not moments; exact moments "
                         f"apply only to {', '.join(MOMENT_METHODS)}")
    if moments == "generator" and not isinstance(data, GaussianSpec):
        raise ValueError("moments 'generator' needs generated data; "
                         "a file's exact moments come from a sidecar path")


def load_source(
    method: str,
    data: DataSource,
    moments: str | None = None,
    normalize: bool = False,
) -> tuple[Dataset, ClassMoments | None]:
    """Load or generate a dataset and the exact moments method should use.

    The checks are ExperimentConfig's, and a sidecar path in moments must
    match the data's dimension: a file is read in the sidecar's dimension
    (see load_libsvm), and generated data must have it.  The returned
    moments are None when moments is.  normalize z-scores the data with its
    own statistics and maps the exact moments through the same z-score.
    """
    _check_source(method, data, moments)
    exact = None if moments in (None, "generator") else load_moments(moments)
    if isinstance(data, GaussianSpec):
        dataset, generated = gen_gaussian(data)
        if moments == "generator":
            exact = generated
    else:
        dataset = load_libsvm(data, None if exact is None else exact.dim)
    if exact is not None and exact.dim != dataset.dim:
        raise ValueError(f"moments d={exact.dim} does not match dataset d={dataset.dim}")
    if normalize:
        dataset, stats = normalize_zscore(dataset)
        exact = _zscored(exact, stats)
    return dataset, exact


def _zscored(moments: ClassMoments | None, stats: NormalizationStats) -> ClassMoments | None:
    """Moments after z-scoring by stats: (mu - m) / s and sigma / ss', still exactly symmetric."""
    if moments is None:
        return None
    m, s, outer = stats.mean, stats.scale, np.outer(stats.scale, stats.scale)
    return _built(ClassMoments, mu_pos=(moments.mu_pos - m) / s, mu_neg=(moments.mu_neg - m) / s,
                  sigma_pos=moments.sigma_pos / outer, sigma_neg=moments.sigma_neg / outer,
                  prior_pos=moments.prior_pos, prior_neg=moments.prior_neg)


def fit(
    method: str,
    train: Dataset,
    exact_moments: ClassMoments | None,
    optimizer: LineSearchConfig,
    seed: int,
) -> tuple[LinearModel, OptimizationTrace | None]:
    """Train one method on one training set; the only method dispatch.

    The MOMENT_METHODS use exact_moments when given and otherwise estimate
    moments from train.  Logistic and hinge start from init_random(seed),
    and logistic's ridge weight is 1/n.  Closed-form lda returns no trace.
    """
    if method in MOMENT_METHODS:
        moments = exact_moments if exact_moments is not None else estimate_class_moments(train)
        if method == "lda":
            return lda_fit(moments), None
        w0 = init_w0_error(moments)
        if method == "error-direct":
            objective = error_objective(moments)
        else:
            objective = auc_objective(auc_moments(moments))
    elif method == "logistic":
        w0 = init_random(train.dim, seed)
        objective = logistic_objective(train, 1.0 / train.n)
    else:  # hinge
        w0 = init_random(train.dim, seed)
        objective = hinge_objective(train)
    return gd_backtracking(objective, w0, optimizer)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run repeats x folds cross-validation for one config.

    Fold permutations use seed + repeat index; per-run random starts use a
    seed derived from (seed, run index).  A run that fails (degenerate
    fold, singular model, ...) is recorded with its reason and skipped in
    the aggregates rather than aborting the sweep.
    """
    dataset, exact_moments = load_source(
        config.method, config.data, config.moments,
        normalize=isinstance(config.data, str) and not config.per_fold_norm,
    )
    report = ExperimentReport(config=config)
    for repeat in range(config.repeats):
        splits = kfold_split(dataset.n, config.folds, seed=config.seed + repeat)
        for fold, (train_idx, test_idx) in enumerate(splits):
            run_no = repeat * config.folds + fold
            run_seed = config.seed + 7919 * (run_no + 1)
            try:
                train = dataset.subset(train_idx)
                test = dataset.subset(test_idx)
                moments = exact_moments
                if config.per_fold_norm:
                    train, stats = normalize_zscore(train)
                    test = apply_zscore(test, stats)
                    moments = _zscored(moments, stats)
                started = time.perf_counter()
                model, trace = fit(config.method, train, moments, config.optimizer, run_seed)
                train_seconds = time.perf_counter() - started
                scored = evaluate_model(model, test)
                result = RunResult(run_no, fold, repeat, scored.accuracy, scored.auc,
                                   train_seconds, trace=trace)
            except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
                result = RunResult(run_no, fold, repeat, reason=f"{type(exc).__name__}: {exc}")
            report.runs.append(result)
    return report


def _cell(value) -> str:
    """One report field: None empty, a str on one line without commas, an
    int as written, a float as its repr."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace("\n", " ").replace(",", ";")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_report(report: ExperimentReport, path) -> None:
    """Write one row per run plus one summary row as CSV.

    A run row is method and moment source, then RunResult's fields in
    declaration order without trace; REPORT_HEADER names them.  The last
    row is method and moment source, then ReportSummary's fields:
    mean_accuracy, std_accuracy, mean_auc, std_auc, mean_seconds.  Floats
    carry full round-trip precision; a failed run has empty metric fields
    and its reason, on one line with commas as semicolons, last.
    """
    head = [report.config.method, report.config.moment_source]
    rows = [head + [getattr(run, name) for name in _REPORT_FIELDS] for run in report.runs]
    rows.append(head + list(report.summary()))
    _write_lines(path, [REPORT_HEADER, *(",".join(map(_cell, row)) for row in rows)])


def emit_trace(trace: OptimizationTrace, path) -> None:
    """Write one optimizer trace as CSV, one row per accepted iteration.

    The columns follow TraceRecord's field order, each field its repr.
    """
    _write_lines(path, [TRACE_HEADER, *(",".join(map(repr, record)) for record in trace.records)])
