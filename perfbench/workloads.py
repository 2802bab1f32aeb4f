"""The benchmark's three workloads and the checks on their outputs.

Each workload is built from a seed, does its input generation in
``setup`` and one unit of measured work in ``run_pass``, whose raw
outputs ``check`` then verifies (outside the timed region) and turns into
a PassResult: held-out quality, fit counts and a fingerprint of every
output with timing removed.  Passes of one run must agree on all three.
``run_pass`` calls ``pause()`` after every fit or CLI command; the
benchmark uses it to run the same step of the frozen reference in
between (see run.py).

Pass code calls the package it is given (the checkout's ``momentclf``
or the frozen ``momentclf_ref``) through module attributes, so that an
installed tracer sees the calls.  Only the checkout's passes are checked,
with its own functions, after the tracer is uninstalled; this module
imports neither package itself, so the reference process loads only the
frozen one.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np


# Failures a fit may raise; the harness records the same ones as failed runs.
FIT_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)

OUTLIER_PCT = 10.0

# Each workload's class distributions and sample pool are fixed, as a real
# dataset would be; --seed draws the splits, label flips and random starts.
# Letting the seed redraw the class means as well moved held-out accuracy
# by about 6% and wall time by 15-27% between seeds, more than any useful
# regression bound.  The generator seeds are those of acceptance criteria
# 05/06 (2) and 07 (7).
DATA_SEEDS = {"cli-pipeline": 3, "outlier-splits": 2, "wide-scarce": 7}

SIZES = {
    "cli-pipeline": {
        "full": {"d": 50, "n": 1000, "folds": 5},
        "tiny": {"d": 5, "n": 120, "folds": 3},
    },
    "outlier-splits": {
        "full": {"d": 50, "n": 1000, "splits": 10},
        "tiny": {"d": 5, "n": 200, "splits": 2},
    },
    "wide-scarce": {
        "full": {"d": 800, "n": 1000, "splits": 4},
        "tiny": {"d": 40, "n": 120, "splits": 2},
    },
}


class CorrectnessError(Exception):
    """An output of the program is wrong or differs between passes."""


@dataclass
class PassResult:
    """Outcome of one pass; everything but wall time repeats across passes."""

    quality: dict[str, float]
    attempted: int
    failed: int
    fingerprint: str
    wins: int = 0
    comparisons: int = 0
    failed_runs: int = 0  # cross-validation runs the harness recorded as failed


class Fit(NamedTuple):
    """One in-memory fit as the pass left it; model is None when it raised."""

    split: int
    method: str
    test: object
    model: object
    trace: object
    accuracy: float | None = None
    auc: float | None = None
    error: str = ""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorrectnessError(message)


def reference_accuracy(features, labels, w, intercept=0.0) -> float:
    """Accuracy recomputed from the weights, independent of momentclf.metrics."""
    predicted = np.where(features @ w + intercept >= 0.0, 1, -1)
    return float(np.mean(predicted == labels))


def reference_auc(features, labels, w) -> float:
    """AUC by enumerating every positive-negative pair (ties earn nothing)."""
    scores = features @ w
    sp = scores[labels == 1]
    sn = scores[labels == -1]
    return float(np.count_nonzero(sp[:, None] > sn[None, :])) / (sp.shape[0] * sn.shape[0])


def _wins(pairs) -> tuple[int, int]:
    """Comparisons the direct method wins outright, and how many there were."""
    return sum(1 for ours, base in pairs if ours > base), len(pairs)


class InMemoryWorkload:
    """Contaminated-train / clean-test splits of one generated base set.

    Mirrors the protocol of acceptance criteria 05-07: each split trains on
    one half with OUTLIER_PCT percent of each class's labels flipped and
    scores on the untouched other half; the moment-based methods share one
    moment estimate of the contaminated half.
    """

    methods: tuple[str, ...] = ()
    mean_scale = 0.0

    def __init__(self, seed: int, package, size: str = "full", degenerate: bool = False):
        self.seed = seed
        self.pkg = package
        self.size = SIZES[self.name][size]
        self.degenerate = degenerate
        self.base = None

    def setup(self) -> None:
        spec = self.pkg.GaussianSpec(
            d=self.size["d"], n=self.size["n"], prior_pos=0.5,
            seed=DATA_SEEDS[self.name], mean_scale=self.mean_scale,
        )
        self.base, _ = self.pkg.gen_gaussian(spec)

    def _fit(self, method, train, moments, split_seed):
        mc = self.pkg
        if method == "lda":
            return mc.lda_fit(moments), None
        if method == "error-direct":
            objective = mc.error_objective(moments)
            w0 = mc.init_w0_error(moments)
        elif method == "auc-direct":
            objective = mc.auc_objective(mc.auc_moments(moments))
            w0 = mc.init_w0_error(moments)
        elif method == "logistic":
            objective = mc.logistic_objective(train, 1.0 / train.n)
            w0 = mc.init_random(train.dim, split_seed + 1)
        else:
            objective = mc.hinge_objective(train)
            w0 = mc.init_random(train.dim, split_seed + 2)
        return mc.gd_backtracking(objective, w0)

    def run_pass(self, pause=lambda: None) -> list[Fit]:
        """Fit every method on every split; returns the fits unchecked."""
        mc = self.pkg
        base = self.base
        fits = []
        for s in range(self.size["splits"]):
            split_seed = 1000 * self.seed + 10 * s
            train_idx, test_idx = mc.kfold_split(base.n, 2, seed=split_seed)[0]
            test = base.subset(test_idx)
            train = mc.inject_outliers(base.subset(train_idx), OUTLIER_PCT, seed=split_seed + 3)
            if self.degenerate and s == 0:
                # every row identical: the class means coincide, so the
                # moment-based fits must refuse
                train = mc.Dataset(features=np.ones_like(train.features), labels=train.labels)
            moments = None
            for method in self.methods:
                try:
                    if moments is None:
                        moments = mc.estimate_class_moments(train)
                    model, trace = self._fit(method, train, moments, split_seed)
                except FIT_ERRORS as exc:
                    fits.append(Fit(s, method, test, None, None, error=type(exc).__name__))
                else:
                    accuracy = mc.empirical_accuracy(model, test)
                    auc = mc.empirical_auc(model, test)
                    fits.append(Fit(s, method, test, model, trace, accuracy, auc))
                pause()
        return fits

    def check(self, fits: list[Fit]) -> PassResult:
        """Recompute every score independently and fingerprint the fits."""
        scores: dict[str, list[tuple[float, float]]] = {m: [] for m in self.methods}
        per_split: dict[int, dict[str, tuple[float, float]]] = {}
        digest = hashlib.sha256()
        failed = 0
        for s, method, test, model, trace, accuracy, auc, error in fits:
            if model is None:
                failed += 1
                digest.update(f"{s}|{method}|failed|{error}\n".encode())
                continue
            _require(
                accuracy == reference_accuracy(test.features, test.labels, model.w, model.intercept),
                f"split {s} {method}: accuracy {accuracy!r} disagrees with the weights",
            )
            _require(
                auc == reference_auc(test.features, test.labels, model.w),
                f"split {s} {method}: auc {auc!r} disagrees with pair enumeration",
            )
            if trace is not None:
                values = [trace.initial_value] + [r.value for r in trace.records]
                _require(
                    all(b <= a for a, b in zip(values, values[1:])),
                    f"split {s} {method}: objective rose during descent",
                )
                digest.update(f"{trace.iterations}|{trace.reason}|{trace.final_value!r}|".encode())
            digest.update(f"{s}|{method}|{accuracy!r}|{auc!r}|".encode())
            digest.update(model.w.tobytes())
            per_split.setdefault(s, {})[method] = (accuracy, auc)
            scores[method].append((accuracy, auc))
        pairs = []
        for found in per_split.values():
            for ours, base_method, index in (("error-direct", "logistic", 0),
                                              ("auc-direct", "hinge", 1),
                                              ("error-direct", "lda", 0)):
                if ours in found and base_method in found:
                    pairs.append((found[ours][index], found[base_method][index]))
        wins, comparisons = _wins(pairs)
        return PassResult(
            quality=_quality(scores),
            attempted=len(fits),
            failed=failed,
            fingerprint=digest.hexdigest(),
            wins=wins,
            comparisons=comparisons,
        )


def _quality(scores: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    """Mean held-out accuracy and AUC per method, over completed fits."""
    out = {}
    for method, pairs in scores.items():
        if pairs:
            out[f"acc.{method}"] = float(np.mean([p[0] for p in pairs]))
            out[f"auc.{method}"] = float(np.mean([p[1] for p in pairs]))
    return out


class OutlierSplits(InMemoryWorkload):
    """Criterion 05/06 protocol: d=50, all five methods, hinge-dominated."""

    name = "outlier-splits"
    methods = ("error-direct", "auc-direct", "logistic", "hinge", "lda")
    mean_scale = 0.55


class WideScarce(InMemoryWorkload):
    """Criterion 07 regime: d=800 with ~250 training rows per class."""

    name = "wide-scarce"
    methods = ("error-direct", "auc-direct", "lda")
    mean_scale = 0.5


# -- cli-pipeline ---------------------------------------------------------

CV_METHODS = ("error-direct", "auc-direct", "logistic", "lda")
TRAIN_METHODS = ("error-direct", "logistic")


def read_report(path: Path) -> tuple[list[list[str]], list[str], list[str]]:
    """Split a report CSV into header, per-run rows and the summary row.

    The summary row carries 7 fields under the 9-field header today
    (mean/std accuracy, mean/std auc, mean seconds after method and
    moment source), so it is told apart by its field count.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    runs = [r for r in rows if len(r) == len(header)]
    summaries = [r for r in rows if len(r) != len(header)]
    _require(len(summaries) == 1, f"{path.name}: expected one summary row, found {len(summaries)}")
    return runs, summaries[0], header


def _normalized_report(path: Path) -> str:
    """Report text with the train_seconds column and the mean seconds blanked."""
    runs, summary, header = read_report(path)
    timing = header.index("train_seconds")
    lines = [",".join(header)]
    for row in runs:
        lines.append(",".join(v if i != timing else "" for i, v in enumerate(row)))
    lines.append(",".join(summary[:-1] + [""]))
    return "\n".join(lines)


def _normalized_trace(path: Path) -> tuple[str, list[float]]:
    """Trace text with the seconds column blanked, plus its objective values."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    timing = header.index("seconds")
    value_col = header.index("objective")
    out = [lines[0]]
    values = []
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        values.append(float(fields[value_col]))
        out.append(",".join(v if i != timing else "" for i, v in enumerate(fields)))
    return "\n".join(out), values


def _read_model(path: Path) -> tuple[np.ndarray, float]:
    fields = dict(
        line.split(" ", 1) for line in path.read_text(encoding="utf-8").splitlines() if line
    )
    return np.array([float(t) for t in fields["w"].split()]), float(fields["intercept"])


class CliPipeline:
    """gen, then cv per method, then train/eval, all through cli.main in process.

    The only workload with file I/O: one LIBSVM write and eight reads of the
    generated file, z-scoring, the harness CV loop, and report, trace and
    model writing.
    """

    name = "cli-pipeline"

    def __init__(self, seed: int, package, size: str = "full", degenerate: bool = False,
                 workdir: Path | None = None):
        self.seed = seed
        self.cli = importlib.import_module(f"{package.__name__}.cli")
        self.size = SIZES[self.name][size]
        self.degenerate = degenerate
        self.workdir = workdir
        self.spec = package.GaussianSpec(
            d=self.size["d"], n=self.size["n"], prior_pos=0.5, outlier_pct=5.0,
            seed=DATA_SEEDS[self.name], mean_scale=0.3,
        )
        self.tracer = None

    def setup(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)

    def _cli(self, command: str, argv: list[str], pause) -> tuple[int, str]:
        out = io.StringIO()
        err = io.StringIO()
        index = self.tracer.begin(f"cli.{command}") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([command] + argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        finally:
            if index is not None:
                self.tracer.end(index)
        pause()
        return code, out.getvalue()

    def run_pass(self, pause=lambda: None) -> list[tuple[str, tuple[int, str]]]:
        """Run every command of the pass; returns their exit codes and output."""
        w = self.workdir
        data_path = w / "data.svm"
        s = self.spec
        commands = []
        commands.append(("gen", self._cli("gen", [
            "--d", str(s.d), "--n", str(s.n), "--prior-pos", str(s.prior_pos),
            "--outlier-pct", str(s.outlier_pct), "--mean-scale", str(s.mean_scale),
            "--seed", str(s.seed), "--out", str(data_path),
        ], pause)))
        folds = str(self.size["folds"])
        for method in CV_METHODS:
            commands.append((f"cv {method}", self._cli("cv", [
                "--method", method, "--data", str(data_path), "--folds", folds,
                "--repeats", "1", "--seed", str(self.seed),
                "--report-out", str(w / f"cv-{method}.csv"),
            ], pause)))
        if self.degenerate:
            # one fold cannot be cross-validated; the CLI must exit non-zero
            commands.append(("cv degenerate", self._cli("cv", [
                "--method", "lda", "--data", str(data_path), "--folds", "1",
                "--report-out", str(w / "cv-degenerate.csv"),
            ], pause)))
        for method in TRAIN_METHODS:
            commands.append((f"train {method}", self._cli("train", [
                "--method", method, "--data", str(data_path), "--normalize",
                "--seed", str(self.seed), "--model-out", str(w / f"{method}.model"),
                "--trace-out", str(w / f"{method}.trace.csv"),
            ], pause)))
            commands.append((f"eval {method}", self._cli("eval", [
                "--model", str(w / f"{method}.model"), "--data", str(data_path), "--normalize",
            ], pause)))
        return commands

    def check(self, commands) -> PassResult:
        """Check every output file and printed number of one pass."""
        from momentclf.data import format_libsvm, gen_gaussian, parse_libsvm

        w = self.workdir
        failed_commands = [name for name, (code, _) in commands if code != 0]
        for name in failed_commands:
            _require(name == "cv degenerate", f"`{name}` exited non-zero")
        outputs = dict(commands)
        digest = hashlib.sha256()

        text = (w / "data.svm").read_text(encoding="utf-8")
        dataset = parse_libsvm(text)
        _require(format_libsvm(dataset) == text, "format_libsvm(parse_libsvm(file)) changed the file")
        again = parse_libsvm(format_libsvm(dataset))
        expected, _ = gen_gaussian(self.spec)
        for other, what in ((again, "the round trip"), (expected, "the generator")):
            _require(
                other.features.tobytes() == dataset.features.tobytes()
                and other.labels.tobytes() == dataset.labels.tobytes(),
                f"parsed file differs from {what} bit for bit",
            )
        digest.update(text.encode())

        per_fold: dict[str, list[tuple[float, float]]] = {}
        failed_runs = total_runs = 0
        for method in CV_METHODS:
            path = w / f"cv-{method}.csv"
            runs, summary, header = read_report(path)
            acc_col, auc_col = header.index("accuracy"), header.index("auc")
            done = [r for r in runs if r[acc_col] != ""]
            failed_runs += len(runs) - len(done)
            total_runs += len(runs)
            folds = [(float(r[acc_col]), float(r[auc_col])) for r in done]
            _require(len(runs) == self.size["folds"], f"{path.name}: {len(runs)} runs")
            if folds:
                _require(
                    float(summary[2]) == float(np.mean([f[0] for f in folds]))
                    and float(summary[4]) == float(np.mean([f[1] for f in folds])),
                    f"{path.name}: summary row disagrees with its runs",
                )
            per_fold[method] = folds
            digest.update(_normalized_report(path).encode())

        for method in TRAIN_METHODS:
            code, out = outputs[f"train {method}"]
            trace_text, values = _normalized_trace(w / f"{method}.trace.csv")
            stopped = [line for line in out.splitlines() if line.startswith("stopped after")]
            _require(len(stopped) == 1, f"train {method}: no stop line")
            steps = int(stopped[0].split()[2])
            _require(steps == len(values), f"train {method}: trace has {len(values)} rows, says {steps}")
            _require(all(b <= a for a, b in zip(values, values[1:])),
                     f"train {method}: objective rose during descent")
            weights, intercept = _read_model(w / f"{method}.model")
            _, eval_out = outputs[f"eval {method}"]
            printed = dict(line.split(" ", 1) for line in eval_out.splitlines())
            X = dataset.features
            mean = X.mean(axis=0)
            std = X.std(axis=0)
            Xn = (X - mean) / np.where(std < 1e-12, 1.0, std)
            _require(
                float(printed["accuracy"]) == reference_accuracy(Xn, dataset.labels, weights, intercept),
                f"eval {method}: printed accuracy disagrees with the saved weights",
            )
            _require(
                float(printed["auc"]) == reference_auc(Xn, dataset.labels, weights),
                f"eval {method}: printed auc disagrees with pair enumeration",
            )
            digest.update(trace_text.encode())
            digest.update((w / f"{method}.model").read_bytes())
            digest.update(eval_out.encode())

        pairs = []
        for base_method in ("logistic", "lda"):
            if len(per_fold["error-direct"]) == len(per_fold[base_method]) == self.size["folds"]:
                pairs += [(ours[0], base[0]) for ours, base in
                          zip(per_fold["error-direct"], per_fold[base_method])]
        wins, comparisons = _wins(pairs)
        return PassResult(
            quality=_quality(per_fold),
            attempted=total_runs + len(commands),
            failed=failed_runs + len(failed_commands),
            fingerprint=digest.hexdigest(),
            wins=wins,
            comparisons=comparisons,
            failed_runs=failed_runs,
        )


WORKLOADS = {"cli-pipeline": CliPipeline, "outlier-splits": OutlierSplits, "wide-scarce": WideScarce}
