"""Tests for the cross-validation experiment runner and CSV emitters."""

import argparse
import dataclasses
import math

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    Dataset,
    DegenerateModelError,
    ExperimentConfig,
    ExperimentReport,
    GaussianSpec,
    LineSearchConfig,
    ParseError,
    RunResult,
    apply_zscore,
    emit_report,
    emit_trace,
    estimate_class_moments,
    evaluate_model,
    gd_backtracking,
    gen_gaussian,
    init_random,
    kfold_split,
    lda_fit,
    load_libsvm,
    load_moments,
    logistic_objective,
    normalize_zscore,
    parse_libsvm,
    run_experiment,
    save_libsvm,
    save_moments,
    std_normal_cdf,
)
from momentclf.cli import _cmd_train
from momentclf.harness import (METHODS, REPORT_HEADER, TRACE_HEADER, ReportSummary, _zscored, fit,
                               load_source)
from momentclf.objectives import ObjectiveEval
from momentclf.optimizer import OptimizationTrace, TraceRecord


@pytest.fixture(scope="module")
def bayes_files(tmp_path_factory):
    """LIBSVM file + exact-moments sidecar for a d=2 shared-covariance problem.

    Means at +-e1 with identity covariance: the Bayes accuracy is phi(1).
    """
    tmp = tmp_path_factory.mktemp("bayes")
    rng = np.random.default_rng(1234)
    n = 10_000
    X_pos = rng.standard_normal((n // 2, 2)) + np.array([1.0, 0.0])
    X_neg = rng.standard_normal((n // 2, 2)) + np.array([-1.0, 0.0])
    ds = Dataset(
        features=np.vstack([X_pos, X_neg]),
        labels=np.concatenate([np.ones(n // 2, dtype=int), -np.ones(n // 2, dtype=int)]),
    )
    data_path = tmp / "bayes.libsvm"
    save_libsvm(ds, data_path)
    truth = ClassMoments(
        np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.eye(2), np.eye(2), 0.5, 0.5
    )
    sidecar = tmp / "bayes.moments"
    save_moments(truth, sidecar)
    return data_path, sidecar


@pytest.fixture(scope="module")
def raw_files(tmp_path_factory):
    """A d=10 generated file in raw units (far from z-scored) plus its sidecar."""
    tmp = tmp_path_factory.mktemp("raw")
    ds, truth = gen_gaussian(GaussianSpec(d=10, n=2000, prior_pos=0.5, seed=3))
    data_path = tmp / "raw.libsvm"
    sidecar = tmp / "raw.moments"
    save_libsvm(ds, data_path)
    save_moments(truth, sidecar)
    return data_path, sidecar


class TestConfigValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="perceptron", data=GaussianSpec(d=2, n=20, prior_pos=0.5))

    def test_methods_constant_lists_all_five(self):
        assert set(METHODS) == {"error-direct", "auc-direct", "logistic", "hinge", "lda"}

    def test_exact_source_needs_generator_or_sidecar(self):
        with pytest.raises(ValueError, match="^moments 'generator' needs generated data; "):
            ExperimentConfig(method="error-direct", data="some/file.libsvm", moments="generator")

    def test_exact_source_allowed_for_generator(self):
        cfg = ExperimentConfig(
            method="error-direct",
            data=GaussianSpec(d=2, n=40, prior_pos=0.5),
            moments="generator",
        )
        assert cfg.moment_source == "exact"

    def test_exact_source_accepts_per_fold_normalization(self):
        spec = GaussianSpec(d=2, n=40, prior_pos=0.5)
        for data, moments in ((spec, "generator"), (spec, "some/file.moments"),
                              ("some/file.libsvm", "some/file.moments")):
            cfg = ExperimentConfig(method="error-direct", data=data, moments=moments,
                                   per_fold_norm=True)
            assert cfg.moment_source == "exact"

    @pytest.mark.parametrize("field", ["moment_source", "moments_path"])
    def test_two_field_spelling_is_gone(self, field):
        # moments alone says where exact moments come from
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            ExperimentConfig(method="lda", data="some/file.libsvm", **{field: "exact"})

    @pytest.mark.parametrize("build", [
        lambda: GaussianSpec(d=2, n=40, prior_pos=0.5, seed=-1),
        lambda: ExperimentConfig(method="lda", data="some/file.libsvm", seed=-1),
        lambda: init_random(3, -1),
    ])
    def test_seed_must_not_be_negative(self, build):
        # numpy refuses a negative seed only when it draws, with a message
        # that names no field
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: GaussianSpec(d=0, n=40, prior_pos=0.5), "d must be >= 1, got 0"),
        (lambda: GaussianSpec(d=2, n=0, prior_pos=0.5), "n must be >= 1, got 0"),
        (lambda: GaussianSpec(d=2, n=40, prior_pos=0.5, seed=-1), "seed must be >= 0, got -1"),
        (lambda: LineSearchConfig(max_iters=0), "max_iters must be >= 1, got 0"),
        (lambda: LineSearchConfig(max_backtracks=0), "max_backtracks must be >= 1, got 0"),
        (lambda: ExperimentConfig(method="lda", data="some/file.libsvm", folds=1),
         "folds must be >= 2, got 1"),
        (lambda: ExperimentConfig(method="lda", data="some/file.libsvm", repeats=0),
         "repeats must be >= 1, got 0"),
        (lambda: ExperimentConfig(method="lda", data="some/file.libsvm", seed=-1),
         "seed must be >= 0, got -1"),
    ], ids=["spec.d", "spec.n", "spec.seed", "max_iters", "max_backtracks", "folds", "repeats",
            "config.seed"])
    def test_int_field_one_below_its_minimum(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_int_types_are_checked_before_minimums(self):
        with pytest.raises(TypeError, match="^seed must be an int, got None$"):
            ExperimentConfig(method="lda", data="some/file.libsvm", folds=1, seed=None)

    @pytest.mark.parametrize("call, message", [
        (lambda: _cmd_train(argparse.Namespace(seed=-1)), "seed must be >= 0, got -1"),
        (lambda: init_random(0, 3), "d must be >= 1, got 0"),
        (lambda: init_random(3, -1), "seed must be >= 0, got -1"),
        (lambda: parse_libsvm("+1 1:0.5\n-1 1:1.5\n", dim=0), "dim must be >= 1, got 0"),
        (lambda: kfold_split(10, 1, seed=0), "k must be >= 2, got 1"),
    ], ids=["train.seed", "init_random.d", "init_random.seed", "parse_libsvm.dim",
            "kfold_split.k"])
    def test_bare_argument_one_below_its_minimum(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_bare_arguments_take_numpy_integers(self):
        assert init_random(np.int64(3), np.int64(0)).shape == (3,)
        assert len(kfold_split(10, np.int64(2), seed=0)) == 2
        assert parse_libsvm("+1 1:0.5\n-1 1:1.5\n", dim=np.int64(2)).dim == 2

    @pytest.mark.parametrize("field, value", [
        ("folds", "3"), ("folds", 3.0), ("repeats", True), ("seed", None),
        ("per_fold_norm", "false"), ("per_fold_norm", None),
        ("moments", 0), ("moments", True), ("optimizer", {"max_iters": 5}),
        ("optimizer", None),
    ])
    def test_fields_need_their_types(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be"):
            ExperimentConfig(method="lda", data="some/file.libsvm", **{field: value})

    def test_data_must_be_a_spec_or_a_path(self):
        with pytest.raises(ValueError, match="^data must be a GaussianSpec or a file path string$"):
            ExperimentConfig(method="lda", data=3)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    @pytest.mark.parametrize("build, field", [
        (lambda v: GaussianSpec(d=2, n=40, prior_pos=v), "prior_pos"),
        (lambda v: GaussianSpec(d=2, n=40, prior_pos=0.5, outlier_pct=v), "outlier_pct"),
        (lambda v: GaussianSpec(d=2, n=40, prior_pos=0.5, mean_scale=v), "mean_scale"),
        (lambda v: GaussianSpec(d=2, n=40, prior_pos=0.5, cov_scale=v), "cov_scale"),
        (lambda v: LineSearchConfig(c=v), "c"),
        (lambda v: LineSearchConfig(beta=v), "beta"),
        (lambda v: LineSearchConfig(alpha0=v), "alpha0"),
        (lambda v: LineSearchConfig(grad_tol_rel=v), "grad_tol_rel"),
    ])
    def test_real_fields_must_be_finite(self, build, field, value):
        # an infinite grad_tol_rel stopped every fit at iteration 0 on
        # gradient-tolerance, and an infinite scale generated no usable data;
        # an int past the float range is no finite real either
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            build(value)

    @pytest.mark.parametrize("method", ["logistic", "hinge"])
    def test_exact_source_rejects_sample_methods(self, method):
        for data, moments in ((GaussianSpec(d=2, n=40, prior_pos=0.5), "generator"),
                              ("some/file.libsvm", "some/file.moments")):
            with pytest.raises(ValueError, match=f"{method} trains on samples"):
                ExperimentConfig(method=method, data=data, moments=moments)


class TestRunExperiment:
    def test_lda_reaches_bayes_rate(self, bayes_files):
        data_path, _ = bayes_files
        report = run_experiment(ExperimentConfig(method="lda", data=str(data_path), seed=5))
        assert len(report.runs) == 20  # folds=5 x repeats=4
        bayes = std_normal_cdf(1.0)
        assert abs(report.summary().mean_accuracy - bayes) <= 0.02

    def test_exact_error_direct_at_least_matches_lda(self, bayes_files):
        data_path, sidecar = bayes_files
        lda = run_experiment(ExperimentConfig(method="lda", data=str(data_path), seed=5))
        err = run_experiment(
            ExperimentConfig(
                method="error-direct",
                data=str(data_path),
                moments=str(sidecar),
                seed=5,
            )
        )
        assert err.summary().mean_accuracy >= lda.summary().mean_accuracy

    def test_exact_source_on_a_file_is_normalized(self, raw_files):
        data_path, sidecar = raw_files
        report = run_experiment(ExperimentConfig(
            method="error-direct", data=str(data_path), moments=str(sidecar), folds=2,
            repeats=1, seed=5))
        # the same folds fitted in raw units: a boundary through the raw
        # origin misses the z-space fit
        raw_data, truth = load_libsvm(data_path), load_moments(sidecar)
        assert np.abs(raw_data.features.mean(axis=0)).max() > 0.5
        raw_accuracy = []
        for train_idx, test_idx in kfold_split(raw_data.n, 2, seed=5):
            model, _ = fit("error-direct", raw_data.subset(train_idx), truth, LineSearchConfig(),
                           seed=0)
            raw_accuracy.append(evaluate_model(model, raw_data.subset(test_idx)).accuracy)
        assert report.summary().mean_accuracy >= 0.98 > float(np.mean(raw_accuracy))
        # the features and the sidecar are z-scored with the same statistics
        dataset, exact = load_source("error-direct", str(data_path), str(sidecar), normalize=True)
        zscored, stats = normalize_zscore(raw_data)
        assert dataset.features.tobytes() == zscored.features.tobytes()
        expected = _zscored(truth, stats)
        for name in ("mu_pos", "mu_neg", "sigma_pos", "sigma_neg"):
            assert getattr(exact, name).tobytes() == getattr(expected, name).tobytes()

    def test_exact_source_per_fold_maps_each_fold(self, raw_files):
        data_path, sidecar = raw_files
        report = run_experiment(ExperimentConfig(
            method="error-direct", data=str(data_path), moments=str(sidecar), folds=2,
            repeats=1, seed=5, per_fold_norm=True))
        assert report.summary().mean_accuracy >= 0.98

    def test_failed_exact_fit_fails_every_fold(self, bayes_files, tmp_path):
        data_path, _ = bayes_files
        coincident = ClassMoments(np.zeros(2), np.zeros(2), np.eye(2), np.eye(2), 0.5, 0.5)
        sidecar = tmp_path / "coincident.moments"
        save_moments(coincident, sidecar)
        for method in ("error-direct", "auc-direct", "lda"):
            with pytest.raises(ValueError) as raised:
                fit(method, None, coincident, LineSearchConfig(), seed=0)
            report = run_experiment(ExperimentConfig(
                method=method, data=str(data_path), moments=str(sidecar), folds=2, repeats=2))
            assert len(report.runs) == 4
            assert all(r.failed for r in report.runs)
            reason = f"{type(raised.value).__name__}: {raised.value}"
            assert [r.reason for r in report.runs] == [reason] * 4

    def test_direct_method_collects_traces(self, bayes_files):
        data_path, _ = bayes_files
        report = run_experiment(
            ExperimentConfig(
                method="error-direct", data=str(data_path), folds=2, repeats=1, seed=0
            )
        )
        assert len(report.runs) == 2
        assert all(r.trace.iterations >= 1 for r in report.runs)
        # closed-form lda and failed runs carry no trace
        spec = GaussianSpec(d=3, n=200, prior_pos=0.5, seed=8)
        lda = run_experiment(ExperimentConfig(method="lda", data=spec, folds=2, repeats=1))
        assert [r.trace for r in lda.runs] == [None, None]
        failing = run_experiment(ExperimentConfig(method="error-direct", data=spec, folds=200,
                                                  repeats=1))
        assert len(failing.runs) == 200
        assert all(r.failed and r.trace is None for r in failing.runs)

    def test_generator_source_runs_all_methods(self):
        spec = GaussianSpec(d=3, n=200, prior_pos=0.5, seed=8)
        for method in METHODS:
            report = run_experiment(
                ExperimentConfig(method=method, data=spec, folds=2, repeats=1, seed=1)
            )
            assert len(report.runs) == 2
            assert all(not r.failed for r in report.runs)

    def test_runs_ordered_by_repeat_then_fold(self):
        spec = GaussianSpec(d=2, n=60, prior_pos=0.5, seed=2)
        report = run_experiment(
            ExperimentConfig(method="lda", data=spec, folds=3, repeats=2, seed=4)
        )
        order = [(r.repeat, r.fold) for r in report.runs]
        assert order == sorted(order)
        assert [r.run for r in report.runs] == list(range(6))

    def test_failed_folds_are_reported_not_raised(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset(
            features=rng.normal(size=(30, 2)),
            labels=np.concatenate([np.ones(26, dtype=int), -np.ones(4, dtype=int)]),
        )
        path = tmp_path / "scarce.libsvm"
        save_libsvm(ds, path)
        report = run_experiment(
            ExperimentConfig(
                method="error-direct", data=str(path), folds=5, repeats=2, seed=3
            )
        )
        failed = [r for r in report.runs if r.failed]
        completed = [r for r in report.runs if not r.failed]
        assert failed and completed
        assert all(r.reason for r in failed)
        assert all(r.accuracy is None for r in failed)
        # aggregates come from completed runs only
        manual = sum(r.accuracy for r in completed) / len(completed)
        assert abs(report.summary().mean_accuracy - manual) <= 1e-15

    def test_deterministic_given_seed(self):
        spec = GaussianSpec(d=3, n=120, prior_pos=0.5, seed=10)
        cfg = ExperimentConfig(method="error-direct", data=spec, folds=3, repeats=2, seed=11)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.accuracy for r in a.runs] == [r.accuracy for r in b.runs]
        assert [r.auc for r in a.runs] == [r.auc for r in b.runs]

    def test_exact_moments_from_generator_truth(self):
        spec = GaussianSpec(d=3, n=200, prior_pos=0.5, seed=12)
        report = run_experiment(
            ExperimentConfig(
                method="auc-direct", data=spec, moments="generator", folds=2, repeats=1, seed=6
            )
        )
        assert all(not r.failed for r in report.runs)


class TestLoadSourceAndFit:
    def test_sidecar_dimension_checked(self, raw_files, bayes_files):
        data_path, _ = raw_files
        _, sidecar = bayes_files
        with pytest.raises(ParseError, match="line 1: index 10 is above the dimension 2"):
            load_source("error-direct", str(data_path), str(sidecar), normalize=False)
        # generated data has its own dimension, which the sidecar must match
        spec = GaussianSpec(d=3, n=40, prior_pos=0.5, seed=1)
        with pytest.raises(ValueError, match="moments d=2 does not match dataset d=3"):
            load_source("error-direct", spec, str(sidecar))

    def test_exact_moments_returned_only_for_exact_source(self, raw_files):
        data_path, sidecar = raw_files
        _, exact = load_source("error-direct", str(data_path), str(sidecar))
        truth = load_moments(sidecar)
        for name in ("mu_pos", "mu_neg", "sigma_pos", "sigma_neg"):
            assert getattr(exact, name).tobytes() == getattr(truth, name).tobytes()
        _, empirical = load_source("error-direct", str(data_path))
        assert empirical is None

    def test_logistic_ridge_weight_is_one_over_n(self):
        ds, _ = gen_gaussian(GaussianSpec(d=3, n=120, prior_pos=0.5, seed=19))
        cfg = LineSearchConfig(max_iters=20)
        model, _ = fit("logistic", ds, None, cfg, seed=4)
        direct, _ = gd_backtracking(logistic_objective(ds, 1.0 / ds.n), init_random(ds.dim, 4), cfg)
        assert model.w.tobytes() == direct.w.tobytes()

    @pytest.mark.parametrize("method", ["error-direct", "auc-direct", "lda"])
    @pytest.mark.parametrize("prior_pos", [0.5, 0.3])
    def test_coincident_means_raise(self, method, prior_pos):
        # away from the origin the direct objectives are flat in w, so a
        # fit would return its start direction as if it had converged
        d = 3
        same = np.full(d, 0.3)
        moments = ClassMoments(same, same, np.eye(d), np.eye(d), prior_pos, 1.0 - prior_pos)
        with pytest.raises(DegenerateModelError):
            fit(method, None, moments, LineSearchConfig(), seed=0)

    def test_vanishing_positive_mean_fits(self):
        # both start rules of init_w0_error vanish; mu_pos - mu_neg = -e1 is
        # the start, and there the error objective is already stationary
        d = 3
        e1 = np.eye(d)[0]
        moments = ClassMoments(np.zeros(d), e1, np.eye(d), np.eye(d), 0.5, 0.5)
        model, trace = fit("error-direct", None, moments, LineSearchConfig(), seed=0)
        assert np.array_equal(model.w, -e1)
        assert trace.reason == "gradient-tolerance"
        assert trace.final_value == 0.25 + 0.5 * std_normal_cdf(-1.0)

    def test_lda_uses_exact_moments(self):
        ds, exact = gen_gaussian(GaussianSpec(d=3, n=120, prior_pos=0.5, seed=19))
        model, trace = fit("lda", ds, exact, LineSearchConfig(), seed=0)
        assert trace is None
        assert model.w.tobytes() == lda_fit(exact).w.tobytes()
        assert model.intercept == lda_fit(exact).intercept

    def test_lda_has_no_trace(self):
        ds, _ = gen_gaussian(GaussianSpec(d=3, n=120, prior_pos=0.5, seed=19))
        _, trace = fit("lda", ds, None, LineSearchConfig(), seed=0)
        assert trace is None


class TestMomentSpellings:
    """Each moments spelling gives the report of the two-field spelling it replaced.

    The expected report is the cross-validation loop written out with the
    moments each old (moment_source, moments_path) pair picked: none for
    "empirical", the generator's truth for "exact" on generated data, and
    the sidecar for "exact" with a path.  Timing is zeroed on both sides.
    """

    SPEC = GaussianSpec(d=4, n=160, prior_pos=0.4, seed=3, mean_scale=0.8)

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("spellings")
        data_path, sidecar = tmp / "spec.libsvm", tmp / "other.moments"
        save_libsvm(gen_gaussian(self.SPEC)[0], data_path)
        # exact moments other than the generator's, so the two exact spellings differ
        save_moments(gen_gaussian(GaussianSpec(d=4, n=40, prior_pos=0.5, seed=9))[1], sidecar)
        return str(data_path), str(sidecar)

    @staticmethod
    def _written(report, path):
        untimed = [dataclasses.replace(r, train_seconds=0.0) for r in report.runs]
        emit_report(ExperimentReport(config=report.config, runs=untimed), path)
        return path.read_bytes()

    @staticmethod
    def _expected(config, dataset, exact):
        if isinstance(config.data, str) and not config.per_fold_norm:
            dataset, stats = normalize_zscore(dataset)
            exact = _zscored(exact, stats)
        runs = []
        for repeat in range(config.repeats):
            splits = kfold_split(dataset.n, config.folds, seed=config.seed + repeat)
            for fold, (train_idx, test_idx) in enumerate(splits):
                run_no = repeat * config.folds + fold
                train, test, moments = dataset.subset(train_idx), dataset.subset(test_idx), exact
                if config.per_fold_norm:
                    train, stats = normalize_zscore(train)
                    test, moments = apply_zscore(test, stats), _zscored(exact, stats)
                model, _ = fit(config.method, train, moments, config.optimizer,
                               config.seed + 7919 * (run_no + 1))
                scored = evaluate_model(model, test)
                runs.append(RunResult(run=run_no, fold=fold, repeat=repeat,
                                      accuracy=scored.accuracy, auc=scored.auc, train_seconds=0.0))
        return ExperimentReport(config=config, runs=runs)

    @pytest.mark.parametrize("per_fold_norm", [False, True])
    @pytest.mark.parametrize("source, moments, label", [
        ("file", None, "empirical"),
        ("spec", None, "empirical"),
        ("spec", "generator", "exact"),
        ("file", "sidecar", "exact"),
        ("spec", "sidecar", "exact"),
    ])
    def test_report_bytes_match_the_old_spelling(self, files, tmp_path, source, moments, label,
                                                 per_fold_norm):
        data_path, sidecar = files
        data = data_path if source == "file" else self.SPEC
        config = ExperimentConfig(method="error-direct", data=data,
                                  moments=sidecar if moments == "sidecar" else moments,
                                  folds=3, repeats=2, seed=4, per_fold_norm=per_fold_norm,
                                  optimizer=LineSearchConfig(max_iters=40))
        dataset = load_libsvm(data_path) if source == "file" else gen_gaussian(self.SPEC)[0]
        exact = {None: None, "generator": gen_gaussian(self.SPEC)[1],
                 "sidecar": load_moments(sidecar)}[moments]
        written = self._written(run_experiment(config), tmp_path / "spelled.csv")
        assert written == self._written(self._expected(config, dataset, exact),
                                        tmp_path / "expected.csv")
        rows = [row.split(",") for row in written.decode().splitlines()[1:]]
        assert {row[1] for row in rows} == {label}
        # the exact moments move the fits, so the comparison can tell spellings apart
        if moments is not None:
            empirical = self._written(run_experiment(dataclasses.replace(config, moments=None)),
                                      tmp_path / "emp.csv")
            assert [row[2:] for row in rows] != [
                row.split(",")[2:] for row in empirical.decode().splitlines()[1:]]


class TestEmitReport:
    def test_header_is_the_run_record(self):
        # a run row is method and moment source, then RunResult's fields
        # in order without trace, so a reorder of the record shows here
        names = [f.name for f in dataclasses.fields(RunResult) if f.name != "trace"]
        assert REPORT_HEADER.split(",") == ["method", "moment_source", *names]

    def test_header_and_row_arithmetic(self, tmp_path):
        spec = GaussianSpec(d=2, n=80, prior_pos=0.5, seed=14)
        report = run_experiment(
            ExperimentConfig(method="lda", data=spec, folds=5, repeats=4, seed=15)
        )
        out = tmp_path / "report.csv"
        emit_report(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 1 + 20 + 1  # header, runs, summary

    def test_reparsed_aggregates_match(self, tmp_path):
        spec = GaussianSpec(d=2, n=80, prior_pos=0.5, seed=14)
        report = run_experiment(
            ExperimentConfig(method="lda", data=spec, folds=4, repeats=3, seed=16)
        )
        out = tmp_path / "report.csv"
        emit_report(report, out)
        lines = out.read_text().splitlines()
        accs = []
        aucs = []
        for row in lines[1:-1]:
            parts = row.split(",")
            accs.append(float(parts[5]))
            aucs.append(float(parts[6]))
        summary = lines[-1].split(",")
        assert len(summary) == 7
        assert abs(float(summary[2]) - sum(accs) / len(accs)) <= 1e-12
        mean = sum(accs) / len(accs)
        std = math.sqrt(sum((a - mean) ** 2 for a in accs) / (len(accs) - 1))
        assert abs(float(summary[3]) - std) <= 1e-12
        assert abs(float(summary[4]) - sum(aucs) / len(aucs)) <= 1e-12
        assert abs(float(summary[2]) - report.summary().mean_accuracy) <= 1e-15

    def test_failed_rows_have_empty_metrics_and_reason(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset(
            features=rng.normal(size=(30, 2)),
            labels=np.concatenate([np.ones(26, dtype=int), -np.ones(4, dtype=int)]),
        )
        path = tmp_path / "scarce.libsvm"
        save_libsvm(ds, path)
        report = run_experiment(
            ExperimentConfig(method="error-direct", data=str(path), folds=5, repeats=2, seed=3)
        )
        out = tmp_path / "scarce.csv"
        emit_report(report, out)
        failed_rows = [
            row for row in out.read_text().splitlines()[1:-1] if row.split(",")[5] == ""
        ]
        assert failed_rows
        for row in failed_rows:
            parts = row.split(",")
            assert parts[6] == "" and parts[7] == ""
            assert parts[8] != ""

    def test_byte_identical_reports_modulo_timing(self, tmp_path):
        spec = GaussianSpec(d=3, n=120, prior_pos=0.5, seed=10)
        cfg = ExperimentConfig(method="error-direct", data=spec, folds=3, repeats=2, seed=11)

        def masked(path):
            rows = []
            lines = path.read_text().splitlines()
            for row in lines[1:-1]:
                parts = row.split(",")
                parts[7] = "MASK"
                rows.append(",".join(parts))
            summary = lines[-1].split(",")
            summary[6] = "MASK"
            rows.append(",".join(summary))
            return "\n".join([lines[0]] + rows)

        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_report(run_experiment(cfg), p1)
        emit_report(run_experiment(cfg), p2)
        assert masked(p1) == masked(p2)

    def test_unwritable_path_raises(self, tmp_path):
        spec = GaussianSpec(d=2, n=40, prior_pos=0.5, seed=17)
        report = run_experiment(
            ExperimentConfig(method="lda", data=spec, folds=2, repeats=1, seed=18)
        )
        with pytest.raises(OSError):
            emit_report(report, tmp_path / "missing" / "deep" / "report.csv")


class TestEmitTrace:
    def _fifty_iteration_trace(self):
        def quartic(w):
            x = float(w[0])
            return ObjectiveEval(value=x**4, gradient=np.array([4.0 * x**3]))

        cfg = LineSearchConfig(max_iters=50, grad_tol_rel=1e-300)
        _, trace = gd_backtracking(quartic, np.array([1.5]), cfg)
        assert trace.iterations == 50
        return trace

    def test_row_count_and_header(self, tmp_path):
        trace = self._fifty_iteration_trace()
        out = tmp_path / "trace.csv"
        emit_trace(trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 51

    def test_iter_strictly_increasing_objective_nonincreasing(self, tmp_path):
        trace = self._fifty_iteration_trace()
        out = tmp_path / "trace.csv"
        emit_trace(trace, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        iters = [int(r[0]) for r in rows]
        values = [float(r[1]) for r in rows]
        assert iters == list(range(1, 51))
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_backtracks_column_is_the_cumulative_count(self, tmp_path):
        trace = self._fifty_iteration_trace()
        out = tmp_path / "trace.csv"
        emit_trace(trace, out)
        column = TRACE_HEADER.split(",").index("backtracks")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        counts = [int(r[column]) for r in rows]
        assert counts == [r.backtracks for r in trace.records]
        assert counts[-1] > 0
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_armijo_replay_from_csv_rows(self, tmp_path):
        trace = self._fifty_iteration_trace()
        out = tmp_path / "trace.csv"
        emit_trace(trace, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        c = LineSearchConfig().c
        for prev, cur in zip(rows, rows[1:]):
            prev_value = float(prev[1])
            prev_gnorm = float(prev[2])
            step = float(cur[3])
            assert float(cur[1]) <= prev_value - step * (c * prev_gnorm * prev_gnorm)

    def test_unwritable_path_raises(self, tmp_path):
        trace = self._fifty_iteration_trace()
        with pytest.raises(OSError):
            emit_trace(trace, tmp_path / "no_dir" / "trace.csv")


class TestWrittenBytes:
    """The exact bytes of a hand-built report and trace: floats as their repr,
    ints as written, a failed run's reason on one line without commas."""

    def test_report_bytes(self, tmp_path):
        report = ExperimentReport(
            config=ExperimentConfig(method="lda", data="some/file.libsvm"),
            runs=[
                RunResult(0, 0, 0, accuracy=0.75, auc=0.5, train_seconds=5e-324),
                RunResult(1, 1, 0, accuracy=0.25, auc=-0.0, train_seconds=0.125),
                RunResult(2, 0, 1, reason="LinAlgError: bad, worse\nand more"),
            ],
        )
        path = tmp_path / "report.csv"
        emit_report(report, path)
        assert path.read_bytes() == (
            b"method,moment_source,run,fold,repeat,accuracy,auc,train_seconds,reason\n"
            b"lda,empirical,0,0,0,0.75,0.5,5e-324,\n"
            b"lda,empirical,1,1,0,0.25,-0.0,0.125,\n"
            b"lda,empirical,2,0,1,,,,LinAlgError: bad; worse and more\n"
            b"lda,empirical,0.5,0.3535533905932738,0.25,0.3535533905932738,0.0625\n"
        )

    def test_summary_fields_are_the_summary_row(self):
        # the summary row is method and moment source, then these in order
        assert ReportSummary._fields == (
            "mean_accuracy", "std_accuracy", "mean_auc", "std_auc", "mean_seconds")

    def test_trace_bytes(self, tmp_path):
        # by keyword, so a reorder of TraceRecord's fields, which sets the
        # columns, shows; an int alpha0 such as LineSearchConfig(alpha0=1)
        # is the step of the first rung
        trace = OptimizationTrace(initial_value=2.0, initial_grad_norm=3.0, records=[
            TraceRecord(iteration=1, value=0.5, grad_norm=5e-324, step=1, backtracks=0,
                        seconds=0.25),
            TraceRecord(iteration=2, value=-0.0, grad_norm=0.1, step=0.5, backtracks=3,
                        seconds=1.5e-05),
        ])
        path = tmp_path / "trace.csv"
        emit_trace(trace, path)
        assert path.read_bytes() == (
            b"iter,objective,grad_norm,step,backtracks,seconds\n"
            b"1,0.5,5e-324,1,0,0.25\n"
            b"2,-0.0,0.1,0.5,3,1.5e-05\n"
        )


class TestZscoredMoments:
    """The affine map of moments that keeps exact moments with z-scored features."""

    @pytest.fixture
    def scaled(self):
        ds, truth = gen_gaussian(GaussianSpec(d=6, n=400, prior_pos=0.4, seed=21,
                                              mean_scale=3.0, cov_scale=2.5))
        shifted = Dataset(features=ds.features * np.linspace(0.1, 40.0, 6) + 7.0,
                          labels=ds.labels)
        return shifted, truth

    def test_covariances_stay_exactly_symmetric(self, scaled):
        ds, truth = scaled
        _, stats = normalize_zscore(ds)
        for moments in (truth, estimate_class_moments(ds)):
            mapped = _zscored(moments, stats)
            for sigma in (mapped.sigma_pos, mapped.sigma_neg):
                assert np.array_equal(sigma, sigma.T)
                assert not sigma.flags.writeable

    def test_maps_estimates_to_estimates_of_zscored_data(self, scaled):
        ds, _ = scaled
        zscored, stats = normalize_zscore(ds)
        mapped = _zscored(estimate_class_moments(ds), stats)
        direct = estimate_class_moments(zscored)
        for name in ("mu_pos", "mu_neg", "sigma_pos", "sigma_neg"):
            np.testing.assert_allclose(getattr(mapped, name), getattr(direct, name),
                                       rtol=0, atol=1e-12)
        assert (mapped.prior_pos, mapped.prior_neg) == (direct.prior_pos, direct.prior_neg)

    def test_no_moments_map_to_none(self, scaled):
        _, stats = normalize_zscore(scaled[0])
        assert _zscored(None, stats) is None
