"""Binary linear classifiers trained by directly minimizing closed-form
Gaussian-moment expressions for expected prediction error and expected
ranking loss, with surrogate and discriminant baselines and a benchmark
harness."""

from .errors import (
    DegenerateModelError,
    DegenerateProjectionError,
    InsufficientDataError,
    InvalidModelError,
    ParseError,
    SingularModelError,
)
from .moments import (
    SIGMA_EPS,
    ClassMoments,
    auc_moments,
    estimate_class_moments,
)
from .model import LinearModel, load_model, save_model
from .objectives import (
    Objective,
    ObjectiveEval,
    auc_objective,
    error_objective,
    std_normal_cdf,
)
from .surrogates import (
    hinge_objective,
    lda_fit,
    logistic_objective,
)
from .optimizer import (
    LineSearchConfig,
    OptimizationTrace,
    TraceRecord,
    gd_backtracking,
    init_random,
    init_w0_error,
)
from .metrics import EvalResult, empirical_accuracy, empirical_auc, evaluate_model
from .data import (
    Dataset,
    GaussianSpec,
    NormalizationStats,
    apply_zscore,
    format_libsvm,
    gen_gaussian,
    inject_outliers,
    kfold_split,
    load_libsvm,
    load_moments,
    normalize_zscore,
    parse_libsvm,
    save_libsvm,
    save_moments,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    ExperimentReport,
    RunResult,
    emit_report,
    emit_trace,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateModelError",
    "DegenerateProjectionError",
    "InsufficientDataError",
    "InvalidModelError",
    "ParseError",
    "SingularModelError",
    "SIGMA_EPS",
    "ClassMoments",
    "auc_moments",
    "estimate_class_moments",
    "LinearModel",
    "load_model",
    "save_model",
    "Objective",
    "ObjectiveEval",
    "auc_objective",
    "error_objective",
    "std_normal_cdf",
    "hinge_objective",
    "lda_fit",
    "logistic_objective",
    "LineSearchConfig",
    "OptimizationTrace",
    "TraceRecord",
    "gd_backtracking",
    "init_random",
    "init_w0_error",
    "EvalResult",
    "empirical_accuracy",
    "empirical_auc",
    "evaluate_model",
    "Dataset",
    "GaussianSpec",
    "NormalizationStats",
    "apply_zscore",
    "format_libsvm",
    "gen_gaussian",
    "inject_outliers",
    "kfold_split",
    "load_libsvm",
    "load_moments",
    "normalize_zscore",
    "parse_libsvm",
    "save_libsvm",
    "save_moments",
    "METHODS",
    "ExperimentConfig",
    "ExperimentReport",
    "RunResult",
    "emit_report",
    "emit_trace",
    "run_experiment",
    "__version__",
]
