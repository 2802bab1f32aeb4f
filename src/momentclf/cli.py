"""Command-line front end.

Subcommands: gen (synthesize a dataset, its binary twin and an
exact-moments sidecar), train (fit one model on one file or sidecar),
eval (score a saved model), cv (repeated k-fold benchmark of one method).
A sweep over configs is a shell loop over cv, or
run_experiment(ExperimentConfig(...)) in Python.
All inputs arrive as flags; nothing is read from the environment.  The
argument parser is built once per process, on the first main() call, and
reused: parsing fills a fresh namespace and leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .data import (
    GaussianSpec,
    _twin_path,
    gen_gaussian,
    load_libsvm,
    normalize_zscore,
    save_libsvm,
    save_moments,
)
from .errors import _check_min
from .harness import (
    METHODS,
    MOMENT_METHODS,
    ExperimentConfig,
    emit_report,
    emit_trace,
    fit,
    load_source,
    run_experiment,
)
from .metrics import evaluate_model
from .model import load_model, save_model
from .optimizer import LineSearchConfig

__all__ = ["main"]


# the help of each flag built from a config field; a field left out has none
FIELD_HELP = {
    "d": "feature dimension",
    "n": "total sample count",
    "prior_pos": "positive-class probability",
    "outlier_pct": "percent of each class to label-flip",
    "c": "Armijo sufficient-decrease constant",
    "beta": "backtracking shrink factor",
    "alpha0": "initial step size",
    "max_iters": "maximum accepted steps",
    "grad_tol_rel": "stop when the gradient norm falls below this times its start value",
    "max_backtracks": "maximum step shrinks per line search",
}


def _add_field_flags(parser, cls) -> None:
    # one flag per field of a config dataclass, named, typed ("int" or "float")
    # and defaulted by the field; a field without a default gives a required flag
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING
        parser.add_argument("--" + f.name.replace("_", "-"), required=required,
                            type={"int": int, "float": float}[f.type],
                            default=None if required else f.default, help=FIELD_HELP.get(f.name))


def _from_args(cls, args: argparse.Namespace, **given):
    """Build a config dataclass from the flags named after its fields and the given fields."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**flags, **given)


def _check_files(outputs, inputs=()) -> None:
    """Refuse, before any work, a file the command reads or writes that it
    cannot use.  An input must exist and not be a directory.  The data file,
    hashed and then parsed, must be a regular file; load_libsvm passes over
    a twin that is not one.  --model and --moments are read once and may be
    pipes, not devices.  An output may not overwrite a file the command
    reads or writes, be a directory or another non-regular file, which
    moving it into place would replace, or have a parent that is not an
    existing directory.

    Both arguments are (flag, path) pairs, where the flag starts the
    refusal; a None path is skipped.  A LIBSVM file (--data or --out)
    stands for its text and its binary twin, and a refusal names the one
    it is about.
    """
    taken = {}
    pairs = [(*pair, False) for pair in inputs] + [(*pair, True) for pair in outputs]
    for flag, path, written in pairs:
        if path is None:
            continue
        data = flag in ("--data", "--out")
        piped = not (written or data)  # an input read once
        files = (path, _twin_path(path)) if data else (path,)
        for file in files if written else files[:1]:
            target = Path(file)
            if written:
                if target.parent.exists() and not target.parent.is_dir():
                    raise ValueError(f"{flag} {file}: {target.parent} is not a directory")
                if not target.parent.is_dir():
                    raise ValueError(f"{flag} {file}: directory {target.parent} does not exist")
            elif not target.exists():
                raise ValueError(f"{flag} {file} does not exist")
            if target.is_dir():
                raise ValueError(f"{flag} {file} is a directory")
            if target.exists() and not (target.is_file() or piped and target.is_fifo()):
                raise ValueError(f"{flag} {file} is not a regular file{' or a pipe' * piped}")
            if written and target.resolve() in taken:
                raise ValueError(f"{flag} {file} names {taken[target.resolve()]}")
        owner = "the data file or its binary twin" if data else f"the {flag} file"
        taken.update((Path(file).resolve(), owner) for file in files)


def _cmd_gen(args: argparse.Namespace) -> int:
    moments_out = args.moments_out or str(args.out) + ".moments"
    _check_files([("--out", args.out), ("--moments-out", moments_out)])
    dataset, moments = gen_gaussian(_from_args(GaussianSpec, args))
    twin = save_libsvm(dataset, args.out)
    save_moments(moments, moments_out)
    print(f"wrote {dataset.n} samples (d={dataset.dim}, {dataset.n_pos} positive) to {args.out}")
    print(f"wrote binary twin to {twin}")
    print(f"wrote exact moments to {moments_out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    # lda and the direct methods never draw from the seed, so check it here
    _check_min("seed", args.seed, 0)
    _check_files([("--model-out", args.model_out), ("--trace-out", args.trace_out)],
                 _input_files(args.data, args.moments))
    dataset, exact = load_source(args.method, args.data, args.moments, args.normalize)
    optimizer = _from_args(LineSearchConfig, args)
    model, trace = fit(args.method, dataset, exact, optimizer, args.seed)
    save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}")
    if trace is not None:
        print(f"stopped after {trace.iterations} iterations ({trace.reason}), "
              f"objective {trace.final_value!r}, {trace.evaluations} evaluations")
        if args.method in MOMENT_METHODS and exact is None:
            # a class of n_c samples gives a covariance estimate of rank n_c - 1 at most
            n_c = min(dataset.n_pos, dataset.n_neg)
            if n_c - 1 < dataset.dim:
                print(f"note: a class of {n_c} samples at d={dataset.dim} gives a singular "
                      f"covariance estimate; the result depends on --max-iters")
        if args.trace_out:
            emit_trace(trace, args.trace_out)
            print(f"wrote trace to {args.trace_out}")
    elif args.trace_out:
        print("lda is closed form; no trace to write", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_files([], [("--model", args.model), ("--data", args.data)])
    model = load_model(args.model)
    dataset = load_libsvm(args.data, model.w.shape[0])
    if args.normalize:
        dataset, _ = normalize_zscore(dataset)
    result = evaluate_model(model, dataset, ties=args.ties)
    for f in dataclasses.fields(result):
        print(f.name, repr(getattr(result, f.name)))
    return 0


def _input_files(data, moments):
    """The (flag, path) pairs of the files a fit of data with moments reads:
    both, unless the moments are the generator's; _check_files skips None."""
    yield "--data", data
    if moments != "generator":
        yield "--moments", moments


def _cmd_cv(args: argparse.Namespace) -> int:
    config = _from_args(ExperimentConfig, args, optimizer=_from_args(LineSearchConfig, args))
    _check_files([("--report-out", args.report_out)], _input_files(args.data, args.moments))
    report = run_experiment(config)
    emit_report(report, args.report_out)
    print(f"wrote report to {args.report_out}")
    head = f"{config.method} ({config.moment_source}): "
    if report.completed_runs == 0:
        print(head + f"no run completed (0/{len(report.runs)} runs)")
        raise ValueError(f"no run completed for {args.report_out}")
    summary = report.summary()
    print(head + f"accuracy {summary.mean_accuracy:.6f} +- {summary.std_accuracy:.6f}, "
          f"auc {summary.mean_auc:.6f} +- {summary.std_auc:.6f}, train "
          f"{summary.mean_seconds:.4f}s over {report.completed_runs}/{len(report.runs)} runs")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentclf",
        description="Train and benchmark binary linear classifiers that directly "
                    "minimize closed-form Gaussian-moment error and ranking objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a two-Gaussian dataset plus its binary twin "
                                       "and exact-moments sidecar")
    _add_field_flags(p_gen, GaussianSpec)
    p_gen.add_argument("--out", required=True, help="output LIBSVM path; its binary twin OUT.npz, "
                       "which later loads read instead of parsing the unchanged text, "
                       "is written next to it")
    p_gen.add_argument("--moments-out", default=None, help="sidecar path (default: OUT.moments)")
    p_gen.set_defaults(func=_cmd_gen)

    # the flags train and cv share; each gets its own --data action, which only cv requires
    def add_fitting_flags(parser, data_required):
        parser.add_argument("--method", choices=METHODS, required=True)
        parser.add_argument("--data", required=data_required, help="LIBSVM path")
        parser.add_argument("--moments", default=ExperimentConfig.moments,
                            help="exact-moments sidecar; selects exact moments")
        _add_field_flags(parser.add_argument_group("optimizer"), LineSearchConfig)

    p_train = sub.add_parser("train", help="fit one model on one LIBSVM file or sidecar")
    add_fitting_flags(p_train, data_required=False)
    p_train.add_argument("--normalize", action="store_true", help="z-score the data first")
    p_train.add_argument("--seed", type=int, default=0, help="random-start seed")
    p_train.add_argument("--model-out", required=True)
    p_train.add_argument("--trace-out", default=None)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved model on a LIBSVM file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--normalize", action="store_true",
                        help="z-score the file with its own statistics; this reproduces "
                             "train --normalize only on the training file")
    p_eval.add_argument("--ties", choices=("strict", "midrank"), default="strict")
    p_eval.set_defaults(func=_cmd_eval)

    p_cv = sub.add_parser("cv", help="repeated k-fold benchmark of one method")
    add_fitting_flags(p_cv, data_required=True)
    p_cv.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    p_cv.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
    p_cv.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p_cv.add_argument("--per-fold-norm", action="store_true",
                      help="learn the z-score on each training fold (default: z-score the "
                           "file once before CV)")
    p_cv.add_argument("--report-out", required=True)
    p_cv.set_defaults(func=_cmd_cv)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, not a traceback
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
