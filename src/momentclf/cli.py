"""Command-line front end.

Subcommands: gen (synthesize a dataset, its binary twin and an
exact-moments sidecar), train (fit one model on one file), eval (score a
saved model), cv (repeated k-fold benchmark of one method), bench (sweep a
JSON list of cv configs).
All inputs arrive as flags; nothing is read from the environment.  The
argument parser is built once per process, on the first main() call, and
reused: parsing fills a fresh namespace and leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
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


OPTIMIZER_HELP = {
    "c": "Armijo sufficient-decrease constant",
    "beta": "backtracking shrink factor",
    "alpha0": "initial step size",
    "max_iters": "maximum accepted steps",
    "grad_tol_rel": "stop when the gradient norm falls below this times its start value",
    "max_backtracks": "maximum step shrinks per line search",
}


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    # one flag per LineSearchConfig field, named and defaulted by the field
    group = parser.add_argument_group("optimizer")
    for f in dataclasses.fields(LineSearchConfig):
        group.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           default=f.default, help=OPTIMIZER_HELP[f.name])


def _from_args(cls, args: argparse.Namespace, **given):
    """Build a config dataclass from the flags named after its fields and the given fields."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**flags, **given)


def _check_outputs(outputs, inputs=()) -> None:
    """Refuse, before any work, an output that would overwrite a file the
    command reads or writes, that is a directory or another file that is
    not a regular one (a FIFO, a device: moving the output into place
    would replace it), or whose directory does not exist.

    Both arguments are (flag, path) pairs, where a flag may be any label
    that starts the refusal; a None path is skipped.  A
    LIBSVM file (--data or --out) also stands for its binary twin.
    """
    taken = {}

    def take(flag, path):
        if flag in ("--data", "--out"):
            for p in (path, _twin_path(path)):
                taken[Path(p).resolve()] = "the data file or its binary twin"
        else:
            taken[Path(path).resolve()] = f"the {flag} file"

    for flag, path in inputs:
        if path is not None:
            take(flag, path)
    for flag, path in outputs:
        if path is None:
            continue
        target = Path(path)
        if not target.parent.is_dir():
            raise ValueError(f"{flag} {path}: directory {target.parent} does not exist")
        if target.is_dir():
            raise ValueError(f"{flag} {path} is a directory")
        if target.exists() and not target.is_file():
            raise ValueError(f"{flag} {path} is not a regular file")
        if target.resolve() in taken:
            raise ValueError(f"{flag} {path} names {taken[target.resolve()]}")
        take(flag, path)


def _cmd_gen(args: argparse.Namespace) -> int:
    moments_out = args.moments_out or str(args.out) + ".moments"
    _check_outputs([("--out", args.out), ("--moments-out", moments_out)])
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
    _check_outputs([("--model-out", args.model_out), ("--trace-out", args.trace_out)],
                   [("--data", args.data), ("--moments", args.moments)])
    dataset, exact = load_source(args.method, args.data, args.moments, args.normalize)
    optimizer = _from_args(LineSearchConfig, args)
    model, trace = fit(args.method, dataset, exact, optimizer, args.seed)
    save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}")
    if trace is not None:
        print(f"stopped after {trace.iterations} iterations ({trace.reason}), "
              f"objective {trace.final_value!r}, {trace.evaluations} evaluations")
        # a class of n_c samples gives a covariance estimate of rank n_c - 1 at most
        n_c = min(dataset.n_pos, dataset.n_neg)
        if args.method in MOMENT_METHODS and exact is None and n_c - 1 < dataset.dim:
            print(f"note: a class of {n_c} samples at d={dataset.dim} gives a singular "
                  f"covariance estimate; the result depends on --max-iters")
        if args.trace_out:
            emit_trace(trace, args.trace_out)
            print(f"wrote trace to {args.trace_out}")
    elif args.trace_out:
        print("lda is closed form; no trace to write", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = load_libsvm(args.data, model.w.shape[0])
    if args.normalize:
        dataset, _ = normalize_zscore(dataset)
    result = evaluate_model(model, dataset, ties=args.ties)
    for f in dataclasses.fields(result):
        print(f.name, repr(getattr(result, f.name)))
    return 0


def _input_files(config: ExperimentConfig):
    """The (flag, path) pairs of the files a config reads: data when it is a
    path, and moments unless it is None or the generator."""
    if isinstance(config.data, str):
        yield "--data", config.data
    if config.moments not in (None, "generator"):
        yield "--moments", config.moments


def _run_and_report(jobs, inputs=()) -> int:
    """Run (label, ExperimentConfig, report path) jobs, each to its report.

    Every report is checked first against the given (flag, path) inputs,
    every job's input files and the other reports.  A job with no completed
    run fails the command at the end.
    """
    inputs = [*inputs, *(pair for _, config, _ in jobs for pair in _input_files(config))]
    _check_outputs([(label, path) for label, _, path in jobs], inputs)
    empty = []
    for _, config, path in jobs:
        report = run_experiment(config)
        emit_report(report, path)
        print(f"wrote report to {path}")
        head = f"{config.method} ({config.moment_source}): "
        if report.completed_runs == 0:
            print(head + f"no run completed (0/{len(report.runs)} runs)")
            empty.append(str(path))
            continue
        summary = report.summary()
        print(head + f"accuracy {summary.mean_accuracy:.6f} +- {summary.std_accuracy:.6f}, "
              f"auc {summary.mean_auc:.6f} +- {summary.std_auc:.6f}, train "
              f"{summary.mean_seconds:.4f}s over {report.completed_runs}/{len(report.runs)} runs")
    if empty:
        raise ValueError(f"no run completed for {', '.join(empty)}")
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    config = _from_args(ExperimentConfig, args, optimizer=_from_args(LineSearchConfig, args))
    return _run_and_report([("--report-out", config, args.report_out)])


def _cmd_bench(args: argparse.Namespace) -> int:
    with open(args.configs, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        raise ValueError("configs file must hold a non-empty JSON list")
    # build every config first so a bad entry fails before any sweep runs
    out_dir = Path(args.out_dir)
    jobs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"config config_{i:02d}: entry must be a JSON object, got {entry!r}")
        fields = dict(entry)
        name = fields.pop("name", f"config_{i:02d}")
        # each name is the file name of one report in the output directory
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"config config_{i:02d}: name must be a plain file name, got {name!r}")
        try:
            if isinstance(fields.get("data"), dict):
                fields["data"] = GaussianSpec(**fields["data"])
            if "optimizer" in fields:
                fields["optimizer"] = LineSearchConfig(**fields["optimizer"])
            config = ExperimentConfig(**fields)
            for flag, path in _input_files(config):
                if not Path(path).is_file():
                    raise ValueError(f"no {flag[2:]} file {path}")
            jobs.append((f"config {name}", config, out_dir / f"{name}.csv"))
        except (TypeError, ValueError) as exc:  # unknown or missing key, bad value or file
            raise ValueError(f"config {name}: {exc}") from None
    return _run_and_report(jobs, [("--configs", args.configs)])


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
    p_gen.add_argument("--d", type=int, required=True, help="feature dimension")
    p_gen.add_argument("--n", type=int, required=True, help="total sample count")
    p_gen.add_argument("--prior-pos", type=float, required=True, help="positive-class probability")
    p_gen.add_argument("--outlier-pct", type=float, default=GaussianSpec.outlier_pct,
                       help="percent of each class to label-flip")
    p_gen.add_argument("--seed", type=int, default=GaussianSpec.seed)
    p_gen.add_argument("--mean-scale", type=float, default=GaussianSpec.mean_scale)
    p_gen.add_argument("--cov-scale", type=float, default=GaussianSpec.cov_scale)
    p_gen.add_argument("--out", required=True, help="output LIBSVM path; its binary twin OUT.npz, "
                       "which later loads read instead of parsing the unchanged text, "
                       "is written next to it")
    p_gen.add_argument("--moments-out", default=None, help="sidecar path (default: OUT.moments)")
    p_gen.set_defaults(func=_cmd_gen)

    # the flags train and cv share: which method fits which data, and how
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--method", choices=METHODS, required=True)
    fitting.add_argument("--data", required=True, help="LIBSVM path")
    fitting.add_argument("--moments", default=ExperimentConfig.moments,
                         help="exact-moments sidecar; selects exact moments")
    _add_optimizer_flags(fitting)

    p_train = sub.add_parser("train", parents=[fitting], help="fit one model on one LIBSVM file")
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

    p_cv = sub.add_parser("cv", parents=[fitting], help="repeated k-fold benchmark of one method")
    p_cv.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    p_cv.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
    p_cv.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p_cv.add_argument("--per-fold-norm", action="store_true",
                      help="learn the z-score on each training fold (default: z-score the "
                           "file once before CV)")
    p_cv.add_argument("--report-out", required=True)
    p_cv.set_defaults(func=_cmd_cv)

    p_bench = sub.add_parser("bench", help="run a JSON list of cv configs")
    p_bench.add_argument("--configs", required=True, help="JSON file with a list of config objects")
    p_bench.add_argument("--out-dir", required=True, help="directory for per-config report CSVs")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
