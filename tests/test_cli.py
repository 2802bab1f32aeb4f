"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    ExperimentConfig,
    GaussianSpec,
    LineSearchConfig,
    empirical_accuracy,
    format_libsvm,
    kfold_split,
    lda_fit,
    load_libsvm,
    load_model,
    load_moments,
    parse_libsvm,
    save_model,
    save_moments,
)
from momentclf import cli
from momentclf.cli import _build_parser, _from_args, main
from momentclf.harness import REPORT_HEADER, TRACE_HEADER


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_data")
    out = tmp / "toy.libsvm"
    rc = main([
        "gen", "--d", "4", "--n", "300", "--prior-pos", "0.5",
        "--seed", "11", "--mean-scale", "1.5", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def raw_units(tmp_path_factory):
    """A d=10 file far from zero mean and unit variance, plus its sidecar."""
    out = tmp_path_factory.mktemp("cli_raw") / "raw.libsvm"
    rc = main(["gen", "--d", "10", "--n", "2000", "--prior-pos", "0.5",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def scarce_and_toy(tmp_path_factory):
    """Files with fewer samples per class than features (d=60, n=40) and
    far more (d=10, n=400), with their sidecars."""
    tmp = tmp_path_factory.mktemp("cli_scarce")
    paths = {"scarce": tmp / "scarce.libsvm", "toy": tmp / "toy.libsvm"}
    for name, d, n, seed in (("scarce", 60, 40, 8), ("toy", 10, 400, 3)):
        rc = main(["gen", "--d", str(d), "--n", str(n), "--prior-pos", "0.5", "--seed", str(seed),
                   "--out", str(paths[name])])
        assert rc == 0
    return paths


def _snapshot(root):
    """Every file's bytes under root, and every directory as None, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _masked_report(path):
    lines = path.read_text().splitlines()
    rows = []
    for row in lines[1:-1]:
        parts = row.split(",")
        parts[7] = "MASK"
        rows.append(",".join(parts))
    summary = lines[-1].split(",")
    summary[6] = "MASK"
    return "\n".join([lines[0]] + rows + [",".join(summary)])


class TestGen:
    def test_writes_data_and_sidecar(self, generated):
        ds = load_libsvm(generated)
        assert ds.n == 300
        assert ds.dim == 4
        assert ds.n_pos == 150
        moments = load_moments(str(generated) + ".moments")
        assert moments.dim == 4
        assert moments.prior_pos == 0.5
        assert Path(str(generated) + ".npz").is_file()

    def test_writers_rewrite_what_their_readers_read(self, generated, tmp_path):
        # the text and its twin hold the same arrays, byte for byte
        text = generated.read_text(encoding="utf-8")
        parsed = parse_libsvm(text)
        assert format_libsvm(parsed) == text
        with np.load(str(generated) + ".npz", allow_pickle=False) as twin:
            for name in ("features", "labels"):
                ours, theirs = getattr(parsed, name), twin[name]
                assert (ours.shape, ours.dtype) == (theirs.shape, theirs.dtype), name
                assert ours.tobytes() == theirs.tobytes(), name
        sidecar = Path(str(generated) + ".moments")
        save_moments(load_moments(sidecar), tmp_path / "rewritten.moments")
        assert (tmp_path / "rewritten.moments").read_bytes() == sidecar.read_bytes()

    def test_explicit_sidecar_path(self, tmp_path):
        out = tmp_path / "g.libsvm"
        side = tmp_path / "g.truth"
        rc = main([
            "gen", "--d", "2", "--n", "40", "--prior-pos", "0.5",
            "--out", str(out), "--moments-out", str(side),
        ])
        assert rc == 0
        assert side.exists()

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.libsvm"
        b = tmp_path / "b.libsvm"
        for path in (a, b):
            main(["gen", "--d", "3", "--n", "50", "--prior-pos", "0.5",
                  "--seed", "21", "--out", str(path)])
        assert a.read_text() == b.read_text()

    def test_invalid_spec_fails_cleanly(self, tmp_path, capsys):
        rc = main(["gen", "--d", "2", "--n", "10", "--prior-pos", "0.05",
                   "--out", str(tmp_path / "x.libsvm")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ["same.libsvm", "same.libsvm.npz", "./same.libsvm"])
    def test_sidecar_may_not_overwrite_the_data(self, tmp_path, capsys, monkeypatch, sidecar):
        # the sidecar used to replace the data file, which the next load
        # then failed to parse
        monkeypatch.chdir(tmp_path)
        rc = main(["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5", "--out", "same.libsvm",
                   "--moments-out", sidecar])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: --moments-out {sidecar} names the data")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out, sidecar", [
        ("a.libsvm", "nodir/s.moments"),
        ("nodir/a.libsvm", "s.moments"),
    ])
    def test_missing_directory_leaves_no_file(self, tmp_path, capsys, monkeypatch, out, sidecar):
        # the data file and its twin used to be written before the sidecar failed
        monkeypatch.chdir(tmp_path)
        rc = main(["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5", "--out", out,
                   "--moments-out", sidecar])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestOutputRule:
    """An output may not name an input, another output or a missing directory.

    Each probe used to exit 0 over a clobbered file, or to write the model
    before failing on the trace.  Now the command exits 1 before any work.
    """

    @pytest.mark.parametrize("argv, message", [
        (["train", "--method", "error-direct", "--data", "g.libsvm",
          "--model-out", "m.txt", "--trace-out", "m.txt"],
         "--trace-out m.txt names the --model-out file"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "g.libsvm"],
         "--report-out g.libsvm names the data file or its binary twin"),
        (["train", "--method", "lda", "--data", "g.libsvm", "--model-out", "g.libsvm"],
         "--model-out g.libsvm names the data file or its binary twin"),
        (["train", "--method", "error-direct", "--data", "g.libsvm",
          "--model-out", "m.txt", "--trace-out", "nodir/t.csv"],
         "--trace-out nodir/t.csv: directory nodir does not exist"),
        (["train", "--method", "lda", "--data", "g.libsvm", "--model-out", "./g.libsvm.npz"],
         "--model-out ./g.libsvm.npz names the data file or its binary twin"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--moments", "g.libsvm.moments",
          "--report-out", "g.libsvm.moments"],
         "--report-out g.libsvm.moments names the --moments file"),
        (["train", "--method", "error-direct", "--data", "g.libsvm", "--model-out", "adir"],
         "--model-out adir is a directory"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "adir"],
         "--report-out adir is a directory"),
        # an output is moved into place, which would replace the FIFO or device
        (["train", "--method", "lda", "--data", "g.libsvm", "--model-out", "afifo"],
         "--model-out afifo is not a regular file"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "afifo"],
         "--report-out afifo is not a regular file"),
        (["train", "--method", "error-direct", "--data", "g.libsvm", "--model-out", "m.txt",
          "--trace-out", "/dev/null"],
         "--trace-out /dev/null is not a regular file"),
    ], ids=["model-is-trace", "report-is-data", "model-is-data", "trace-dir-missing",
            "model-is-twin", "report-is-sidecar", "model-is-directory", "report-is-directory",
            "model-is-fifo", "report-is-fifo", "trace-is-device"])
    def test_refused_before_any_work(self, generated, tmp_path, capsys, monkeypatch, argv,
                                     message):
        monkeypatch.chdir(tmp_path)
        for suffix in ("", ".npz", ".moments"):
            shutil.copy(str(generated) + suffix, "g.libsvm" + suffix)
        (tmp_path / "adir").mkdir()
        os.mkfifo(tmp_path / "afifo")
        before = _snapshot(tmp_path)
        # train's work starts with load_source, cv's with run_experiment
        started = []
        for name in ("load_source", "run_experiment"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: started.append(name))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert started == []
        assert _snapshot(tmp_path) == before

    def test_symlinked_outputs_are_replaced_not_written_through(self, generated, tmp_path,
                                                                 monkeypatch):
        # --model-out and --moments-out were written through the link, while
        # gen --out replaced it
        monkeypatch.chdir(tmp_path)
        for suffix in ("", ".npz"):
            shutil.copy(str(generated) + suffix, "g.libsvm" + suffix)
        links = ("m.txt", "out.libsvm", "out.moments")
        for name in links:
            Path(f"target-{name}").write_bytes(b"kept\n")
            os.symlink(f"target-{name}", name)
        assert main(["train", "--method", "lda", "--data", "g.libsvm", "--model-out",
                     "m.txt"]) == 0
        assert main(["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5", "--out",
                     "out.libsvm", "--moments-out", "out.moments"]) == 0
        for name in links:
            assert Path(name).is_file() and not Path(name).is_symlink()
            assert Path(f"target-{name}").read_bytes() == b"kept\n"
        assert load_model("m.txt").dim == 4 and load_moments("out.moments").dim == 2


class TestTrain:
    @pytest.mark.parametrize("method", ["error-direct", "auc-direct", "logistic", "hinge", "lda"])
    def test_each_method_trains_and_saves(self, generated, tmp_path, method):
        model_out = tmp_path / f"{method}.model"
        args = ["train", "--method", method, "--data", str(generated),
                "--model-out", str(model_out)]
        rc = main(args)
        assert rc == 0
        model = load_model(model_out)
        assert model.dim == 4
        assert np.all(np.isfinite(model.w))

    def test_saved_model_rewrites_to_its_own_bytes(self, generated, tmp_path):
        model_out = tmp_path / "m.model"
        assert main(["train", "--method", "error-direct", "--data", str(generated),
                     "--model-out", str(model_out)]) == 0
        save_model(load_model(model_out), tmp_path / "rewritten.model")
        assert (tmp_path / "rewritten.model").read_bytes() == model_out.read_bytes()

    def test_trace_emitted_for_iterative_methods(self, generated, tmp_path):
        model_out = tmp_path / "m.model"
        trace_out = tmp_path / "m.trace.csv"
        rc = main(["train", "--method", "error-direct", "--data", str(generated),
                   "--model-out", str(model_out), "--trace-out", str(trace_out)])
        assert rc == 0
        lines = trace_out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) >= 2

    @pytest.mark.parametrize("method", ["error-direct", "auc-direct"])
    def test_scarce_estimated_moments_add_a_note(self, scarce_and_toy, tmp_path, capsys, method):
        # d=60 and 20 samples per class: each covariance estimate has rank 19 at most
        rc = main(["train", "--method", method, "--data", str(scarce_and_toy["scarce"]),
                   "--model-out", str(tmp_path / "m.model")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        stop = [i for i, line in enumerate(lines) if line.startswith("stopped after")]
        assert len(stop) == 1
        assert re.fullmatch(r"stopped after \d+ iterations \([a-z-]+\), objective \S+, "
                            r"\d+ evaluations", lines[stop[0]])
        assert lines[stop[0] + 1] == ("note: a class of 20 samples at d=60 gives a singular "
                                      "covariance estimate; the result depends on --max-iters")
        assert [line for line in lines if line.startswith("note:")] == [lines[stop[0] + 1]]

    @pytest.mark.parametrize("data,method,sidecar", [
        ("toy", "error-direct", False),
        ("toy", "auc-direct", False),
        ("scarce", "error-direct", True),
        ("scarce", "logistic", False),
        ("scarce", "hinge", False),
        ("scarce", "lda", False),
    ])
    def test_no_note_without_a_singular_estimate(self, scarce_and_toy, tmp_path, capsys, data,
                                                 method, sidecar):
        # d=10 with 200 samples per class, exact moments, or no estimated moments
        path = str(scarce_and_toy[data])
        argv = ["train", "--method", method, "--data", path,
                "--model-out", str(tmp_path / "m.model")]
        rc = main(argv + (["--moments", path + ".moments"] if sidecar else []))
        assert rc == 0
        assert "note:" not in capsys.readouterr().out

    def test_exact_source_with_sidecar(self, generated, tmp_path):
        rc = main(["train", "--method", "error-direct", "--data", str(generated),
                   "--moments", str(generated) + ".moments",
                   "--model-out", str(tmp_path / "m.model")])
        assert rc == 0

    def test_sidecar_selects_exact_moments(self, generated, tmp_path):
        model_out = tmp_path / "m.model"
        rc = main(["train", "--method", "lda", "--data", str(generated),
                   "--moments", str(generated) + ".moments", "--model-out", str(model_out)])
        assert rc == 0
        exact = lda_fit(load_moments(str(generated) + ".moments"))
        assert load_model(model_out).w.tobytes() == exact.w.tobytes()

    @pytest.mark.parametrize("method", ["logistic", "hinge"])
    def test_sample_methods_reject_sidecar(self, generated, tmp_path, capsys, method):
        model_out = tmp_path / "m.model"
        rc = main(["train", "--method", method, "--data", str(generated),
                   "--moments", str(generated) + ".moments", "--model-out", str(model_out)])
        assert rc == 1
        assert "error: " + method + " trains on samples" in capsys.readouterr().err
        assert not model_out.exists()

    def test_exact_source_rejects_sidecar_of_other_dimension(self, generated, raw_units,
                                                             tmp_path, capsys):
        model_out = tmp_path / "m.model"
        rc = main(["train", "--method", "error-direct", "--data", str(raw_units),
                   "--moments", str(generated) + ".moments",
                   "--model-out", str(model_out)])
        assert rc == 1
        # the file is read in the sidecar's dimension, and its entries go past it
        assert "error: line 1: index 10 is above the dimension 4" in capsys.readouterr().err
        assert not model_out.exists()

    def test_text_not_utf8_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.libsvm"
        data.write_bytes(b"+1 1:0.5\n-1 1:\xff\n")
        model_out = tmp_path / "m.model"
        rc = main(["train", "--method", "lda", "--data", str(data),
                   "--model-out", str(model_out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 2: text is not UTF-8 (invalid start byte)\n"
        assert not model_out.exists()

    @pytest.mark.parametrize("method", ["error-direct", "auc-direct", "lda"])
    def test_exact_source_normalizes_like_empirical(self, raw_units, tmp_path, capsys, method):
        # the sidecar is mapped through the file's z-score, so train --normalize
        # then eval --normalize scores an exact fit as well as an empirical one
        accuracy = {}
        for source, extra in (("empirical", []), ("exact", ["--moments", str(raw_units) + ".moments"])):
            model_out = tmp_path / f"{source}.model"
            assert main(["train", "--method", method, "--data", str(raw_units), *extra,
                         "--normalize", "--model-out", str(model_out)]) == 0
            capsys.readouterr()
            assert main(["eval", "--model", str(model_out), "--data", str(raw_units),
                         "--normalize"]) == 0
            metrics = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
            accuracy[source] = float(metrics["accuracy"])
        assert accuracy["empirical"] >= 0.98
        assert abs(accuracy["exact"] - accuracy["empirical"]) <= 0.005

    def test_optimizer_flag_defaults_are_line_search_defaults(self, generated, tmp_path):
        args = _build_parser().parse_args(["train", "--method", "hinge", "--data", str(generated),
                                           "--model-out", str(tmp_path / "m.model")])
        assert _from_args(LineSearchConfig, args) == LineSearchConfig()

    def test_optimizer_flags_respected(self, generated, tmp_path):
        trace_out = tmp_path / "short.trace.csv"
        rc = main(["train", "--method", "error-direct", "--data", str(generated),
                   "--max-iters", "2", "--grad-tol-rel", "1e-300",
                   "--model-out", str(tmp_path / "m.model"), "--trace-out", str(trace_out)])
        assert rc == 0
        assert len(trace_out.read_text().splitlines()) == 3  # header + 2 rows

    def test_infinite_gradient_tolerance_fails_cleanly(self, generated, tmp_path, capsys):
        # it would stop every fit at iteration 0 on gradient-tolerance
        model_out = tmp_path / "m.model"
        rc = main(["train", "--method", "error-direct", "--data", str(generated),
                   "--grad-tol-rel", "inf", "--model-out", str(model_out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: grad_tol_rel must be finite, got inf\n"
        assert not model_out.exists()

    @pytest.mark.parametrize("method", ["error-direct", "auc-direct", "logistic", "hinge", "lda"])
    def test_negative_seed_fails_cleanly(self, generated, tmp_path, capsys, method):
        # lda and the direct methods never draw from the seed, and used to accept it
        model_out = tmp_path / "m.model"
        rc = main(["train", "--method", method, "--data", str(generated), "--seed", "-1",
                   "--model-out", str(model_out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not model_out.exists()

    def test_lda_trace_out_writes_no_trace(self, generated, tmp_path, capsys):
        trace_out = tmp_path / "t.csv"
        rc = main(["train", "--method", "lda", "--data", str(generated),
                   "--model-out", str(tmp_path / "m.model"), "--trace-out", str(trace_out)])
        assert rc == 0
        assert capsys.readouterr().err == "lda is closed form; no trace to write\n"
        assert not trace_out.exists()

    def test_missing_data_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["train", "--method", "lda", "--data", str(tmp_path / "absent.libsvm"),
                   "--model-out", str(tmp_path / "m.model")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    # hinge, hinge from a first step far above the accepted ones (its
    # searches backtrack and climb), and logistic
    @pytest.mark.parametrize("method, flags", [("hinge", []), ("hinge", ["--alpha0", "100000"]),
                                               ("logistic", [])],
                             ids=["hinge", "hinge-big-alpha0", "logistic"])
    def test_stop_line_counts_evaluations(self, scarce_and_toy, tmp_path, capsys, method, flags):
        trace_out = tmp_path / "t.csv"
        rc = main(["train", "--method", method, "--data", str(scarce_and_toy["toy"]), *flags,
                   "--model-out", str(tmp_path / "m.model"), "--trace-out", str(trace_out)])
        assert rc == 0
        stop = re.fullmatch(r"stopped after (\d+) iterations \(([a-z-]+)\), objective \S+, "
                            r"(\d+) evaluations", capsys.readouterr().out.splitlines()[1])
        iterations, reason, evaluations = int(stop[1]), stop[2], int(stop[3])
        # one trace row per iteration, and every evaluation is the start, an
        # accepted step or a trial not taken, counted cumulatively
        column = TRACE_HEADER.split(",").index("backtracks")
        counts = [int(row.split(",")[column]) for row in trace_out.read_text().splitlines()[1:]]
        assert len(counts) == iterations
        assert counts == sorted(counts)
        assert evaluations == 1 + iterations + counts[-1]
        if method == "hinge":
            # a piecewise-linear hinge cannot meet the relative-gradient stop
            assert reason == "max-iterations"
        if flags:
            assert counts[-1] > 0

    def test_lda_fits_fewer_rows_than_features(self, scarce_and_toy, tmp_path, capsys):
        # the pooled covariance is singular, so every fit takes the jitter path
        data = str(scarce_and_toy["scarce"])
        report = tmp_path / "cv.csv"
        assert main(["cv", "--method", "lda", "--data", data, "--folds", "3", "--repeats", "1",
                     "--seed", "0", "--report-out", str(report)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(" over 3/3 runs")
        assert [row.split(",")[-1] for row in report.read_text().splitlines()[1:-1]] == [""] * 3
        model_out = tmp_path / "m.model"
        assert main(["train", "--method", "lda", "--data", data,
                     "--model-out", str(model_out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_out), "--data", data]) == 0
        metrics = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert math.isfinite(float(metrics["accuracy"]))
        assert math.isfinite(float(metrics["auc"]))


class TestEval:
    def test_index_too_wide_names_its_line(self, generated, tmp_path, capsys):
        model_out = tmp_path / "m.model"
        assert main(["train", "--method", "lda", "--data", str(generated),
                     "--model-out", str(model_out)]) == 0
        capsys.readouterr()
        data = tmp_path / "wide.libsvm"
        # eval reads the file in the model's d=4, so the index is refused
        # before a matrix of 2 x 1e16 entries is attempted
        data.write_text("+1 1:1\n-1 10000000000000000:2\n")
        rc = main(["eval", "--model", str(model_out), "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 2: index 10000000000000000 is above the dimension 4\n")

    def test_prints_metrics(self, generated, tmp_path, capsys):
        model_out = tmp_path / "m.model"
        main(["train", "--method", "lda", "--data", str(generated),
              "--model-out", str(model_out)])
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_out), "--data", str(generated)])
        assert rc == 0
        out = capsys.readouterr().out
        # the benchmark reads eval's lines by these keys, in this order
        assert [line.split(" ", 1)[0] for line in out.splitlines()] == [
            "accuracy", "auc", "n_pos", "n_neg"]
        metrics = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert 0.5 <= float(metrics["accuracy"]) <= 1.0
        assert 0.5 <= float(metrics["auc"]) <= 1.0
        assert int(metrics["n_pos"]) == 150
        assert int(metrics["n_neg"]) == 150


    def test_sparse_file_with_comments(self, tmp_path, capsys):
        # unlisted entries are zero, and a file gen did not write has no twin
        data = tmp_path / "sparse.libsvm"
        data.write_text("# sparse toy: unlisted entries are zero\n+1 1:1.5 3:0.5\n"
                        "+1 1:2.0 2:0.25\n+1 1:1.0 2:-0.5 3:1.0\n+1 1:2.5\n-1 2:1.0 3:-0.5\n"
                        "-1 1:-1.0 3:-1.5\n-1 1:-0.5 2:1.5\n-1 3:-2.0 # last row\n")
        model_out = tmp_path / "m.model"
        assert main(["train", "--method", "error-direct", "--data", str(data),
                     "--model-out", str(model_out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_out), "--data", str(data)]) == 0
        metrics = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert (metrics["n_pos"], metrics["n_neg"]) == ("4", "4")


class TestTrailingZeroFeatures:
    """A file whose last feature is zero in every row lists no entry for it,
    so it is read in the dimension of the model or sidecar it meets."""

    @staticmethod
    def _files(generated, tmp_path):
        # the generated d=4 file with every 4: entry dropped, and with every
        # 4: entry written as an explicit zero; neither has a binary twin
        lines = generated.read_text(encoding="utf-8").splitlines()
        trimmed, zeroed = tmp_path / "trimmed.libsvm", tmp_path / "zeroed.libsvm"
        trimmed.write_text("".join(re.sub(r" 4:\S+$", "", line) + "\n" for line in lines))
        zeroed.write_text("".join(re.sub(r" 4:\S+$", " 4:0.0", line) + "\n" for line in lines))
        assert " 4:" not in trimmed.read_text()
        return trimmed, zeroed

    def test_eval_reads_the_file_in_the_models_dimension(self, generated, tmp_path, capsys):
        trimmed, zeroed = self._files(generated, tmp_path)
        model_out = tmp_path / "m.model"
        assert main(["train", "--method", "lda", "--data", str(generated),
                     "--model-out", str(model_out)]) == 0
        outputs = []
        for data in (trimmed, zeroed):
            capsys.readouterr()
            assert main(["eval", "--model", str(model_out), "--data", str(data)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert int(dict(line.split() for line in outputs[0].splitlines())["n_pos"]) == 150

    def test_cv_and_train_read_the_file_in_the_sidecars_dimension(self, generated, tmp_path,
                                                                  capsys):
        trimmed, zeroed = self._files(generated, tmp_path)
        sidecar = str(generated) + ".moments"
        reports = []
        for data in (trimmed, zeroed):
            report = tmp_path / f"{data.stem}.csv"
            assert main(["cv", "--method", "error-direct", "--data", str(data), "--moments",
                         sidecar, "--folds", "3", "--repeats", "1", "--seed", "2",
                         "--report-out", str(report)]) == 0
            assert capsys.readouterr().out.rstrip().endswith(" over 3/3 runs")
            reports.append(_masked_report(report))
            model_out = tmp_path / f"{data.stem}.model"
            assert main(["train", "--method", "auc-direct", "--data", str(data), "--moments",
                         sidecar, "--normalize", "--model-out", str(model_out)]) == 0
        assert reports[0] == reports[1]
        assert (tmp_path / "trimmed.model").read_bytes() == (tmp_path / "zeroed.model").read_bytes()


class TestCv:
    def test_report_written(self, generated, tmp_path, capsys):
        report_out = tmp_path / "cv.csv"
        rc = main(["cv", "--method", "lda", "--data", str(generated),
                   "--folds", "3", "--repeats", "2", "--seed", "5",
                   "--report-out", str(report_out)])
        assert rc == 0
        lines = report_out.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 1 + 6 + 1
        # the shape the benchmark's report reader relies on
        assert [len(line.split(",")) for line in lines] == [9] * 7 + [7]
        assert "lda" in capsys.readouterr().out

    def test_deterministic_modulo_timing(self, generated, tmp_path):
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        for path in (p1, p2):
            rc = main(["cv", "--method", "error-direct", "--data", str(generated),
                       "--folds", "2", "--repeats", "2", "--seed", "9",
                       "--report-out", str(path)])
            assert rc == 0
        assert _masked_report(p1) == _masked_report(p2)

    def test_exact_source_is_normalized_like_empirical(self, raw_units, tmp_path, capsys):
        # error-direct has no intercept: on raw units its boundary passes
        # through the raw origin and scored 0.942 here
        base = ["cv", "--method", "error-direct", "--data", str(raw_units),
                "--moments", str(raw_units) + ".moments"]
        for flag in ([], ["--per-fold-norm"]):
            assert main(base + flag + ["--report-out", str(tmp_path / "r.csv")]) == 0
            summary = capsys.readouterr().out.splitlines()[-1]
            assert summary.startswith("error-direct (exact): accuracy ")
            assert summary.endswith(" over 20/20 runs")
            assert float(summary.split()[3]) >= 0.98

    def test_sidecar_selects_exact_moments_for_lda(self, raw_units, tmp_path):
        report_out = tmp_path / "lda.csv"
        rc = main(["cv", "--method", "lda", "--data", str(raw_units),
                   "--moments", str(raw_units) + ".moments", "--folds", "2", "--repeats", "1",
                   "--seed", "4", "--report-out", str(report_out)])
        assert rc == 0
        # exact moments do not depend on the fold, so every fold scores one model
        model = lda_fit(load_moments(str(raw_units) + ".moments"))
        dataset = load_libsvm(raw_units)
        rows = [line.split(",") for line in report_out.read_text().splitlines()[1:-1]]
        assert len(rows) == 2
        for row, (_, test_idx) in zip(rows, kfold_split(dataset.n, 2, seed=4)):
            assert row[:2] == ["lda", "exact"]
            assert float(row[5]) == empirical_accuracy(model, dataset.subset(test_idx))

    def test_summary_says_when_no_run_completed(self, generated, tmp_path, capsys):
        # coinciding class means give lda no direction, so every fold fails
        sidecar = tmp_path / "same-means.moments"
        mu = np.zeros(4)
        save_moments(ClassMoments(mu, mu, np.eye(4), np.eye(4), 0.5, 0.5), sidecar)
        report_out = tmp_path / "cv.csv"
        rc = main(["cv", "--method", "lda", "--data", str(generated), "--moments", str(sidecar),
                   "--folds", "3", "--repeats", "2", "--report-out", str(report_out)])
        # the report is still written, then the command fails
        assert rc == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "lda (exact): no run completed (0/6 runs)"
        assert err == f"error: no run completed for {report_out}\n"
        assert len(report_out.read_text().splitlines()) == 1 + 6 + 1

    @pytest.mark.parametrize("method", ["error-direct", "auc-direct", "logistic", "hinge", "lda"])
    def test_each_method_completes_every_run(self, generated, tmp_path, capsys, method):
        rc = main(["cv", "--method", method, "--data", str(generated), "--folds", "3",
                   "--repeats", "1", "--seed", "0", "--report-out", str(tmp_path / "cv.csv")])
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith(" over 3/3 runs")

    def test_folds_of_one_row_complete_no_run(self, generated, tmp_path, capsys):
        # no test fold holds both classes, so every run fails; the report is
        # still written, then the command fails
        report_out = tmp_path / "lone.csv"
        rc = main(["cv", "--method", "lda", "--data", str(generated), "--folds", "300",
                   "--repeats", "1", "--report-out", str(report_out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no run completed for {report_out}\n"
        rows = report_out.read_text().splitlines()[1:-1]
        assert len(rows) == 300
        assert all(re.fullmatch(r"lda,empirical,\d+,\d+,0,,,,.+", row) for row in rows)

    @pytest.mark.parametrize("method", ["logistic", "hinge"])
    def test_sample_methods_reject_sidecar(self, generated, tmp_path, capsys, method):
        report_out = tmp_path / "cv.csv"
        rc = main(["cv", "--method", method, "--data", str(generated),
                   "--moments", str(generated) + ".moments", "--report-out", str(report_out)])
        assert rc == 1
        assert "error: " + method + " trains on samples" in capsys.readouterr().err
        assert not report_out.exists()

    def test_flags_build_the_config(self, generated, tmp_path):
        # every cv flag but --report-out is an ExperimentConfig field or an optimizer flag
        args = _build_parser().parse_args(["cv", "--method", "lda", "--data", str(generated),
                                           "--moments", "x.moments", "--folds", "3",
                                           "--seed", "2", "--per-fold-norm", "--max-iters", "9",
                                           "--report-out", str(tmp_path / "r.csv")])
        config = _from_args(ExperimentConfig, args, optimizer=_from_args(LineSearchConfig, args))
        assert config == ExperimentConfig(
            method="lda", data=str(generated), moments="x.moments", folds=3, seed=2,
            per_fold_norm=True, optimizer=LineSearchConfig(max_iters=9))

    # train checks through load_source, cv through ExperimentConfig
    @pytest.mark.parametrize("command, out_flag", [("cv", "--report-out"),
                                                   ("train", "--model-out")])
    def test_generator_moments_refused_for_a_file(self, generated, tmp_path, capsys, command,
                                                  out_flag):
        out = tmp_path / "out"
        rc = main([command, "--method", "error-direct", "--data", str(generated),
                   "--moments", "generator", out_flag, str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: moments 'generator' needs generated data")
        assert not out.exists()

    def test_no_normalize_is_rejected(self, generated, tmp_path, capsys):
        # cv always z-scores a file; --per-fold-norm is its one switch
        report_out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as raised:
            main(["cv", "--method", "lda", "--data", str(generated), "--no-normalize",
                  "--report-out", str(report_out)])
        assert raised.value.code == 2
        assert "unrecognized arguments: --no-normalize" in capsys.readouterr().err
        assert not report_out.exists()


class TestBench:
    def test_sweeps_configs_to_csvs(self, generated, tmp_path, capsys):
        configs = [
            {
                "name": "lda_file",
                "method": "lda",
                "data": str(generated),
                "folds": 2,
                "repeats": 1,
                "seed": 3,
            },
            {
                "name": "err_synth",
                "method": "error-direct",
                "moments": "generator",
                "data": {"d": 3, "n": 100, "prior_pos": 0.5, "seed": 4},
                "folds": 2,
                "repeats": 1,
                "seed": 3,
                "optimizer": {"max_iters": 50},
            },
        ]
        cfg_path = tmp_path / "configs.json"
        cfg_path.write_text(json.dumps(configs))
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        rc = main(["bench", "--configs", str(cfg_path), "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "lda_file.csv").exists()
        assert (out_dir / "err_synth.csv").exists()
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"wrote report to {out_dir / 'lda_file.csv'}"
        assert out[1].startswith("lda (empirical): accuracy ")
        assert out[2] == f"wrote report to {out_dir / 'err_synth.csv'}"
        assert out[3].startswith("error-direct (exact): accuracy ")

    def test_empty_config_list_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "empty.json"
        cfg_path.write_text("[]")
        rc = main(["bench", "--configs", str(cfg_path), "--out-dir", str(tmp_path / "r")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    # a file is always z-scored, so normalize is no key; per_fold_norm is the one
    # switch, and moments alone says where exact moments come from
    @pytest.mark.parametrize("key, value", [("fold", 10), ("normalize", False),
                                            ("moment_source", "exact"),
                                            ("moments_path", "toy.libsvm.moments")])
    def test_unknown_key_fails_before_running(self, generated, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps([
            {"name": "ok", "method": "lda", "data": str(generated), "folds": 2, "repeats": 1},
            {"name": "typo", "method": "lda", "data": str(generated), key: value},
        ]))
        out_dir = tmp_path / "r"
        out_dir.mkdir()
        rc = main(["bench", "--configs", str(cfg_path), "--out-dir", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config typo: ")
        assert f"unexpected keyword argument '{key}'" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("entry, message", [
        ({"name": "bad", "per_fold_norm": "false"}, "config bad: per_fold_norm must be a bool"),
        (1, "config config_01: entry must be a JSON object"),
        ({"name": "bad", "folds": "3"}, "config bad: folds must be an int"),
        ({"name": "bad", "optimizer": {"max_iters": True}}, "config bad: max_iters must be an int"),
        ({"name": "bad", "optimizer": {"max_backtracks": 2.5}},
         "config bad: max_backtracks must be an int"),
        ({"name": "bad", "data": {"d": 2.5, "n": 40, "prior_pos": 0.5}},
         "config bad: d must be an int"),
        ({"name": "bad", "data": {"d": 2, "n": 40, "prior_pos": 0.5, "seed": 1.5}},
         "config bad: seed must be an int"),
        ({"name": "bad", "moments": 0}, "config bad: moments must be a str or None"),
        ({"name": "bad", "method": "error-direct", "moments": True},
         "config bad: moments must be a str or None"),
        ({"name": "bad", "method": "error-direct", "moments": "generator"},
         "config bad: moments 'generator' needs generated data"),
        ({"name": "bad", "seed": -1}, "config bad: seed must be >= 0, got -1"),
        ({"name": "bad", "data": {"d": 2, "n": 40, "prior_pos": 0.5, "seed": -2}},
         "config bad: seed must be >= 0, got -2"),
        ({"name": "bad", "data": {"d": 2, "n": 40, "prior_pos": 0.5, "mean_scale": True}},
         "config bad: mean_scale must be a real number"),
        ({"name": "bad", "data": {"d": 2, "n": 40, "prior_pos": "0.5"}},
         "config bad: prior_pos must be a real number"),
        ({"name": "bad", "optimizer": {"alpha0": True, "grad_tol_rel": True}},
         "config bad: alpha0 must be a real number"),
        ({"name": "bad", "optimizer": {"grad_tol_rel": True}},
         "config bad: grad_tol_rel must be a real number"),
        ({"name": "bad", "optimizer": {"grad_tol_rel": math.inf}},
         "config bad: grad_tol_rel must be finite, got inf"),
        ({"name": "bad", "optimizer": {"alpha0": math.inf}},
         "config bad: alpha0 must be finite, got inf"),
        ({"name": "bad", "optimizer": {"alpha0": 10**400}},
         "config bad: alpha0 must be finite, got 1000"),
        ({"name": "bad", "data": {"d": 2, "n": 40, "prior_pos": 0.5, "cov_scale": math.inf}},
         "config bad: cov_scale must be finite, got inf"),
        ({"name": "bad", "data": {"d": 2, "n": 40, "prior_pos": 0.5, "mean_scale": -math.inf}},
         "config bad: mean_scale must be finite, got -inf"),
        ({"name": "sub/b"}, "config config_01: name must be a plain file name, got 'sub/b'"),
        ({"name": "/abs"}, "config config_01: name must be a plain file name"),
        ({"name": ""}, "config config_01: name must be a plain file name"),
        ({"name": "."}, "config config_01: name must be a plain file name"),
        ({"name": ".."}, "config config_01: name must be a plain file name"),
        ({"name": 5}, "config config_01: name must be a plain file name, got 5"),
    ])
    def test_malformed_entry_fails_before_running(self, generated, tmp_path, capsys,
                                                  entry, message):
        ok = {"name": "ok", "method": "lda", "data": str(generated), "folds": 2, "repeats": 1}
        if isinstance(entry, dict):
            entry = {**ok, **entry}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps([ok, entry]))
        out_dir = tmp_path / "r"
        out_dir.mkdir()
        rc = main(["bench", "--configs", str(cfg_path), "--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: " + message)
        assert list(out_dir.iterdir()) == []

    @staticmethod
    def _refused(tmp_path, capsys, entries, out_dir, label, configs="bench.json"):
        """bench exits 1 with one error line for label and changes no file; returns the line."""
        (tmp_path / configs).write_text(json.dumps(entries))
        before = _snapshot(tmp_path)
        assert main(["bench", "--configs", configs, "--out-dir", out_dir]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: config {label} ")
        assert _snapshot(tmp_path) == before
        return err

    def test_report_may_not_overwrite_the_data(self, generated, tmp_path, capsys, monkeypatch):
        # this sweep used to exit 0 and replace toy.csv with its report
        monkeypatch.chdir(tmp_path)
        shutil.copy(generated, "toy.csv")
        entry = {"name": "toy", "method": "lda", "data": "toy.csv", "folds": 3, "repeats": 1}
        self._refused(tmp_path, capsys, [entry], ".", "toy")

    def test_report_may_not_overwrite_the_configs(self, generated, tmp_path, capsys,
                                                   monkeypatch):
        # this sweep used to exit 0 and replace its own configs file with a report
        monkeypatch.chdir(tmp_path)
        Path("out").mkdir()
        entry = {"name": "c", "method": "lda", "data": str(generated), "folds": 2, "repeats": 1}
        err = self._refused(tmp_path, capsys, [entry], "out", "c", configs="out/c.csv")
        assert err == "error: config c out/c.csv names the --configs file\n"

    # a missing input used to surface only when its entry ran, after the
    # entries before it had written their reports
    # a data path named like the moments sentinel is a path like any other
    @pytest.mark.parametrize("key, path", [("data", "typo.data"), ("moments", "typo.moments"),
                                           ("data", "generator")])
    def test_missing_input_is_refused_before_any_entry_runs(self, generated, tmp_path, capsys,
                                                            monkeypatch, key, path):
        monkeypatch.chdir(tmp_path)
        ok = {"name": "a", "method": "lda", "data": str(generated), "folds": 2, "repeats": 1}
        typo = {**ok, "name": "b", key: path}
        err = self._refused(tmp_path, capsys, [ok, typo], ".", "b:")
        assert err == f"error: config b: no {key} file {path}\n"

    def test_report_may_not_overwrite_a_sidecar(self, generated, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(str(generated) + ".moments", "m.csv")
        entry = {"name": "m", "method": "lda", "data": str(generated), "moments": "m.csv",
                 "folds": 2, "repeats": 1}
        self._refused(tmp_path, capsys, [entry], ".", "m")

    # an unnamed entry i is config_<i>, so a named entry cannot take its report
    @pytest.mark.parametrize("first, second", [("twice", "twice"), ("config_01", None)],
                             ids=["same-name", "default-name"])
    def test_two_entries_may_not_share_a_report(self, generated, tmp_path, capsys, monkeypatch,
                                                first, second):
        monkeypatch.chdir(tmp_path)
        Path("reports").mkdir()
        entry = {"method": "lda", "data": str(generated), "folds": 2, "repeats": 1}
        named = [{**entry, "name": name} if name else entry for name in (first, second)]
        self._refused(tmp_path, capsys, named, "reports", first)

    def test_missing_out_dir_is_refused(self, generated, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        entry = {"name": "ok", "method": "lda", "data": str(generated), "folds": 2, "repeats": 1}
        self._refused(tmp_path, capsys, [entry], "nodir", "ok")

    def test_entry_with_no_completed_run_fails_the_sweep(self, generated, tmp_path, capsys):
        # coinciding class means give lda no direction, so every fold of "bad" fails
        sidecar = tmp_path / "same-means.moments"
        save_moments(ClassMoments(np.zeros(4), np.zeros(4), np.eye(4), np.eye(4), 0.5, 0.5),
                     sidecar)
        good = {"name": "good", "method": "lda", "data": str(generated), "folds": 2, "repeats": 1}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps([{**good, "name": "bad", "moments": str(sidecar)}, good]))
        rc = main(["bench", "--configs", str(cfg_path), "--out-dir", str(tmp_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == "lda (exact): no run completed (0/2 runs)"
        assert out.splitlines()[3].endswith(" over 2/2 runs")
        assert err == f"error: no run completed for {tmp_path / 'bad.csv'}\n"
        for name, completed in (("bad", 0), ("good", 2)):
            rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:-1]
            assert sum(row.split(",")[5] != "" for row in rows) == completed


class TestParserBuiltOnce:
    """main() builds its parser once per process; no call sees another's flags."""

    def test_parser_is_cached(self):
        assert _build_parser() is _build_parser()

    @staticmethod
    def _run(capsys, argv):
        rc = main(argv)
        out = capsys.readouterr()
        assert rc == 0, out.err
        # the summary line's training seconds are timing, not output
        return re.sub(r"train [0-9.]+s over", "train _s over", out.out), out.err

    def test_cv_after_per_fold_norm_matches_a_fresh_parser(self, generated, tmp_path, capsys):
        report = tmp_path / "cv.csv"
        plain = ["cv", "--method", "error-direct", "--data", str(generated), "--folds", "2",
                 "--repeats", "1", "--max-iters", "20", "--report-out", str(report)]
        _build_parser.cache_clear()
        fresh = self._run(capsys, plain)
        fresh_report = _masked_report(report)
        self._run(capsys, plain + ["--per-fold-norm"])
        assert _masked_report(report) != fresh_report  # the flag changes the fits
        assert self._run(capsys, plain) == fresh
        assert _masked_report(report) == fresh_report

    def test_train_after_trace_out_matches_a_fresh_parser(self, generated, tmp_path, capsys):
        model_out = tmp_path / "m.model"
        trace_out = tmp_path / "t.csv"
        plain = ["train", "--method", "logistic", "--data", str(generated), "--max-iters", "20",
                 "--model-out", str(model_out)]
        _build_parser.cache_clear()
        fresh = self._run(capsys, plain)
        fresh_model = model_out.read_bytes()
        traced = self._run(capsys, plain + ["--trace-out", str(trace_out)])
        assert f"wrote trace to {trace_out}" in traced[0]
        trace_out.unlink()
        assert self._run(capsys, plain) == fresh
        assert model_out.read_bytes() == fresh_model
        assert not trace_out.exists()


class TestConfigDefaults:
    """gen and cv take every config field left off the command line from its dataclass."""

    @staticmethod
    def _assert_dataclass_defaults(cls, args, given):
        left_out = [f for f in dataclasses.fields(cls) if f.name not in given]
        assert left_out
        for f in left_out:
            value = getattr(args, f.name)
            assert value == f.default and type(value) is type(f.default), f.name

    def test_gen(self):
        args = _build_parser().parse_args(["gen", "--d", "3", "--n", "40", "--prior-pos", "0.5",
                                           "--out", "unused.libsvm"])
        self._assert_dataclass_defaults(GaussianSpec, args, {"d", "n", "prior_pos"})
        assert _from_args(GaussianSpec, args) == GaussianSpec(d=3, n=40, prior_pos=0.5)

    def test_cv(self):
        args = _build_parser().parse_args(["cv", "--method", "lda", "--data", "unused.libsvm",
                                           "--report-out", "unused.csv"])
        self._assert_dataclass_defaults(ExperimentConfig, args, {"method", "data", "optimizer"})
        self._assert_dataclass_defaults(LineSearchConfig, args, set())
        config = _from_args(ExperimentConfig, args, optimizer=_from_args(LineSearchConfig, args))
        assert config == ExperimentConfig(method="lda", data="unused.libsvm")
