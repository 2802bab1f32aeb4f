"""End-to-end tests of the command-line interface."""

import contextlib
import dataclasses
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
from momentclf.model import LinearModel


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
        (["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5", "--out", "o.libsvm"],
         "--out o.libsvm.npz is a directory"),
        (["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5", "--out", "f.libsvm"],
         "--out f.libsvm.npz is not a regular file"),
        (["train", "--method", "lda", "--data", "g.libsvm", "--model-out", "afile/m.txt"],
         "--model-out afile/m.txt: afile is not a directory"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "nodir/r.csv"],
         "--report-out nodir/r.csv: directory nodir does not exist"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "afile/r.csv"],
         "--report-out afile/r.csv: afile is not a directory"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "g.libsvm.npz"],
         "--report-out g.libsvm.npz names the data file or its binary twin"),
        (["cv", "--method", "lda", "--data", "g.libsvm", "--report-out", "/dev/null"],
         "--report-out /dev/null is not a regular file"),
    ], ids=["model-is-trace", "report-is-data", "model-is-data", "trace-dir-missing",
            "model-is-twin", "report-is-sidecar", "model-is-directory", "report-is-directory",
            "model-is-fifo", "report-is-fifo", "trace-is-device", "twin-is-directory",
            "twin-is-fifo", "model-dir-is-file", "report-dir-missing", "report-dir-is-file",
            "report-is-twin", "report-is-device"])
    def test_refused_before_any_work(self, generated, tmp_path, capsys, monkeypatch, argv,
                                     message):
        monkeypatch.chdir(tmp_path)
        for suffix in ("", ".npz", ".moments"):
            shutil.copy(str(generated) + suffix, "g.libsvm" + suffix)
        (tmp_path / "adir").mkdir()
        (tmp_path / "o.libsvm.npz").mkdir()
        os.mkfifo(tmp_path / "afifo")
        os.mkfifo(tmp_path / "f.libsvm.npz")
        (tmp_path / "afile").touch()
        before = _snapshot(tmp_path)
        # gen's work starts with gen_gaussian, train's with load_source, cv's with
        # run_experiment
        started = []
        for name in ("gen_gaussian", "load_source", "run_experiment"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: started.append(name))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert started == []
        assert _snapshot(tmp_path) == before

    # a writer that the check does not know about shows up here as a second
    # error line or a file left behind
    @pytest.mark.parametrize("argv", [
        ["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5", "--out", "o.libsvm"],
        ["train", "--method", "error-direct", "--data", "{data}", "--model-out", "m.txt",
         "--trace-out", "t.csv"],
        ["cv", "--method", "lda", "--data", "{data}", "--folds", "2", "--repeats", "1",
         "--report-out", "r.csv"],
    ], ids=["gen", "train", "cv"])
    def test_every_written_file_is_checked_before_any_work(self, generated, tmp_path, capsys,
                                                           monkeypatch, argv):
        argv = [arg.format(data=generated) for arg in argv]
        first = tmp_path / "first"
        first.mkdir()
        monkeypatch.chdir(first)
        assert main(argv) == 0
        capsys.readouterr()
        written = sorted(_snapshot(first))
        assert written
        for i, name in enumerate(written):
            run = tmp_path / f"run{i}"
            (run / name).mkdir(parents=True)
            monkeypatch.chdir(run)
            before = _snapshot(run)
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (name, err)
            assert _snapshot(run) == before, name

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


class TestInputRule:
    """Every file a command reads is checked, before any work, by the rule
    that checks its outputs.

    The data file, hashed and then parsed, must be a regular file: a FIFO
    used to block train, eval and cv, and /dev/zero to be hashed forever.
    The other inputs are read once and may be pipes but not devices, which
    used to be read until memory ran out.  A missing input used to give a
    bare OSError.
    """

    ARGV = {
        "train --data": ["train", "--method", "lda", "--data", "{path}", "--model-out", "o.txt"],
        "eval --data": ["eval", "--model", "m.txt", "--data", "{path}"],
        "cv --data": ["cv", "--method", "lda", "--data", "{path}", "--report-out", "o.csv"],
        "eval --model": ["eval", "--model", "{path}", "--data", "g.libsvm"],
        "train --moments": ["train", "--method", "error-direct", "--data", "g.libsvm",
                            "--moments", "{path}", "--model-out", "o.txt"],
        "cv --moments": ["cv", "--method", "error-direct", "--data", "g.libsvm",
                         "--moments", "{path}", "--report-out", "o.csv"],
    }
    PATHS = {"missing": "nofile", "directory": "adir", "fifo": "afifo", "device": "/dev/null"}
    REFUSAL = {"missing": "does not exist", "directory": "is a directory",
               "fifo": "is not a regular file", "device": "is not a regular file"}

    @pytest.mark.parametrize("command, kind", [
        *((command, kind) for command in ("train --data", "eval --data", "cv --data")
          for kind in ("missing", "directory", "fifo", "device")),
        *((command, kind) for command in ("eval --model", "train --moments", "cv --moments")
          for kind in ("missing", "directory", "device")),
    ])
    def test_refused_before_any_work(self, generated, tmp_path, capsys, monkeypatch, deadline,
                                     command, kind):
        monkeypatch.chdir(tmp_path)
        for suffix in ("", ".npz", ".moments"):
            shutil.copy(str(generated) + suffix, "g.libsvm" + suffix)
        save_model(LinearModel(w=np.ones(4)), "m.txt")
        (tmp_path / "adir").mkdir()
        os.mkfifo(tmp_path / "afifo")
        path = self.PATHS[kind]
        before = _snapshot(tmp_path)
        assert main([arg.format(path=path) for arg in self.ARGV[command]]) == 1
        flag = command.split()[-1]
        # only the data file must be a regular file
        refusal = self.REFUSAL[kind] + (" or a pipe" if kind == "device" and flag != "--data"
                                        else "")
        assert capsys.readouterr().err == f"error: {flag} {path} {refusal}\n"
        assert _snapshot(tmp_path) == before

    @staticmethod
    @contextlib.contextmanager
    def _pipe(data: bytes):
        """A /dev/fd path to the read end of a pipe that holds data and then ends."""
        read, write = os.pipe()
        os.write(write, data)
        os.close(write)
        try:
            yield f"/dev/fd/{read}"
        finally:
            os.close(read)

    def test_model_and_moments_may_be_pipes(self, generated, tmp_path, capsys, deadline):
        model = tmp_path / "m.txt"
        save_model(LinearModel(w=np.array([1.0, -2.0, 0.5, 0.0]), intercept=0.25), model)
        assert main(["eval", "--model", str(model), "--data", str(generated)]) == 0
        from_file = capsys.readouterr().out
        with self._pipe(model.read_bytes()) as piped:
            assert main(["eval", "--model", piped, "--data", str(generated)]) == 0
        assert capsys.readouterr().out == from_file
        # train writes the same model, and cv the same report rows, timing aside
        sidecar = Path(f"{generated}.moments")
        fit = ["--method", "error-direct", "--data", str(generated), "--max-iters", "20"]
        for argv, read in ((["train", *fit, "--model-out"], Path.read_bytes),
                           (["cv", *fit, "--folds", "2", "--repeats", "1", "--report-out"],
                            _masked_report)):
            from_file, from_pipe = tmp_path / "from-file", tmp_path / "from-pipe"
            assert main([*argv, str(from_file), "--moments", str(sidecar)]) == 0
            with self._pipe(sidecar.read_bytes()) as piped:
                assert main([*argv, str(from_pipe), "--moments", piped]) == 0
            assert read(from_pipe) == read(from_file)

    def test_error_without_a_message_names_its_type(self, tmp_path, capsys, monkeypatch):
        # a MemoryError() used to print "error: " and nothing after it
        def exhausted(spec):
            raise MemoryError()

        monkeypatch.setattr(cli, "gen_gaussian", exhausted)
        assert main(["gen", "--d", "2", "--n", "40", "--prior-pos", "0.5",
                     "--out", str(tmp_path / "o.libsvm")]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    # a data path spelled like the moments sentinel is a path like any other
    @pytest.mark.parametrize("command", ["train --data", "cv --data"])
    def test_data_named_generator_is_a_missing_file(self, tmp_path, capsys, monkeypatch,
                                                    command):
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(path="generator") for arg in self.ARGV[command]]) == 1
        assert capsys.readouterr().err == "error: --data generator does not exist\n"
        assert list(tmp_path.iterdir()) == []


class TestKnobRule:
    """A knob set by a flag is checked by its config's own rule, and a value
    out of its range makes the command exit 1 with that rule's one line.

    A flag of the wrong type is argparse's usage error, exit 2.  Either way
    no file is written.
    """

    # each optimizer knob just outside its range; train and cv both take them
    OPTIMIZER = [
        (["--c", "0"], "c must lie in (0, 1), got 0.0"),
        (["--c", "1"], "c must lie in (0, 1), got 1.0"),
        (["--beta", "0"], "beta must lie in (0, 1), got 0.0"),
        (["--beta", "1"], "beta must lie in (0, 1), got 1.0"),
        (["--alpha0", "0"], "alpha0 must be positive, got 0.0"),
        (["--alpha0=-inf"], "alpha0 must be finite, got -inf"),
        (["--alpha0", "nan"], "alpha0 must be finite, got nan"),
        # past the float range, the flag parses as inf
        (["--alpha0", "1e400"], "alpha0 must be finite, got inf"),
        (["--grad-tol-rel", "0"], "grad_tol_rel must be positive, got 0.0"),
        (["--grad-tol-rel", "inf"], "grad_tol_rel must be finite, got inf"),
        (["--max-iters", "0"], "max_iters must be >= 1, got 0"),
        (["--max-backtracks", "0"], "max_backtracks must be >= 1, got 0"),
    ]
    # the knobs of the CV protocol, which only cv takes
    PROTOCOL = [
        (["--folds", "1"], "folds must be >= 2, got 1"),
        (["--repeats", "0"], "repeats must be >= 1, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ]
    ARGV = {
        "train": ["train", "--method", "error-direct", "--data", "g.libsvm",
                  "--model-out", "m.txt", "--trace-out", "t.csv"],
        "cv": ["cv", "--method", "error-direct", "--data", "g.libsvm",
               "--moments", "g.libsvm.moments", "--report-out", "r.csv"],
    }

    @pytest.fixture
    def workdir(self, generated, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for suffix in ("", ".npz", ".moments"):
            shutil.copy(str(generated) + suffix, "g.libsvm" + suffix)
        return tmp_path

    @pytest.mark.parametrize("command, flags, message", [
        *(("train", flags, message) for flags, message in OPTIMIZER),
        *(("cv", flags, message) for flags, message in OPTIMIZER + PROTOCOL),
    ])
    def test_out_of_range_fails_cleanly(self, workdir, capsys, command, flags, message):
        before = _snapshot(workdir)
        assert main(self.ARGV[command] + flags) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert _snapshot(workdir) == before

    @pytest.mark.parametrize("flags, message", [
        (["--folds", "2.5"], "argument --folds: invalid int value: '2.5'"),
        (["--max-iters", "1e3"], "argument --max-iters: invalid int value: '1e3'"),
        (["--alpha0", "one"], "argument --alpha0: invalid float value: 'one'"),
    ])
    def test_wrong_type_is_a_usage_error(self, workdir, capsys, flags, message):
        before = _snapshot(workdir)
        with pytest.raises(SystemExit) as raised:
            main(self.ARGV["cv"] + flags)
        assert raised.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert _snapshot(workdir) == before


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


class TestSidecarOnlyTrain:
    """A moment method's train given --moments needs no --data and reads
    only the sidecar; a fit that would need the data refuses without it."""

    @staticmethod
    def _masked_trace(path):
        # every column but the last, seconds, is output
        return [row.rsplit(",", 1)[0] for row in path.read_text().splitlines()]

    @pytest.mark.parametrize("method", ["error-direct", "auc-direct", "lda"])
    def test_same_bytes_as_with_data(self, generated, tmp_path, capsys, monkeypatch, method):
        runs = {}
        for source in ("data", "sidecar"):
            if source == "sidecar":  # any LIBSVM read now fails the run
                def refuse(*args, **kwargs):
                    raise AssertionError("a LIBSVM file was read")
                monkeypatch.setattr("momentclf.harness.load_libsvm", refuse)
                monkeypatch.setattr("momentclf.data.parse_libsvm", refuse)
            model, trace = tmp_path / f"{source}.model", tmp_path / f"{source}.csv"
            argv = ["train", "--method", method, "--moments", str(generated) + ".moments",
                    "--model-out", str(model)]
            argv += ["--data", str(generated)] if source == "data" else []
            argv += ["--trace-out", str(trace)] if method != "lda" else []
            assert main(argv) == 0
            out, err = capsys.readouterr()
            masked = self._masked_trace(trace) if method != "lda" else None
            runs[source] = (model.read_bytes(), err, masked,
                            out.replace(str(model), "MODEL").replace(str(trace), "TRACE"))
        assert runs["sidecar"] == runs["data"]

    @pytest.mark.parametrize("argv, message", [
        (["--method", "lda"], "a fit without data needs a sidecar of exact moments"),
        (["--method", "error-direct", "--normalize"],
         "a fit without data needs a sidecar of exact moments"),
        (["--method", "lda", "--moments", "g.libsvm.moments", "--normalize"],
         "normalize learns the z-score from the data, so it needs data"),
        (["--method", "auc-direct", "--moments", "g.libsvm.moments", "--normalize",
          "--trace-out", "t.csv"],
         "normalize learns the z-score from the data, so it needs data"),
        (["--method", "logistic", "--moments", "g.libsvm.moments"],
         "logistic trains on samples, not moments; exact moments apply only to "
         "error-direct, auc-direct, lda"),
        (["--method", "hinge", "--moments", "g.libsvm.moments"],
         "hinge trains on samples, not moments; exact moments apply only to "
         "error-direct, auc-direct, lda"),
    ], ids=["no-sidecar", "no-sidecar-normalize", "normalize", "normalize-trace", "logistic",
            "hinge"])
    def test_refused_without_data(self, generated, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        for suffix in ("", ".npz", ".moments"):
            shutil.copy(str(generated) + suffix, "g.libsvm" + suffix)
        before = _snapshot(tmp_path)
        assert main(["train", *argv, "--model-out", "m.txt"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert _snapshot(tmp_path) == before


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

    def test_data_stays_required(self, generated, tmp_path, capsys):
        # folds need rows, so a sidecar does not stand in for --data as in train
        report_out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as raised:
            main(["cv", "--method", "lda", "--moments", str(generated) + ".moments",
                  "--report-out", str(report_out)])
        assert raised.value.code == 2
        assert "the following arguments are required: --data" in capsys.readouterr().err
        assert not report_out.exists()

    def test_no_normalize_is_rejected(self, generated, tmp_path, capsys):
        # cv always z-scores a file; --per-fold-norm is its one switch
        report_out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as raised:
            main(["cv", "--method", "lda", "--data", str(generated), "--no-normalize",
                  "--report-out", str(report_out)])
        assert raised.value.code == 2
        assert "unrecognized arguments: --no-normalize" in capsys.readouterr().err
        assert not report_out.exists()


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


_HELP = ("-h", "--help"), "help", None, "==SUPPRESS==", False, "show this help message and exit"


def _fitting(data_required):
    # train's --data is optional, since a moment method can fit a sidecar alone;
    # cv's is required, since folds need rows
    return [
        (("--method",), "method", None, None, True, None),
        (("--data",), "data", None, None, data_required, "LIBSVM path"),
        (("--moments",), "moments", None, None, False,
         "exact-moments sidecar; selects exact moments"),
        (("--c",), "c", float, 0.0001, False, "Armijo sufficient-decrease constant"),
        (("--beta",), "beta", float, 0.5, False, "backtracking shrink factor"),
        (("--alpha0",), "alpha0", float, 1.0, False, "initial step size"),
        (("--max-iters",), "max_iters", int, 250, False, "maximum accepted steps"),
        (("--grad-tol-rel",), "grad_tol_rel", float, 1e-07, False,
         "stop when the gradient norm falls below this times its start value"),
        (("--max-backtracks",), "max_backtracks", int, 60, False,
         "maximum step shrinks per line search"),
    ]


# every option of every subcommand: option strings, dest, type, default,
# required and help, in the order the parser holds them
FLAG_TABLE = {
    "gen": [
        _HELP,
        (("--d",), "d", int, None, True, "feature dimension"),
        (("--n",), "n", int, None, True, "total sample count"),
        (("--prior-pos",), "prior_pos", float, None, True, "positive-class probability"),
        (("--outlier-pct",), "outlier_pct", float, 0.0, False,
         "percent of each class to label-flip"),
        (("--seed",), "seed", int, 0, False, None),
        (("--mean-scale",), "mean_scale", float, 1.0, False, None),
        (("--cov-scale",), "cov_scale", float, 1.0, False, None),
        (("--out",), "out", None, None, True,
         "output LIBSVM path; its binary twin OUT.npz, which later loads read instead of "
         "parsing the unchanged text, is written next to it"),
        (("--moments-out",), "moments_out", None, None, False,
         "sidecar path (default: OUT.moments)"),
    ],
    "train": [
        _HELP,
        *_fitting(data_required=False),
        (("--normalize",), "normalize", None, False, False, "z-score the data first"),
        (("--seed",), "seed", int, 0, False, "random-start seed"),
        (("--model-out",), "model_out", None, None, True, None),
        (("--trace-out",), "trace_out", None, None, False, None),
    ],
    "eval": [
        _HELP,
        (("--model",), "model", None, None, True, None),
        (("--data",), "data", None, None, True, None),
        (("--normalize",), "normalize", None, False, False,
         "z-score the file with its own statistics; this reproduces train --normalize only "
         "on the training file"),
        (("--ties",), "ties", None, "strict", False, None),
    ],
    "cv": [
        _HELP,
        *_fitting(data_required=True),
        (("--folds",), "folds", int, 5, False, None),
        (("--repeats",), "repeats", int, 4, False, None),
        (("--seed",), "seed", int, 0, False, None),
        (("--per-fold-norm",), "per_fold_norm", None, False, False,
         "learn the z-score on each training fold (default: z-score the file once before CV)"),
        (("--report-out",), "report_out", None, None, True, None),
    ],
}


def test_every_flag_matches_the_table():
    # the flags built from config fields must read as the hand-written ones
    # did; a default is compared by its repr, so 0 and 0.0 differ
    (subcommands,) = [a for a in _build_parser()._actions if a.choices]
    assert list(subcommands.choices) == list(FLAG_TABLE)
    for name, sub in subcommands.choices.items():
        built = [(tuple(a.option_strings), a.dest, a.type, repr(a.default), a.required, a.help)
                 for a in sub._actions]
        assert built == [(*row[:3], repr(row[3]), *row[4:]) for row in FLAG_TABLE[name]], name
