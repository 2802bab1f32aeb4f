"""Tests for dataset handling: parsing, normalization, generation, splits."""

import errno
import hashlib
import os

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    Dataset,
    ExperimentConfig,
    ExperimentReport,
    GaussianSpec,
    LinearModel,
    ParseError,
    RunResult,
    apply_zscore,
    emit_report,
    estimate_class_moments,
    format_libsvm,
    gen_gaussian,
    inject_outliers,
    kfold_split,
    load_libsvm,
    load_model,
    load_moments,
    normalize_zscore,
    parse_libsvm,
    save_libsvm,
    save_model,
    save_moments,
)
from momentclf import data as data_module
from momentclf import errors as errors_module

import oracles


class TestDatasetValidation:
    def test_rejects_label_values_other_than_pm_one(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[1.0]]), labels=np.array([2]))

    @pytest.mark.parametrize("labels", [[1.5, -1.7], ["1", "-1"], [True, True], [True, False]])
    def test_labels_are_checked_before_the_int_cast(self, labels):
        # a cast to int64 before the check would truncate 1.5 to 1 and parse '1'
        with pytest.raises(ValueError, match="^labels must be"):
            Dataset(features=np.ones((2, 1)), labels=np.array(labels))

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.inf]]), labels=np.array([1]))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((3, 2)), labels=np.array([1, -1]))

    def test_counts_and_subset(self):
        ds = Dataset(
            features=np.arange(8, dtype=float).reshape(4, 2),
            labels=np.array([1, -1, 1, -1]),
        )
        assert ds.n == 4 and ds.dim == 2
        assert ds.n_pos == 2 and ds.n_neg == 2
        sub = ds.subset(np.array([2, 0]))
        assert np.array_equal(sub.features, ds.features[[2, 0]])
        assert np.array_equal(sub.labels, np.array([1, 1]))


class TestParseLibsvm:
    def test_two_line_example(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
        assert np.array_equal(ds.features, np.array([[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]))
        assert np.array_equal(ds.labels, np.array([1, -1]))

    def test_numerically_larger_label_maps_to_positive(self):
        ds = parse_libsvm("0 1:1\n1 1:2")
        assert np.array_equal(ds.labels, np.array([-1, 1]))

    def test_decreasing_index_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 3:1 2:5")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 0:3")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 1:abc")

    def test_missing_colon_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 12")

    def test_more_than_two_labels_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 1:1\n2 1:1\n3 1:1")

    def test_single_label_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 1:1\n1 1:2")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n+1 1:1.5 # trailing note\n\n-1 1:-2.5\n"
        ds = parse_libsvm(text)
        assert ds.n == 2
        assert ds.features[0, 0] == 1.5

    def test_crlf_lines_accepted(self):
        ds = parse_libsvm("+1 1:1\r\n-1 1:2\r\n")
        assert ds.n == 2

    def test_bytes_input_accepted(self):
        ds = parse_libsvm(b"+1 1:1\n-1 1:2\n")
        assert ds.n == 2

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 1:inf\n-1 1:2")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("# nothing here\n")

    @pytest.mark.parametrize("text, message", [
        # 2 x 1e16 float64 entries are 142 PiB, past any 64-bit address
        # space, so no allocator grants them, however it overcommits
        ("+1 1:1\n-1 10000000000000000:2\n",
         "line 2: index 10000000000000000 makes a matrix of 2 x 10000000000000000 entries "
         "that cannot be allocated"),
        ("+1 1:1 10000000000000000:2\n-1 1:3\n+1 2:1\n",
         "line 1: index 10000000000000000 makes a matrix of 3 x 10000000000000000 entries "
         "that cannot be allocated"),
        # past numpy's largest dimension; the column still fits the int64 array
        (f"+1 1:1\n-1 {2**63}:2\n",
         f"line 2: index {2**63} makes a matrix of 2 x {2**63} entries that cannot be allocated"),
        # past the int64 column array itself
        (f"+1 1:1\n-1 {2**64}:2\n", f"line 2: index {2**64} is too large"),
    ])
    def test_index_too_wide_names_its_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_libsvm(text)
        assert str(info.value) == message

    def test_dim_pads_trailing_zero_columns(self):
        text = "+1 1:0.5 3:2.0\n-1 2:1.0\n"
        ds = parse_libsvm(text, dim=5)
        assert ds.features.shape == (2, 5)
        assert ds.features[:, :3].tobytes() == parse_libsvm(text).features.tobytes()
        assert not ds.features[:, 3:].any()
        assert parse_libsvm(text, dim=3).features.tobytes() == parse_libsvm(text).features.tobytes()

    def test_dim_reads_rows_without_entries(self):
        # the dimension is known, so a file of zero rows still has a width
        ds = parse_libsvm("+1\n-1\n", dim=2)
        assert ds.features.tobytes() == np.zeros((2, 2)).tobytes()
        with pytest.raises(ParseError, match="no feature entries"):
            parse_libsvm("+1\n-1\n")

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1 3:2\n-1 2:1\n", "line 1: index 3 is above the dimension 2"),
        ("+1 1:1\n# note\n-1 2:1\n+1 1:1 4:1\n-1 5:1\n", "line 4: index 4 is above the dimension 3"),
        ("+1 1:1\n-1 10000000000000000:2\n",
         "line 2: index 10000000000000000 is above the dimension 3"),
    ])
    def test_index_above_dim_names_the_first_such_line(self, text, message):
        dim = int(message.rsplit(" ", 1)[1])
        with pytest.raises(ParseError) as info:
            parse_libsvm(text, dim=dim)
        assert str(info.value) == message

    @pytest.mark.parametrize("raw, message", [
        (b"+1 1:0.5\n-1 1:\xff\n", "line 2: text is not UTF-8 (invalid start byte)"),
        (b"+1 1:0.5\r\n\r\n-1 1:0.25 # caf\xc3\n", "line 3: text is not UTF-8 (invalid "
         "continuation byte)"),
        (b"+1 1:0.5\n-1 1:\xc3", "line 2: text is not UTF-8 (unexpected end of data)"),
        # a malformed line before the bytes is named first
        (b"+1 3:1 2:5\n-1 1:\xff\n", "line 1: index 2 does not increase (previous 3)"),
    ])
    def test_text_not_utf8_names_its_line(self, tmp_path, raw, message):
        path = tmp_path / "data.libsvm"
        path.write_bytes(raw)
        for parse in (parse_libsvm, lambda raw: load_libsvm(path)):
            with pytest.raises(ParseError) as info:
                parse(raw)
            assert str(info.value) == message

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            parse_libsvm("+1 1:1\n-1 1:2\n", dim=dim)


class TestRoundTrip:
    def test_serializer_round_trips_bit_exactly(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-8, 9, size=(30, 4))
        y = np.where(rng.random(30) < 0.5, 1, -1)
        y[0] = 1
        y[1] = -1
        ds = Dataset(features=X, labels=y)
        back = parse_libsvm(format_libsvm(ds))
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_writer_matches_entry_by_entry_reference(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 50)) * 10.0 ** rng.integers(-300, 300, size=(20, 50))
        X[0, :len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS
        ds = Dataset(features=X, labels=np.array([1, -1] * 10))
        text = format_libsvm(ds)
        assert text == oracles.libsvm_text(ds.features, ds.labels)
        _assert_tokens_round_trip(text, ds)

    def test_trailing_zero_column_survives(self):
        ds = Dataset(
            features=np.array([[1.0, 0.0], [2.0, 0.0]]),
            labels=np.array([1, -1]),
        )
        back = parse_libsvm(format_libsvm(ds))
        assert back.dim == 2

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = Dataset(
            features=rng.normal(size=(10, 3)),
            labels=np.array([1, -1] * 5),
        )
        path = tmp_path / "data.libsvm"
        save_libsvm(ds, path)
        back = load_libsvm(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)


# values whose shortest repr or 17-digit spelling takes each of its forms:
# signed zero, subnormals, integers, exponent notation below 1e-4 and from
# 1e16 (repr) or 1e17 (17 digits) up
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                   1e16, -1e16, 9999999999999998.0, 1e-5, -1e-5, 0.0001, 1.7976931348623157e308,
                   0.1, 1.0 / 3.0, 123456789.0, 1e22, -2.5, 1e17, 99999999999999984.0]


def _significant_digits(token: str) -> int:
    """Digits of a decimal number's mantissa from its first non-zero digit on."""
    mantissa = token.lower().partition("e")[0].lstrip("+-").replace(".", "")
    return len(mantissa.lstrip("0"))


def _assert_tokens_round_trip(text: str, ds: Dataset) -> None:
    """Every entry of dense text parses back to the dataset's bytes, in at most 17 digits."""
    lines = text.splitlines()
    assert len(lines) == ds.n
    for line, row in zip(lines, ds.features):
        tokens = [t.partition(":")[2] for t in line.split()[1:]]
        assert len(tokens) == ds.dim
        assert np.array([float(t) for t in tokens]).tobytes() == row.tobytes(), line
        assert max(map(_significant_digits, tokens)) <= 17, line


def _with_specials(rng, shape):
    """Seeded random values of wide magnitude with every special value placed at random."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, size=len(_SPECIAL_FLOATS), replace=False)] = _SPECIAL_FLOATS
    return values


def _special_dataset(seed, shape):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(shape[0]) < 0.5, 1, -1)
    labels[:2] = [1, -1]
    return Dataset(features=_with_specials(rng, shape), labels=labels)


_SPECIAL_SHAPES = [(0, (40, 7)), (1, (3, 60)), (2, (25, 1))]


class TestWritersMatchFirstWritten:
    """The writers against their oracles, byte for byte: format_libsvm against
    an entry-by-entry 17-digit spelling, the key-value writers against their
    first-written forms."""

    @pytest.mark.parametrize("seed, shape", _SPECIAL_SHAPES)
    def test_format_libsvm(self, seed, shape):
        ds = _special_dataset(seed, shape)
        text = format_libsvm(ds)
        assert text == oracles.libsvm_text(ds.features, ds.labels)
        _assert_tokens_round_trip(text, ds)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_save_moments(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        kw = oracles.random_class_moments(rng, d=20)
        kw["mu_pos"] = _with_specials(rng, (20,))
        kw["mu_neg"] = _with_specials(rng, (20,))
        scale = 10.0 ** float(rng.integers(-8, 9))
        kw["sigma_pos"] = kw["sigma_pos"] * scale
        m = ClassMoments(**kw)
        path = tmp_path / "m.moments"
        save_moments(m, path)
        fmt = oracles.scalar_repr_fmt
        expected = "\n".join([
            f"d {m.dim}", f"prior_pos {m.prior_pos!r}", f"prior_neg {m.prior_neg!r}",
            f"mu_pos {fmt(m.mu_pos)}", f"mu_neg {fmt(m.mu_neg)}",
            f"sigma_pos {fmt(m.sigma_pos)}", f"sigma_neg {fmt(m.sigma_neg)}", "",
        ])
        assert path.read_text(encoding="utf-8") == expected

    def test_save_model(self, tmp_path):
        rng = np.random.default_rng(5)
        model = LinearModel(w=_with_specials(rng, (30,)), intercept=-0.0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        expected = f"d 30\nintercept -0.0\nw {oracles.scalar_repr_fmt(model.w)}\n"
        assert path.read_text(encoding="utf-8") == expected


class TestShortestReprText:
    """Text the previous writer spelled with each entry's shortest repr still
    loads to the bytes of the current writer's text."""

    @pytest.mark.parametrize("seed, shape", _SPECIAL_SHAPES)
    def test_parses_to_the_bytes_of_the_new_text(self, seed, shape):
        ds = _special_dataset(seed, shape)
        old, new = oracles.prefix_format_libsvm(ds), format_libsvm(ds)
        assert old != new
        expected = _outcome(lambda _: ds, None)
        assert _outcome(parse_libsvm, old) == _outcome(parse_libsvm, new) == expected

    def test_twin_of_an_old_text_is_read(self, tmp_path, monkeypatch):
        ds = _twin_cases()["-0.0 and subnormals"]
        path = tmp_path / "data.libsvm"
        # save_libsvm as it was: the same twin, over the shortest-repr text
        monkeypatch.setattr(data_module, "format_libsvm", oracles.prefix_format_libsvm)
        save_libsvm(ds, path)
        monkeypatch.undo()
        raw = path.read_bytes()
        assert raw == oracles.prefix_format_libsvm(ds).encode("utf-8")
        calls = TestBinaryTwin._parses(monkeypatch)
        loaded = load_libsvm(path)
        assert calls == []
        assert _outcome(lambda _: loaded, None) == _outcome(parse_libsvm, raw)
        assert _outcome(lambda _: loaded, None) == _outcome(parse_libsvm, format_libsvm(ds))


def _twin_cases():
    rng = np.random.default_rng(12)
    one_column = Dataset(features=rng.normal(size=(6, 1)), labels=np.array([1, -1] * 3))
    X = rng.normal(size=(8, 3))
    X[0, :2] = [-0.0, 5e-324]
    X[1, 2] = -2.5e-310
    edge_values = Dataset(features=X, labels=np.array([1, -1] * 4))
    skewed, _ = gen_gaussian(GaussianSpec(d=4, n=50, prior_pos=0.3, seed=4))
    return {"d=1": one_column, "-0.0 and subnormals": edge_values, "prior 0.3": skewed}


class TestBinaryTwin:
    """save_libsvm's PATH.npz: read while it matches the text, ignored otherwise."""

    @staticmethod
    def _parses(monkeypatch):
        # count the text parses load_libsvm makes
        calls = []

        def parse(raw, dim=None):
            calls.append(raw)
            return parse_libsvm(raw, dim)

        monkeypatch.setattr(data_module, "parse_libsvm", parse)
        return calls

    @staticmethod
    def _saved(tmp_path, ds=None):
        ds = ds if ds is not None else _twin_cases()["-0.0 and subnormals"]
        path = tmp_path / "data.libsvm"
        assert save_libsvm(ds, path) == f"{path}.npz"
        return path, tmp_path / "data.libsvm.npz"

    @pytest.mark.parametrize("name", sorted(_twin_cases()))
    def test_twin_and_text_load_the_same_bytes(self, tmp_path, monkeypatch, name):
        ds = _twin_cases()[name]
        path, twin = self._saved(tmp_path, ds)
        expected = _outcome(parse_libsvm, path.read_bytes())
        assert expected == _outcome(lambda _: ds, None)
        calls = self._parses(monkeypatch)
        loaded = load_libsvm(path)
        assert calls == []
        assert _outcome(lambda _: loaded, None) == expected
        assert loaded.features.flags.c_contiguous and not loaded.features.flags.writeable
        twin.unlink()
        assert _outcome(load_libsvm, path) == expected
        assert len(calls) == 1

    def test_edited_text_wins(self, tmp_path, monkeypatch):
        path, twin = self._saved(tmp_path)
        first = path.read_text(encoding="utf-8").split("\n", 1)
        value = first[0].split()[2].split(":")[1]
        edited = first[0].replace(f"2:{value}", "2:0.75", 1) + "\n" + first[1]
        path.write_text(edited, encoding="utf-8")
        calls = self._parses(monkeypatch)
        loaded = load_libsvm(path)
        assert len(calls) == 1
        assert loaded.features[0, 1] == 0.75
        assert _outcome(lambda _: loaded, None) == _outcome(parse_libsvm, edited)
        malformed = edited.replace("2:0.75", "2:0.7.5", 1)
        path.write_text(malformed, encoding="utf-8")
        message = _outcome(parse_libsvm, malformed)
        assert message == ("error", "line 1: malformed entry '2:0.7.5'")
        assert _outcome(load_libsvm, path) == message
        assert twin.exists()

    @staticmethod
    def _truncated(twin, raw, ds):
        twin.write_bytes(twin.read_bytes()[: twin.stat().st_size // 2])

    @staticmethod
    def _npy(twin, raw, ds):
        with open(twin, "wb") as fh:
            np.save(fh, ds.features)

    @staticmethod
    def _without(key):
        def write(twin, raw, ds):
            arrays = {"features": ds.features, "labels": ds.labels,
                      "sha256": np.array(hashlib.sha256(raw).hexdigest())}
            del arrays[key]
            with open(twin, "wb") as fh:
                np.savez(fh, **arrays)

        return write

    @staticmethod
    def _labels(labels):
        def write(twin, raw, ds):
            with open(twin, "wb") as fh:
                np.savez(fh, features=ds.features, labels=labels(ds.labels),
                         sha256=np.array(hashlib.sha256(raw).hexdigest()))

        return write

    @pytest.mark.parametrize("damage", [
        "truncated", "npy", "no sha256", "no features", "no labels", "one class",
        "short labels", "labels of 3", "fractional labels", "string labels",
    ])
    def test_damaged_twin_is_ignored(self, tmp_path, monkeypatch, damage):
        writers = {
            "truncated": self._truncated,
            "npy": self._npy,
            "no sha256": self._without("sha256"),
            "no features": self._without("features"),
            "no labels": self._without("labels"),
            "one class": self._labels(np.ones_like),
            "short labels": self._labels(lambda y: y[:-1]),
            "labels of 3": self._labels(lambda y: 3 * y),
            "fractional labels": self._labels(lambda y: 1.5 * y),
            "string labels": self._labels(lambda y: y.astype(str)),
        }
        ds = _twin_cases()["-0.0 and subnormals"]
        path, twin = self._saved(tmp_path, ds)
        raw = path.read_bytes()
        writers[damage](twin, raw, ds)
        calls = self._parses(monkeypatch)
        assert _outcome(load_libsvm, path) == _outcome(parse_libsvm, raw)
        assert len(calls) == 1

    @pytest.mark.parametrize("arrays", [
        "float32 features", "float labels", "transposed features", "big-endian features",
    ])
    def test_twin_of_other_arrays_gives_way_to_the_parse(self, tmp_path, monkeypatch, arrays):
        # the digest matches, but the constructor would cast these arrays,
        # and float32 loses the subnormals the text holds
        ds = _twin_cases()["-0.0 and subnormals"]
        path, twin = self._saved(tmp_path, ds)
        raw = path.read_bytes()
        features, labels = ds.features, ds.labels
        if arrays == "float32 features":
            features = features.astype(np.float32)
        elif arrays == "float labels":
            labels = labels.astype(float)
        elif arrays == "transposed features":
            features = np.asfortranarray(features)
        else:
            features = features.astype(">f8")
        with open(twin, "wb") as fh:
            np.savez(fh, features=features, labels=labels,
                     sha256=np.array(hashlib.sha256(raw).hexdigest()))
        calls = self._parses(monkeypatch)
        loaded = load_libsvm(path)
        assert len(calls) == 1
        assert _outcome(lambda _: loaded, None) == _outcome(parse_libsvm, raw)
        assert loaded.features.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_twin_that_is_not_a_regular_file_is_passed_over(self, tmp_path, monkeypatch,
                                                            deadline, kind):
        # a FIFO twin used to block the load until something wrote to it
        path, twin = self._saved(tmp_path)
        raw = path.read_bytes()
        twin.unlink()
        if kind == "fifo":
            os.mkfifo(twin)
        else:
            twin.mkdir()
        calls = self._parses(monkeypatch)
        assert _outcome(load_libsvm, path) == _outcome(parse_libsvm, raw)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(_twin_cases()))
    def test_narrow_twin_gives_way_to_the_parse(self, tmp_path, monkeypatch, name):
        ds = _twin_cases()[name]
        path, _ = self._saved(tmp_path, ds)
        dim = ds.dim + 3
        expected = _outcome(lambda raw: parse_libsvm(raw, dim), path.read_bytes())
        calls = self._parses(monkeypatch)
        assert _outcome(lambda p: load_libsvm(p, dim), path) == expected
        assert len(calls) == 1
        calls.clear()
        assert _outcome(lambda p: load_libsvm(p, ds.dim), path) == _outcome(load_libsvm, path)
        assert calls == []

    def test_wide_twin_gives_the_parse_error(self, tmp_path, monkeypatch):
        ds = _twin_cases()["prior 0.3"]
        path, _ = self._saved(tmp_path, ds)
        calls = self._parses(monkeypatch)
        assert _outcome(lambda p: load_libsvm(p, 2), path) == (
            "error", "line 1: index 4 is above the dimension 2")
        assert len(calls) == 1

    def test_every_corrupted_byte_loads_the_text(self, tmp_path):
        # a corrupted archive either fails to read, and the text is parsed,
        # or reads through its checksums to the arrays it was written with
        path, twin = self._saved(tmp_path)
        expected = _outcome(parse_libsvm, path.read_bytes())
        good = twin.read_bytes()
        for i in range(len(good)):
            for value in {0, 8, good[i] ^ 0xFF} - {good[i]}:
                twin.write_bytes(good[:i] + bytes([value]) + good[i + 1:])
                assert _outcome(load_libsvm, path) == expected, (i, value)

    @pytest.mark.parametrize("text", [
        "+1 1:1\r\n-1 1:2\r\n",
        "+1 1:1 2:0.5\r-1 1:2 2:-1\r\n",
        "# sparse\r\n+1 2:1.5\r\n\r\n-1 1:-2.5 # note\r\n",
        "+1 1:0.5 2:1\n-1 2:1 1:2\n",
    ])
    def test_text_without_twin_loads_as_text_mode_read(self, tmp_path, text):
        path = tmp_path / "data.libsvm"
        path.write_bytes(text.encode("utf-8"))
        # the text-mode read, with its newline translation, of earlier loads
        assert _outcome(load_libsvm, path) == _outcome(parse_libsvm, path.read_text(encoding="utf-8"))
        assert sorted(tmp_path.iterdir()) == [path]

    class _CutFile:
        """A binary file whose first write stores the first half of its
        bytes, then fails as a full disk would."""

        def __init__(self, path, mode):
            self._fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @pytest.mark.parametrize("fail", ["text write", "text replace", "twin replace"])
    def test_failed_save_leaves_whole_files(self, tmp_path, monkeypatch, fail):
        path, twin = self._saved(tmp_path)
        before = {p: p.read_bytes() for p in (path, twin)}
        ds = _twin_cases()["prior 0.3"]
        if fail == "text write":
            monkeypatch.setattr(errors_module, "open", self._CutFile, raising=False)
        else:
            replaced = []

            def replace(src, dst):
                if len(replaced) == ("text replace", "twin replace").index(fail):
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                replaced.append(dst)
                os.rename(src, dst)

            monkeypatch.setattr(errors_module.os, "replace", replace)
        with pytest.raises(OSError):
            save_libsvm(ds, path)
        monkeypatch.undo()
        assert sorted(tmp_path.iterdir()) == [path, twin]
        if fail == "twin replace":
            # the new text with the old twin: the digest sends the load to the text
            assert path.read_bytes() == format_libsvm(ds).encode("utf-8")
            assert twin.read_bytes() == before[twin]
            assert _outcome(load_libsvm, path) == _outcome(lambda _: ds, None)
        else:
            assert {p: p.read_bytes() for p in (path, twin)} == before

    @staticmethod
    def _report(accuracy):
        config = ExperimentConfig(method="lda", data=GaussianSpec(d=2, n=40, prior_pos=0.5))
        return ExperimentReport(config, [RunResult(0, 0, 0, accuracy, 0.5, 0.25)])

    @pytest.mark.parametrize("kind", ["report", "model", "moments"])
    def test_failed_write_of_a_text_file_leaves_the_previous_one(self, tmp_path, monkeypatch,
                                                                 kind):
        # these files were written in place, and a failed write left half of one
        save, old, new = {
            "report": (emit_report, self._report(0.25), self._report(0.75)),
            "model": (save_model, LinearModel(w=np.array([1.0, -2.0]), intercept=0.5),
                      LinearModel(w=np.array([3.0, 4.0]))),
            "moments": (save_moments, gen_gaussian(GaussianSpec(d=2, n=40, prior_pos=0.5))[1],
                        gen_gaussian(GaussianSpec(d=2, n=40, prior_pos=0.5, seed=1))[1]),
        }[kind]
        path = tmp_path / f"out.{kind}"
        save(old, path)
        before = path.read_bytes()
        monkeypatch.setattr(errors_module, "open", self._CutFile, raising=False)
        with pytest.raises(OSError):
            save(new, path)
        monkeypatch.undo()
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        save(new, path)
        assert path.read_bytes() != before

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_libsvm(tmp_path / "absent.libsvm")


# every line break str.splitlines() splits on
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


def _block_text(brk, line5="+1 2:4", line7="-1 1:-2e-3 2:7"):
    # each break beside a "\n", with comments, blank lines and a two-byte
    # character around them
    lines = ["# caf\u00e9", "+1 1:0.5 2:-1.25", "", "-1 1:3 # \u00e9t\u00e9", line5, "  ",
             line7, "+1 1:1e-3"]
    return "".join(line + (brk if i % 2 else "\n") for i, line in enumerate(lines))


class TestBlockEdges:
    """Text walked in blocks reads as the whole text does, wherever the
    block edges fall; blocks are shrunk to a few bytes to put them
    everywhere in a short text."""

    CASES = {
        **{f"break {brk!r}": _block_text(brk) for brk in _LINE_BREAKS},
        "all breaks": "".join(f"+1 1:{i} 2:0.5{brk}-1 2:{i}\n" for i, brk in enumerate(_LINE_BREAKS)),
        "malformed": _block_text("\u2028", line7="-1 2:1 1:2"),
        "no final break": _block_text("\r")[:-1],
        "one long line": "+1 " + " ".join(f"{j}:{j / 7}" for j in range(1, 40)) + "\n-1 1:2",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_str_bytes_and_file_parse_as_the_whole_text(self, tmp_path, monkeypatch, name):
        text = self.CASES[name]
        raw = text.encode("utf-8")
        path = tmp_path / "data.libsvm"
        path.write_bytes(raw)
        expected = _outcome(oracles.tuple_parse_libsvm, text)
        assert _outcome(parse_libsvm, text) == expected
        for size in range(1, len(raw) + 2):
            monkeypatch.setattr(data_module, "_BLOCK_BYTES", size)
            assert _outcome(parse_libsvm, text) == expected, size
            assert _outcome(parse_libsvm, raw) == expected, size
            assert _outcome(load_libsvm, path) == expected, size

    @pytest.mark.parametrize("lines, bad, message", [
        ({"line5": "+1 2:4@"}, b"\xff", "line 5: text is not UTF-8 (invalid start byte)"),
        ({"line7": "-1 2:@"}, b"\xe2\x80", "line 7: text is not UTF-8 (invalid continuation byte)"),
        # a malformed line before the bytes is named first
        ({"line5": "+1 2:1 1:4", "line7": "-1 2:@"}, b"\xff",
         "line 5: index 1 does not increase (previous 2)"),
    ])
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\x85", "\u2028"])
    def test_bytes_not_utf8_name_the_same_line(self, tmp_path, monkeypatch, lines, bad,
                                               message, brk):
        raw = _block_text(brk, **lines).encode("utf-8").replace(b"@", bad)
        path = tmp_path / "data.libsvm"
        path.write_bytes(raw)
        expected = ("error", message)
        assert _outcome(parse_libsvm, raw) == expected
        for size in range(1, len(raw) + 2):
            monkeypatch.setattr(data_module, "_BLOCK_BYTES", size)
            assert _outcome(parse_libsvm, raw) == expected, size
            assert _outcome(load_libsvm, path) == expected, size

    @pytest.mark.parametrize("blocks", ["half", "one", "one and a row", "several"])
    def test_writer_blocks_make_the_whole_text(self, tmp_path, monkeypatch, blocks):
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", 1000)
        step = data_module._block_rows(3)
        assert step > 2
        n = {"half": step // 2, "one": step, "one and a row": step + 1,
             "several": 3 * step + step // 2}[blocks]
        rng = np.random.default_rng(n)
        ds = Dataset(features=rng.normal(size=(n, 3)), labels=np.resize([1, -1], n))
        sizes = []

        def format_block(rows):
            text = format_libsvm(rows)
            sizes.append(len(text.encode("utf-8")))
            return text

        monkeypatch.setattr(data_module, "format_libsvm", format_block)
        path = tmp_path / "data.libsvm"
        save_libsvm(ds, path)
        raw = path.read_bytes()
        assert raw == format_libsvm(ds).encode("utf-8")
        assert len(sizes) == -(-n // step) and max(sizes) <= 1000
        with np.load(f"{path}.npz", allow_pickle=False) as twin:
            assert str(twin["sha256"]) == hashlib.sha256(raw).hexdigest()
        calls = TestBinaryTwin._parses(monkeypatch)
        assert _outcome(load_libsvm, path) == _outcome(lambda _: ds, None)
        assert calls == []


def _outcome(parse, text):
    """What a parser makes of text: the parsed bytes, or the ParseError message."""
    try:
        ds = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


def _dense(value="0.5", index="2", label="+1"):
    # a small dense file with one token of its first line replaced
    return f"{label} 1:-1.25 {index}:{value} 3:7\n-1 1:3 2:0.125 3:-0.0\n+1 1:2e-3 2:4 3:1\n"


class TestParserMatchesTupleOracle:
    """parse_libsvm against the per-line parser as first written, a tuple per entry.

    Dense, sparse, commented and malformed texts must give the same bytes
    or the same ParseError message.
    """

    EDGE_CASES = [
        _dense(),
        "+1 1:5:2 7\n-1 1:3 2:4\n",
        _dense(index="1.0"),
        _dense(index="01"),
        _dense(index="+1"),
        _dense(index="1_0"),
        _dense(index="20"),
        _dense(value="1_0.5"),
        _dense(value="nan"),
        _dense(value="inf"),
        _dense(value="-inf"),
        _dense(value="1e400"),
        _dense(value="1e-400"),
        _dense(value="0x10"),
        _dense(value="1e"),
        _dense(value=".5"),
        _dense(label="1:0"),
        _dense(label="nan"),
        _dense(label="1e400"),
        _dense(label="2"),
        "+1\t1:1\t2:2\n-1 1:3\t2:4\n",
        "+1 1:1 2:2\r\n-1 1:3 2:4\r\n",
        "+1 1:1 2:2\r-1 1:3 2:4\r",
        "+1 1:1 2:2  \n  -1 1:3 2:4 \n",
        "+1 1:1 2:2\n\n-1 1:3 2:4\n\n",
        "\n\n",
        "",
        "# header\n+1 1:1 2:2\n-1 1:3 2:4\n",
        "+1 1:1 2:2\n-1 1:3 2:4 # note\n",
        "+1 1:1 2:2\n-1\n",
        "+1\n-1\n",
        "+1 1:1 2:2\n-1 1:3\n",
        "+1 1:1\n-1 1:3 2:4\n",
        "+1 1:1 2:2\n-1 1:3 2:4\n+1 1:5 2:6 3:7\n",
        "+1 1:1 2:2\n+1 1:3 2:4\n",
        "1 1:1\n2 1:1\n3 1:1\n",
        "0 1:1\n-0.0 1:2\n1 1:3\n",
        "+1 1:1 2:2\n-1 1:3 2:4\n",
        "+1 1:1 2:2\u00a0\n-1 1:3 2:4\n",
        "+1 1:1 2:2\n-1 1:\u0663 2:4\n",
        b"+1 1:1 2:2\n-1 1:3 2:4\n",
    ]

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases_agree_with_line_parser(self, text):
        # parse_libsvm decodes bytes; the oracle takes text only
        decoded = text.decode("utf-8") if isinstance(text, bytes) else text
        assert _outcome(parse_libsvm, text) == _outcome(oracles.tuple_parse_libsvm, decoded)

    def test_mutations_agree_with_line_parser(self):
        rng = np.random.default_rng(11)
        ds = Dataset(features=rng.normal(size=(4, 3)), labels=np.array([1, -1, -1, 1]))
        base = format_libsvm(ds)
        alphabet = " :#\t\r.x1-"
        parsed = 0
        for _ in range(300):
            at = int(rng.integers(len(base)))
            char = alphabet[rng.integers(len(alphabet))]
            kind = rng.integers(3)
            if kind == 0:
                text = base[:at] + char + base[at + 1:]
            elif kind == 1:
                text = base[:at] + char + base[at:]
            else:
                text = base[:at] + base[at + 1:]
            expected = _outcome(oracles.tuple_parse_libsvm, text)
            assert _outcome(parse_libsvm, text) == expected, repr(text)
            parsed += expected[0] != "error"
        assert 0 < parsed < 300  # both accepted and rejected texts were tried


class TestNormalize:
    def test_two_point_column(self):
        ds = Dataset(features=np.array([[1.0], [3.0]]), labels=np.array([1, -1]))
        out, stats = normalize_zscore(ds)
        assert np.array_equal(out.features, np.array([[-1.0], [1.0]]))
        assert stats.mean[0] == 2.0
        assert stats.scale[0] == 1.0

    def test_constant_column_centered_only(self):
        ds = Dataset(
            features=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
            labels=np.array([1, -1, 1]),
        )
        out, stats = normalize_zscore(ds)
        assert np.all(out.features[:, 0] == 0.0)
        assert stats.scale[0] == 1.0

    def test_transformed_columns_standardized(self):
        rng = np.random.default_rng(7)
        ds = Dataset(
            features=rng.normal(loc=3.0, scale=2.5, size=(50, 4)),
            labels=np.where(rng.random(50) < 0.5, 1, -1),
        )
        out, _ = normalize_zscore(ds)
        means = out.features.mean(axis=0)
        variances = out.features.var(axis=0)
        assert np.all(np.abs(means) <= 1e-12)
        assert np.all(np.abs(variances - 1.0) <= 1e-10)

    def test_single_row_rejected(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([1]))
        with pytest.raises(ValueError):
            normalize_zscore(ds)

    def test_apply_reuses_training_statistics(self):
        train = Dataset(features=np.array([[0.0], [2.0]]), labels=np.array([1, -1]))
        test = Dataset(features=np.array([[4.0]]), labels=np.array([1]))
        _, stats = normalize_zscore(train)
        out = apply_zscore(test, stats)
        assert out.features[0, 0] == 3.0

    def test_apply_rejects_stats_of_another_dimension(self):
        train = Dataset(features=np.array([[0.0, 1.0], [2.0, 3.0]]), labels=np.array([1, -1]))
        test = Dataset(features=np.array([[4.0]]), labels=np.array([1]))
        _, stats = normalize_zscore(train)
        with pytest.raises(ValueError, match=r"^stats are for d=2, dataset has d=1$"):
            apply_zscore(test, stats)

    def test_overflowing_std_rejected(self):
        # finite features whose std overflows; without the check the
        # column would silently come out as zeros
        ds = Dataset(features=np.array([[1e308], [-1e308], [1e308]]), labels=np.array([1, -1, 1]))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^normalization stats contain non-finite entries$"):
            normalize_zscore(ds)


class TestGaussianSpec:
    def test_rejects_undersized_class(self):
        with pytest.raises(ValueError):
            GaussianSpec(d=2, n=10, prior_pos=0.05)

    def test_rejects_bad_outlier_pct(self):
        for pct in (100.0, 60.0):  # inject_outliers flips at most half a class
            with pytest.raises(ValueError, match="outlier_pct"):
                GaussianSpec(d=2, n=10, prior_pos=0.5, outlier_pct=pct)

    @pytest.mark.parametrize("field, value, message", [
        ("mean_scale", 0.0, "mean_scale must be positive, got 0.0"),
        ("mean_scale", -1.0, "mean_scale must be positive, got -1.0"),
        ("cov_scale", 0.0, "cov_scale must be positive, got 0.0"),
        ("cov_scale", -1.0, "cov_scale must be positive, got -1.0"),
        ("prior_pos", 0.0, r"prior_pos must lie in \(0, 1\), got 0.0"),
        ("prior_pos", 1.0, r"prior_pos must lie in \(0, 1\), got 1.0"),
        ("outlier_pct", -0.5, r"outlier_pct must lie in \[0, 50\), got -0.5"),
        ("outlier_pct", 50.0, r"outlier_pct must lie in \[0, 50\), got 50.0"),
    ], ids=["mean_scale", "mean_scale-neg", "cov_scale", "cov_scale-neg",
            "prior_pos-0", "prior_pos", "outlier_pct-neg", "outlier_pct-50"])
    def test_rejects_out_of_range_values(self, field, value, message):
        fields = {"d": 2, "n": 10, "prior_pos": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            GaussianSpec(**fields)

    @pytest.mark.parametrize("field, value", [
        ("outlier_pct", 0.0), ("outlier_pct", 0), ("outlier_pct", np.float64(49.5)),
        ("prior_pos", np.float64(0.5)), ("mean_scale", 2), ("cov_scale", np.float32(0.5)),
    ])
    def test_real_fields_are_stored_as_floats(self, field, value):
        # outlier_pct's range [0, 50) is closed at 0
        stored = getattr(GaussianSpec(**{"d": 2, "n": 10, "prior_pos": 0.5, field: value}), field)
        assert type(stored) is float
        assert stored == float(value)


class TestGenGaussian:
    def test_class_count_rounding(self):
        spec = GaussianSpec(d=3, n=5000, prior_pos=0.35, seed=0)
        ds, _ = gen_gaussian(spec)
        assert ds.n_pos == 1750
        assert ds.n_neg == 3250

    def test_deterministic(self):
        spec = GaussianSpec(d=4, n=100, prior_pos=0.5, seed=42)
        a, ma = gen_gaussian(spec)
        b, mb = gen_gaussian(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert ma.mu_pos.tobytes() == mb.mu_pos.tobytes()

    def test_sample_means_consistent_with_exact_moments(self):
        spec = GaussianSpec(d=5, n=100_000, prior_pos=0.5, seed=3)
        ds, exact = gen_gaussian(spec)
        emp = estimate_class_moments(ds)
        n_pos = ds.n_pos
        tol = 4.0 * np.sqrt(np.diag(exact.sigma_pos) / n_pos)
        assert np.all(np.abs(emp.mu_pos - exact.mu_pos) <= tol)
        tol_n = 4.0 * np.sqrt(np.diag(exact.sigma_neg) / ds.n_neg)
        assert np.all(np.abs(emp.mu_neg - exact.mu_neg) <= tol_n)

    def test_returned_covariances_are_spd(self):
        spec = GaussianSpec(d=6, n=50, prior_pos=0.5, seed=9)
        _, exact = gen_gaussian(spec)
        np.linalg.cholesky(exact.sigma_pos)
        np.linalg.cholesky(exact.sigma_neg)
        assert exact.prior_pos == 0.5

    def test_moment_estimates_improve_with_n(self):
        def moment_err(n, seed):
            spec = GaussianSpec(d=3, n=n, prior_pos=0.5, seed=seed)
            ds, exact = gen_gaussian(spec)
            emp = estimate_class_moments(ds)
            return (
                np.linalg.norm(emp.mu_pos - exact.mu_pos)
                + np.linalg.norm(emp.sigma_pos - exact.sigma_pos)
            )

        assert moment_err(100_000, 11) < moment_err(1000, 11)

    def test_outlier_pct_contaminates_dataset(self):
        clean_spec = GaussianSpec(d=2, n=400, prior_pos=0.5, seed=13)
        dirty_spec = GaussianSpec(d=2, n=400, prior_pos=0.5, outlier_pct=10.0, seed=13)
        clean, _ = gen_gaussian(clean_spec)
        dirty, _ = gen_gaussian(dirty_spec)
        assert np.array_equal(clean.features, dirty.features)
        flips = int(np.sum(clean.labels != dirty.labels))
        assert flips == 40  # 20 per class


class TestInjectOutliers:
    def _balanced(self, n_per_class, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2 * n_per_class, 2))
        y = np.concatenate(
            [np.ones(n_per_class, dtype=int), -np.ones(n_per_class, dtype=int)]
        )
        return Dataset(features=X, labels=y)

    def test_zero_pct_is_identity(self):
        ds = self._balanced(20)
        out = inject_outliers(ds, 0.0, 5)
        assert np.array_equal(out.labels, ds.labels)
        assert out.features.tobytes() == ds.features.tobytes()

    def test_exact_flip_counts(self):
        ds = self._balanced(100)
        out = inject_outliers(ds, 10.0, 5)
        flipped_pos = np.sum((ds.labels == 1) & (out.labels == -1))
        flipped_neg = np.sum((ds.labels == -1) & (out.labels == 1))
        assert flipped_pos == 10
        assert flipped_neg == 10

    def test_priors_preserved(self):
        ds = self._balanced(100)
        out = inject_outliers(ds, 10.0, 5)
        assert out.n_pos == ds.n_pos

    def test_features_untouched(self):
        ds = self._balanced(50)
        out = inject_outliers(ds, 20.0, 7)
        assert out.features.tobytes() == ds.features.tobytes()

    def test_deterministic(self):
        ds = self._balanced(50)
        a = inject_outliers(ds, 10.0, 99)
        b = inject_outliers(ds, 10.0, 99)
        assert np.array_equal(a.labels, b.labels)

    def test_pct_out_of_range_rejected(self):
        ds = self._balanced(10)
        with pytest.raises(ValueError):
            inject_outliers(ds, 50.0, 0)
        with pytest.raises(ValueError):
            inject_outliers(ds, -1.0, 0)


class TestBuiltDatasets:
    """Datasets the package builds are frozen in place, not copied; caller
    arrays still are."""

    def _ds(self):
        ds, _ = gen_gaussian(GaussianSpec(d=3, n=40, prior_pos=0.5, seed=21))
        return ds

    def test_overflowing_generator_still_rejects_non_finite_features(self):
        spec = GaussianSpec(d=5, n=50, prior_pos=0.5, cov_scale=1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="features contain non-finite entries"
        ):
            gen_gaussian(spec)

    def test_package_built_datasets_are_read_only(self):
        ds = self._ds()
        built = {
            "gen_gaussian": ds,
            "subset": ds.subset([3, 1, 2, 30]),
            "inject_outliers": inject_outliers(ds, 10.0, 4),
            "apply_zscore": normalize_zscore(ds)[0],
        }
        for name, out in built.items():
            for array in (out.features, out.labels):
                assert not array.flags.writeable, name
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_inject_outliers_shares_features_and_leaves_input_labels(self):
        ds = self._ds()
        labels_before = ds.labels.copy()
        out = inject_outliers(ds, 20.0, 4)
        assert out.features is ds.features
        assert np.array_equal(ds.labels, labels_before)
        assert not np.array_equal(out.labels, ds.labels)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="non-empty 2-d matrix"):
            self._ds().subset([])

    def test_rows_of_a_checked_dataset_are_not_scanned_again(self, monkeypatch):
        ds = self._ds()
        scans = []
        isfinite = np.isfinite

        def counted(*args, **kwargs):
            scans.append(args[0].shape)
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        ds.subset([3, 1, 2])
        inject_outliers(ds, 10.0, 4)
        assert scans == []
        # a z-score can overflow, so its result is still checked
        normalize_zscore(ds)
        assert (ds.n, ds.dim) in scans

    def test_public_constructor_copies_caller_arrays(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        y = np.array([1, -1, 1], dtype=np.int64)
        ds = Dataset(features=X, labels=y)
        X[0, 0] = 99.0
        y[0] = -1
        assert ds.features[0, 0] == 0.0
        assert ds.labels[0] == 1
        assert X.flags.writeable and y.flags.writeable


class TestKfoldSplit:
    def test_five_folds_of_ten(self):
        folds = kfold_split(10, 5, 0)
        assert len(folds) == 5
        for _, test_idx in folds:
            assert len(test_idx) == 2
        all_test = np.concatenate([t for _, t in folds])
        assert np.array_equal(np.sort(all_test), np.arange(10))

    def test_remainder_goes_to_early_folds(self):
        folds = kfold_split(11, 5, 0)
        sizes = sorted((len(t) for _, t in folds), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_train_test_partition_each_fold(self):
        for n, k, seed in ((10, 5, 0), (37, 4, 1), (100, 7, 2)):
            for train_idx, test_idx in kfold_split(n, k, seed):
                combined = np.sort(np.concatenate([train_idx, test_idx]))
                assert np.array_equal(combined, np.arange(n))
                assert len(np.intersect1d(train_idx, test_idx)) == 0

    def test_disjoint_and_exhaustive_random_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            k = int(rng.integers(2, min(n, 9) + 1))
            seed = int(rng.integers(0, 10_000))
            folds = kfold_split(n, k, seed)
            all_test = np.concatenate([t for _, t in folds])
            assert np.array_equal(np.sort(all_test), np.arange(n))

    def test_deterministic(self):
        a = kfold_split(20, 4, 3)
        b = kfold_split(20, 4, 3)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb)
            assert np.array_equal(sa, sb)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, 0)


class TestMomentsSidecar:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        kw = oracles.random_class_moments(rng, d=4)
        m = ClassMoments(**kw)
        path = tmp_path / "truth.moments"
        save_moments(m, path)
        back = load_moments(path)
        assert back.mu_pos.tobytes() == m.mu_pos.tobytes()
        assert back.mu_neg.tobytes() == m.mu_neg.tobytes()
        assert back.sigma_pos.tobytes() == m.sigma_pos.tobytes()
        assert back.sigma_neg.tobytes() == m.sigma_neg.tobytes()
        assert back.prior_pos == m.prior_pos

    def test_malformed_sidecar_rejected(self, tmp_path):
        path = tmp_path / "bad.moments"
        path.write_text("d 3\nprior_pos 0.5\n")
        with pytest.raises(ParseError):
            load_moments(path)

    @pytest.mark.parametrize("text, message", [
        ("d 2\nintercept 0.0\nw 1.0 2.0 3.0\n", "model file declares d=2 but has 3 weights"),
        ("d 2\nintercept 0.0\nw\n", "line 3: expected 'key values', got 'w'"),
        ("d 2\nintercept 0.0\nw nan 1.0\n", "w contains non-finite entries"),
        ("d 2\nintercept inf\nw 1.0 2.0\n", "intercept must be finite, got inf"),
    ], ids=["weight-count", "no-values", "nan-weight", "inf-intercept"])
    def test_malformed_model_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.model"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_model(path)

    def test_model_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "spaced.model"
        path.write_text("d 2\n\nintercept 0.5\n\nw 1.0 -2.0\n", encoding="utf-8")
        model = load_model(path)
        assert model.intercept == 0.5 and model.w.tolist() == [1.0, -2.0]

    @pytest.mark.parametrize("save, load, key", [
        (lambda path: save_model(LinearModel(w=np.array([1.0, -2.0])), path), load_model, "w"),
        (lambda path: save_moments(ClassMoments(**oracles.random_class_moments(
            np.random.default_rng(3), d=2)), path), load_moments, "mu_neg"),
    ], ids=["model", "moments"])
    def test_repeated_key_rejected(self, tmp_path, save, load, key):
        # two lines with one key leave it unclear which value the writer meant
        path = tmp_path / "written.txt"
        save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.append(next(line for line in lines if line.startswith(key + " ")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^line {len(lines)}: key '{key}' repeated$"):
            load(path)
