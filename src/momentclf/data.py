"""Datasets: the container, LIBSVM-format text I/O (one per-line parser
for dense and sparse text) with a binary twin that spares the parse,
z-score normalization, a two-Gaussian generator with exact moments,
label-flip contamination, and seeded k-fold splitting.

LIBSVM entries are written with 17 significant digits, which round-trip
every double; files written with the shortest repr by earlier versions
still load to the same bytes.  LIBSVM text is written, hashed and parsed
in blocks of about 128 KiB (_BLOCK_BYTES), so no step holds a whole-file
copy of the text beside the arrays it builds.

Every random operation takes an explicit integer seed and draws from
numpy's default bit generator, so identical inputs reproduce identical
bytes.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import zipfile
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from typing import BinaryIO

import numpy as np

from .errors import (
    ParseError,
    _check_ints,
    _check_min,
    _check_reals,
    _read_key_values,
    _write_key_values,
    _write_replacing,
)
from .moments import ClassMoments, _built

__all__ = [
    "Dataset",
    "GaussianSpec",
    "parse_libsvm",
    "format_libsvm",
    "load_libsvm",
    "save_libsvm",
    "normalize_zscore",
    "apply_zscore",
    "gen_gaussian",
    "inject_outliers",
    "kfold_split",
    "save_moments",
    "load_moments",
]

# Columns whose standard deviation falls below this are centered but not
# scaled (scale pinned to 1) during z-score normalization.
_STD_EPS = 1e-12

# LIBSVM text is written, hashed and parsed in blocks of about this many
# bytes (characters, for a str), each cut after a line break.
_BLOCK_BYTES = 1 << 17


def _check_features(X: np.ndarray, finite: bool = False) -> None:
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"features must be a non-empty 2-d matrix, got shape {X.shape}")
    if not finite and not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite entries")


def _check_arrays(X: np.ndarray, y: np.ndarray) -> None:
    """The checks of the Dataset constructor on features X and labels y."""
    _check_features(X)
    if y.shape != (X.shape[0],):
        raise ValueError(
            f"labels must have shape ({X.shape[0]},), got {y.shape}"
        )
    # checked before the cast, which would truncate 1.5 to 1 and parse '1'
    if y.dtype.kind not in "iuf":
        raise ValueError(f"labels must be numbers, got dtype {y.dtype}")
    if not np.all((y == 1) | (y == -1)):
        raise ValueError("labels must be -1 or +1")


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix (n, d) with labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        y = np.array(self.labels)
        _check_arrays(X, y)
        y = y.astype(np.int64)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @classmethod
    def _built(cls, features: np.ndarray, labels: np.ndarray, finite: bool = False) -> Dataset:
        """Construct a dataset from arrays the package has just built.

        They are a float64 (n, d) matrix and an int64 vector of -1/+1
        labels of matching length, and no caller may write to them, so the
        public constructor's conversions, label checks and copies could
        not change them.  Features are checked to be non-empty, and to be
        finite unless finite says the caller already knows they are (rows
        of a dataset, or entries the parser has checked); both arrays are
        frozen in place and kept as they are, and may be shared with
        another dataset.  The counterpart of moments._built.
        """
        _check_features(features, finite)
        features.setflags(write=False)
        labels.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "features", features)
        object.__setattr__(out, "labels", labels)
        return out

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def pos_index(self) -> np.ndarray:
        """Row indices of positive-class samples, ascending."""
        idx = np.flatnonzero(self.labels == 1)
        idx.setflags(write=False)
        return idx

    @cached_property
    def neg_index(self) -> np.ndarray:
        """Row indices of negative-class samples, ascending."""
        idx = np.flatnonzero(self.labels == -1)
        idx.setflags(write=False)
        return idx

    @property
    def n_pos(self) -> int:
        return self.pos_index.shape[0]

    @property
    def n_neg(self) -> int:
        return self.neg_index.shape[0]

    def subset(self, indices) -> Dataset:
        """New dataset holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset._built(self.features[idx], self.labels[idx], finite=True)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column centering and scaling learned by normalize_zscore, its
    only builder: finite, read-only vectors of length d, scale positive."""

    mean: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class GaussianSpec:
    """Parameters of the two-Gaussian synthetic generator.

    Class means are i.i.d. standard normal scaled by mean_scale; class
    covariances are cov_scale * (A A'/d + I) with A a d x d standard
    normal draw, so they are well conditioned at every d.  outlier_pct
    percent of each class gets its label flipped after sampling.
    """

    d: int
    n: int
    prior_pos: float
    outlier_pct: float = 0.0
    seed: int = 0
    mean_scale: float = 1.0
    cov_scale: float = 1.0

    def __post_init__(self):
        _check_ints(self, d=1, n=1, seed=0)
        _check_reals(self, "prior_pos", "outlier_pct", "mean_scale", "cov_scale")
        if not 0.0 < self.prior_pos < 1.0:
            raise ValueError(f"prior_pos must lie in (0, 1), got {self.prior_pos!r}")
        if self.n * self.prior_pos < 2 or self.n * (1.0 - self.prior_pos) < 2:
            raise ValueError("each class needs an expected count of at least 2")
        if not 0.0 <= self.outlier_pct < 50.0:
            raise ValueError(f"outlier_pct must lie in [0, 50), got {self.outlier_pct!r}")
        if not self.mean_scale > 0.0:
            raise ValueError(f"mean_scale must be positive, got {self.mean_scale!r}")
        if not self.cov_scale > 0.0:
            raise ValueError(f"cov_scale must be positive, got {self.cov_scale!r}")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _cut(text: str):
    """text in blocks of about _BLOCK_BYTES characters, each cut after its
    last "\\n"; a line longer than a block makes a longer block."""
    start, size = 0, len(text)
    while start < size:
        end = text.rfind("\n", start, start + _BLOCK_BYTES) + 1
        if not end:
            end = text.find("\n", start + _BLOCK_BYTES) + 1 or size
        yield text[start:end]
        start = end


def _lines(text: str | bytes | BinaryIO):
    """The lines str.splitlines() gives of the whole text, one block at a time.

    A block ends after a "\\n", which ends a line wherever it stands, so
    splitting each block gives the whole text's lines.  Bytes are read in
    blocks of whole lines of about _BLOCK_BYTES and decoded one block at a
    time; bytes that are not UTF-8 raise ParseError naming their line,
    after the lines before it are given.
    """
    if isinstance(text, str):
        for block in _cut(text):
            yield from block.splitlines()
        return
    fh = io.BytesIO(text) if isinstance(text, bytes) else text  # shares the bytes
    count = 0
    for block in iter(partial(fh.readlines, _BLOCK_BYTES), []):
        block = b"".join(block)
        try:
            lines = block.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # one character after the valid prefix makes the bad line its last
            lines = (block[: exc.start].decode("utf-8") + "x").splitlines()
            yield from lines[:-1]
            raise ParseError(
                f"line {count + len(lines)}: text is not UTF-8 ({exc.reason})"
            ) from None
        count += len(lines)
        yield from lines


def parse_libsvm(text: str | bytes | BinaryIO, dim: int | None = None) -> Dataset:
    """Parse LIBSVM-format text into a dense dataset.

    text is a str, UTF-8 bytes, or a binary file open for reading, which
    is read from its current position to its end.  Each non-empty line is
    `<label> <index>:<value> ...` with 1-based,
    strictly increasing indices; `#` starts a comment.  Unlisted entries
    are zero, so the text alone cannot show trailing zero features: the
    width is dim when it is given (a model's or moment sidecar's
    dimension), and otherwise the largest index seen anywhere.  Exactly
    two distinct raw label values must occur, and the numerically larger
    one maps to +1.  Malformed input raises ParseError naming the line,
    and so does text that is not UTF-8, an index above dim, or one too
    large to store or to allocate the matrix for.

    The lines are split, and bytes read and decoded, one block of about
    128 KiB at a time, so beyond the text it is given the parse holds one
    block of text.  Entries are collected into flat typed arrays, 16 bytes
    each, not a Python object per entry.  Sparse text's entries are
    scattered into one zeroed matrix at the end.  In dense text, where
    every row lists every index, the array of values is the matrix: the
    dataset holds its buffer, which array('d') over-allocates by about
    1/16, and the parse peaks at about two feature matrices (the values
    and the columns).
    """
    if dim is not None:
        _check_min("dim", dim, 1)
    # the first line above dim is the first to raise the largest index past it
    limit = math.inf if dim is None else dim
    raw_labels = array("d")
    counts = array("q")  # entries per row
    columns = array("q")  # 0-based
    values = array("d")
    max_index = 0
    for lineno, raw_line in enumerate(_lines(text), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: label {tokens[0]!r} is not numeric") from None
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: label {tokens[0]!r} is not finite")
        previous = 0
        for token in tokens[1:]:
            index_str, sep, value_str = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected index:value, got {token!r}")
            try:
                index = int(index_str)
                value = float(value_str)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed entry {token!r}") from None
            if index < 1:
                raise ParseError(f"line {lineno}: index {index} is not >= 1")
            if index <= previous:
                raise ParseError(
                    f"line {lineno}: index {index} does not increase (previous {previous})"
                )
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: value {value_str!r} is not finite")
            previous = index
            try:
                columns.append(index - 1)
            except OverflowError:  # past the 64-bit column array
                raise ParseError(f"line {lineno}: index {index} is too large") from None
            values.append(value)
        if previous > max_index:
            if previous > limit:
                raise ParseError(f"line {lineno}: index {previous} is above the dimension {dim}")
            max_index, max_line = previous, lineno
        raw_labels.append(label)
        counts.append(len(tokens) - 1)
    if not raw_labels:
        raise ParseError("no samples found in input")
    if max_index == 0 and dim is None:
        raise ParseError("no feature entries found in input")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise ParseError(
            f"expected exactly two distinct labels, found {len(distinct)}: {distinct}"
        )
    n = len(raw_labels)
    width = max_index if dim is None else dim
    if len(values) == n * width:
        # no row lists more than width rising indices, so every row lists
        # 1..width in order and the values already are the matrix
        del columns
        features = np.frombuffer(values).reshape(n, width)
    else:
        try:
            features = np.zeros((n, width))
        except (MemoryError, ValueError):  # ValueError: too many elements to address
            cause = f"line {max_line}: index {max_index}" if dim is None else f"dimension {dim}"
            raise ParseError(f"{cause} makes a matrix of {n} x {width} entries that cannot be "
                             "allocated") from None
        rows = np.repeat(np.arange(n), np.frombuffer(counts, dtype=np.int64))
        features[rows, np.frombuffer(columns, dtype=np.int64)] = np.frombuffer(values)
    labels = np.where(np.frombuffer(raw_labels) == distinct[1], 1, -1).astype(np.int64, copy=False)
    return Dataset._built(features, labels, finite=True)


def format_libsvm(dataset: Dataset) -> str:
    """Serialize to LIBSVM text, one line per sample.

    All entries are written, including zeros, with 17 significant digits
    ('%.17g'), which round-trip every double, so
    parse_libsvm(format_libsvm(ds)) reproduces the dataset bit for bit.
    The fixed digit count skips repr's search for the shortest digits;
    text written with the shortest repr, as earlier versions wrote it,
    parses to the same bytes.  Rows are converted to Python floats one at
    a time, so beside the text it returns it holds one row.
    """
    # one %-template per file
    row_format = "".join(f" {j}:%.17g" for j in range(1, dataset.dim + 1))
    lines = [
        ("+1" if label == 1 else "-1") + row_format % tuple(row.tolist())
        for row, label in zip(dataset.features, dataset.labels.tolist())
    ]
    lines.append("")
    return "\n".join(lines)


def _block_rows(dim: int) -> int:
    """Rows save_libsvm formats at once: as many as fit in _BLOCK_BYTES at
    the longest a row can be, its label, its line break and for each entry
    ' j:' and a '%.17g' value of at most 24 characters."""
    return max(1, _BLOCK_BYTES // (3 + dim * (len(str(dim)) + 26)))


def _twin_path(path) -> str:
    return os.fspath(path) + ".npz"


def load_libsvm(path, dim: int | None = None) -> Dataset:
    """Read a LIBSVM file from disk, from its binary twin when that is current.

    The twin PATH.npz, which save_libsvm writes, is used only when it is an
    npz archive that loads without pickles, its digest equals the SHA-256
    of the file's bytes, its arrays are what save_libsvm writes (C-ordered
    float64 features and int64 labels) and pass the Dataset constructor's
    checks with both classes present, and its width is dim when dim is
    given; the dataset then holds the twin's arrays themselves.  Otherwise
    the text is parsed, with parse_libsvm's results and errors; dim is
    parse_libsvm's, so the parse pads a narrower file with zero columns and
    names the line above dim in a wider one.  The text is authoritative: a
    stale, damaged or missing twin only costs the parse.  Loading never
    writes a file.

    The file is hashed, and then parsed if it must be, in reads of about
    128 KiB, so at most one block of its text is held at once.
    """
    with open(path, "rb") as fh:
        digest = hashlib.sha256()
        for block in iter(partial(fh.read, _BLOCK_BYTES), b""):
            digest.update(block)
        dataset = _read_twin(_twin_path(path), digest.hexdigest())
        if dataset is not None and (dim is None or dataset.dim == dim):
            return dataset
        fh.seek(0)
        return parse_libsvm(fh, dim)


def _read_twin(path: str, sha256: str) -> Dataset | None:
    """The dataset a twin at path holds for text of the given digest, or None."""
    try:
        # np.load(path) leaves its handle to the garbage collector when a
        # file with the zip magic is cut short; this one is closed here
        with open(path, "rb") as fh:
            twin = np.load(fh, allow_pickle=False)
            if not isinstance(twin, np.lib.npyio.NpzFile):
                return None
            with twin:
                if str(twin["sha256"]) != sha256:
                    return None
                features, labels = twin["features"], twin["labels"]
        # any other arrays the constructor would cast, and so hold other
        # values than the text's parse
        if not (features.dtype == np.float64 and features.flags.c_contiguous
                and labels.dtype == np.int64):
            return None
        _check_arrays(features, labels)
    # what np.load and the archive's members raise for a file that is
    # missing, not an archive, truncated or corrupted, or short of a key,
    # and what the constructor's checks raise
    except (OSError, EOFError, KeyError, ValueError, NotImplementedError, zipfile.BadZipFile):
        return None
    dataset = Dataset._built(features, labels, finite=True)
    return dataset if dataset.n_pos and dataset.n_neg else None


def save_libsvm(dataset: Dataset, path) -> str:
    """Write a dataset to disk in LIBSVM format plus its binary twin.

    The twin, PATH.npz (np.savez, uncompressed), holds the features, the
    labels and the SHA-256 of the text's bytes, so load_libsvm reads it
    instead of parsing the text for as long as the text is unchanged.  The
    text and then the twin are each written under a temporary name and
    moved into place, so a reader never sees half of either, and a failed
    write leaves the previous file as it was.  Returns the twin's path.

    The text is formatted by format_libsvm, encoded, hashed and written
    one block of rows at a time, at most 128 KiB of text each unless one
    row is longer, so the writer never holds the whole text.
    """
    digest = hashlib.sha256()
    step = _block_rows(dataset.dim)

    def write_text(fh):
        for start in range(0, dataset.n, step):
            rows = Dataset._built(dataset.features[start:start + step],
                                  dataset.labels[start:start + step], finite=True)
            block = format_libsvm(rows).encode("utf-8")
            digest.update(block)
            fh.write(block)

    _write_replacing(path, write_text)
    twin = _twin_path(path)
    _write_replacing(twin, lambda fh: np.savez(
        fh, features=np.ascontiguousarray(dataset.features), labels=dataset.labels,
        sha256=np.array(digest.hexdigest())))
    return twin


def normalize_zscore(dataset: Dataset) -> tuple[Dataset, NormalizationStats]:
    """Center every column and scale it to unit population variance.

    Columns with standard deviation below 1e-12 are centered only (their
    scale is pinned to 1), so constant columns come out exactly zero
    instead of amplifying noise.  Needs at least two samples.
    """
    if dataset.n < 2:
        raise ValueError("normalization needs at least 2 samples")
    X = dataset.features
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std < _STD_EPS, 1.0, std)
    # finite features can still overflow the sums, and an infinite std
    # would silently zero its column
    if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
        raise ValueError("normalization stats contain non-finite entries")
    mean.setflags(write=False)
    scale.setflags(write=False)
    stats = NormalizationStats(mean=mean, scale=scale)
    return apply_zscore(dataset, stats), stats


def apply_zscore(dataset: Dataset, stats: NormalizationStats) -> Dataset:
    """Apply previously learned normalization to another dataset."""
    if stats.mean.shape[0] != dataset.dim:
        raise ValueError(
            f"stats are for d={stats.mean.shape[0]}, dataset has d={dataset.dim}"
        )
    features = dataset.features - stats.mean
    features /= stats.scale
    return Dataset._built(features, dataset.labels)


def gen_gaussian(spec: GaussianSpec) -> tuple[Dataset, ClassMoments]:
    """Sample a two-Gaussian dataset and return it with its exact moments.

    The positive class gets round(n * prior_pos) samples, all positives
    first.  The returned ClassMoments carry the generator's true means,
    covariances, and spec priors, not empirical estimates; they describe
    the clean distribution even when outlier_pct > 0 flips labels.

    Each covariance is allocated once, by A @ A', and finished in place.
    numpy computes that product with a symmetric rank-k update, which
    fills both triangles from the same values, so it is exactly symmetric
    without a symmetrization.  Each class is sampled straight into its
    rows of the feature matrix, and the dataset and moments take these
    arrays without copying them.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.d
    mu_pos = spec.mean_scale * rng.standard_normal(d)
    mu_neg = spec.mean_scale * rng.standard_normal(d)
    sigmas = []
    for _ in range(2):
        A = rng.standard_normal((d, d))
        sigma = A @ A.T
        del A
        sigma /= d
        sigma.flat[:: d + 1] += 1.0
        sigma *= spec.cov_scale
        sigmas.append(sigma)
    n_pos = int(round(spec.n * spec.prior_pos))
    features = np.empty((spec.n, d))
    for rows, mu, sigma in (
        (features[:n_pos], mu_pos, sigmas[0]),
        (features[n_pos:], mu_neg, sigmas[1]),
    ):
        try:
            # sigma is exactly symmetric, so sigma.T is the same matrix in
            # Fortran order, which LAPACK's input copy reads with unit stride
            chol = np.linalg.cholesky(sigma.T)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"generated covariance failed to factorize: {exc}") from exc
        np.matmul(rng.standard_normal((rows.shape[0], d)), chol.T, out=rows)
        del chol
        rows += mu
    labels = np.ones(spec.n, dtype=np.int64)
    labels[n_pos:] = -1
    dataset = Dataset._built(features, labels)
    if spec.outlier_pct > 0.0:
        dataset = inject_outliers(dataset, spec.outlier_pct, spec.seed)
    prior_pos = float(spec.prior_pos)
    moments = _built(
        ClassMoments,
        mu_pos=mu_pos,
        mu_neg=mu_neg,
        sigma_pos=sigmas[0],
        sigma_neg=sigmas[1],
        prior_pos=prior_pos,
        prior_neg=1.0 - prior_pos,
    )
    return dataset, moments


def inject_outliers(dataset: Dataset, pct: float, seed: int) -> Dataset:
    """Flip the labels of floor(pct% of each class), chosen uniformly.

    Features are untouched; only labels change, so the flipped points sit
    deep inside the wrong class.  The result shares the input's read-only
    feature matrix.  pct must lie in [0, 50); flipping half a class or
    more would make the labeling meaningless.
    """
    pct = float(pct)
    if not 0.0 <= pct < 50.0:
        raise ValueError(f"pct must lie in [0, 50), got {pct!r}")
    k_pos = int(math.floor(pct * dataset.n_pos / 100.0))
    k_neg = int(math.floor(pct * dataset.n_neg / 100.0))
    rng = np.random.default_rng(seed)
    labels = np.array(dataset.labels)
    if k_pos > 0:
        labels[rng.choice(dataset.pos_index, size=k_pos, replace=False)] = -1
    if k_neg > 0:
        labels[rng.choice(dataset.neg_index, size=k_neg, replace=False)] = 1
    return Dataset._built(dataset.features, labels, finite=True)


def kfold_split(n: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded k-fold partition of range(n) into (train, test) index pairs.

    A seeded permutation is cut into k folds; the first n mod k folds get
    the extra sample.  Index arrays come back sorted.  Every index lands
    in exactly one test fold.
    """
    _check_min("k", k, 2)
    if n < k:
        raise ValueError(f"need n >= k, got n={n!r}, k={k!r}")
    permutation = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(permutation, k)
    splits = []
    for i in range(k):
        test = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        splits.append((train, test))
    return splits


def save_moments(moments: ClassMoments, path) -> None:
    """Write a moment model as plain key-value text, full precision.

    Keys: d, prior_pos, prior_neg, mu_pos, mu_neg, sigma_pos, sigma_neg;
    matrices are row-major.  This is the sidecar format the generator
    emits next to a dataset so exact moments survive the trip to disk.
    """

    _write_key_values(path, d=moments.dim, prior_pos=moments.prior_pos,
                      prior_neg=moments.prior_neg, mu_pos=moments.mu_pos, mu_neg=moments.mu_neg,
                      sigma_pos=moments.sigma_pos, sigma_neg=moments.sigma_neg)


def load_moments(path) -> ClassMoments:
    """Read a moment model written by save_moments."""

    def parse(fields):
        def vec(key):
            return np.array([float(t) for t in fields[key].split()])

        d = int(fields["d"])
        return dict(
            prior_pos=float(fields["prior_pos"]),
            prior_neg=float(fields["prior_neg"]),
            mu_pos=vec("mu_pos"),
            mu_neg=vec("mu_neg"),
            sigma_pos=vec("sigma_pos").reshape(d, d),
            sigma_neg=vec("sigma_neg").reshape(d, d),
        )

    return ClassMoments(**_read_key_values(path, "moments", parse))
