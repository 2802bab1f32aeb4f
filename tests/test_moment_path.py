"""The moment path builds each d x d matrix once and finishes it in place.

The generator, the moment estimator and the discriminant must give the
same bits as the formulas they replaced (kept in oracles.py), their
covariances must be exactly symmetric without an explicit symmetrization,
and their transient memory, counted in d x d matrices, must stay bounded.
The LIBSVM parser's transient memory, counted in feature matrices, is
bounded beside them on a dense and a sparse file, and so is that of
writing a file, loading it through its binary twin and loading it without.
"""

import tracemalloc

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    GaussianSpec,
    InvalidModelError,
    estimate_class_moments,
    format_libsvm,
    gen_gaussian,
    lda_fit,
    load_libsvm,
    parse_libsvm,
    save_libsvm,
)
from momentclf.surrogates import _SOLVE_BLOCK

import oracles

SPECS = [
    GaussianSpec(d=1, n=40, prior_pos=0.5, seed=1),
    GaussianSpec(d=2, n=60, prior_pos=0.5, seed=2),
    GaussianSpec(d=7, n=120, prior_pos=0.5, seed=3),
    GaussianSpec(d=60, n=300, prior_pos=0.5, seed=4),
    GaussianSpec(d=7, n=200, prior_pos=0.3, seed=5),
    GaussianSpec(d=7, n=200, prior_pos=0.5, outlier_pct=5.0, seed=6),
    GaussianSpec(d=7, n=200, prior_pos=0.5, seed=7, mean_scale=0.4, cov_scale=2.5),
    # n - 2 = d, the fewest rows for which lda_fit tries the plain pooled
    # covariance (it factorizes here), and one row fewer, where it does not
    GaussianSpec(d=6, n=8, prior_pos=0.5, seed=9),
    GaussianSpec(d=6, n=7, prior_pos=0.5, seed=10),
    # fewer rows per class than d: the pooled covariance is singular
    GaussianSpec(d=60, n=40, prior_pos=0.5, seed=8),
]
SCARCE = SPECS[-1]


def _same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _allocating(spec):
    return oracles.allocating_gen_gaussian(
        spec.d, spec.n, spec.prior_pos, spec.outlier_pct, spec.seed,
        spec.mean_scale, spec.cov_scale,
    )


@pytest.mark.parametrize("spec", SPECS, ids=repr)
class TestSameBitsAsAllocatingFormulas:
    def test_gen_gaussian(self, spec):
        ds, exact = gen_gaussian(spec)
        features, labels, mu_pos, mu_neg, sigma_pos, sigma_neg = _allocating(spec)
        assert _same_bits(ds.features, features)
        assert _same_bits(ds.labels, labels)
        assert _same_bits(exact.mu_pos, mu_pos)
        assert _same_bits(exact.mu_neg, mu_neg)
        assert _same_bits(exact.sigma_pos, sigma_pos)
        assert _same_bits(exact.sigma_neg, sigma_neg)
        assert (exact.prior_pos, exact.prior_neg) == (spec.prior_pos, 1.0 - spec.prior_pos)

    def test_estimate_class_moments(self, spec):
        ds, _ = gen_gaussian(spec)
        m = estimate_class_moments(ds)
        (mu_pos, sigma_pos), (mu_neg, sigma_neg) = oracles.allocating_class_moments(
            ds.features, ds.labels
        )
        assert _same_bits(m.mu_pos, mu_pos)
        assert _same_bits(m.sigma_pos, sigma_pos)
        assert _same_bits(m.mu_neg, mu_neg)
        assert _same_bits(m.sigma_neg, sigma_neg)

    def test_lda_fit(self, spec):
        ds, exact = gen_gaussian(spec)
        for m in (exact, estimate_class_moments(ds)):
            model = lda_fit(m)
            w, intercept = oracles.allocating_lda(
                m.mu_pos, m.mu_neg, m.sigma_pos, m.sigma_neg, m.prior_pos, m.prior_neg,
                m.n_samples,
            )
            assert _same_bits(model.w, w)
            assert model.intercept == intercept

    def test_covariances_exactly_symmetric(self, spec):
        # exact symmetry comes from numpy computing X' @ X with a symmetric
        # rank-k update; nothing symmetrizes afterwards
        ds, exact = gen_gaussian(spec)
        estimated = estimate_class_moments(ds)
        for sigma in (exact.sigma_pos, exact.sigma_neg, estimated.sigma_pos, estimated.sigma_neg):
            assert np.array_equal(sigma, sigma.T)


def test_scarce_spec_takes_the_jitter_path():
    ds, _ = gen_gaussian(SCARCE)
    m = estimate_class_moments(ds)
    # the attempt lda_fit skips is one that fails
    assert m.n_samples - 2 < m.dim
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m.prior_pos * m.sigma_pos + m.prior_neg * m.sigma_neg)
    assert np.all(np.isfinite(lda_fit(m).w))


def _singular_exact():
    # exact moments carry no sample count, so the plain attempt comes first
    sigma = np.diag([2.0, 1.0, 0.0, 0.0])
    return ClassMoments(np.ones(4), -np.ones(4), sigma, sigma, 0.5, 0.5)


@pytest.mark.parametrize("moments, factorizations", [
    (lambda: estimate_class_moments(gen_gaussian(SCARCE)[0]), 1),
    (lambda: estimate_class_moments(gen_gaussian(SPECS[3])[0]), 1),
    (lambda: gen_gaussian(SCARCE)[1], 1),
    (_singular_exact, 2),
], ids=["scarce-estimate", "pd-estimate", "pd-exact", "singular-exact"])
def test_lda_fit_factors_once_and_solves_with_the_factor(monkeypatch, moments, factorizations):
    m = moments()
    calls, solves = [], []
    cholesky, solve = np.linalg.cholesky, np.linalg.solve

    def counted_cholesky(a):
        calls.append(("cholesky", a.shape))
        return cholesky(a)

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    model = lda_fit(m)
    assert calls == [("cholesky", (m.dim, m.dim))] * factorizations
    # the factor's diagonal blocks are solved, never the whole d x d matrix
    assert all(rows == cols <= _SOLVE_BLOCK for rows, cols in solves)
    assert np.all(np.isfinite(model.w))


def test_public_constructors_store_the_symmetrized_input():
    rng = np.random.default_rng(9)
    fields = oracles.random_class_moments(rng, 6)
    fields["sigma_pos"] = fields["sigma_pos"] + 1e-13 * rng.standard_normal((6, 6))
    sigma = fields["sigma_pos"]
    assert not np.array_equal(sigma, sigma.T)
    assert _same_bits(ClassMoments(**fields).sigma_pos, 0.5 * (sigma + sigma.T))
    fields["sigma_pos"] = sigma + 1e-6 * np.triu(np.ones((6, 6)), 1)
    with pytest.raises(InvalidModelError, match="sigma_pos is not symmetric"):
        ClassMoments(**fields)


def _peak_bytes(fn, *args):
    """fn(*args) and its peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def _peak_matrices(d, fn, *args):
    """fn(*args) and its peak numpy allocation, in units of one d x d matrix."""
    out, peak = _peak_bytes(fn, *args)
    return out, peak / (8.0 * d * d)


def test_transient_memory_counted_in_matrices():
    # the wide-scarce regime at half size: half the rows train, and their
    # pooled covariance is singular, so lda_fit takes the jitter path.
    # Allocating every intermediate afresh measured 13.3, 4.4 and 3.0
    # matrices; building each matrix once measures 5.4, 2.6 and 2.0.
    d = 400
    spec = GaussianSpec(d=d, n=500, prior_pos=0.5, seed=1, mean_scale=0.5)
    (ds, _), gen_peak = _peak_matrices(d, gen_gaussian, spec)
    _, estimate_peak = _peak_matrices(d, estimate_class_moments, ds)
    train_moments = estimate_class_moments(ds.subset(np.arange(0, ds.n, 2)))
    _, lda_peak = _peak_matrices(d, lda_fit, train_moments)
    assert gen_peak < 9.0
    assert estimate_peak < 3.5
    assert lda_peak < 2.5


def _sparse_text(ds):
    # the odd (1-based) columns zeroed and left out of the text
    lines = []
    for row, label in zip(ds.features.tolist(), ds.labels.tolist()):
        entries = "".join(f" {j + 1}:{row[j]!r}" for j in range(1, len(row), 2))
        lines.append(("+1" if label == 1 else "-1") + entries + "\n")
    return "".join(lines)


def test_dense_parse_peak_counted_in_feature_matrices():
    # the entries' value and column arrays are 2 feature matrices (a tuple
    # per entry measured 13.9), and the matrix and the row of each entry
    # 2 more, while the lines are split one block of text at a time, so a
    # dense file measures 4.1 (5.0 when the whole text was split at once)
    # and the sparse one, with half the entries, 2.6
    ds, _ = gen_gaussian(GaussianSpec(d=200, n=2000, prior_pos=0.5, seed=1))
    sparse = np.array(ds.features)
    sparse[:, 0::2] = 0.0
    for text, features in ((format_libsvm(ds), ds.features), (_sparse_text(ds), sparse)):
        parsed, peak = _peak_bytes(parse_libsvm, text)
        assert parsed.features.tobytes() == features.tobytes()
        assert parsed.labels.tobytes() == ds.labels.tobytes()
        assert parsed.features.flags.c_contiguous
        assert peak <= 4.5 * ds.features.nbytes


def test_libsvm_file_peaks_counted_in_feature_matrices(tmp_path):
    # the text moves through blocks of about 128 KiB.  Writing the text and
    # its twin measures 1.13 feature matrices, np.savez's copy of the
    # features (7.75 when the whole text was held in three forms); a load
    # through the twin 1.23, the arrays themselves (5.07 with the whole
    # file read and the constructor's copy); and a load that parses the
    # file 4.26 (11.15 with the whole file read, decoded and split)
    ds, _ = gen_gaussian(GaussianSpec(d=20, n=20000, prior_pos=0.5, seed=1))
    path = tmp_path / "data.libsvm"
    _, save_peak = _peak_bytes(save_libsvm, ds, path)
    from_twin, twin_peak = _peak_bytes(load_libsvm, path)
    (tmp_path / "data.libsvm.npz").unlink()
    parsed, parse_peak = _peak_bytes(load_libsvm, path)
    for loaded in (from_twin, parsed):
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.labels.tobytes() == ds.labels.tobytes()
    assert save_peak <= 1.5 * ds.features.nbytes
    assert twin_peak <= 1.5 * ds.features.nbytes
    assert parse_peak <= 5.0 * ds.features.nbytes
