"""Independent oracles used by the test suite.

Nothing here imports computational code from the package under test (only
containers, and the Cholesky substitution that the discriminant shares with
the package; it is held against np.linalg.solve on its own), and the
numerical routes are deliberately different: the CDF
oracle integrates the density with Gauss-Legendre panels instead of using
the error function, gradients come from central differences, pair losses
from O(n^2) enumeration, covariances from explicit two-pass loops, and
expectations from Monte-Carlo sampling.  The exceptions are the eager
surrogate gradients, the direct objectives' values and gradients with a
fresh array per operation, the generator, moment estimator and discriminant
as first written, with an identity matrix, an explicit symmetrization and
a fresh array per step, the line search as first written, from alpha0
down on every iteration, and the LIBSVM parser as first written, with a
tuple per entry: they repeat the package's formulas operation for
operation, so that its summed Gaussian-CDF terms, its lazily built and
in-place gradients, its in-place moment path, its warm-started line search
and its array-backed parser can be compared bit for bit.  The parser
builds the Dataset container and raises the package's ParseError, so its
messages can be compared too.  So do the
writers, the stable sigmoid and the logistic value as first written, one
wrapper call per value or array operation, against which the package's
leaner forms are held byte for byte, as are its logistic and hinge
evaluations, value and gradient, against theirs as first written.  The
logistic value through logaddexp(0, t), a second route to the same terms,
bounds the package's value to a few ulp, and fits on an objective built
from it must take the package's steps.
"""

from __future__ import annotations

import math

import numpy as np

from momentclf import Dataset, ObjectiveEval, ParseError
from momentclf.surrogates import _cholesky_solve

# 64-point Gauss-Legendre rule; composite over unit-length panels this is
# far below 1e-15 for the Gaussian density.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def quad_phi(x: float) -> float:
    """Standard normal CDF by composite quadrature of the density.

    Integrates from 0 to x in unit-length panels and adds 1/2.
    """
    x = float(x)
    if x == 0.0:
        return 0.5
    a = 0.0
    total = 0.0
    n_panels = max(1, int(math.ceil(abs(x))))
    edges = np.linspace(0.0, x, n_panels + 1)
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        t = mid + half * _GL_NODES
        total += half * float(np.sum(_GL_WEIGHTS * np.exp(-0.5 * t * t)))
    return 0.5 + _INV_SQRT_2PI * total


def fd_grad(f, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=float)
    g = np.empty_like(w)
    for i in range(w.shape[0]):
        step = np.zeros_like(w)
        step[i] = h
        g[i] = (f(w + step) - f(w - step)) / (2.0 * h)
    return g


def brute_hinge(w: np.ndarray, X_pos: np.ndarray, X_neg: np.ndarray):
    """O(n+ * n-) pairwise hinge value and gradient by direct enumeration."""
    w = np.asarray(w, dtype=float)
    sp = X_pos @ w
    sn = X_neg @ w
    n_pairs = sp.shape[0] * sn.shape[0]
    value = 0.0
    grad = np.zeros_like(w)
    for i in range(sp.shape[0]):
        for j in range(sn.shape[0]):
            margin = 1.0 - (sp[i] - sn[j])
            if margin > 0.0:
                value += margin
                grad += X_neg[j] - X_pos[i]
    return value / n_pairs, grad / n_pairs


def eager_hinge_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sorted-count pairwise hinge gradient, computed in one go.

    The argsort orders double as the scatter permutations.  The package's
    lazily built hinge gradient must equal this bit for bit.
    """
    w = np.asarray(w, dtype=float)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == -1)
    scores = features @ w
    sp = scores[pos]
    sn = scores[neg]
    order_pos = np.argsort(sp)
    order_neg = np.argsort(sn)
    thresholds = sn[order_neg]
    thresholds += 1.0
    active_pos = np.searchsorted(sp[order_pos], thresholds, side="left")
    covered = np.cumsum(np.bincount(active_pos, minlength=sp.shape[0] + 1))
    signed_pos = covered[: sp.shape[0]]
    signed_pos -= sn.shape[0]
    g_scores = np.empty_like(scores)
    g_scores[pos[order_pos]] = signed_pos
    g_scores[neg[order_neg]] = active_pos
    gradient = features.T @ g_scores
    gradient /= float(pos.shape[0] * neg.shape[0])
    return gradient


def eager_logistic_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                            lam: float) -> np.ndarray:
    """Regularized logistic gradient in the operation order of the eager formula."""
    w = np.asarray(w, dtype=float)
    y = labels.astype(float)
    t = -y * (features @ w)
    sigmoid = np.empty_like(t)
    up = t >= 0
    sigmoid[up] = 1.0 / (1.0 + np.exp(-t[up]))
    e = np.exp(t[~up])
    sigmoid[~up] = e / (1.0 + e)
    coef = sigmoid * (-y) / features.shape[0]
    return features.T @ coef + 2.0 * lam * w


def _projection_as_first_written(mu, sigma, w):
    # (ratio, sd, Sw) of the direct objectives, one fresh array per operation
    sigma_times_w = sigma @ w
    q = float(w @ sigma_times_w)
    sigma_w = math.sqrt(q) if q > 0.0 else 0.0
    return float(w @ mu) / sigma_w, sigma_w, sigma_times_w


def _cdf_as_first_written(mu, sigma, w) -> float:
    # the package's normal CDF through erfc, at the projected ratio
    ratio, _, _ = _projection_as_first_written(mu, sigma, w)
    return 0.5 * math.erfc(-ratio * _INV_SQRT_2)


def _cdf_chain_gradient_as_first_written(mu, sigma, w):
    # the chain rule of the direct objectives, one fresh array per operation
    ratio, sigma_w, sigma_times_w = _projection_as_first_written(mu, sigma, w)
    dens = _INV_SQRT_2PI * math.exp(-0.5 * ratio * ratio)
    if dens == 0.0:
        return np.zeros_like(sigma_times_w)
    return dens * (sigma_w * mu - ratio * sigma_times_w) / (sigma_w * sigma_w)


def error_value_as_first_written(moments, w: np.ndarray) -> float:
    """Value of the expected-error objective as first written."""
    w = np.asarray(w, dtype=float)
    cdf_pos = _cdf_as_first_written(moments.mu_pos, moments.sigma_pos, w)
    cdf_neg = _cdf_as_first_written(moments.mu_neg, moments.sigma_neg, w)
    return moments.prior_pos * (1.0 - cdf_pos) + moments.prior_neg * cdf_neg


def error_gradient_as_first_written(moments, w: np.ndarray) -> np.ndarray:
    """Gradient of the expected-error objective as first written."""
    w = np.asarray(w, dtype=float)
    g_pos = _cdf_chain_gradient_as_first_written(moments.mu_pos, moments.sigma_pos, w)
    g_neg = _cdf_chain_gradient_as_first_written(moments.mu_neg, moments.sigma_neg, w)
    return moments.prior_neg * g_neg - moments.prior_pos * g_pos


def auc_value_as_first_written(pair_moments, w: np.ndarray) -> float:
    """Value of the expected ranking loss as first written."""
    w = np.asarray(w, dtype=float)
    return _cdf_as_first_written(pair_moments.mu_hat, pair_moments.sigma_hat, w)


def auc_gradient_as_first_written(pair_moments, w: np.ndarray) -> np.ndarray:
    """Gradient of the expected ranking loss as first written."""
    w = np.asarray(w, dtype=float)
    return _cdf_chain_gradient_as_first_written(pair_moments.mu_hat, pair_moments.sigma_hat, w)


def cold_backtracking(objective, w0: np.ndarray, config):
    """Steepest descent whose every Armijo search starts at alpha0.

    Each trial step is alpha0 shrunk by beta once per rejected trial, until
    F(w - alpha g) <= F(w) - c alpha ||g||^2 or max_backtracks + 1 trials
    have failed; the stops are those of the package's optimizer.  Returns
    the final w, one (value, grad_norm, step, backtracks) tuple per
    accepted step with cumulative rejected trials, the stop reason and the
    number of objective calls.
    """
    w = np.array(w0, dtype=float)
    current = objective(w)
    evaluations = 1
    grad = np.asarray(current.gradient, dtype=float)
    grad_norm = float(np.linalg.norm(grad))
    threshold = config.grad_tol_rel * grad_norm
    records = []
    backtracks = 0
    while True:
        if grad_norm <= threshold:
            return w, records, "gradient-tolerance", evaluations
        if len(records) >= config.max_iters:
            return w, records, "max-iterations", evaluations
        f_current = float(current.value)
        decrease_slope = config.c * grad_norm * grad_norm
        alpha = config.alpha0
        accepted = None
        for _ in range(config.max_backtracks + 1):
            trial_w = w - alpha * grad
            trial = objective(trial_w)
            evaluations += 1
            if float(trial.value) <= f_current - alpha * decrease_slope:
                accepted = (trial_w, trial, alpha)
                break
            backtracks += 1
            alpha *= config.beta
        if accepted is None:
            return w, records, "line-search-failure", evaluations
        w, current, alpha = accepted
        grad = np.asarray(current.gradient, dtype=float)
        grad_norm = float(np.linalg.norm(grad))
        records.append((float(current.value), grad_norm, alpha, backtracks))
        if float(current.value) >= f_current and grad_norm > threshold:
            return w, records, "no-decrease", evaluations


def brute_auc(scores_pos: np.ndarray, scores_neg: np.ndarray, ties: str = "strict") -> float:
    """Pair-enumeration WMW AUC."""
    credit = 0.0
    for sp in scores_pos:
        for sn in scores_neg:
            if sp > sn:
                credit += 1.0
            elif sp == sn and ties == "midrank":
                credit += 0.5
    return credit / (scores_pos.shape[0] * scores_neg.shape[0])


def two_pass_moments(X: np.ndarray):
    """Loop-based mean and unbiased covariance, no vectorized shortcuts."""
    n, d = X.shape
    mean = np.zeros(d)
    for i in range(n):
        for j in range(d):
            mean[j] += X[i, j]
    mean /= n
    cov = np.zeros((d, d))
    for i in range(n):
        r = X[i] - mean
        for a in range(d):
            for b in range(d):
                cov[a, b] += r[a] * r[b]
    cov /= n - 1
    return mean, cov


def random_class_moments(rng: np.random.Generator, d: int, prior_pos: float | None = None,
                         mean_scale: float = 1.0):
    """Random well-conditioned moment ingredients for property sweeps.

    Returns a dict of keyword arguments so tests can build the package's
    ClassMoments without this module importing it.
    """
    if prior_pos is None:
        prior_pos = float(rng.uniform(0.1, 0.9))
    A = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d))
    return {
        "mu_pos": mean_scale * rng.standard_normal(d),
        "mu_neg": mean_scale * rng.standard_normal(d),
        "sigma_pos": A @ A.T / d + np.eye(d),
        "sigma_neg": B @ B.T / d + np.eye(d),
        "prior_pos": prior_pos,
        "prior_neg": 1.0 - prior_pos,
    }


def mc_error_rate(w: np.ndarray, moments, n_draws: int, rng: np.random.Generator) -> float:
    """Empirical misclassification rate of sign(w'x) under the moment model.

    Labels are drawn from the priors, features from the per-class
    Gaussians; a score of exactly zero on a positive counts correct,
    matching the tie convention (a measure-zero event here).
    """
    w = np.asarray(w, dtype=float)
    n_pos = int(rng.binomial(n_draws, moments.prior_pos))
    n_neg = n_draws - n_pos
    chol_pos = np.linalg.cholesky(moments.sigma_pos)
    chol_neg = np.linalg.cholesky(moments.sigma_neg)
    errors = 0
    if n_pos:
        sp = (moments.mu_pos + rng.standard_normal((n_pos, w.shape[0])) @ chol_pos.T) @ w
        errors += int(np.sum(sp < 0.0))
    if n_neg:
        sn = (moments.mu_neg + rng.standard_normal((n_neg, w.shape[0])) @ chol_neg.T) @ w
        errors += int(np.sum(sn >= 0.0))
    return errors / n_draws


def mc_ranking_loss(w: np.ndarray, moments, n_per_class: int, rng: np.random.Generator) -> float:
    """One minus the empirical WMW AUC of w'x on independent class draws."""
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    chol_pos = np.linalg.cholesky(moments.sigma_pos)
    chol_neg = np.linalg.cholesky(moments.sigma_neg)
    sp = (moments.mu_pos + rng.standard_normal((n_per_class, d)) @ chol_pos.T) @ w
    sn = (moments.mu_neg + rng.standard_normal((n_per_class, d)) @ chol_neg.T) @ w
    # same counting rule as the brute-force AUC, but sorted for speed
    sn_sorted = np.sort(sn)
    above = np.searchsorted(sn_sorted, sp, side="left").sum()
    return 1.0 - float(above) / (n_per_class * n_per_class)


def libsvm_text(features: np.ndarray, labels: np.ndarray) -> str:
    """Dense LIBSVM text written entry by entry, each value with 17 significant digits."""
    lines = []
    for row, label in zip(features, labels):
        entries = " ".join(f"{j + 1}:{'%.17g' % float(v)}" for j, v in enumerate(row))
        lines.append(f"{'+1' if label == 1 else '-1'} {entries}\n")
    return "".join(lines)


def prefix_format_libsvm(dataset) -> str:
    """format_libsvm as first written: a prefix list joined to each entry's repr,
    its shortest round-trip spelling, which later versions replaced by 17 digits."""
    prefixes = [f" {j}:" for j in range(1, dataset.dim + 1)]
    lines = [
        ("+1" if label == 1 else "-1") + "".join(map(str.__add__, prefixes, map(repr, row)))
        for row, label in zip(dataset.features.tolist(), dataset.labels.tolist())
    ]
    lines.append("")
    return "\n".join(lines)


def scalar_repr_fmt(values) -> str:
    """save_moments' field writer as first written: repr(float(v)) per numpy scalar."""
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def two_division_sigmoid(t: np.ndarray) -> np.ndarray:
    """The stable sigmoid as first written: both quotients, then a select."""
    e = np.exp(-np.abs(t))
    denom = 1.0 + e
    return np.where(t >= 0, 1.0 / denom, e / denom)


def mean_logistic_value(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                        lam: float) -> float:
    """Regularized logistic value as first written, through ndarray.mean.

    Each term log(1 + exp(t)) is max(t, 0) + log1p(exp(-|t|)).
    """
    neg_y = -labels.astype(float)
    t = neg_y * (features @ w)
    terms = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return float(terms.mean() + lam * (w @ w))


def logistic_as_first_written(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                              lam: float):
    """Regularized logistic value and gradient as first written.

    A fresh array per operation, the @ operator, each value term as
    max(t, 0) + log1p(exp(-|t|)), and the sigmoid through np.where;
    returns (value, gradient).
    """
    w = np.asarray(w, dtype=float)
    neg_y = -labels.astype(float)
    n = features.shape[0]
    t = neg_y * (features @ w)
    e = np.exp(-np.abs(t))
    value = float(np.add.reduce(np.maximum(t, 0.0) + np.log1p(e)) / n + lam * (w @ w))
    ridge = 2.0 * lam * w
    coef = np.where(t >= 0, 1.0, e) / (1.0 + e) * neg_y / n
    return value, features.T @ coef + ridge


def logaddexp_logistic_value(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                             lam: float) -> float:
    """Regularized logistic value with each term as logaddexp(0, t), which
    rounds its own exp and log1p."""
    neg_y = -labels.astype(float)
    t = neg_y * (features @ w)
    return float(np.add.reduce(np.logaddexp(0.0, t)) / features.shape[0] + lam * (w @ w))


def logaddexp_logistic_objective(dataset, lam: float):
    """The logistic objective with its value from logaddexp_logistic_value
    and its gradient, eager, from logistic_as_first_written; convex."""
    features, labels = dataset.features, dataset.labels

    def evaluate(w):
        value = logaddexp_logistic_value(w, features, labels, lam)
        _, gradient = logistic_as_first_written(w, features, labels, lam)
        return ObjectiveEval(value, gradient, True)

    return evaluate


def hinge_as_first_written(w: np.ndarray, features: np.ndarray, labels: np.ndarray):
    """Sorted-count pairwise hinge value and gradient as first written.

    np.sort, np.searchsorted, np.cumsum and ndarray.sum, a separate prefix
    array, and a second sort as argsort for the gradient; returns
    (value, gradient).
    """
    w = np.asarray(w, dtype=float)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == -1)
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    scores = features @ w
    sp = scores[pos]
    sn = scores[neg]
    sp_sorted = np.sort(sp)
    thresholds = np.sort(sn)
    thresholds += 1.0
    active_pos = np.searchsorted(sp_sorted, thresholds, side="left")
    prefix = np.empty(n_pos + 1)
    prefix[0] = 0.0
    np.cumsum(sp_sorted, out=prefix[1:])
    value = float(
        (np.einsum("i,i->", active_pos, thresholds) - prefix[active_pos].sum()) / (n_pos * n_neg)
    )
    covered = np.cumsum(np.bincount(active_pos, minlength=n_pos + 1))
    signed_pos = covered[:n_pos]
    signed_pos -= n_neg
    g_scores = np.empty_like(scores)
    g_scores[pos[np.argsort(sp)]] = signed_pos
    g_scores[neg[np.argsort(sn)]] = active_pos
    gradient = features.T @ g_scores
    gradient /= float(n_pos * n_neg)
    return value, gradient


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def tuple_parse_libsvm(text: str) -> Dataset:
    """The per-line LIBSVM parser as first written: a (index, value) tuple per entry."""
    raw_labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
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
        entries: list[tuple[int, float]] = []
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
            entries.append((index, value))
        max_index = max(max_index, previous)
        raw_labels.append(label)
        rows.append(entries)
    if not rows:
        raise ParseError("no samples found in input")
    if max_index == 0:
        raise ParseError("no feature entries found in input")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise ParseError(
            f"expected exactly two distinct labels, found {len(distinct)}: {distinct}"
        )
    features = np.zeros((len(rows), max_index), dtype=float)
    for i, entries in enumerate(rows):
        for index, value in entries:
            features[i, index - 1] = value
    labels = np.where(np.array(raw_labels) == distinct[1], 1, -1)
    return Dataset(features=features, labels=labels)


def allocating_gen_gaussian(d, n, prior_pos, outlier_pct=0.0, seed=0, mean_scale=1.0,
                            cov_scale=1.0):
    """Two-Gaussian sample and exact moments, one fresh array per step.

    Returns (features, labels, mu_pos, mu_neg, sigma_pos, sigma_neg) with
    the draw order of the package's generator and its label flips.
    """
    rng = np.random.default_rng(seed)
    mu_pos = mean_scale * rng.standard_normal(d)
    mu_neg = mean_scale * rng.standard_normal(d)
    A = rng.standard_normal((d, d))
    sigma_pos = cov_scale * (A @ A.T / d + np.eye(d))
    B = rng.standard_normal((d, d))
    sigma_neg = cov_scale * (B @ B.T / d + np.eye(d))
    sigma_pos = 0.5 * (sigma_pos + sigma_pos.T)
    sigma_neg = 0.5 * (sigma_neg + sigma_neg.T)
    chol_pos = np.linalg.cholesky(sigma_pos)
    chol_neg = np.linalg.cholesky(sigma_neg)
    n_pos = int(round(n * prior_pos))
    n_neg = n - n_pos
    X_pos = mu_pos + rng.standard_normal((n_pos, d)) @ chol_pos.T
    X_neg = mu_neg + rng.standard_normal((n_neg, d)) @ chol_neg.T
    features = np.vstack([X_pos, X_neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    if outlier_pct > 0.0:
        flip_rng = np.random.default_rng(seed)
        flipped = labels.copy()
        for label, count in ((1, n_pos), (-1, n_neg)):
            k = int(math.floor(float(outlier_pct) * count / 100.0))
            if k > 0:
                flipped[flip_rng.choice(np.flatnonzero(labels == label), size=k,
                                        replace=False)] = -label
        labels = flipped
    return features, labels, mu_pos, mu_neg, sigma_pos, sigma_neg


def allocating_class_moments(features: np.ndarray, labels: np.ndarray):
    """Per-class (mean, covariance) with a centered copy and a symmetrization."""
    out = []
    for label in (1, -1):
        Xc = features[labels == label]
        mu = Xc.mean(axis=0)
        centered = Xc - mu
        sigma = centered.T @ centered / (Xc.shape[0] - 1)
        out.append((mu, 0.5 * (sigma + sigma.T)))
    return out


def allocating_lda(mu_pos, mu_neg, sigma_pos, sigma_neg, prior_pos, prior_neg, n_samples=None):
    """Pooled-covariance discriminant (w, intercept), jittered by an added identity.

    Like the package, it skips the unjittered factorization when n_samples
    rows cannot give a full-rank pooled covariance, and solves with the
    package's _cholesky_solve on the factor.
    """
    pooled = prior_pos * sigma_pos + prior_neg * sigma_neg
    d = pooled.shape[0]
    factor = None
    if n_samples is None or n_samples - 2 >= d:
        try:
            factor = np.linalg.cholesky(pooled)
        except np.linalg.LinAlgError:
            pass
    if factor is None:
        factor = np.linalg.cholesky(pooled + 1e-8 * float(np.trace(pooled)) / d * np.eye(d))
    w = _cholesky_solve(factor, mu_pos - mu_neg)
    intercept = float(-0.5 * (w @ (mu_pos + mu_neg)) + math.log(prior_pos / prior_neg))
    return w, intercept
