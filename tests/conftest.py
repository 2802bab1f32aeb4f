"""Pytest hooks: print one pass/fail line per acceptance criterion.

Tests named test_criterion_NN_* in test_acceptance.py are tallied and a
summary block is appended to the terminal report so a release gate can be
read off a plain pytest run.  The deadline fixture fails a test that
blocks, on a FIFO say, instead of hanging the suite.
"""

import re
import signal

import pytest

CRITERIA = {
    1: "std_normal_cdf within 1e-12 of quadrature on 1000 points in [-8, 8]",
    2: "analytic gradients match central differences to 1e-6 over 200 configs",
    3: "closed-form risks match Monte Carlo (0-1 within 3 sigma, ranking within 0.01)",
    4: "sorted hinge and AUC match brute-force pair enumeration on 100 instances",
    5: "error-direct beats logistic accuracy on >= 15/20 outlier splits",
    6: "auc-direct beats pairwise hinge AUC on >= 15/20 outlier splits",
    7: "error-direct beats LDA accuracy on >= 15/20 outlier splits",
    8: "direct per-iteration time n-independent (< 2x); logistic grows > 10x",
    9: "optimizer convergence examples and Armijo replay of benchmark traces",
    10: "homogeneity, orthogonality, transform invariance, determinism x100",
}

_PATTERN = re.compile(r"test_acceptance\.py::.*test_criterion_(\d{2})")
_results = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if match is None:
        return
    num = int(match.group(1))
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
    elif report.failed or report.skipped:
        # fixture error or skip: the criterion was not demonstrated
        outcome = "FAIL"
    else:
        return
    if _results.get(num) != "FAIL":
        _results[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        description = CRITERIA.get(num, "")
        terminalreporter.write_line(f"criterion {num:02d} {_results[num]} - {description}")


@pytest.fixture
def deadline():
    """Fail the test if it runs for more than 10 seconds (POSIX only)."""

    def expire(signum, frame):
        # pytest's failure is no Exception, so main's handler lets it through
        pytest.fail("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
