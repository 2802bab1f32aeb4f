"""Exception types shared across the package, its field checks (an int field
is an int, a real field is finite), the one minimum rule for integers
(`{name} must be >= {m}, got {value!r}`), and its text-file reader and
writers: every model, sidecar, report and trace file is UTF-8 lines, each
ended by a newline.  Key-value files (models and sidecars) and CSV files
(reports and traces) write floats as their repr and arrays row-major;
LIBSVM data files are data.format_libsvm's, with 17 significant digits.
Every file, these and LIBSVM text and its twin, is written under a
temporary name and moved into place, so no reader sees half of one.

Everything derives from ValueError so callers that only care about
"bad input vs. bug" can catch one class, while tests and the harness
can still tell the failure modes apart.
"""

import math
import numbers
import os

__all__ = [
    "DegenerateProjectionError",
    "InsufficientDataError",
    "InvalidModelError",
    "SingularModelError",
    "DegenerateModelError",
    "ParseError",
]


class DegenerateProjectionError(ValueError):
    """Projected variance w'Sw is numerically zero; the ratio mu_w/sigma_w is undefined."""


class InsufficientDataError(ValueError):
    """A class has too few samples to estimate its moments."""


class InvalidModelError(ValueError):
    """Moment inputs fail ClassMoments' checks: shapes, finiteness, symmetry or priors."""


class SingularModelError(ValueError):
    """A pooled covariance cannot be factorized even after diagonal jitter."""


class DegenerateModelError(ValueError):
    """The class means coincide, so no direction separates them."""


class ParseError(ValueError):
    """Malformed text input; the message names the offending line."""


def _check_ints(obj, **minimums: int) -> None:
    """Raise TypeError unless each named field of obj is an int (a bool is not
    one), then ValueError unless each is at least its minimum."""
    for name in minimums:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")
    for name, minimum in minimums.items():
        _check_min(name, getattr(obj, name), minimum)


def _check_min(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is at least minimum."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_reals(obj, *names: str) -> None:
    """Raise TypeError unless each named field of obj is a real number (a bool
    is not one), and ValueError unless it is finite."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _read_key_values(path, kind: str, parse):
    """Read the `key values` lines of a model or moments file; return parse(fields).

    A line without values, a key repeated, and a KeyError or ValueError from
    parse raise ParseError.
    """
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            if not rest:
                raise ParseError(f"line {lineno}: expected 'key values', got {line!r}")
            if key in fields:
                raise ParseError(f"line {lineno}: key {key!r} repeated")
            fields[key] = rest
    try:
        return parse(fields)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{kind} file {path!s} is malformed: {exc}") from exc


def _write_replacing(path, write) -> None:
    """Call write on a binary file under a temporary name, then move it onto
    path, replacing what path names (a symbolic link, not its target); on
    any failure the temporary file is removed and path kept."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_lines(path, lines) -> None:
    """Write lines as UTF-8 text, each ended by a newline."""
    _write_replacing(path, lambda fh: fh.write("\n".join([*lines, ""]).encode("utf-8")))


def _write_key_values(path, **fields) -> None:
    """Write one `key values` line per field, in order, for _read_key_values.

    An int or float is written as its repr; a numpy array or scalar as the
    reprs of its entries in row-major order, so floats round-trip exactly.
    """

    def text(value) -> str:
        if hasattr(value, "ravel"):
            return " ".join(map(repr, value.ravel().tolist()))
        return repr(value)

    _write_lines(path, [f"{key} {text(value)}" for key, value in fields.items()])
