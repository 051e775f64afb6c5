"""Error taxonomy shared by every module.

Three failure kinds cover the whole surface: bad caller input, a numerical
procedure that did not meet its tolerance contract, and requests beyond the
desk-scale caps this package is designed for.  :func:`check_int` is the one
validation rule for integer arguments (query budgets and counts),
:func:`load_json` the one reader of prior and plan files, and
:func:`check_json_numbers` the one rule for number arrays read from them.
"""

import json
import math
import numbers


class InvalidInput(ValueError):
    """Caller-supplied data violates a documented precondition."""


class NumericalFailure(RuntimeError):
    """An iterative solve or consistency check missed its tolerance."""


class ResourceLimit(RuntimeError):
    """Problem size exceeds a documented desk-scale cap."""


def check_int(value, name: str, minimum: int = 0, maximum: int | None = None) -> None:
    """Reject anything but an integer in [minimum, maximum] as InvalidInput.

    Python and NumPy integers pass; bools, floats (even 2.0), strings and
    None do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if maximum is not None and not minimum <= value <= maximum:
        raise InvalidInput(f"{name} must be in [{minimum}, {maximum}], got {value}")
    if value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}")


def load_json(path):
    """Decode a UTF-8 JSON file; text that does not decode is InvalidInput.

    ``ValueError`` covers bad syntax, bytes that are not UTF-8 and integers
    over Python's digit limit; ``RecursionError`` covers deep nesting.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc


def check_json_numbers(values, name: str) -> None:
    """Reject anything but a list of decoded JSON numbers as InvalidInput.

    ``json.load`` gives int or float for a JSON number.  true, false, strings,
    null and nested arrays are rejected: NumPy would read the first three as
    1.0, 0.0 and a parsed float.  So are NaN, Infinity and -Infinity, which
    ``json.load`` reads as floats although JSON has no such numbers, and
    integers too large for a float.
    """
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise InvalidInput(f"{name} must be JSON numbers")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidInput(f"{name} must be finite numbers within the float range")
