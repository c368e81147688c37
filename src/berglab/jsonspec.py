"""Checked reads of JSON spec values, one helper per JSON type: every spec
reader reads through them, so a value of the wrong type raises a ValueError
naming its field (``name``, a path such as ``"F.terms[0].alpha[1]"``)."""

import math
from fractions import Fraction

from .errors import QuadratureError
from .exactnum import to_float


def json_object(x, name, required=()):
    """``x``, a JSON object holding every key in ``required``."""
    if not isinstance(x, dict):
        raise ValueError(f"{name} must be a JSON object, not {x!r}")
    for key in required:
        if key not in x:
            raise ValueError(f"{name} is missing {key!r}")
    return x


def json_list(x, name, nonempty=False, length=None):
    """``x``, a JSON list, not empty if ``nonempty``, of ``length`` items if given."""
    if not isinstance(x, list):
        raise ValueError(f"{name} must be a list, not {x!r}")
    if nonempty and not x:
        raise ValueError(f"{name} must not be empty")
    if length is not None and len(x) != length:
        raise ValueError(f"{name} must have {length} items, not {len(x)}")
    return x


def integer(x, name, minimum, maximum=None):
    """``x`` as an int >= ``minimum`` (and <= ``maximum`` if given): a JSON integer,
    or a float with no fractional part (2.0 reads as 2).  A bool is not an integer."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int) or x < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, not {x!r}")
    if maximum is not None and x > maximum:
        raise ValueError(f"{name} must be at most {maximum}, not {x}")
    return x


def number(x, name):
    """``x``, a finite JSON number, or a string such as "1/2" read as a
    Fraction.  A bool and a zero denominator are refused."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{name} {x!r} is not a rational number: {exc}") from None
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not -math.inf < x < math.inf:
        raise ValueError(f"{name} must be a finite number or a string such as \"1/2\", not {x!r}")
    return x


def real(x, name):
    """``x`` (:func:`number`) as a float, for a field only float code reads: a
    nonzero number past the float range (:func:`berglab.exactnum.to_float`) is refused."""
    try:
        return to_float(number(x, name))
    except QuadratureError:
        raise ValueError(f"{name} {x!r} is outside the float range") from None
