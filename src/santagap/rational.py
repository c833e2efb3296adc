"""Exact rational parsing and formatting.

All feasibility decisions in this package are exact; floating point
appears only in reports.  Values are exact rationals (stdlib
``fractions.Fraction``).  The hot kernels
compute on Python integers and build Fractions only for what they
return: each instance keeps its values times the lcm of their
denominators (``Instance.int_values``), which the subset searches, the
exhaustive OPT search and ``Instance.value`` add up, and the revised
phase-1 simplex pivots
den * B^-1 over one common denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Every float repr has an exponent within e-324..e+308, so JSON numbers
# such as 1e-05 parse exactly; larger exponents are refused.
MAX_EXPONENT = 400
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


class RationalParseError(ValueError):
    """Raised when a string is not a valid 'a' or 'a/b' rational."""


class RationalFormatError(ValueError):
    """Raised when a rational has more digits than Python will print."""


def parse_rational(text: str) -> Fraction:
    """Parse 'a', 'a/b' or a decimal such as '1.5e-3' into an exact Fraction.

    An exponent above ``MAX_EXPONENT`` in absolute value, or written with
    more than 12 digits, is refused: for '1e-99999999' Fraction would build
    a power of ten with as many digits as the exponent.
    """
    s = text.strip()
    exponent = _EXPONENT.search(s)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "")
        if len(digits) > 12 or int(digits) > MAX_EXPONENT:
            raise RationalParseError(f"exponent too large: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalParseError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'a' or 'a/b' (lowest terms).

    Exact sums of long input values can exceed Python's limit on the
    digits of an int converted to a string (``sys.get_int_max_str_digits``);
    that raises ``RationalFormatError``.
    """
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise RationalFormatError(f"a rational too long to print: {exc}") from None
