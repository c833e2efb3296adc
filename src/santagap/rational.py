"""Exact rational parsing and formatting.

All feasibility decisions in this package are exact; floating point
appears only in reports and in the closed-form limit constant.  Values
are exact rationals (stdlib ``fractions.Fraction``).  The two hot
kernels compute on Python integers and build Fractions only for what
they return: the phase-1 simplex pivots an integer tableau over one
common denominator, and the exhaustive OPT search runs on values scaled
by the lcm of their denominators.
"""

from __future__ import annotations

from fractions import Fraction


class RationalParseError(ValueError):
    """Raised when a string is not a valid 'a' or 'a/b' rational."""


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' into an exact Fraction."""
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalParseError(f"not a rational: {text!r}") from exc


def parse_positive_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise RationalParseError(f"expected a positive rational, got {text!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'a' or 'a/b' (lowest terms)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
