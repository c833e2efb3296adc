"""Exact rational parsing and formatting.

All feasibility decisions in this package are exact; floating point
appears only in reports and in the closed-form limit constant.  Values
are exact rationals (stdlib ``fractions.Fraction``).  The hot kernels
compute on Python integers and build Fractions only for what they
return: each instance keeps its values times the lcm of their
denominators (``Instance.int_values``), which the subset searches and
the exhaustive OPT search add up, and the revised phase-1 simplex pivots
den * B^-1 over one common denominator.
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
