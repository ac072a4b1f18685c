"""Parsing and formatting of exact rationals in the "num/den" wire format."""

from __future__ import annotations

from fractions import Fraction


def parse_rat(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, "n" or "n/d" text.

    Floats are rejected: the file formats are decimal-free by design.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if int(den) == 0:
                raise ValueError(f"zero denominator: {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise ValueError(f"not a rational: {value!r}")


def format_rat(value) -> str:
    """Canonical "num/den" form; whole numbers keep an explicit /1."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f"{f.numerator}/{f.denominator}"
