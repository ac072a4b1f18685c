"""Exact rationals: the package's number type ``Rat``, and parsing and
formatting in the "num/den" wire format.

``Rat`` is a subclass of ``fractions.Fraction`` and the type of every
rational the package builds. Each value is an exact ``Fraction`` in the same
normal form (numerator and denominator coprime, denominator positive), with
the same ``hash`` and ``str``, so a ``Rat`` and an equal ``Fraction`` or
``int`` are one dict key and every output is byte-identical to one built
from plain ``Fraction``s. Only ``repr`` differs: ``Rat(1, 2)``.

What it buys is speed. ``Rat`` overrides the operators the package uses:
construction, ``+ - * /`` and their reflected forms, unary ``-``, ``abs``,
``==``, ``<``, ``<=``, ``>``, ``>=`` and ``hash``. When the other operand is
a ``Rat``, a plain ``Fraction`` or an ``int``, each override works directly
on the two integer slots with the gcd steps of CPython's ``fractions``
module, and so skips the ``numbers``-ABC dispatch of every ``Fraction``
operation. Any other operand type (a float, a ``Decimal``, another
``Rational``) goes to the inherited ``Fraction`` method unchanged. Python
tries a subclass's reflected method first, so ``Fraction op Rat`` takes the
fast path too and yields a ``Rat``. ``fractions.Fraction`` itself is never
changed.

Each override runs in one Python frame: it reads the slots, reduces and
builds its result in its own body, with no helper call on the fast path.
Three shortcuts save integer work, and each is exact because both operands
are in normal form:

- ``Rat ± int`` needs no gcd: gcd(n ± b·d, d) = gcd(n, d) = 1.
- ``==`` compares the two slots, since a value has one normal form.
- ``hash`` of an integral value is ``hash(n)``; any other value uses the
  formula of CPython's ``Fraction.__hash__`` (the "Hashing of numeric
  types" rule of the language reference): ``hash(|n|)`` times the inverse
  of d modulo ``sys.hash_info.modulus``, or ``sys.hash_info.inf`` when d
  has no inverse, signed as n.

``over_common_denominator`` is the bulk form of the same integer work: it
scales a list of rationals to integers over their least common denominator,
so that a function summing or comparing many of them does so on ``int``s
and builds a ``Rat`` only for what it returns (Knuth, *TAOCP* vol. 2,
section 4.5.1).

Construction is exact too: ``Rat(x)`` takes an ``int``, any ``Fraction`` or
"num/den" text as ``parse_rat`` reads it, and ``Rat(n, d)`` two ``int``s.
Anything else, a float, a bool or text such as "0.1", raises ``TypeError``
or ``ValueError``.

The overrides read and write ``Fraction``'s ``_numerator`` and
``_denominator`` slots, a CPython implementation detail present in 3.10 to
3.13 (``pyproject.toml`` requires 3.10 or later). This module is the only
one that touches them, which a source rule checks. Results are built with
``object.__new__`` and those two slots, because ``Fraction``'s private
constructor shortcuts differ between versions.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

_new = object.__new__
_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class Rat(Fraction):
    """An exact rational: a ``Fraction`` with integer fast paths."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            t = type(numerator)
            if t is Rat:
                return numerator
            if t is int:
                n, d = numerator, 1
            elif t is Fraction:
                n, d = numerator._numerator, numerator._denominator
            elif isinstance(numerator, Fraction):
                n, d = numerator.numerator, numerator.denominator
            elif isinstance(numerator, str):
                return parse_rat(numerator)
            else:
                raise TypeError(f"not an exact rational: {numerator!r}")
        elif type(numerator) is int and type(denominator) is int:
            if denominator == 0:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            g = gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            n, d = numerator // g, denominator // g
        else:
            raise TypeError(f"not a ratio of two ints: {numerator!r}, {denominator!r}")
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    # Each sum and difference of two fractions reduces as CPython's
    # fractions._add does: only the common factor g of the denominators can
    # divide the new numerator.

    def __add__(a, b):
        t = type(b)
        if t is int:
            d = a._denominator
            n = a._numerator + b * d
        elif t is Rat or t is Fraction:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db + nb * da, da * db
            else:
                s = da // g
                n = na * (db // g) + nb * s
                g = gcd(n, g)
                n, d = n // g, s * (db // g)
        else:
            return Fraction.__add__(a, b)
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __radd__(b, a):  # a + b, where b is the Rat
        t = type(a)
        if t is int:
            d = b._denominator
            n = a * d + b._numerator
        elif t is Fraction:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db + nb * da, da * db
            else:
                s = da // g
                n = na * (db // g) + nb * s
                g = gcd(n, g)
                n, d = n // g, s * (db // g)
        else:
            return Fraction.__radd__(b, a)
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __sub__(a, b):
        t = type(b)
        if t is int:
            d = a._denominator
            n = a._numerator - b * d
        elif t is Rat or t is Fraction:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db - nb * da, da * db
            else:
                s = da // g
                n = na * (db // g) - nb * s
                g = gcd(n, g)
                n, d = n // g, s * (db // g)
        else:
            return Fraction.__sub__(a, b)
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __rsub__(b, a):  # a - b, where b is the Rat
        t = type(a)
        if t is int:
            d = b._denominator
            n = a * d - b._numerator
        elif t is Fraction:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db - nb * da, da * db
            else:
                s = da // g
                n = na * (db // g) - nb * s
                g = gcd(n, g)
                n, d = n // g, s * (db // g)
        else:
            return Fraction.__rsub__(b, a)
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    # Products and quotients cancel each numerator against the other
    # operand's denominator first, as CPython's fractions._mul and _div do,
    # so the result is in normal form as it is built.

    def __mul__(a, b):
        t = type(b)
        if t is int:
            d = a._denominator
            g = gcd(b, d)
            n, d = a._numerator * (b // g), d // g
        elif t is Rat or t is Fraction:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g1, g2 = gcd(na, db), gcd(nb, da)
            n, d = (na // g1) * (nb // g2), (da // g2) * (db // g1)
        else:
            return Fraction.__mul__(a, b)
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __rmul__(b, a):  # a * b, where b is the Rat
        t = type(a)
        if t is int:
            d = b._denominator
            g = gcd(a, d)
            n, d = (a // g) * b._numerator, d // g
        elif t is Fraction:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g1, g2 = gcd(na, db), gcd(nb, da)
            n, d = (na // g1) * (nb // g2), (da // g2) * (db // g1)
        else:
            return Fraction.__rmul__(b, a)
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __truediv__(a, b):
        t = type(b)
        if t is int:
            nb, db = b, 1
        elif t is Rat or t is Fraction:
            nb, db = b._numerator, b._denominator
        else:
            return Fraction.__truediv__(a, b)
        if nb == 0:
            raise ZeroDivisionError(f"Fraction({a._numerator}, 0)")
        na, da = a._numerator, a._denominator
        g1, g2 = gcd(na, nb), gcd(db, da)
        n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
        if d < 0:
            n, d = -n, -d
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __rtruediv__(b, a):  # a / b, where b is the Rat
        t = type(a)
        if t is int:
            na, da = a, 1
        elif t is Fraction:
            na, da = a._numerator, a._denominator
        else:
            return Fraction.__rtruediv__(b, a)
        nb, db = b._numerator, b._denominator
        if nb == 0:
            raise ZeroDivisionError(f"Fraction({na}, 0)")
        g1, g2 = gcd(na, nb), gcd(db, da)
        n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
        if d < 0:
            n, d = -n, -d
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def __eq__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    # Orderings cross-multiply; denominators are positive.

    def __lt__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if t is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if t is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if t is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if t is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)

    def __hash__(a):
        # an equal Fraction, int, float or Decimal must hash alike
        n, d = a._numerator, a._denominator
        if d == 1:
            return hash(n)
        try:
            dinv = pow(d, -1, _MODULUS)
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(n)) * dinv)
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __neg__(a):
        r = _new(Rat)
        r._numerator = -a._numerator
        r._denominator = a._denominator
        return r

    def __abs__(a):
        r = _new(Rat)
        r._numerator = abs(a._numerator)
        r._denominator = a._denominator
        return r


def over_common_denominator(values) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]): D is the least common denominator of
    ``values``, each an ``int`` or a ``Fraction``, and every product an
    ``int``; D is 1 for no values.  ``Rat(k, D)`` is the value again."""
    dens = [1 if type(v) is int else v._denominator for v in values]
    d = lcm(*dens)
    return d, [
        (v if type(v) is int else v._numerator) * (d // q) for v, q in zip(values, dens)
    ]


def parse_int(text: str) -> int:
    """Parse an integer from text: an optional "-" and ASCII digits, with
    whitespace around them."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rat(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, "n" or "n/d" text.

    Text is an optional "-" and ASCII digits, optionally followed by "/"
    and ASCII digits, with whitespace around the whole value. Floats are
    rejected: the file formats are decimal-free by design.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Rat(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match is None:
            raise ValueError(f"not a rational: {value!r}")
        num, den = match.groups()
        if den is None:
            return Rat(int(num))
        if int(den) == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Rat(int(num), int(den))
    raise ValueError(f"not a rational: {value!r}")


def format_rat(value) -> str:
    """Canonical "num/den" form; whole numbers keep an explicit /1."""
    if type(value) is not Rat and not isinstance(value, Fraction):
        value = Rat(value)
    return f"{value._numerator}/{value._denominator}"
