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
``==``, ``<``, ``<=``, ``>`` and ``>=``. When the other operand is a ``Rat``,
a plain ``Fraction`` or an ``int``, each override works directly on the two
integer slots with the gcd steps of CPython's ``fractions`` module, and so
skips the ``numbers``-ABC dispatch of every ``Fraction`` operation. Any other
operand type (a float, a ``Decimal``, another ``Rational``) goes to the
inherited ``Fraction`` method unchanged. Python tries a subclass's reflected
method first, so ``Fraction op Rat`` takes the fast path too and yields a
``Rat``. ``fractions.Fraction`` itself is never changed.

The overrides read and write ``Fraction``'s ``_numerator`` and
``_denominator`` slots, a CPython implementation detail present in 3.10 to
3.13 (``pyproject.toml`` requires 3.10 or later). Results are built with
``object.__new__`` and those two slots, because ``Fraction``'s private
constructor shortcuts differ between versions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

_new = object.__new__


def _rat(n: int, d: int) -> Rat:
    """The ``Rat`` n/d, for coprime n and d > 0."""
    r = _new(Rat)
    r._numerator = n
    r._denominator = d
    return r


# The kernels take each operand as its (numerator, denominator) pair in
# normal form and reduce as CPython's fractions._add, _mul and _div do, so
# each result is in normal form as it is built.


def _sum(na: int, da: int, nb: int, db: int) -> Rat:
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _difference(na: int, da: int, nb: int, db: int) -> Rat:
    return _sum(na, da, -nb, db)


def _product(na: int, da: int, nb: int, db: int) -> Rat:
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _rat(na * nb, db * da)


def _quotient(na: int, da: int, nb: int, db: int) -> Rat:
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na}, 0)")
    if nb < 0:
        nb, db = -nb, -db
    return _product(na, da, db, nb)


def _arithmetic(kernel, name: str):
    """The forward and reflected methods of one binary operator."""
    forward, reflected = getattr(Fraction, f"__{name}__"), getattr(Fraction, f"__r{name}__")

    def method(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return forward(a, b)

    def rmethod(b, a):  # a op b, where b is the Rat
        t = type(a)
        if t is Fraction:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        return reflected(b, a)

    return method, rmethod


def _comparison(op):
    """One rich comparison by cross-multiplication; ``op`` is ``operator.lt`` etc."""
    inherited = getattr(Fraction, f"__{op.__name__}__")

    def method(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        if t is int:
            return op(a._numerator, b * a._denominator)
        return inherited(a, b)

    return method


class Rat(Fraction):
    """An exact rational: a ``Fraction`` with integer fast paths."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            t = type(numerator)
            if t is Rat:
                return numerator
            if t is int:
                return _rat(numerator, 1)
            if t is Fraction:
                return _rat(numerator._numerator, numerator._denominator)
        elif type(numerator) is int and type(denominator) is int:
            if denominator == 0:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            g = gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            return _rat(numerator // g, denominator // g)
        return Fraction.__new__(cls, numerator, denominator)

    __add__, __radd__ = _arithmetic(_sum, "add")
    __sub__, __rsub__ = _arithmetic(_difference, "sub")
    __mul__, __rmul__ = _arithmetic(_product, "mul")
    __truediv__, __rtruediv__ = _arithmetic(_quotient, "truediv")
    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)
    # defining __eq__ drops the inherited hash; an equal Fraction or int must stay one dict key
    __hash__ = Fraction.__hash__

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __abs__(a):
        return _rat(abs(a._numerator), a._denominator)


def parse_rat(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, "n" or "n/d" text.

    Floats are rejected: the file formats are decimal-free by design.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Rat(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if int(den) == 0:
                raise ValueError(f"zero denominator: {value!r}")
            return Rat(int(num), int(den))
        return Rat(int(text))
    raise ValueError(f"not a rational: {value!r}")


def format_rat(value) -> str:
    """Canonical "num/den" form; whole numbers keep an explicit /1."""
    f = value if isinstance(value, Fraction) else Rat(value)
    return f"{f.numerator}/{f.denominator}"
