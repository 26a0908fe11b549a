"""Exact rational-number helpers used throughout the polyhedra substrate.

Constraint data is held as ``fractions.Fraction``; the double description
method scales each row to a primitive integer vector (:func:`normalize_row`)
and runs on Python ``int``s.  Floats only appear at the solver boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Union

Number = Union[int, float, str, Fraction]


def as_fraction(x: Number) -> Fraction:
    """Convert ``x`` to an exact :class:`Fraction`.

    Floats are converted via ``Fraction(str(x))`` when that round-trips the
    repr (so ``0.1`` becomes ``1/10`` rather than the binary expansion), and
    exactly otherwise.  Strings like ``"3/4"`` are accepted.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"cannot convert non-finite float {x!r} to Fraction")
        try:
            candidate = Fraction(str(x))
        except ValueError:
            return Fraction(x)
        return candidate if float(candidate) == x else Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational number")


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """Positive gcd of a collection of fractions (0 if all are zero).

    ``gcd(a/b, c/d) = gcd(a·L/b, c·L/d) / L`` with ``L = lcm(b, d)``, in
    integer arithmetic; used to scale constraint rows to primitive integer
    vectors.
    """
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return Fraction(gcd(*(v.numerator * (den // v.denominator) for v in values)), den)


def normalize_row(row: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector by the reciprocal of its gcd.

    The result is the primitive integer vector (Python ``int``s with gcd 1)
    with the same direction.  The zero vector maps to zeros.
    """
    g = fraction_gcd(row)
    if g == 0:
        return [0] * len(row)
    # v / g in integers: exact, because g divides every entry
    return [(v.numerator * g.denominator) // (v.denominator * g.numerator) for v in row]


def is_integral(x: Fraction) -> bool:
    """True iff ``x`` is an integer."""
    return x.denominator == 1
