"""Exact affine expressions over named variables.

:class:`LinExpr` is the workhorse shared by guards, affine updates, invariant
inequalities and — crucially — *template constraints over unknown
coefficients*: the generator-row and canonicalization steps manipulate
affine expressions whose "variables" are the unknown template coefficients
``a_l``, ``b_l``.  One exact representation serves both roles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.utils.numbers import Number, as_fraction

__all__ = ["LinExpr", "var", "const"]


class LinExpr:
    """An affine expression ``sum(coeff_i * x_i) + constant`` with exact
    rational coefficients.

    Instances are immutable and support ``+``, ``-``, multiplication and
    division by rational scalars, substitution, and evaluation.
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, coeffs: Mapping[str, Number] = (), constant: Number = 0):
        clean: Dict[str, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for name, value in items:
            f = as_fraction(value)
            if f != 0:
                clean[name] = f
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_const", as_fraction(constant))
        object.__setattr__(self, "_hash", None)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def variable(name: str) -> "LinExpr":
        """The expression consisting of the single variable ``name``.

        Instances are immutable, so repeated requests for the same name are
        served from an intern table — synthesis assembles millions of
        single-variable expressions (template coefficients, ``_eps`` and
        friends) and the cache removes that allocation churn.
        """
        cached = _VAR_INTERN.get(name)
        if cached is None:
            cached = LinExpr({name: 1})
            _VAR_INTERN[name] = cached
        return cached

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        """The constant expression ``value`` (small integers are interned)."""
        if type(value) is int and -16 <= value <= 16:
            cached = _CONST_INTERN.get(value)
            if cached is None:
                cached = LinExpr({}, value)
                _CONST_INTERN[value] = cached
            return cached
        return LinExpr({}, value)

    @staticmethod
    def coerce(value: Union["LinExpr", Number]) -> "LinExpr":
        """Interpret ``value`` as a :class:`LinExpr` (numbers become constants)."""
        if isinstance(value, LinExpr):
            return value
        return LinExpr.constant(value)

    # -- inspection ------------------------------------------------------------
    @property
    def coeffs(self) -> Dict[str, Fraction]:
        """A copy of the coefficient mapping (zero coefficients omitted)."""
        return dict(self._coeffs)

    @property
    def const(self) -> Fraction:
        """The constant term."""
        return self._const

    def coeff(self, name: str) -> Fraction:
        """Coefficient of ``name`` (0 if absent)."""
        return self._coeffs.get(name, Fraction(0))

    def iter_coeffs(self):
        """Read-only view of ``(name, coeff)`` pairs without copying.

        The hot constraint-assembly paths iterate coefficients millions of
        times; :attr:`coeffs` copies the dict on every access, this doesn't.
        """
        return self._coeffs.items()

    def variables(self) -> Tuple[str, ...]:
        """Sorted tuple of variables with nonzero coefficient."""
        return tuple(sorted(self._coeffs))

    @property
    def is_constant(self) -> bool:
        """True iff the expression has no variable part."""
        return not self._coeffs

    @property
    def is_zero(self) -> bool:
        """True iff the expression is identically 0."""
        return not self._coeffs and self._const == 0

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        other = LinExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, value in other._coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + value
        return LinExpr(coeffs, self._const + other._const)

    def __radd__(self, other: Number) -> "LinExpr":
        return self.__add__(other)

    def __neg__(self) -> "LinExpr":
        return LinExpr({k: -v for k, v in self._coeffs.items()}, -self._const)

    def __sub__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        return self.__add__(-LinExpr.coerce(other))

    def __rsub__(self, other: Number) -> "LinExpr":
        return (-self).__add__(other)

    def __mul__(self, scalar: Number) -> "LinExpr":
        f = as_fraction(scalar)
        return LinExpr({k: v * f for k, v in self._coeffs.items()}, self._const * f)

    def __rmul__(self, scalar: Number) -> "LinExpr":
        return self.__mul__(scalar)

    def __truediv__(self, scalar: Number) -> "LinExpr":
        f = as_fraction(scalar)
        if f == 0:
            raise ZeroDivisionError("division of LinExpr by zero")
        return self.__mul__(Fraction(1) / f)

    # -- semantics ---------------------------------------------------------------
    def evaluate(self, valuation: Mapping[str, Number]) -> Fraction:
        """Exact value of the expression under ``valuation``.

        Raises ``KeyError`` if a needed variable is missing.
        """
        total = self._const
        for name, coeff in self._coeffs.items():
            total += coeff * as_fraction(valuation[name])
        return total

    def evaluate_float(self, valuation: Mapping[str, float]) -> float:
        """Float value of the expression (fast path for simulation)."""
        total = float(self._const)
        for name, coeff in self._coeffs.items():
            total += float(coeff) * float(valuation[name])
        return total

    def substitute(self, mapping: Mapping[str, Union["LinExpr", Number]]) -> "LinExpr":
        """Replace each variable in ``mapping`` by the given expression.

        Variables absent from ``mapping`` are left intact.  Substitution of
        affine expressions into an affine expression stays affine.
        """
        result = LinExpr.constant(self._const)
        for name, coeff in self._coeffs.items():
            if name in mapping:
                result = result + LinExpr.coerce(mapping[name]) * coeff
            else:
                result = result + LinExpr({name: coeff})
        return result

    def restrict(self, names: Iterable[str]) -> "LinExpr":
        """The sub-expression over ``names`` only, with zero constant."""
        keep = set(names)
        return LinExpr({k: v for k, v in self._coeffs.items() if k in keep})

    # -- comparisons (structural) --------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._coeffs.items()))
            object.__setattr__(self, "_hash", hash((items, self._const)))
        return self._hash

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts = []
        for name in sorted(self._coeffs):
            coeff = self._coeffs[name]
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self._const != 0 or not parts:
            c = self._const
            if parts:
                parts.append(f"+ {c}" if c > 0 else f"- {-c}")
            else:
                parts.append(str(c))
        return " ".join(parts)


#: intern tables for the two highest-churn constructors (see above)
_VAR_INTERN: Dict[str, LinExpr] = {}
_CONST_INTERN: Dict[int, LinExpr] = {}


def var(name: str) -> LinExpr:
    """Shorthand for :meth:`LinExpr.variable`."""
    return LinExpr.variable(name)


def const(value: Number) -> LinExpr:
    """Shorthand for :meth:`LinExpr.constant`."""
    return LinExpr.constant(value)
