"""Probability distributions for sampling variables.

Each sampling variable ``r`` of a PTS carries a distribution ``D(r)``.  The
synthesis algorithms need more than sampling:

* **support bounds** — condition (C4) of RepRSMs requires bounded
  differences, so :meth:`Distribution.support` must be finite for the
  Hoeffding path;
* **mean** — Jensen's inequality (Step 4 of ExpLowSyn) replaces
  ``E[exp(g·r)]`` by ``exp(g·E[r])``;
* **log-MGF** ``log E[exp(t·r)]`` and its first two derivatives — the canonical
  constraints of ExpLinSyn contain ``E[exp(gamma_j · r)]`` which the paper
  expands in closed form (Section 5.2, "Generality").  Discrete
  distributions additionally expose their atoms so the canonical constraint
  can be flattened into a plain sum of exponentials of affine functions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.errors import ModelError, UnboundedSupportError
from repro.utils.numbers import Number, as_fraction

__all__ = [
    "Distribution",
    "PointMass",
    "DiscreteDistribution",
    "UniformDistribution",
    "NormalDistribution",
    "bernoulli",
]


class Distribution:
    """Abstract distribution interface for sampling variables."""

    def sample(self, rng: random.Random) -> float:
        """Draw one sample."""
        raise NotImplementedError

    def mean(self) -> Fraction:
        """The exact expectation ``E[r]``."""
        raise NotImplementedError

    def support(self) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Closed support bounds ``(lo, hi)``; ``None`` means unbounded."""
        raise NotImplementedError

    def bounded_support(self) -> Tuple[Fraction, Fraction]:
        """Support bounds, raising :class:`UnboundedSupportError` if infinite."""
        lo, hi = self.support()
        if lo is None or hi is None:
            raise UnboundedSupportError(
                f"{self!r} has unbounded support; RepRSM condition (C4) "
                "requires bounded differences"
            )
        return lo, hi

    def log_mgf(self, t: float) -> float:
        """``log E[exp(t * r)]``."""
        raise NotImplementedError

    def d_log_mgf(self, t: float) -> float:
        """Derivative of :meth:`log_mgf` at ``t`` (for solver gradients)."""
        raise NotImplementedError

    def d2_log_mgf(self, t: float) -> float:
        """Second derivative of :meth:`log_mgf` at ``t`` (for solver
        Hessians).  Only the continuous distributions, whose MGFs the convex
        solver keeps symbolic, need it."""
        raise NotImplementedError

    def atoms(self) -> Optional[List[Tuple[Fraction, Fraction]]]:
        """``[(probability, value)]`` for discrete distributions, else ``None``.

        When available, ExpLinSyn expands ``E[exp(g·r)]`` into the exact sum
        ``sum(p_k * exp(g * v_k))`` and all constraints become log-sum-exp of
        affine functions — the best-conditioned form for the convex solver.
        """
        return None


@dataclass(frozen=True)
class PointMass(Distribution):
    """The degenerate distribution concentrated at ``value``."""

    value: Fraction

    def __init__(self, value: Number):
        object.__setattr__(self, "value", as_fraction(value))

    def sample(self, rng: random.Random) -> float:
        return float(self.value)

    def mean(self) -> Fraction:
        return self.value

    def support(self):
        return self.value, self.value

    def log_mgf(self, t: float) -> float:
        return t * float(self.value)

    def d_log_mgf(self, t: float) -> float:
        return float(self.value)

    def atoms(self):
        return [(Fraction(1), self.value)]


class DiscreteDistribution(Distribution):
    """A finite discrete distribution given by ``[(probability, value)]``."""

    def __init__(self, weighted_values: Sequence[Tuple[Number, Number]]):
        if not weighted_values:
            raise ModelError("discrete distribution needs at least one atom")
        pairs = [(as_fraction(p), as_fraction(v)) for p, v in weighted_values]
        total = sum(p for p, _ in pairs)
        if total != 1:
            raise ModelError(f"discrete distribution probabilities sum to {total}, not 1")
        if any(p <= 0 for p, _ in pairs):
            raise ModelError("discrete distribution probabilities must be positive")
        merged = {}
        for p, v in pairs:
            merged[v] = merged.get(v, Fraction(0)) + p
        self._atoms: List[Tuple[Fraction, Fraction]] = sorted(
            ((p, v) for v, p in merged.items()), key=lambda pv: pv[1]
        )
        self._cumulative: List[float] = []
        acc = 0.0
        for p, _ in self._atoms:
            acc += float(p)
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        for cum, (_, v) in zip(self._cumulative, self._atoms):
            if u <= cum:
                return float(v)
        return float(self._atoms[-1][1])

    def mean(self) -> Fraction:
        return sum((p * v for p, v in self._atoms), Fraction(0))

    def support(self):
        return self._atoms[0][1], self._atoms[-1][1]

    def log_mgf(self, t: float) -> float:
        from repro.utils.logspace import log_sum_exp

        return log_sum_exp(
            [math.log(float(p)) + t * float(v) for p, v in self._atoms]
        )

    def d_log_mgf(self, t: float) -> float:
        # softmax-weighted mean of the atom values
        logs = [math.log(float(p)) + t * float(v) for p, v in self._atoms]
        m = max(logs)
        weights = [math.exp(l - m) for l in logs]
        total = sum(weights)
        return sum(w * float(v) for w, (_, v) in zip(weights, self._atoms)) / total

    def atoms(self):
        return list(self._atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{p}" for p, v in self._atoms)
        return f"DiscreteDistribution({inner})"


def bernoulli(p: Number, hi: Number = 1, lo: Number = 0) -> DiscreteDistribution:
    """``hi`` with probability ``p``, else ``lo``."""
    p = as_fraction(p)
    return DiscreteDistribution([(p, hi), (1 - p, lo)])


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Continuous uniform distribution on ``[lo, hi]``.

    The closed-form MGF is the one the paper quotes in Section 5.2:
    ``E[exp(t r)] = (exp(t hi) - exp(t lo)) / (t (hi - lo))``.
    """

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Number, hi: Number):
        lo_f, hi_f = as_fraction(lo), as_fraction(hi)
        if not lo_f < hi_f:
            raise ModelError(f"uniform distribution needs lo < hi, got [{lo_f}, {hi_f}]")
        object.__setattr__(self, "lo", lo_f)
        object.__setattr__(self, "hi", hi_f)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(float(self.lo), float(self.hi))

    def mean(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def support(self):
        return self.lo, self.hi

    def _variance(self) -> float:
        width = float(self.hi - self.lo)
        return width * width / 12.0

    def log_mgf(self, t: float) -> float:
        lo, hi = float(self.lo), float(self.hi)
        width = hi - lo
        u = t * width
        if abs(u) < 1e-6:
            # second-order expansion around t = 0 avoids 0/0
            return t * (lo + hi) / 2.0 + t * t * self._variance() / 2.0
        if abs(u) > 30.0:
            # asymptotically (e^|u| - 1)/|u| ~ e^|u| / |u| (rel. err < 1e-13)
            return (t * hi if u > 0 else t * lo) - math.log(abs(u))
        # log((e^{t hi} - e^{t lo}) / (t (hi-lo))) = t lo + log((e^u - 1)/u)
        if u > 0:
            return t * lo + math.log(math.expm1(u) / u)
        return t * hi + math.log(math.expm1(-u) / (-u))

    def d_log_mgf(self, t: float) -> float:
        lo, hi = float(self.lo), float(self.hi)
        u = t * (hi - lo)
        if abs(u) < 1e-6:
            return (lo + hi) / 2.0 + t * self._variance()
        if abs(u) > 30.0:
            return (hi if u > 0 else lo) - 1.0 / t
        # d/dt [t lo + log((e^u - 1)/u)] with u = t (hi - lo)
        w = hi - lo
        g = w * (math.exp(u) / math.expm1(u)) - 1.0 / t
        return lo + g

    def d2_log_mgf(self, t: float) -> float:
        w = float(self.hi - self.lo)
        u = t * w
        if abs(u) < 1e-2:
            # series w^2 (1/12 - u^2/240 + O(u^4)), on a wider branch than
            # log_mgf's 1e-6: the closed form subtracts two ~1/u^2 terms and
            # keeps only 12 eps/u^2 relative accuracy (3e-11 at the edge)
            return w * w * (1.0 / 12.0 - u * u / 240.0)
        if abs(u) > 30.0:
            return 1.0 / (t * t)
        # d/dt of d_log_mgf: w^2 (1/u^2 - e^u / (e^u - 1)^2)
        return w * w * (1.0 / (u * u) - math.exp(u) / math.expm1(u) ** 2)

    def __repr__(self) -> str:
        return f"UniformDistribution[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class NormalDistribution(Distribution):
    """Gaussian distribution — unbounded support.

    Usable by ExpLinSyn/ExpLowSyn (its MGF ``exp(t mu + t^2 sigma^2 / 2)`` is
    log-convex and smooth) but rejected by the Hoeffding path, which needs
    bounded differences.
    """

    mu: Fraction
    sigma: Fraction

    def __init__(self, mu: Number, sigma: Number):
        sigma_f = as_fraction(sigma)
        if sigma_f <= 0:
            raise ModelError("normal distribution needs sigma > 0")
        object.__setattr__(self, "mu", as_fraction(mu))
        object.__setattr__(self, "sigma", sigma_f)

    def sample(self, rng: random.Random) -> float:
        return rng.gauss(float(self.mu), float(self.sigma))

    def mean(self) -> Fraction:
        return self.mu

    def support(self):
        return None, None

    def log_mgf(self, t: float) -> float:
        s = float(self.sigma)
        return t * float(self.mu) + 0.5 * t * t * s * s

    def d_log_mgf(self, t: float) -> float:
        s = float(self.sigma)
        return float(self.mu) + t * s * s

    def d2_log_mgf(self, t: float) -> float:
        s = float(self.sigma)
        return s * s

    def __repr__(self) -> str:
        return f"NormalDistribution(mu={self.mu}, sigma={self.sigma})"
