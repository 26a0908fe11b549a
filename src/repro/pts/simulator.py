"""Monte-Carlo simulation of PTS processes.

The simulator implements the semantics of Definition 1 (Appendix A) directly
and is the library's empirical cross-check: every synthesized upper bound
must dominate the simulated violation frequency (up to confidence-interval
slack) and every lower bound must not exceed it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ModelError
from repro.pts.model import PTS

__all__ = ["SimulationResult", "simulate", "simulate_violation_probability"]


@dataclass
class SimulationResult:
    """Aggregated outcome of a batch of simulated episodes."""

    episodes: int
    violations: int
    terminations: int
    censored: int  # episodes cut off at max_steps before reaching a sink
    total_steps: int

    @property
    def violation_rate(self) -> float:
        """Point estimate of the assertion violation probability."""
        return self.violations / self.episodes if self.episodes else 0.0

    @property
    def termination_rate(self) -> float:
        return self.terminations / self.episodes if self.episodes else 0.0

    @property
    def mean_steps(self) -> float:
        return self.total_steps / self.episodes if self.episodes else 0.0

    def violation_interval(self, alpha: float = 0.001) -> Tuple[float, float]:
        """The exact (Clopper–Pearson) two-sided ``1 - alpha`` interval for
        the violation rate: it misses the true rate with probability at most
        ``alpha``, whatever that rate is.  The default is a 99.9% interval.

        Censored episodes are counted as *potential* violations in the upper
        limit and as potential non-violations in the lower limit, so the
        interval stays valid even when some runs were cut off.
        """
        n, k = self.episodes, self.violations
        if n == 0:
            return 0.0, 1.0
        lo = _beta_quantile(alpha / 2, k, n - k + 1, upper=False) if k else 0.0
        k += self.censored
        hi = _beta_quantile(1 - alpha / 2, k + 1, n - k, upper=True) if k < n else 1.0
        return lo, hi


def _beta_quantile(q: float, a: float, b: float, upper: bool) -> float:
    """The ``q``-quantile of Beta(a, b), bisected to within ``2**-60``: the
    final bracket's upper end when ``upper``, its lower end otherwise."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _beta_cdf(mid, a, b) < q else (lo, mid)
    return hi if upper else lo


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)`` for ``0 < x <
    1``: its continued fraction (modified Lentz), evaluated on the side of
    the mean where it converges fast."""
    flip = x > (a + 1) / (a + b + 2)
    if flip:
        x, a, b = 1.0 - x, b, a
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1))
    fraction = d
    for m in range(1, 100_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    value = math.exp(log_front + a * math.log(x) + b * math.log1p(-x)) * fraction / a
    return 1.0 - value if flip else value


def simulate(
    pts: PTS,
    episodes: int = 10_000,
    max_steps: int = 10_000,
    seed: Optional[int] = 0,
    init_valuation: Optional[Dict[str, float]] = None,
) -> SimulationResult:
    """Run ``episodes`` independent PTS processes.

    Each episode starts at the initial state (or ``init_valuation`` when
    given), follows the unique enabled transition, picks a fork according to
    the fork probabilities, samples all sampling variables independently and
    applies the affine update — exactly the inductive step of the paper's
    PTS process.  Episodes that reach neither sink within ``max_steps`` are
    reported as censored.
    """
    rng = random.Random(seed)
    start = (
        {k: float(v) for k, v in pts.init_valuation.items()}
        if init_valuation is None
        else dict(init_valuation)
    )
    sampling = sorted(pts.distributions)
    violations = terminations = censored = total_steps = 0

    for _ in range(episodes):
        location = pts.init_location
        valuation = dict(start)
        steps = 0
        while steps < max_steps and not pts.is_sink(location):
            transition = pts.enabled_transition(location, valuation)
            if transition is None:
                raise ModelError(
                    f"no enabled transition at {location!r} with valuation {valuation} "
                    "(incomplete guard cover)"
                )
            u = rng.random()
            acc = 0.0
            fork = transition.forks[-1]
            for f in transition.forks:
                acc += float(f.probability)
                if u <= acc:
                    fork = f
                    break
            samples = {r: pts.distributions[r].sample(rng) for r in sampling}
            valuation = fork.update.apply_float(valuation, samples)
            location = fork.destination
            steps += 1
        total_steps += steps
        if location == pts.fail_location:
            violations += 1
        elif location == pts.term_location:
            terminations += 1
        else:
            censored += 1

    return SimulationResult(
        episodes=episodes,
        violations=violations,
        terminations=terminations,
        censored=censored,
        total_steps=total_steps,
    )


def simulate_violation_probability(
    pts: PTS,
    episodes: int = 10_000,
    max_steps: int = 10_000,
    seed: Optional[int] = 0,
) -> float:
    """Convenience wrapper returning just the violation-rate point estimate."""
    return simulate(pts, episodes=episodes, max_steps=max_steps, seed=seed).violation_rate
