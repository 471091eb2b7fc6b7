"""Bayesian risk prediction for untested QKD systems.

Tested systems are Bernoulli trials (compromised vs not); a Beta prior on
the vulnerability probability gives a beta-binomial posterior predictive
for how many of the remaining systems in a finite population are
vulnerable. Denial-of-service outcomes count as non-compromised trials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Prior(enum.Enum):
    JEFFREYS = "jeffreys"
    UNIFORM = "uniform"


_PRIOR_PARAMS = {
    Prior.JEFFREYS: (0.5, 0.5),
    Prior.UNIFORM: (1.0, 1.0),
}

# Largest population a query may describe: the tail sum holds a few float64
# arrays of up to this length, so a query stays within tens of MB.
MAX_POPULATION = 10**6


@dataclass(frozen=True)
class TestRecord:
    __test__ = False  # not a pytest class despite the name

    n_tested: int
    n_compromised: int
    n_dos: int = 0

    def __post_init__(self):
        if min(self.n_tested, self.n_compromised, self.n_dos) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_compromised + self.n_dos > self.n_tested:
            raise ValueError(
                f"compromised ({self.n_compromised}) + DoS ({self.n_dos}) "
                f"exceeds tested ({self.n_tested})"
            )


@dataclass(frozen=True)
class RiskQuery:
    record: TestRecord
    population_total: int = 50
    vulnerable_fraction: float = 0.2
    prior: Prior = Prior.JEFFREYS

    def __post_init__(self):
        if self.population_total < self.record.n_tested:
            raise ValueError("population smaller than the number tested")
        if self.population_total > MAX_POPULATION:
            raise ValueError(
                f"population_total must be <= {MAX_POPULATION}, got {self.population_total}"
            )
        if not 0.0 < self.vulnerable_fraction < 1.0:
            raise ValueError("vulnerable_fraction must lie in (0, 1)")


# Bound from scipy.special on first use by _import_special: that import is
# most of the package's import time, and only this module needs it.
betainc = betaln = gammaln = None


def _import_special() -> None:
    global betainc, betaln, gammaln
    from scipy.special import betainc, betaln, gammaln


def posterior(record: TestRecord, prior: Prior = Prior.JEFFREYS) -> tuple[float, float]:
    """Beta posterior (alpha, beta) over the per-system vulnerability rate."""
    a0, b0 = _PRIOR_PARAMS[prior]
    return a0 + record.n_compromised, b0 + (record.n_tested - record.n_compromised)


def _log_pmf(k, m: int, alpha: float, beta: float):
    """log P(K = k) for K ~ BetaBinomial(m, alpha, beta); `k` may be an array."""
    if gammaln is None:
        _import_special()
    return (
        gammaln(m + 1)
        - gammaln(k + 1)
        - gammaln(m - k + 1)
        + betaln(k + alpha, m - k + beta)
        - betaln(alpha, beta)
    )


def beta_binomial_pmf(k: int, m: int, alpha: float, beta: float) -> float:
    """P(K = k) for K ~ BetaBinomial(m, alpha, beta), via log-gamma."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be > 0")
    return float(math.exp(_log_pmf(k, m, alpha, beta)))


def prob_fraction_vulnerable_exceeds(query: RiskQuery) -> float:
    """Posterior-predictive P(#vulnerable among untested > frac * untested).

    Strictly-greater convention: counts above floor(frac * m) where m is the
    number of untested systems.
    """
    alpha, beta = posterior(query.record, query.prior)
    m = query.population_total - query.record.n_tested
    if m == 0:
        return 0.0
    threshold = math.floor(query.vulnerable_fraction * m)
    log_pmf = _log_pmf(np.arange(threshold + 1, m + 1), m, alpha, beta)
    # math.exp and a left-to-right float sum, term by term: the same bits as
    # summing beta_binomial_pmf over k, which np.exp/np.sum would not give
    return float(sum(map(math.exp, log_pmf.tolist())))


def prob_exceeds_infinite_population(query: RiskQuery) -> float:
    """Infinite-population limit: P(p > frac) = 1 - BetaCDF(frac; a, b)."""
    alpha, beta = posterior(query.record, query.prior)
    if betainc is None:
        _import_special()
    return float(1.0 - betainc(alpha, beta, query.vulnerable_fraction))


def risk_report(query: RiskQuery) -> dict:
    alpha, beta = posterior(query.record, query.prior)
    return {
        "record": {
            "n_tested": query.record.n_tested,
            "n_compromised": query.record.n_compromised,
            "n_dos": query.record.n_dos,
        },
        "prior": query.prior.value,
        "posterior_alpha": alpha,
        "posterior_beta": beta,
        "population_total": query.population_total,
        "vulnerable_fraction": query.vulnerable_fraction,
        "boundary_convention": "strictly_greater",
        "prob_exceeds": prob_fraction_vulnerable_exceeds(query),
        "prob_exceeds_infinite_population": prob_exceeds_infinite_population(query),
    }
