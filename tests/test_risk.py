import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from attenattack import _left_sum
from attenattack.risk import (
    Prior,
    RiskQuery,
    TestRecord,
    beta_binomial_pmf,
    posterior,
    prob_exceeds_infinite_population,
    prob_fraction_vulnerable_exceeds,
    risk_report,
)


class TestRecordValidation:
    def test_current_record_is_valid(self):
        TestRecord(n_tested=5, n_compromised=4, n_dos=1)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            TestRecord(n_tested=5, n_compromised=6)
        with pytest.raises(ValueError):
            TestRecord(n_tested=5, n_compromised=4, n_dos=2)
        with pytest.raises(ValueError):
            TestRecord(n_tested=-1, n_compromised=0)

    def test_population_smaller_than_tested_rejected(self):
        with pytest.raises(ValueError):
            RiskQuery(record=TestRecord(5, 4, 1), population_total=3)

    @pytest.mark.parametrize("population", [10**6 + 1, 10**8, 10**21])
    def test_population_above_bound_rejected(self, population):
        with pytest.raises(ValueError, match="population_total"):
            RiskQuery(record=TestRecord(5, 4, 1), population_total=population)

    def test_population_at_bound_accepted(self):
        RiskQuery(record=TestRecord(5, 4, 1), population_total=10**6)


class TestPosterior:
    def test_current_record_jeffreys(self):
        assert posterior(TestRecord(5, 4, 1), Prior.JEFFREYS) == (4.5, 1.5)

    def test_empty_record_returns_prior(self):
        assert posterior(TestRecord(0, 0), Prior.JEFFREYS) == (0.5, 0.5)
        assert posterior(TestRecord(0, 0), Prior.UNIFORM) == (1.0, 1.0)

    def test_earlier_two_system_record(self):
        assert posterior(TestRecord(2, 2), Prior.JEFFREYS) == (2.5, 0.5)

    def test_dos_counts_as_non_compromised(self):
        # only n_compromised moves alpha; DoS lands in beta with the rest
        with_dos = posterior(TestRecord(5, 4, 1))
        without = posterior(TestRecord(5, 4, 0))
        assert with_dos == without


class TestBetaBinomialPmf:
    def test_uniform_prior_predictive_is_uniform(self):
        for m in (3, 10, 17):
            for k in range(m + 1):
                assert beta_binomial_pmf(k, m, 1.0, 1.0) == pytest.approx(
                    1.0 / (m + 1), rel=1e-12
                )

    def test_single_trial_equals_posterior_mean(self):
        assert beta_binomial_pmf(1, 1, 4.5, 1.5) == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("m", [45, 100, 10_000])
    def test_normalization(self, m):
        total = sum(beta_binomial_pmf(k, m, 4.5, 1.5) for k in range(m + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            beta_binomial_pmf(-1, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            beta_binomial_pmf(11, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            beta_binomial_pmf(0, 10, 0.0, 1.0)


class TestProbExceeds:
    @pytest.mark.parametrize(
        "record,population,fraction,prior",
        [
            (TestRecord(5, 4, 1), 7, 0.2, Prior.JEFFREYS),
            (TestRecord(5, 4, 1), 50, 0.2, Prior.JEFFREYS),
            (TestRecord(2, 2, 0), 50, 0.2, Prior.UNIFORM),
            (TestRecord(0, 0, 0), 1, 0.5, Prior.JEFFREYS),
            (TestRecord(13, 8, 4), 1000, 0.01, Prior.UNIFORM),
            (TestRecord(25, 18, 0), 3000, 0.9, Prior.JEFFREYS),
        ],
    )
    def test_tail_bit_equal_to_summed_pmf(self, record, population, fraction, prior):
        q = RiskQuery(record, population, fraction, prior)
        alpha, beta = posterior(record, prior)
        m = population - record.n_tested
        threshold = math.floor(fraction * m)
        pmf = (beta_binomial_pmf(k, m, alpha, beta) for k in range(threshold + 1, m + 1))
        expected = _left_sum(pmf)
        assert prob_fraction_vulnerable_exceeds(q) == expected

    def test_current_record(self):
        q = RiskQuery(record=TestRecord(5, 4, 1))
        assert prob_fraction_vulnerable_exceeds(q) == pytest.approx(0.995, abs=0.005)

    def test_earlier_record(self):
        q = RiskQuery(record=TestRecord(2, 2))
        assert prob_fraction_vulnerable_exceeds(q) == pytest.approx(0.990, abs=0.005)

    def test_high_fraction_drives_probability_down(self):
        record = TestRecord(5, 4, 1)
        probs = [
            prob_fraction_vulnerable_exceeds(
                RiskQuery(record=record, vulnerable_fraction=f)
            )
            for f in (0.1, 0.2, 0.5, 0.9, 0.999)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 0.05

    def test_monotone_in_compromised_count(self):
        probs = [
            prob_fraction_vulnerable_exceeds(
                RiskQuery(record=TestRecord(5, k, 0))
            )
            for k in range(6)
        ]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_fully_tested_population(self):
        q = RiskQuery(record=TestRecord(5, 4, 1), population_total=5)
        assert prob_fraction_vulnerable_exceeds(q) == 0.0

    def test_matches_monte_carlo_oracle_small_population(self):
        # oracle: sample p from the posterior, then binomial counts
        q = RiskQuery(record=TestRecord(5, 4, 1), population_total=25)
        m = 25 - 5
        threshold = int(np.floor(0.2 * m))
        rng = np.random.default_rng(2024)
        n = 1_000_000
        p = rng.beta(4.5, 1.5, size=n)
        k = rng.binomial(m, p)
        mc = np.mean(k > threshold)
        se = np.sqrt(mc * (1 - mc) / n)
        exact = prob_fraction_vulnerable_exceeds(q)
        assert abs(exact - mc) <= 3 * se

    def test_infinite_population_limit(self):
        q = RiskQuery(record=TestRecord(5, 4, 1))
        limit = prob_exceeds_infinite_population(q)
        assert limit == pytest.approx(1 - beta_dist.cdf(0.2, 4.5, 1.5), rel=1e-12)
        assert limit == pytest.approx(0.998, abs=0.001)
        # finite-population predictive converges to it
        big = RiskQuery(record=TestRecord(5, 4, 1), population_total=100_000)
        assert prob_fraction_vulnerable_exceeds(big) == pytest.approx(
            limit, abs=1e-3
        )


class TestReport:
    def test_fields(self):
        doc = risk_report(RiskQuery(record=TestRecord(5, 4, 1)))
        assert doc["posterior_alpha"] == 4.5
        assert doc["posterior_beta"] == 1.5
        assert doc["boundary_convention"] == "strictly_greater"
        assert doc["prob_exceeds"] == pytest.approx(0.996, abs=0.001)
        assert doc["prob_exceeds_infinite_population"] == pytest.approx(
            0.998, abs=0.001
        )
