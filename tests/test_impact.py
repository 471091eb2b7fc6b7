import pytest
from hypothesis import given, strategies as st

from attenattack.impact import (
    ImpactClass,
    adjusted_mu,
    classify,
    impact_report,
    mpn_ratio,
)


class TestMpnRatio:
    def test_one_db_drop_is_26_percent_gain(self):
        assert mpn_ratio(-1.0) == pytest.approx(1.259, abs=0.001)

    def test_three_db_rise_halves(self):
        assert mpn_ratio(3.0) == pytest.approx(0.501, abs=0.001)

    def test_identity(self):
        assert mpn_ratio(0.0) == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mpn_ratio(float("inf"))
        with pytest.raises(ValueError):
            mpn_ratio(float("nan"))

    @pytest.mark.parametrize("delta", [-3100.0, -1e308])
    def test_ratio_beyond_float_range_rejected(self, delta):
        with pytest.raises(ValueError, match="float range"):
            mpn_ratio(delta)

    def test_ratio_below_float_range_is_zero(self):
        assert mpn_ratio(1e308) == 0.0

    @given(
        st.floats(min_value=-40, max_value=40),
        st.floats(min_value=-40, max_value=40),
    )
    def test_db_additivity(self, a, b):
        assert mpn_ratio(a + b) == pytest.approx(
            mpn_ratio(a) * mpn_ratio(b), rel=1e-12
        )

    @given(st.floats(min_value=-40, max_value=39.9))
    def test_strictly_decreasing(self, d):
        assert mpn_ratio(d) > mpn_ratio(d + 0.1)


class TestAdjustedMu:
    def test_vdmc_average_drop(self):
        assert adjusted_mu(0.5, -9.59) == pytest.approx(4.55, abs=0.01)

    def test_no_change(self):
        assert adjusted_mu(0.5, 0.0) == 0.5

    def test_mems_average_drop(self):
        assert adjusted_mu(0.1, -5.34) == pytest.approx(0.342, abs=0.001)

    def test_mu_beyond_float_range_rejected(self):
        # once returned inf, which the CLI failed to write after printing a result
        with pytest.raises(ValueError, match=r"mu0 1\.7e\+308 with delta -3\.0 dB"):
            adjusted_mu(1.7e308, -3.0)
        with pytest.raises(ValueError, match="float range"):
            impact_report(-3.0, mu_before=1.7e308)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            adjusted_mu(0.0, -1.0)
        with pytest.raises(ValueError):
            adjusted_mu(-0.5, -1.0)


class TestClassify:
    def test_compromised(self):
        assert classify(-6.47) is ImpactClass.COMPROMISED

    def test_denial_of_service(self):
        assert classify(31.47) is ImpactClass.DENIAL_OF_SERVICE

    def test_unaffected(self):
        assert classify(-0.5) is ImpactClass.UNAFFECTED

    def test_boundaries_inclusive(self):
        assert classify(-1.0) is ImpactClass.COMPROMISED
        assert classify(3.0) is ImpactClass.DENIAL_OF_SERVICE

    @given(st.floats(min_value=-50, max_value=50))
    def test_total_partition(self, delta):
        # exactly one region claims every finite delta
        assert classify(delta) in (
            ImpactClass.COMPROMISED,
            ImpactClass.DENIAL_OF_SERVICE,
            ImpactClass.UNAFFECTED,
        )


class TestReport:
    def test_fields_consistent(self):
        report = impact_report(-5.34, mu_before=0.1)
        assert report.mu_after == pytest.approx(report.mu_before * report.mpn_ratio)
        assert report.classification is ImpactClass.COMPROMISED
        doc = report.to_json_dict()
        assert doc["classification"] == "Compromised"
        assert set(doc) == {
            "delta_attenuation_db",
            "mpn_ratio",
            "mu_before",
            "mu_after",
            "classification",
        }

    def test_summary_line(self):
        line = impact_report(-1.0, mu_before=0.5).summary_line()
        assert "+25.9%" in line
        assert "Compromised" in line
