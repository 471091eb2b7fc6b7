import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from attenattack import fiber
from attenattack.fiber import (
    FiberLink,
    LaserSource,
    dbm_to_watts,
    delivered_power,
    effective_length,
    max_injectable_power,
    sbs_threshold,
    srs_threshold,
    threshold_curve,
    watts_to_dbm,
)


def quad_effective_length_m(length_km, alpha_per_km):
    """Independent oracle: L_eff = integral of e^(-a z) dz over the fiber."""
    alpha_per_m = alpha_per_km / 1000.0
    val, _ = quad(lambda z: math.exp(-alpha_per_m * z), 0.0, length_km * 1000.0)
    return val


class TestEffectiveLength:
    def test_20km_default_loss(self):
        # oracle value 12642.4 m
        link = FiberLink(length_km=20.0)
        expected = quad_effective_length_m(20.0, 0.05)
        assert effective_length(link) == pytest.approx(expected, rel=1e-9)
        assert effective_length(link) == pytest.approx(12642.4, rel=1e-4)

    def test_lossless_limit(self):
        assert effective_length(FiberLink(length_km=0.01, alpha_per_km=0.0)) == 10.0

    def test_short_fiber_series_expansion(self):
        assert effective_length(FiberLink(length_km=0.01)) == pytest.approx(
            9.99750, abs=1e-4
        )

    def test_strictly_increasing_and_bounded(self):
        lengths = [0.1, 1, 5, 20, 100, 1000]
        values = [effective_length(FiberLink(length_km=l)) for l in lengths]
        assert all(a < b for a, b in zip(values, values[1:]))
        bound_m = 1.0 / (0.05 / 1000.0)
        assert all(v <= bound_m for v in values)


class TestSrsThreshold:
    def test_1km(self):
        expected = 20 * 50e-12 / (6.67e-14 * quad_effective_length_m(1.0, 0.05))
        assert srs_threshold(FiberLink(length_km=1.0)) == pytest.approx(
            expected, rel=1e-9
        )
        assert srs_threshold(FiberLink(length_km=1.0)) == pytest.approx(15.4, rel=0.02)

    def test_20km(self):
        assert srs_threshold(FiberLink(length_km=20.0)) == pytest.approx(1.19, rel=0.01)

    def test_linear_in_effective_area(self):
        base = srs_threshold(FiberLink(length_km=5.0))
        doubled = srs_threshold(FiberLink(length_km=5.0, a_eff_um2=100.0))
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_degenerate_length_rejected(self):
        with pytest.raises(ValueError):
            FiberLink(length_km=0.0)
        with pytest.raises(ValueError):
            FiberLink(length_km=-1.0)

    def test_long_length_floor(self):
        # threshold approaches 20 A_eff a / g_R as L grows
        floor = 20 * 50e-12 * (0.05 / 1000.0) / 6.67e-14
        assert srs_threshold(FiberLink(length_km=1e4)) == pytest.approx(
            floor, rel=1e-6
        )
        assert floor == pytest.approx(0.75, rel=0.01)


class TestSbsThreshold:
    def test_10m_narrowband(self):
        val = sbs_threshold(FiberLink(length_km=0.01), LaserSource(linewidth_ghz=0.0))
        assert val == pytest.approx(2.1, rel=0.02)

    def test_broadening_factor(self):
        link = FiberLink(length_km=0.01)
        narrow = sbs_threshold(link, LaserSource(linewidth_ghz=0.0))
        broad = sbs_threshold(link, LaserSource(linewidth_ghz=10.0))
        assert broad / narrow == pytest.approx(1 + 10000 / 16, rel=1e-12)
        assert broad == pytest.approx(2.1005 * 626, rel=0.01)


@pytest.mark.parametrize(
    "link",
    [
        FiberLink(length_km=5e-324),
        FiberLink(length_km=1e-310, alpha_per_km=1e300),
    ],
)
def test_threshold_without_finite_value_rejected(link):
    with pytest.raises(ValueError, match="SRS threshold is not finite"):
        srs_threshold(link)
    with pytest.raises(ValueError, match="SBS threshold is not finite"):
        sbs_threshold(link, LaserSource())
    with pytest.raises(ValueError):
        max_injectable_power(link, LaserSource())


class TestMaxInjectablePower:
    def test_laser_limited_20m(self):
        power, constraint = max_injectable_power(
            FiberLink(length_km=0.02), LaserSource()
        )
        assert power == 9.0
        assert constraint == "laser"

    def test_sbs_limited_narrow_laser(self):
        power, constraint = max_injectable_power(
            FiberLink(length_km=0.01),
            LaserSource(max_power_w=100.0, linewidth_ghz=0.0),
        )
        assert power == pytest.approx(2.1, rel=0.02)
        assert constraint == "sbs"

    def test_zero_power_laser(self):
        power, constraint = max_injectable_power(
            FiberLink(length_km=0.02), LaserSource(max_power_w=0.0)
        )
        assert power == 0.0
        assert constraint == "laser"


class TestDeliveredPower:
    def test_9w_over_20m(self):
        assert delivered_power(FiberLink(length_km=0.02), 9.0) == pytest.approx(
            9.0 * math.exp(-0.001), rel=1e-12
        )

    def test_lossless(self):
        link = FiberLink(length_km=3.0, alpha_per_km=0.0)
        assert delivered_power(link, 7.7) == 7.7

    def test_10w_over_20km(self):
        assert delivered_power(FiberLink(length_km=20.0), 10.0) == pytest.approx(
            10.0 / math.e, rel=1e-12
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            delivered_power(FiberLink(length_km=1.0), -0.1)

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_never_amplifies(self, p):
        assert delivered_power(FiberLink(length_km=20.0), p) <= p


class TestThresholdCurve:
    def test_grid_value_at_1km(self):
        curve = threshold_curve(
            FiberLink(length_km=20.0), LaserSource(), 1.0, 20.0, 10
        )
        assert curve.lengths_km[0] == pytest.approx(1.0)
        assert curve.p_srs_w[0] == pytest.approx(15.4, rel=0.02)

    def test_two_points_gives_endpoints(self):
        curve = threshold_curve(
            FiberLink(length_km=20.0), LaserSource(), 0.5, 20.0, 2
        )
        assert curve.lengths_km == pytest.approx([0.5, 20.0])

    def test_columns_strictly_decreasing(self):
        curve = threshold_curve(
            FiberLink(length_km=20.0), LaserSource(), 0.01, 20.0, 50
        )
        for col in (curve.p_srs_w, curve.p_sbs_w):
            assert all(a > b for a, b in zip(col, col[1:]))

    def test_sbs_srs_ratio_length_independent(self):
        curve = threshold_curve(
            FiberLink(length_km=20.0), LaserSource(linewidth_ghz=10.0), 0.01, 20.0, 30
        )
        ratios = [sbs / srs for sbs, srs in zip(curve.p_sbs_w, curve.p_srs_w)]
        assert max(ratios) - min(ratios) < 1e-9 * ratios[0]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            threshold_curve(FiberLink(length_km=1.0), LaserSource(), 5.0, 1.0, 10)
        with pytest.raises(ValueError):
            threshold_curve(FiberLink(length_km=1.0), LaserSource(), 0.1, 1.0, 1)

    @pytest.mark.parametrize(
        "l_min,l_max", [(0.1, math.inf), (math.nan, 1.0), (0.1, math.nan), (-1.0, 1.0)]
    )
    def test_non_finite_or_negative_range_rejected(self, l_min, l_max):
        with pytest.raises(ValueError):
            threshold_curve(FiberLink(length_km=1.0), LaserSource(), l_min, l_max, 10)

    @pytest.mark.parametrize(
        "l_min,alpha",
        [(5e-324, fiber.DEFAULT_ALPHA_PER_KM), (1e-310, 1e300)],
    )
    def test_no_finite_threshold_at_the_short_end_rejected(self, l_min, alpha):
        # L_eff underflows to 0 m, or to so few m that the thresholds overflow
        template = FiberLink(length_km=1.0, alpha_per_km=alpha)
        with pytest.raises(ValueError, match="not finite"):
            threshold_curve(template, LaserSource(), l_min, 20.0, 5)

    def test_point_count_bounded(self):
        with pytest.raises(ValueError, match="n_points"):
            threshold_curve(FiberLink(length_km=1.0), LaserSource(), 0.1, 1.0, 10**6 + 1)

    @pytest.mark.parametrize(
        "template,laser",
        [
            (FiberLink(length_km=20.0), LaserSource()),
            (FiberLink(length_km=1.0, alpha_per_km=0.0), LaserSource(linewidth_ghz=0.0)),
            (
                FiberLink(length_km=3.0, alpha_per_km=0.2, a_eff_um2=80.0,
                          g_r_m_per_w=1e-13, g_b_m_per_w=4e-11, delta_nu_b_mhz=30.0),
                LaserSource(linewidth_ghz=0.5),
            ),
        ],
    )
    def test_bit_equal_to_per_length_link(self, template, laser):
        curve = threshold_curve(template, laser, 0.003, 40.0, 37)
        for l_km, srs, sbs in zip(curve.lengths_km, curve.p_srs_w, curve.p_sbs_w):
            link = replace(template, length_km=l_km)
            assert srs == srs_threshold(link)
            assert sbs == sbs_threshold(link, laser)

    def test_csv_format(self):
        curve = threshold_curve(FiberLink(length_km=1.0), LaserSource(), 0.1, 1.0, 3)
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "length_km,p_srs_w,p_sbs_w"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split(",")) == 3


class TestDbmConversions:
    @pytest.mark.parametrize(
        "dbm,watts",
        [(25.0, 0.316), (0.0, 0.001), (39.5, 8.91), (36.0, 3.98), (34.5, 2.82)],
    )
    def test_anchors(self, dbm, watts):
        assert dbm_to_watts(dbm) == pytest.approx(watts, rel=0.005)

    def test_nonpositive_watts_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)

    @given(st.floats(min_value=-30.0, max_value=45.0))
    def test_round_trip(self, dbm):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)
