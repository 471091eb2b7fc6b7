"""Acceptance suite: one test per release criterion, one PASS line each.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from attenattack import (
    AttenuatorClass,
    CampaignConfig,
    FiberLink,
    LaserSource,
    Prior,
    RiskQuery,
    TestRecord,
    apply_exposure,
    attenuation,
    beta_binomial_pmf,
    cool_down,
    dbm_to_watts,
    monte_carlo,
    mpn_ratio,
    new_attenuator,
    prob_fraction_vulnerable_exceeds,
    sbs_threshold,
    srs_threshold,
    threshold_curve,
)
from attenattack.attenuators import PERMANENT_EVENT, TEMPORARY_EVENT, Fate


def _pass(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_01_sbs_baseline():
    value = sbs_threshold(FiberLink(length_km=0.01), LaserSource(linewidth_ghz=0.0))
    assert value == pytest.approx(2.1, rel=0.02)
    _pass(1, "SBS baseline 2.1 W at 10 m")


def test_02_srs_regime():
    for l_km in [0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 0.99]:
        assert srs_threshold(FiberLink(length_km=l_km)) > 10.0
    # independent re-derivation: effective length by numeric quadrature
    l_eff, _ = quad(lambda z: math.exp(-(0.05 / 1000.0) * z), 0.0, 1000.0)
    oracle = 20 * 50e-12 / (6.67e-14 * l_eff)
    value = srs_threshold(FiberLink(length_km=1.0))
    assert value == pytest.approx(oracle, rel=1e-9)
    assert value == pytest.approx(15.4, rel=0.02)
    _pass(2, "SRS > 10 W below 1 km, 15.4 W at 1 km")


def test_03_threshold_curve_shape():
    curve = threshold_curve(
        FiberLink(length_km=20.0), LaserSource(linewidth_ghz=10.0), 0.01, 20.0, 100
    )
    for col in (curve.p_srs_w, curve.p_sbs_w):
        assert all(a > b for a, b in zip(col, col[1:]))
    ratios = [b / a for a, b in zip(curve.p_srs_w, curve.p_sbs_w)]
    assert max(ratios) - min(ratios) < 1e-9 * ratios[0]
    _pass(3, "curve monotone, SBS/SRS ratio length-independent")


def test_04_dbm_anchors():
    assert dbm_to_watts(25.0) == pytest.approx(0.316, rel=0.005)
    assert dbm_to_watts(36.0) == pytest.approx(3.98, rel=0.005)
    assert dbm_to_watts(39.5) == pytest.approx(8.91, rel=0.005)
    _pass(4, "dBm anchors")


def test_05_mpn_anchors():
    assert mpn_ratio(-1.0) == pytest.approx(1.259, abs=0.001)
    assert mpn_ratio(3.0) == pytest.approx(0.501, abs=0.001)
    _pass(5, "mean-photon-number anchors")


def test_06_risk_reproduction():
    p_current = prob_fraction_vulnerable_exceeds(
        RiskQuery(record=TestRecord(5, 4, 1), population_total=50,
                  vulnerable_fraction=0.2, prior=Prior.JEFFREYS)
    )
    assert p_current == pytest.approx(0.995, abs=0.005)
    p_earlier = prob_fraction_vulnerable_exceeds(
        RiskQuery(record=TestRecord(2, 2, 0), population_total=50,
                  vulnerable_fraction=0.2, prior=Prior.JEFFREYS)
    )
    assert p_earlier == pytest.approx(0.990, abs=0.005)

    # beta-binomial kernel vs Monte Carlo oracle at >= 1e6 samples
    m, alpha, beta = 45, 4.5, 1.5
    rng = np.random.default_rng(7)
    n = 1_000_000
    k = rng.binomial(m, rng.beta(alpha, beta, size=n))
    threshold = int(np.floor(0.2 * m))
    mc = np.mean(k > threshold)
    se = np.sqrt(mc * (1 - mc) / n)
    exact = sum(beta_binomial_pmf(j, m, alpha, beta) for j in range(threshold + 1, m + 1))
    assert abs(exact - mc) <= 3 * se
    _pass(6, "risk prediction 0.995 / 0.990, kernel matches MC oracle")


def test_07_campaign_calibration():
    cfg = CampaignConfig()
    targets = {
        AttenuatorClass.FIXED: (25.0, 4 / 12, 6 / 12, -1.37, 34.0),
        AttenuatorClass.MEMS_VOA: (30.0, 8 / 13, 4 / 13, -5.34, 36.2),
        AttenuatorClass.VDMC_VOA: (53.0, 18 / 25, 0.0, -9.59, 34.5),
    }
    n = 1000
    for klass, (setpoint, p_s, p_f, delta, thr) in targets.items():
        summary = monte_carlo(cfg, klass, None, setpoint, n_trials=n, seed=2024)
        sd_s = math.sqrt(p_s * (1 - p_s) / n)
        sd_f = math.sqrt(p_f * (1 - p_f) / n)
        assert abs(summary.success_rate - p_s) <= 3 * sd_s, klass
        assert abs(summary.critical_failure_rate - p_f) <= max(3 * sd_f, 1e-12), klass
        assert abs(summary.mean_success_delta_db - delta) <= 1.0, klass
        assert abs(summary.mean_attack_threshold_dbm - thr) <= 1.0, klass

    manual = monte_carlo(
        cfg, AttenuatorClass.MANUAL_VOA, None, 31.0, n_trials=n, seed=2024
    )
    assert manual.inconclusive_rate == 1.0
    _pass(7, "Monte Carlo calibration per class")


def test_08_fixed_thermodynamics():
    seed = next(
        s for s in range(200)
        if new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=s).fate
        is Fate.SUCCESS
    )
    state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=seed)
    state, event = apply_exposure(state, 4.0, 300.0)
    assert event == TEMPORARY_EVENT
    immediate = attenuation(state)
    assert immediate == pytest.approx(25.0 - 2.0, abs=0.5)
    recovered = cool_down(state, 600.0)
    assert attenuation(recovered) == pytest.approx(25.0, abs=0.1)
    _pass(8, "fixed attenuator thermal drop and recovery")


def test_09_vdmc_floor_and_locality():
    damaged_seeds = 0
    for seed in range(60):
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
        state, event = apply_exposure(state, 2.8, 10.0)
        for setting in np.linspace(52.0, 54.0, 41):
            assert attenuation(state, float(setting)) >= 1.7
        if event == PERMANENT_EVENT:
            damaged_seeds += 1
            assert attenuation(state, 53.5) == pytest.approx(53.5, abs=1e-9)
            assert attenuation(state, 52.5) == pytest.approx(52.5, abs=1e-9)
    assert damaged_seeds > 0
    # floor at a near-floor disk position
    for seed in range(30):
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 2.5, seed=seed)
        for p in [2.8, 4.0, 6.8]:
            state, _ = apply_exposure(state, p, 10.0)
        for setting in np.linspace(2.0, 3.0, 21):
            assert attenuation(state, float(setting)) >= 1.7
    _pass(9, "VDMC 1.7 dB floor and 0.5 dB locality")


def test_10_determinism_byte_identical():
    def run(*args):
        cp = subprocess.run(
            [sys.executable, "-m", "attenattack", *args],
            capture_output=True, text=True,
        )
        assert cp.returncode == 0, cp.stderr
        return cp.stdout

    pipelines = [
        ("campaign", "--class", "vdmc-voa", "--setpoint-db", "53",
         "--trials", "1", "--seed", "11"),
        ("campaign", "--class", "mems-voa", "--trials", "50", "--seed", "5",
         "--per-trial"),
        ("campaign", "--class", "fixed", "--trials", "50", "--seed", "9"),
        ("thresholds", "--points", "50"),
        ("risk",),
    ]
    for args in pipelines:
        assert run(*args) == run(*args), args
    _pass(10, "byte-identical reruns for every pipeline")
