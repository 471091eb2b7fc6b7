import gc
import re
import tracemalloc
import weakref
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attenattack import attenuators, campaign
from attenattack.attenuators import (
    DEFAULT_PROFILES,
    DEFAULT_SETPOINTS,
    SETPOINT_RANGES,
    AttenuatorClass,
    Fate,
    new_attenuator,
)
from attenattack.campaign import (
    CampaignConfig,
    CampaignOutcome,
    check_fuse,
    monte_carlo,
    run_campaign,
    trial_seeds,
)
from attenattack.fiber import (
    FiberLink,
    LaserSource,
    dbm_to_watts,
    max_injectable_power,
    watts_to_dbm,
)


LINK_20M = FiberLink(length_km=0.02)
LASER = LaserSource()


def find_seed(klass, fate, setpoint, limit=200):
    for seed in range(limit):
        state = new_attenuator(klass, None, setpoint, seed=seed)
        if state.fate is fate:
            return seed
    raise AssertionError("no matching seed")


class TestConfig:
    def test_defaults(self):
        cfg = CampaignConfig()
        assert cfg.start_power_dbm == 25.0
        assert cfg.step_dbm == 0.5
        assert cfg.max_power_dbm == 39.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_power_dbm": 40.0},
            {"step_dbm": 0.25},
            {"step_dbm": 2.0},
            {"dwell_s": 5.0},
            {"success_delta_db": 1.0},
            {"failure_delta_db": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)


class TestRunCampaign:
    def test_manual_voa_inconclusive(self):
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=7)
        result = run_campaign(CampaignConfig(), state, LINK_20M, LASER)
        assert result.outcome is CampaignOutcome.INCONCLUSIVE
        assert len(result.steps) <= 30
        assert result.steps[-1].power_dbm_set == pytest.approx(39.5)
        assert all(abs(s.delta_db) < 1.0 for s in result.steps)

    def test_mems_success_near_sampled_threshold(self):
        seed = find_seed(AttenuatorClass.MEMS_VOA, Fate.SUCCESS, 30.0)
        state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
        result = run_campaign(CampaignConfig(), state, LINK_20M, LASER)
        assert result.outcome is CampaignOutcome.SUCCESS
        assert result.final_delta_db <= -1.0
        # stops within one power step of the specimen's sampled threshold
        assert (
            0.0
            <= result.attack_power_dbm - state.sampled_attack_threshold_dbm
            <= 0.5 + 0.01
        )

    def test_mems_failure_gives_critical(self):
        seed = find_seed(AttenuatorClass.MEMS_VOA, Fate.FAILURE, 30.0)
        state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
        result = run_campaign(CampaignConfig(), state, LINK_20M, LASER)
        assert result.outcome is CampaignOutcome.CRITICAL_FAILURE
        assert result.final_state.destroyed
        assert result.final_delta_db >= 3.0

    def test_power_sequence_strictly_increasing_and_capped(self):
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=0)
        result = run_campaign(CampaignConfig(), state, LINK_20M, LASER)
        powers = [s.power_dbm_set for s in result.steps]
        assert all(a < b for a, b in zip(powers, powers[1:]))
        assert all(p <= 39.5 for p in powers)

    def test_start_power_above_injectable_rejected(self):
        # 20 km fiber limits SRS threshold to ~1.19 W (30.7 dBm)
        link = FiberLink(length_km=20.0)
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=0)
        cfg = CampaignConfig(start_power_dbm=31.0)
        with pytest.raises(ValueError):
            run_campaign(cfg, state, link, LASER)

    def test_ladder_of_max_rungs_accepted(self):
        # 39.5 dBm is the cap here; a step of 0.5 dB adds up exactly
        top = CampaignConfig().max_power_dbm
        start = top - (campaign.MAX_RUNGS - 1) * 0.5
        ladder = list(campaign._power_ladder(CampaignConfig(start_power_dbm=start), LINK_20M, LASER))
        assert len(ladder) == campaign.MAX_RUNGS
        assert ladder[-1][0] == top

    @pytest.mark.parametrize("start", [-960.5, -1e7, -1e300])
    def test_longer_ladder_rejected_before_any_rung(self, start):
        ladder = campaign._power_ladder(CampaignConfig(start_power_dbm=start), LINK_20M, LASER)
        with pytest.raises(ValueError, match=f"over {campaign.MAX_RUNGS} rungs"):
            next(ladder)

    def test_fiber_limit_caps_the_sweep(self):
        link = FiberLink(length_km=20.0)  # injectable ~30.7 dBm
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=0)
        result = run_campaign(CampaignConfig(), state, link, LASER)
        assert result.outcome is CampaignOutcome.INCONCLUSIVE
        assert max(s.power_dbm_set for s in result.steps) < 31.0

    def test_replay_is_bit_identical(self):
        cfg = CampaignConfig()
        seed = find_seed(AttenuatorClass.VDMC_VOA, Fate.SUCCESS, 53.0)

        def run():
            state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
            return run_campaign(cfg, state, LINK_20M, LASER).to_json_dict(cfg)

        assert run() == run()

    def test_destroyed_state_rejected(self):
        seed = find_seed(AttenuatorClass.MEMS_VOA, Fate.FAILURE, 30.0)
        state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
        result = run_campaign(CampaignConfig(), state, LINK_20M, LASER)
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(), result.final_state, LINK_20M, LASER)

    def test_json_document_schema(self):
        cfg = CampaignConfig()
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=1)
        doc = run_campaign(cfg, state, LINK_20M, LASER).to_json_dict(cfg)
        assert doc["schema"] == 1
        assert doc["outcome"] in {o.value for o in CampaignOutcome}
        assert doc["config"]["start_power_dbm"] == 25.0
        for step in doc["steps"]:
            assert step["delta_db"] == pytest.approx(
                step["attenuation_after_db"] - step["attenuation_before_db"]
            )


class TestFuse:
    def test_trip_at_threshold_connectorized(self):
        cfg = CampaignConfig(connectorized_output=True)
        assert check_fuse(cfg, 4.5)
        assert check_fuse(cfg, 5.0)
        assert not check_fuse(cfg, 4.4)
        assert not check_fuse(cfg, 0.0)

    def test_spliced_output_never_trips(self):
        cfg = CampaignConfig(connectorized_output=False)
        assert not check_fuse(cfg, 6.8)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            check_fuse(CampaignConfig(), -1.0)

    def test_campaign_ends_in_dos_on_trip(self):
        cfg = CampaignConfig(connectorized_output=True)
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=0)
        result = run_campaign(cfg, state, LINK_20M, LASER)
        assert result.outcome is CampaignOutcome.FIBER_FUSE_DOS
        assert result.steps[-1].event == "FuseTrip"
        assert result.steps[-1].power_w_delivered >= 4.5


class TestMonteCarlo:
    def test_single_trial_matches_campaign(self):
        cfg = CampaignConfig()
        results = []
        summary = monte_carlo(
            cfg,
            AttenuatorClass.MEMS_VOA,
            setpoint_db=30.0,
            n_trials=1,
            seed=11,
            on_result=results.append,
        )
        state = new_attenuator(
            AttenuatorClass.MEMS_VOA, None, 30.0, seed=trial_seeds(11, 1)[0]
        )
        direct = run_campaign(cfg, state, LINK_20M, LASER)
        assert results[0].outcome is direct.outcome
        rates = [
            summary.success_rate,
            summary.critical_failure_rate,
            summary.inconclusive_rate,
            summary.fiber_fuse_rate,
        ]
        assert sum(rates) == pytest.approx(1.0)
        assert set(rates) <= {0.0, 1.0}

    def test_outcome_rates_sum_to_one(self):
        summary = monte_carlo(
            CampaignConfig(),
            AttenuatorClass.FIXED,
            setpoint_db=25.0,
            n_trials=50,
            seed=3,
        )
        total = (
            summary.success_rate
            + summary.critical_failure_rate
            + summary.inconclusive_rate
            + summary.fiber_fuse_rate
        )
        assert total == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        args = dict(
            config=CampaignConfig(),
            klass=AttenuatorClass.VDMC_VOA,
            setpoint_db=53.0,
            n_trials=40,
            seed=5,
        )
        assert monte_carlo(**args) == monte_carlo(**args)

    def test_results_streamed_in_seed_order_and_not_kept(self):
        cfg = CampaignConfig()
        refs, outcomes = [], []

        def see(result):
            refs.append(weakref.ref(result))
            outcomes.append(result.outcome)

        summary = monte_carlo(
            cfg, AttenuatorClass.FIXED, n_trials=12, seed=4, on_result=see
        )
        assert len(refs) == 12
        for trial_seed, outcome in zip(trial_seeds(4, 12), outcomes):
            state = new_attenuator(AttenuatorClass.FIXED, None, None, seed=trial_seed)
            assert run_campaign(cfg, state, LINK_20M, LASER).outcome is outcome
        assert summary.success_rate == outcomes.count(CampaignOutcome.SUCCESS) / 12
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_n_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(CampaignConfig(), AttenuatorClass.FIXED, n_trials=0)


BATCHED_CLASSES = [
    AttenuatorClass.FIXED, AttenuatorClass.MEMS_VOA, AttenuatorClass.MANUAL_VOA,
    AttenuatorClass.VDMC_VOA,
]
VDMC = AttenuatorClass.VDMC_VOA
VDMC_PROFILE = DEFAULT_PROFILES[VDMC]


def usually(usual, edges, lo, hi):
    """`usual` half the time, else one of `edges` or any float in [lo, hi]."""
    return st.one_of(st.just(usual), st.just(usual), st.sampled_from(edges), st.floats(lo, hi))


@st.composite
def batched_inputs(draw):
    """(class, profile, setpoint, config, link): a standard campaign, with
    each input now and then at an edge."""
    klass = draw(st.sampled_from(BATCHED_CLASSES))
    lo, hi = SETPOINT_RANGES[klass]
    edges = [lo, hi]
    if klass is AttenuatorClass.MEMS_VOA:
        # the taper below the damage band, where drops are partial
        edges += [20.0, 22.5, 24.0]
    setpoints = usually(DEFAULT_SETPOINTS[klass], edges, lo, hi)
    if klass is AttenuatorClass.VDMC_VOA:
        # near or below the 1.7 dB floor, which hides part or all of a dip
        setpoints = st.one_of(setpoints, st.floats(0.0, 2.5))
    setpoint = draw(setpoints)

    default = DEFAULT_PROFILES[klass]
    success_p, failure_p = draw(
        st.sampled_from([
            (default.success_probability, default.failure_probability),
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5),
        ])
    )
    overrides = {
        "success_probability": success_p,
        "failure_probability": failure_p,
        "recovery_tau_s": draw(usually(150.0, [0.0], 0.0, 500.0)),
        "insertion_loss_floor_db": draw(
            usually(default.insertion_loss_floor_db, [0.0, 25.0, 40.0], 0.0, 40.0)
        ),
    }
    if klass is AttenuatorClass.MANUAL_VOA:
        attack = draw(st.floats(28.0, 38.0))
        overrides["attack_threshold_dbm"] = attack
        overrides["failure_threshold_dbm"] = attack + draw(st.floats(0.0, 3.0))
    elif klass is AttenuatorClass.FIXED:
        # a small mean drop over a wide spread could draw a drop <= 0, so
        # new_attenuator rejects the profile; both engines must fail alike
        overrides["success_delta_db_mean"] = draw(usually(-1.37, [-0.1], -3.0, -0.05))
        overrides["success_delta_db_spread"] = draw(usually(0.15, [0.0, 0.5], 0.0, 0.5))
    else:
        overrides["success_delta_db_mean"] = draw(usually(-5.34, [-0.5], -10.0, -0.5))
        overrides["success_delta_db_spread"] = draw(usually(2.5, [0.0], 0.0, 3.0))
    profile = replace(default, **overrides)

    # 20 km and longer caps the ladder at the SRS/SBS limit; at 1e5 km the
    # delivered power underflows to 0 W
    link = FiberLink(length_km=draw(usually(0.02, [1.0, 20.0, 40.0, 1e5], 0.001, 60.0)))
    max_dbm = draw(usually(39.5, [36.0, 30.0], 26.0, 39.5))
    top = min(max_dbm, watts_to_dbm(max_injectable_power(link, LASER)[0]))
    start = draw(
        st.one_of(
            st.just(25.0),
            st.just(25.0),
            st.just(top),  # a one-rung ladder
            st.sampled_from([top - 0.25, top - 1.0]),
            st.floats(top - 14.0, top),
            # above the injectable limit: both engines must reject it
            st.just(min(max_dbm, top + 0.3)),
        )
    )
    config = CampaignConfig(
        start_power_dbm=start,
        step_dbm=draw(usually(0.5, [1.0], 0.5, 1.0)),
        # a long dwell clears the VDMC law's low-power tiers below the
        # threshold
        dwell_s=draw(usually(10.0, [10.1, 300.0], 10.0, 300.0)),
        # far below any drop, a campaign runs on after the damage rung
        success_delta_db=draw(usually(-1.0, [-20.0], -20.0, -0.5)),
        max_power_dbm=max_dbm,
        cooldown_s=draw(usually(10.0, [0.0], 0.0, 600.0)),
        connectorized_output=draw(st.booleans()),
        # trips on the first rung, on a later one, or never
        fuse_threshold_w=draw(usually(4.5, [dbm_to_watts(start - 0.1)], 0.05, 10.0)),
    )
    return klass, profile, setpoint, config, link


def assert_engines_agree(inputs, seed, n_trials, batch):
    """The batched engine gives each trial what run_campaign gives it, or
    fails as it fails."""
    klass, profile, setpoint, config, link = inputs
    seeds = trial_seeds(seed, n_trials)
    with patch.object(campaign, "_BATCH_TRIALS", batch):
        try:
            expected = [
                run_campaign(config, new_attenuator(klass, profile, setpoint, seed=s), link, LASER)
                for s in seeds
            ]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                list(campaign._batched_trials(config, klass, profile, setpoint, seeds, link, LASER))
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                monte_carlo(config, klass, profile, setpoint, n_trials, seed, link, LASER)
            return
        batches = list(
            campaign._batched_trials(config, klass, profile, setpoint, seeds, link, LASER)
        )
        batched = monte_carlo(config, klass, profile, setpoint, n_trials, seed, link, LASER)
    codes, deltas, powers = (np.concatenate(column).tolist() for column in zip(*batches))
    assert len(codes) == n_trials
    for result, code, delta, power in zip(expected, codes, deltas, powers):
        assert campaign._OUTCOMES[code] is result.outcome
        assert delta.hex() == result.final_delta_db.hex()
        if result.outcome is CampaignOutcome.SUCCESS:
            assert power.hex() == result.attack_power_dbm.hex()
    scalar = monte_carlo(
        config, klass, profile, setpoint, n_trials, seed, link, LASER, on_result=lambda r: None
    )
    assert batched == scalar


# a fixed profile that could draw a drop <= 0: every specimen is rejected
@example(
    inputs=(
        AttenuatorClass.FIXED,
        replace(DEFAULT_PROFILES[AttenuatorClass.FIXED], success_probability=1.0,
                failure_probability=0.0, success_delta_db_mean=-0.1,
                success_delta_db_spread=0.5),
        25.0, CampaignConfig(), LINK_20M,
    ),
    seed=0, n_trials=20, batch=3,
)
# a fixed profile whose attack threshold is 0.0 W: every specimen is rejected
@example(
    inputs=(
        AttenuatorClass.FIXED,
        replace(DEFAULT_PROFILES[AttenuatorClass.FIXED], attack_threshold_dbm=-4000.0,
                failure_threshold_dbm=37.0),
        25.0, CampaignConfig(), LINK_20M,
    ),
    seed=11, n_trials=5, batch=2,
)
# the fuse trips on the first rung
@example(
    inputs=(
        AttenuatorClass.MEMS_VOA, DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA], 30.0,
        CampaignConfig(connectorized_output=True, fuse_threshold_w=0.1), LINK_20M,
    ),
    seed=1, n_trials=5, batch=2,
)
# every rung delivers 0 W
@example(
    inputs=(
        AttenuatorClass.FIXED, DEFAULT_PROFILES[AttenuatorClass.FIXED], 25.0,
        CampaignConfig(), FiberLink(length_km=1e5),
    ),
    seed=2, n_trials=5, batch=2,
)
# VDMC: every point resistant
@example(
    inputs=(VDMC, replace(VDMC_PROFILE, success_probability=0.0), 53.0, CampaignConfig(), LINK_20M),
    seed=3, n_trials=8, batch=3,
)
# VDMC: a 300 s dwell clears the law below the threshold, a skewed dip
@example(
    inputs=(VDMC, VDMC_PROFILE, 53.0, CampaignConfig(dwell_s=300.0), LINK_20M),
    seed=4, n_trials=20, batch=7,
)
# VDMC: 1 dB steps raise the power by more than 0.4 W, so dips deepen
@example(
    inputs=(
        VDMC, VDMC_PROFILE, 53.0,
        CampaignConfig(step_dbm=1.0, success_delta_db=-20.0), LINK_20M,
    ),
    seed=5, n_trials=20, batch=7,
)
# VDMC: the second rung delivers exactly 0.4 W more than the first, too
# little to deepen a dip drawn on the first
@example(
    inputs=(
        VDMC, VDMC_PROFILE, 53.0,
        CampaignConfig(start_power_dbm=35.1606876664817, dwell_s=40.0, success_delta_db=-20.0),
        LINK_20M,
    ),
    seed=6, n_trials=20, batch=7,
)
# VDMC: at 2 dB the 1.7 dB floor hides most of a dip, and at 1 dB all of it
@example(
    inputs=(VDMC, VDMC_PROFILE, 2.0, CampaignConfig(step_dbm=1.0), LINK_20M),
    seed=7, n_trials=20, batch=7,
)
@example(
    inputs=(VDMC, VDMC_PROFILE, 1.0, CampaignConfig(), LINK_20M),
    seed=8, n_trials=10, batch=4,
)
# VDMC: specimens that never drop run on until the fuse trips
@example(
    inputs=(VDMC, VDMC_PROFILE, 53.0, CampaignConfig(connectorized_output=True), LINK_20M),
    seed=9, n_trials=20, batch=7,
)
# VDMC: every rung delivers 0 W
@example(
    inputs=(VDMC, VDMC_PROFILE, 53.0, CampaignConfig(), FiberLink(length_km=1e5)),
    seed=10, n_trials=5, batch=2,
)
@settings(max_examples=300, deadline=None)
@given(
    inputs=batched_inputs(),
    seed=st.integers(0, 2**32),
    n_trials=st.integers(1, 40),
    batch=st.integers(1, 9),
)
def test_batched_engine_matches_run_campaign(inputs, seed, n_trials, batch):
    assert_engines_agree(inputs, seed, n_trials, batch)


def test_batched_vdmc_adds_each_dwell():
    # With the shipped law no tier clears after more than three dwells, and
    # up to three, adding and multiplying agree in every bit. Under this law,
    # tier 0 alone decides: 12 dwells of 200/12 s add up to 199.99999999999997 s,
    # though 12 * (200/12) == 200, so the point clears a rung later.
    config = CampaignConfig(start_power_dbm=22.0, dwell_s=200 / 12)
    with patch.object(attenuators, "VDMC_TIER_OFFSETS_DB", (-8.0, 50.0, 50.0)):
        assert_engines_agree((VDMC, VDMC_PROFILE, 53.0, config, LINK_20M), 11, 20, 7)


def batched_peak_growth(klass):
    """tracemalloc peak of a summary-only monte_carlo at 20000 trials, less
    the peak at 2000."""
    def peak_bytes(n_trials):
        tracemalloc.start()
        try:
            monte_carlo(CampaignConfig(), klass, n_trials=n_trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak_bytes(20000) - peak_bytes(2000)


def test_batched_memory_does_not_grow_with_trials():
    # Only the trial seeds and the successes' two float lists grow, by
    # ~0.5 MiB over these 18000 trials; arrays over all trials and rungs at
    # once would add ~35 MiB.
    assert batched_peak_growth(AttenuatorClass.FIXED) < 2 * 2**20


def test_batched_vdmc_memory_does_not_grow_with_trials():
    # ~0.85 MiB: VDMC succeeds in about 70% of trials, so its two float
    # lists are longer
    assert batched_peak_growth(AttenuatorClass.VDMC_VOA) < 2 * 2**20
