import json
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attenattack import _left_sum, attenuators, campaign, cli
from attenattack.attenuators import (
    DEFAULT_PROFILES,
    DEFAULT_SETPOINTS,
    SETPOINT_RANGES,
    AttenuatorClass,
    Fate,
    new_attenuator,
)
from attenattack.campaign import (
    STEP_EVENTS,
    CampaignConfig,
    CampaignOutcome,
    MonteCarloSummary,
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
        # the fuse step is not exposed: it holds the step before's readout,
        # for the fixed specimen a thermal drop that no cool-down undid
        fixed_seed = find_seed(AttenuatorClass.FIXED, Fate.SUCCESS, 25.0)
        for klass, seed, cfg in [
            (AttenuatorClass.MANUAL_VOA, 0, CampaignConfig(connectorized_output=True)),
            (AttenuatorClass.FIXED, fixed_seed, CampaignConfig(
                connectorized_output=True, success_delta_db=-20.0, cooldown_s=0.0)),
        ]:
            state = new_attenuator(klass, None, None, seed=seed)
            result = run_campaign(cfg, state, LINK_20M, LASER)
            assert result.outcome is CampaignOutcome.FIBER_FUSE_DOS
            *_, previous, fuse = result.steps
            assert fuse.event == "FuseTrip"
            assert fuse.power_w_delivered >= 4.5
            held = previous.attenuation_after_db
            assert fuse.attenuation_before_db == held
            assert fuse.attenuation_immediate_db == held
            assert fuse.attenuation_after_db == held
            assert fuse.delta_db == 0.0
            assert fuse.duration_s == 0.0
            assert result.final_delta_db == held - result.baseline_db
        assert held < result.baseline_db  # the fixed specimen held a drop


def summary_of(results):
    """The MonteCarloSummary of run_campaign's results, taken as monte_carlo
    takes it: the rate of each outcome, and each mean as sum / len in trial
    order, added left to right."""
    n = len(results)
    outcomes = [r.outcome for r in results]
    won = [r for r in results if r.outcome is CampaignOutcome.SUCCESS]
    deltas = [r.final_delta_db for r in won]
    powers = [r.attack_power_dbm for r in won]
    return MonteCarloSummary(
        n_trials=n,
        success_rate=outcomes.count(CampaignOutcome.SUCCESS) / n,
        critical_failure_rate=outcomes.count(CampaignOutcome.CRITICAL_FAILURE) / n,
        inconclusive_rate=outcomes.count(CampaignOutcome.INCONCLUSIVE) / n,
        fiber_fuse_rate=outcomes.count(CampaignOutcome.FIBER_FUSE_DOS) / n,
        mean_success_delta_db=_left_sum(deltas) / len(deltas) if deltas else None,
        mean_attack_threshold_dbm=_left_sum(powers) / len(powers) if powers else None,
    )


def test_left_sum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum, as the built-in
    # sum is from Python 3.12, would give 1.0
    assert _left_sum([1e16, 1.0, -1e16]) == 0.0
    assert _left_sum([]) == 0


class TestMonteCarlo:
    def test_single_trial_matches_campaign(self):
        cfg = CampaignConfig()
        summary = monte_carlo(
            cfg, AttenuatorClass.MEMS_VOA, setpoint_db=30.0, n_trials=1, seed=11
        )
        state = new_attenuator(
            AttenuatorClass.MEMS_VOA, None, 30.0, seed=trial_seeds(11, 1)[0]
        )
        direct = run_campaign(cfg, state, LINK_20M, LASER)
        assert summary == summary_of([direct])
        rates = [
            summary.success_rate,
            summary.critical_failure_rate,
            summary.inconclusive_rate,
            summary.fiber_fuse_rate,
        ]
        assert rates.count(1.0) == 1 and rates.count(0.0) == 3

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

    @pytest.mark.parametrize("n_trials", [0, campaign.MAX_TRIALS + 1, 10**15, 10**30])
    def test_n_trials_validated(self, n_trials):  # before any seed is drawn
        with patch.object(campaign, "trial_seeds", side_effect=AssertionError("seeds drawn")):
            with pytest.raises(ValueError, match=rf"\[1, {campaign.MAX_TRIALS}\]"):
                monte_carlo(CampaignConfig(), AttenuatorClass.FIXED, n_trials=n_trials)


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
def batched_inputs(draw, classes=BATCHED_CLASSES):
    """(class, profile, setpoint, config, link): a standard campaign of one
    of `classes`, with each input now and then at an edge."""
    klass = draw(st.sampled_from(classes))
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
            usually(default.insertion_loss_floor_db, [0.0, 25.0, 40.0, 80.0], 0.0, 80.0)
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
    profile = default._replace(**overrides)

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
        # above every blocked rise (fixed 20-35 dB, MEMS up to 74 dB), so
        # that destruction alone ends a campaign
        failure_delta_db=draw(st.sampled_from([3.0, 3.0, 50.0])),
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
    """The engine gives the summary and, rendered, each trial's per-trial
    JSON document that run_campaign gives, or fails as it fails; a
    summary-only run gives the same summary. `batch` seeds are computed at
    once."""
    klass, profile, setpoint, config, link = inputs
    seeds = trial_seeds(seed, n_trials)
    args = (config, klass, profile, setpoint, n_trials, seed, link, LASER)
    with patch.object(campaign, "_BATCH_TRIALS", batch):
        try:
            expected = [
                run_campaign(config, new_attenuator(klass, profile, setpoint, seed=s), link, LASER)
                for s in seeds
            ]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                list(campaign._trials(config, klass, profile, setpoint, seed, n_trials, link, LASER))
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                monte_carlo(*args)
            return
        trials = []
        observed = monte_carlo(*args, on_trial=trials.append)
        summary_only = monte_carlo(*args)
    assert [trial.seed for trial in trials] == seeds
    render = cli._trial_renderer(config, klass, setpoint)
    assert list(map(render, trials)) == [
        cli._json(result.to_json_dict(config), 2) for result in expected
    ]
    assert observed == summary_of(expected)
    assert summary_only == observed


# a fixed profile that could draw a drop <= 0: every specimen is rejected
@example(
    inputs=(
        AttenuatorClass.FIXED,
        DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(
            success_probability=1.0, failure_probability=0.0, success_delta_db_mean=-0.1,
            success_delta_db_spread=0.5,
        ),
        25.0, CampaignConfig(), LINK_20M,
    ),
    seed=0, n_trials=20, batch=3,
)
# a fixed profile whose attack threshold is 0.0 W: every specimen is rejected
@example(
    inputs=(
        AttenuatorClass.FIXED,
        DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(
            attack_threshold_dbm=-4000.0, failure_threshold_dbm=37.0
        ),
        25.0, CampaignConfig(), LINK_20M,
    ),
    seed=11, n_trials=5, batch=2,
)
# the fuse trips on the first rung, for three classes
@example(
    inputs=(
        AttenuatorClass.MEMS_VOA, DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA], 30.0,
        CampaignConfig(connectorized_output=True, fuse_threshold_w=0.1), LINK_20M,
    ),
    seed=1, n_trials=5, batch=2,
)
@example(
    inputs=(
        AttenuatorClass.FIXED, DEFAULT_PROFILES[AttenuatorClass.FIXED], 25.0,
        CampaignConfig(connectorized_output=True, fuse_threshold_w=0.1), LINK_20M,
    ),
    seed=15, n_trials=5, batch=2,
)
@example(
    inputs=(
        VDMC, VDMC_PROFILE, 53.0,
        CampaignConfig(connectorized_output=True, fuse_threshold_w=0.1), LINK_20M,
    ),
    seed=16, n_trials=5, batch=2,
)
# fixed: the fuse step holds the readout of a rung whose thermal drop no
# cool-down undid, and which did not end the campaign
@example(
    inputs=(
        AttenuatorClass.FIXED, DEFAULT_PROFILES[AttenuatorClass.FIXED], 25.0,
        CampaignConfig(connectorized_output=True, success_delta_db=-20.0, cooldown_s=0.0),
        LINK_20M,
    ),
    seed=17, n_trials=30, batch=7,
)
# a failure threshold above every blocked rise: destruction alone ends a
# campaign
@example(
    inputs=(
        AttenuatorClass.FIXED, DEFAULT_PROFILES[AttenuatorClass.FIXED], 25.0,
        CampaignConfig(failure_delta_db=50.0), LINK_20M,
    ),
    seed=18, n_trials=20, batch=7,
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
    inputs=(VDMC, VDMC_PROFILE._replace(success_probability=0.0), 53.0, CampaignConfig(), LINK_20M),
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
# fixed: temporary drops that recover below the success threshold, and
# critical failures
@example(
    inputs=(
        AttenuatorClass.FIXED, DEFAULT_PROFILES[AttenuatorClass.FIXED], 25.0,
        CampaignConfig(cooldown_s=300.0), LINK_20M,
    ),
    seed=12, n_trials=30, batch=7,
)
# MEMS: in the taper below the damage band, a partial drop that does not end
# the campaign; the drop is reported on its first rung only
@example(
    inputs=(
        AttenuatorClass.MEMS_VOA,
        DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA]._replace(
            success_probability=1.0, failure_probability=0.0
        ),
        20.0, CampaignConfig(success_delta_db=-20.0), LINK_20M,
    ),
    seed=13, n_trials=20, batch=7,
)
# a floor above every blocked level: a destroyed specimen reads the floor,
# as it did before exposure, and still fails critically
@example(
    inputs=(
        AttenuatorClass.FIXED,
        DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(
            insertion_loss_floor_db=80.0, success_probability=0.0, failure_probability=1.0
        ),
        25.0, CampaignConfig(), LINK_20M,
    ),
    seed=19, n_trials=10, batch=4,
)
@example(
    inputs=(
        AttenuatorClass.MEMS_VOA,
        DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA]._replace(insertion_loss_floor_db=80.0),
        30.0, CampaignConfig(), LINK_20M,
    ),
    seed=20, n_trials=20, batch=7,
)
# a whole-number floor, as a JSON config gives it, above the setpoint
@example(
    inputs=(VDMC, VDMC_PROFILE._replace(insertion_loss_floor_db=60), 53.0, CampaignConfig(),
            LINK_20M),
    seed=14, n_trials=5, batch=2,
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


# What each step event says of the step's readouts, given the profile's
# insertion-loss floor. A temporary drop may show none: the floor can hide
# it, and with no cool-down a capped drop stays where the rung before left
# it. A critical failure raises the readout unless the floor holds it.
STEP_EVENT_RULES = {
    "PermanentDrop": lambda step, floor: step["delta_db"] < 0,
    "TemporaryDrop": lambda step, floor: (
        step["attenuation_immediate_db"] <= step["attenuation_before_db"]
    ),
    "CriticalFailure": lambda step, floor: (
        step["attenuation_after_db"] > step["attenuation_before_db"]
        or step["attenuation_after_db"] == step["attenuation_before_db"] == floor
    ),
    "FuseTrip": lambda step, floor: step["delta_db"] == 0 and step["duration_s"] == 0,
    "NoChange": lambda step, floor: step["delta_db"] == 0,
}


# MEMS below its damage band: the drop is written, and none of it shows
@example(
    inputs=(AttenuatorClass.MEMS_VOA, DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA], 5.0,
            CampaignConfig(), LINK_20M),
    seed=1, n_trials=40,
)
# fixed: with no cool-down a capped thermal drop holds from rung to rung
@example(
    inputs=(AttenuatorClass.FIXED, DEFAULT_PROFILES[AttenuatorClass.FIXED], 25.0,
            CampaignConfig(cooldown_s=0.0), LINK_20M),
    seed=1, n_trials=40,
)
@settings(max_examples=200, deadline=None)
@given(inputs=batched_inputs(), seed=st.integers(0, 2**32), n_trials=st.integers(1, 40))
def test_step_events_match_readouts(inputs, seed, n_trials):
    assert set(STEP_EVENT_RULES) == set(STEP_EVENTS)
    klass, profile, setpoint, config, link = inputs
    render = cli._trial_renderer(config, klass, setpoint)
    steps = []

    def log(trial) -> None:  # the steps a --per-trial run logs
        steps.extend(json.loads(render(trial))["steps"])

    try:
        monte_carlo(config, klass, profile, setpoint, n_trials, seed, link, LASER, on_trial=log)
    except ValueError:  # inputs no specimen or ladder may have
        return
    for step in steps:
        assert STEP_EVENT_RULES[step["event"]](step, profile.insertion_loss_floor_db), step


@example(master=2**128, offset=0, n_trials=1)
@example(master=2**130 + 5, offset=10, n_trials=41)
@example(master=0, offset=campaign.MAX_TRIALS - 1, n_trials=1)
@settings(max_examples=200, deadline=None)
@given(
    # masters of 2**128 and above have more entropy words than the pool
    master=st.integers(0, 2**64 - 1) | st.integers(2**128, 2**200),
    offset=st.integers(0, 600) | st.integers(0, campaign.MAX_TRIALS),
    n_trials=st.integers(1, 300),
)
def test_trial_seeds_from_an_offset_are_the_full_arrays_tail(master, offset, n_trials):
    seeds = trial_seeds(master, n_trials, offset)
    expected = np.random.SeedSequence(master).generate_state(offset + n_trials, dtype=np.uint64)
    assert all(type(seed) is int for seed in seeds)
    assert seeds == expected[offset:].tolist()


@pytest.mark.parametrize("n_trials", [1, 256, 600])
@pytest.mark.parametrize("klass", list(AttenuatorClass))
def test_monte_carlo_checks_its_inputs_once(klass, n_trials):
    checks = patch.object(attenuators, "specimen_inputs", wraps=attenuators.specimen_inputs)
    builds = patch.object(campaign, "new_attenuator", wraps=campaign.new_attenuator)
    with checks as check, builds as build:
        monte_carlo(CampaignConfig(), klass, n_trials=n_trials, seed=5)
    assert check.call_count == 1
    assert build.call_count <= 1


# an observer that keeps nothing: the engine keeps no trial past its call
@pytest.mark.parametrize("on_trial", [None, lambda trial: None], ids=["summary", "observed"])
@pytest.mark.parametrize(
    "klass", [AttenuatorClass.FIXED, AttenuatorClass.MEMS_VOA, AttenuatorClass.VDMC_VOA]
)
def test_batched_memory_does_not_grow_with_trials(klass, on_trial):
    def peak_bytes(n_trials):
        """tracemalloc peak of a monte_carlo run."""
        tracemalloc.start()
        try:
            monte_carlo(CampaignConfig(), klass, n_trials=n_trials, seed=1, on_trial=on_trial)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Each block of trials computes its own seeds, and no trial outlives its
    # observer's call, so nothing the run keeps grows from 1000 to 10000
    # trials: the peak grew 80-112 B, or ~134 KB for a vdmc-voa run in a
    # fresh process, while the interpreter's free lists still fill. One seed
    # kept per trial as a Python int grew it 400-540 KB.
    peak_bytes(1000)  # imports and first-use allocations
    assert peak_bytes(10000) - peak_bytes(1000) < 2**18
