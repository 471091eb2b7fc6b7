import gc
import weakref

import pytest

from attenattack.attenuators import AttenuatorClass, Fate, new_attenuator
from attenattack.campaign import (
    CampaignConfig,
    CampaignOutcome,
    check_fuse,
    monte_carlo,
    run_campaign,
    trial_seeds,
)
from attenattack.fiber import FiberLink, LaserSource


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
