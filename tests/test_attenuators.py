import copy
import json
import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from attenattack import attenuators
from attenattack.attenuators import (
    AttenuatorClass,
    DEFAULT_PROFILES,
    DamageProfile,
    Fate,
    OutcomeKind,
    ProfileConfigError,
    apply_exposure,
    attenuation,
    cool_down,
    load_profiles,
    mems_voltage_to_attenuation,
    new_attenuator,
    profile_from_dict,
    profile_to_dict,
)


def find_seed(klass, fate, setpoint=None, limit=200):
    for seed in range(limit):
        st_ = new_attenuator(klass, None, setpoint, seed=seed)
        if st_.fate is fate:
            return seed
    raise AssertionError(f"no seed with fate {fate} in range({limit})")


def vdmc_seed_with_threshold_below(p_dbm, setpoint=53.0, limit=200):
    """Seed whose sampled attack law is cleared by a 10 s burst at p_dbm."""
    for seed in range(limit):
        st_ = new_attenuator(AttenuatorClass.VDMC_VOA, None, setpoint, seed=seed)
        if st_.sampled_attack_threshold_dbm <= p_dbm:
            st2, out = apply_exposure(st_, 10 ** (p_dbm / 10) / 1000, 10.0)
            if out.kind is OutcomeKind.PERMANENT_DROP:
                return seed
    raise AssertionError("no suitable VDMC seed found")


class TestConstruction:
    def test_fixed_initial_attenuation(self):
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=1)
        assert attenuation(state) == 25.0

    def test_manual_initial_attenuation(self):
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=5)
        assert attenuation(state) == 31.0

    def test_determinism(self):
        a = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=9)
        b = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=9)
        assert a == b

    @pytest.mark.parametrize(
        "klass,setpoint",
        [
            (AttenuatorClass.MANUAL_VOA, 1.0),
            (AttenuatorClass.MANUAL_VOA, 81.0),
            (AttenuatorClass.FIXED, 20.0),
            (AttenuatorClass.MEMS_VOA, 40.0),
            (AttenuatorClass.VDMC_VOA, -1.0),
        ],
    )
    def test_out_of_range_setpoint_rejected(self, klass, setpoint):
        with pytest.raises(ValueError):
            new_attenuator(klass, None, setpoint, seed=0)

    def test_sampled_thresholds_near_profile_means(self):
        for seed in range(50):
            state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
            assert abs(state.sampled_attack_threshold_dbm - 36.2) <= 1.0
            assert (
                state.sampled_failure_threshold_dbm
                >= state.sampled_attack_threshold_dbm
            )


class TestManualVoa:
    def test_max_power_no_change(self):
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 31.0, seed=3)
        state, out = apply_exposure(state, 9.0, 1200.0)
        assert out.kind is OutcomeKind.NO_CHANGE
        assert attenuation(state) == 31.0

    @given(st.lists(st.floats(min_value=0.0, max_value=9.0), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_any_exposure(self, powers):
        state = new_attenuator(AttenuatorClass.MANUAL_VOA, None, 40.0, seed=0)
        for p in powers:
            state, _ = apply_exposure(state, p, 10.0)
        assert attenuation(state) == 40.0

    def test_draws_nothing(self):
        # nothing reads a manual specimen's draws, so even finite profile
        # thresholds leave its sampled ones inf
        profile = DEFAULT_PROFILES[AttenuatorClass.MANUAL_VOA]._replace(
            attack_threshold_dbm=30.0, failure_threshold_dbm=31.0, success_probability=1.0,
        )
        with patch.object(attenuators, "Generator", side_effect=AssertionError("drawn")):
            state = new_attenuator(AttenuatorClass.MANUAL_VOA, profile, 31.0, seed=3)
        assert state.sampled_attack_threshold_dbm == state.sampled_failure_threshold_dbm == math.inf
        assert state.fate is Fate.RESISTANT


class TestFixed:
    def test_temporary_drop_then_recovery(self):
        seed = find_seed(AttenuatorClass.FIXED, Fate.SUCCESS, 25.0)
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=seed)
        state, out = apply_exposure(state, 4.0, 300.0)
        assert out.kind is OutcomeKind.TEMPORARY_DROP
        assert attenuation(state) == pytest.approx(23.0, abs=0.5)
        recovered = cool_down(state, 600.0)
        assert attenuation(recovered) == pytest.approx(25.0, abs=0.1)

    def test_cooldown_zero_elapsed_is_identity(self):
        seed = find_seed(AttenuatorClass.FIXED, Fate.SUCCESS, 25.0)
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=seed)
        state, _ = apply_exposure(state, 4.0, 60.0)
        same = cool_down(state, 0.0)
        assert same.thermal_offset_db == state.thermal_offset_db

    def test_exponential_decay_constant(self):
        seed = find_seed(AttenuatorClass.FIXED, Fate.SUCCESS, 25.0)
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=seed)
        state, _ = apply_exposure(state, 4.0, 60.0)
        tau = state.profile.recovery_tau_s
        later = cool_down(state, tau)
        assert later.thermal_offset_db == pytest.approx(
            state.thermal_offset_db / math.e, rel=1e-9
        )

    def test_critical_failure_blocks(self):
        seed = find_seed(AttenuatorClass.FIXED, Fate.FAILURE, 25.0)
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=seed)
        state, out = apply_exposure(state, 8.0, 10.0)  # 39 dBm, above any threshold
        assert out.kind is OutcomeKind.CRITICAL_FAILURE
        assert out.delta_db >= 20.0
        assert attenuation(state) >= 45.0
        with pytest.raises(ValueError):
            apply_exposure(state, 1.0, 10.0)

    def test_below_threshold_no_change(self):
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=0)
        state, out = apply_exposure(state, 0.5, 60.0)  # 27 dBm
        assert out.kind is OutcomeKind.NO_CHANGE
        assert attenuation(state) == 25.0

    def test_never_permanent_drop(self):
        # thermal drop always decays away; no negative offset survives
        for seed in range(20):
            state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=seed)
            try:
                state, _ = apply_exposure(state, 4.0, 60.0)
            except ValueError:
                continue
            if not state.destroyed:
                assert attenuation(cool_down(state, 1e6)) == pytest.approx(25.0)

    @pytest.mark.parametrize(
        "mean, spread, success_p",
        [(-0.1, 0.5, 1.0), (-0.1, 0.5, 0.05), (-0.9, 0.5, 1.0), (-0.2, 0.5, 4 / 12)],
    )
    def test_profile_that_can_draw_no_drop_rejected_for_every_seed(self, mean, spread, success_p):
        # the drop is clipped at |mean| - 1.8 spread, here <= 0 dB
        profile = DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(
            success_delta_db_mean=mean, success_delta_db_spread=spread,
            success_probability=success_p, failure_probability=0.0,
        )
        for seed in range(30):
            with pytest.raises(ValueError, match="success_delta_db_mean.*success_delta_db_spread"):
                new_attenuator(AttenuatorClass.FIXED, profile, 25.0, seed=seed)

    @pytest.mark.parametrize("attack", [-4000.0, -1e308])
    def test_profile_whose_threshold_underflows_rejected_for_every_seed(self, attack):
        # the thermal drop scales by power over the threshold's watts, here 0.0
        profile = DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(attack_threshold_dbm=attack)
        for seed in range(30):
            with pytest.raises(ValueError, match="underflows to 0 W"):
                new_attenuator(AttenuatorClass.FIXED, profile, 25.0, seed=seed)

    def test_threshold_of_denormal_watts_accepted(self):
        # -3200 dBm is about 1e-323 W: the heat scale saturates at its cap
        profile = DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(attack_threshold_dbm=-3200.0)
        for seed in range(10):
            state = new_attenuator(AttenuatorClass.FIXED, profile, 25.0, seed=seed)
            _, out = apply_exposure(state, 4.0, 60.0)
            assert out.kind in (OutcomeKind.TEMPORARY_DROP, OutcomeKind.CRITICAL_FAILURE)

    def test_profile_without_successes_may_draw_any_drop(self):
        profile = DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(
            success_delta_db_mean=-0.1, success_delta_db_spread=0.5, success_probability=0.0,
        )
        assert new_attenuator(AttenuatorClass.FIXED, profile, 25.0, seed=1).fate is not Fate.SUCCESS


class TestMems:
    def test_baseline_monotone_in_voltage(self):
        values = [mems_voltage_to_attenuation(v) for v in [0, 2, 5, 10, 15]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_permanent_drop_in_damaged_band(self):
        seed = find_seed(AttenuatorClass.MEMS_VOA, Fate.SUCCESS, 30.0)
        state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
        state, out = apply_exposure(state, 6.0, 10.0)
        assert out.kind is OutcomeKind.PERMANENT_DROP
        assert out.delta_db <= -1.0
        # damaged at the setpoint: strictly below the 30 dB baseline
        assert attenuation(state) < 30.0
        # low-attenuation settings are outside the damaged band
        low_v = 1.0
        assert attenuation(state, low_v) == pytest.approx(
            mems_voltage_to_attenuation(low_v)
        )

    def test_damage_is_permanent(self):
        seed = find_seed(AttenuatorClass.MEMS_VOA, Fate.SUCCESS, 30.0)
        state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
        state, _ = apply_exposure(state, 6.0, 10.0)
        damaged = attenuation(state)
        assert attenuation(cool_down(state, 86400.0)) == pytest.approx(damaged)

    def test_catastrophic_failure(self):
        seed = find_seed(AttenuatorClass.MEMS_VOA, Fate.FAILURE, 30.0)
        state = new_attenuator(AttenuatorClass.MEMS_VOA, None, 30.0, seed=seed)
        state, out = apply_exposure(state, 7.0, 10.0)  # 38.5 dBm
        assert out.kind is OutcomeKind.CRITICAL_FAILURE
        assert attenuation(state) >= 70.0


class TestVdmc:
    def test_optimal_exposure_damages_and_is_local(self):
        seed = vdmc_seed_with_threshold_below(34.47)
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
        state, out = apply_exposure(state, 2.8, 10.0)
        assert out.kind is OutcomeKind.PERMANENT_DROP
        assert out.delta_db <= -1.0
        assert attenuation(state, 53.0) < 53.0
        # curve restored at half a dB-of-setting away
        assert attenuation(state, 53.5) == pytest.approx(53.5)
        assert attenuation(state, 52.5) == pytest.approx(52.5)

    def test_insertion_loss_floor(self):
        seed = vdmc_seed_with_threshold_below(34.47, setpoint=3.0)
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 3.0, seed=seed)
        state, _ = apply_exposure(state, 2.8, 10.0)
        for setting in [2.5, 2.8, 3.0, 3.2, 3.5]:
            assert attenuation(state, setting) >= 1.7

    def test_cumulative_low_power_exposure(self):
        # 2 W bursts only accumulate to damage after ~200 s total
        seed = vdmc_seed_with_threshold_below(34.47)
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
        p_w = 10 ** ((state.sampled_attack_threshold_dbm - 1.45) / 10) / 1000
        kinds = []
        for _ in range(20):
            state, out = apply_exposure(state, p_w, 10.0)
            kinds.append(out.kind)
        assert OutcomeKind.PERMANENT_DROP in kinds
        idx = kinds.index(OutcomeKind.PERMANENT_DROP)
        assert idx >= 19  # 200 s of accumulated bursts
        assert all(k is OutcomeKind.NO_CHANGE for k in kinds[:idx])

    def test_below_law_never_damages(self):
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=0)
        p_w = 10 ** ((state.sampled_attack_threshold_dbm - 2.0) / 10) / 1000
        for _ in range(50):
            state, out = apply_exposure(state, p_w, 10.0)
            assert out.kind is OutcomeKind.NO_CHANGE
        assert attenuation(state, 53.0) == 53.0

    def test_escalating_power_deepens_with_diminishing_returns(self):
        seed = vdmc_seed_with_threshold_below(34.47)
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
        state, first = apply_exposure(state, 2.8, 10.0)
        a1 = attenuation(state, 53.0)
        state, second = apply_exposure(state, 4.5, 10.0)
        a2 = attenuation(state, 53.0)
        state, third = apply_exposure(state, 6.8, 10.0)
        a3 = attenuation(state, 53.0)
        assert a2 < a1 and a3 < a2
        assert (a1 - a2) > (a2 - a3)  # diminishing returns
        assert abs(second.delta_db) < abs(first.delta_db)

    def test_damage_never_heals(self):
        seed = vdmc_seed_with_threshold_below(34.47)
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
        values = []
        for p in [2.8, 3.5, 4.5, 5.5, 6.8]:
            state, _ = apply_exposure(state, p, 10.0)
            values.append(attenuation(state, 53.0))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_floor_holds_for_any_seed(self, seed):
        state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 2.0, seed=seed)
        for p in [2.0, 2.8, 4.0, 6.8]:
            state, _ = apply_exposure(state, p, 10.0)
        for setting in [1.5, 1.8, 2.0, 2.3, 2.6]:
            assert attenuation(state, setting) >= 1.7


class TestExposureValidation:
    def test_bad_arguments(self):
        state = new_attenuator(AttenuatorClass.FIXED, None, 25.0, seed=0)
        with pytest.raises(ValueError):
            apply_exposure(state, -1.0, 10.0)
        with pytest.raises(ValueError):
            apply_exposure(state, 1.0, 0.0)
        with pytest.raises(ValueError):
            cool_down(state, -5.0)

    @pytest.mark.parametrize("klass", list(AttenuatorClass))
    def test_nan_arguments_rejected(self, klass):
        # NaN fails every comparison, so a check such as `power_w < 0` passes it
        state = new_attenuator(klass, seed=3)
        with pytest.raises(ValueError, match="power_w must be >= 0, got nan"):
            apply_exposure(state, math.nan, 10.0)
        with pytest.raises(ValueError, match="duration_s must be > 0, got nan"):
            apply_exposure(state, 1.0, math.nan)
        with pytest.raises(ValueError, match="elapsed_s must be >= 0, got nan"):
            cool_down(state, math.nan)

    def test_trajectory_determinism(self):
        def run(seed):
            state = new_attenuator(AttenuatorClass.VDMC_VOA, None, 53.0, seed=seed)
            trace = []
            for p in [1.0, 2.0, 2.8, 4.0]:
                state, out = apply_exposure(state, p, 10.0)
                state = cool_down(state, 10.0)
                trace.append((out.kind, out.delta_db, attenuation(state)))
            return trace

        assert run(17) == run(17)

    @given(
        klass=st.sampled_from(list(AttenuatorClass)),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        exposures=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=9.0),
                st.sampled_from([10.0, 40.0, 200.0]),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_operations_never_mutate_their_input(self, klass, seed, exposures):
        state = new_attenuator(klass, seed=seed)
        snapshots = []
        for power_w, duration_s in exposures:
            if state.destroyed:
                break
            snapshots.append((state, copy.deepcopy(state)))
            exposed, _ = apply_exposure(state, power_w, duration_s)
            snapshots.append((exposed, copy.deepcopy(exposed)))
            state = cool_down(exposed, 10.0)
        # no later operation changed any earlier state, the VDMC point included
        for seen, snapshot in snapshots:
            assert seen == snapshot
            # and none could: no field of a state can be assigned
            for name in type(seen).__annotations__:
                with pytest.raises(AttributeError):
                    setattr(seen, name, getattr(seen, name))

    @pytest.mark.parametrize("destroyed", [False, True], ids=["intact", "destroyed"])
    @pytest.mark.parametrize(
        "klass, lo, hi",
        [
            pytest.param(AttenuatorClass.MANUAL_VOA, 1.5, 80.0, id="manual-voa"),
            pytest.param(AttenuatorClass.FIXED, 25.0, 25.0, id="fixed"),
            pytest.param(AttenuatorClass.MEMS_VOA, 0.0, 15.0, id="mems-voa"),  # volts, not dB
            pytest.param(AttenuatorClass.VDMC_VOA, 0.0, 80.0, id="vdmc-voa"),
        ],
    )
    def test_readout_control_outside_class_range_rejected(self, klass, lo, hi, destroyed):
        state = new_attenuator(klass)
        if destroyed and klass in (AttenuatorClass.FIXED, AttenuatorClass.MEMS_VOA):
            failing = new_attenuator(klass, seed=find_seed(klass, Fate.FAILURE))
            state, _ = apply_exposure(failing, 9.0, 10.0)
        elif destroyed:  # no exposure destroys one, but the rule is the same
            state = state._replace(destroyed=True)
        assert state.destroyed is destroyed
        for control in (lo - 0.5, hi + 0.5, math.nan, -math.inf, math.inf):
            with pytest.raises(ValueError, match="out of range"):
                attenuation(state, control)
        assert attenuation(state, lo) >= 0 and attenuation(state, hi) >= 0


class TestProfiles:
    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            DamageProfile(
                attack_threshold_dbm=37.0,
                failure_threshold_dbm=34.0,
                success_delta_db_mean=-1.0,
                success_delta_db_spread=0.1,
                success_probability=0.5,
                failure_probability=0.1,
            )
        with pytest.raises(ValueError):
            DamageProfile(
                attack_threshold_dbm=34.0,
                failure_threshold_dbm=37.0,
                success_delta_db_mean=-1.0,
                success_delta_db_spread=0.1,
                success_probability=0.7,
                failure_probability=0.7,
            )

    @pytest.mark.parametrize(
        "name", DamageProfile._fields  # each a float
    )
    def test_nan_field_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            DEFAULT_PROFILES[AttenuatorClass.FIXED]._replace(**{name: math.nan})

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in DamageProfile._fields
            for value in [None, "abc", True, False, [1.0], {}]
            # a null threshold means none within reach
            if not (value is None and name.endswith("threshold_dbm"))
        ],
    )
    def test_field_that_is_not_a_number_rejected(self, name, value):
        base = DEFAULT_PROFILES[AttenuatorClass.MANUAL_VOA]
        with pytest.raises(ProfileConfigError, match=f"{name} must be a number"):
            profile_from_dict(base, {name: value})
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            base._replace(**{name: value})

    def test_whole_numbers_held_as_floats(self):
        # a JSON config writes 60.0 as 60; both engines must then write 60.0
        profile = profile_from_dict(
            DEFAULT_PROFILES[AttenuatorClass.VDMC_VOA],
            {"insertion_loss_floor_db": 60, "success_probability": 1},
        )
        assert type(profile.insertion_loss_floor_db) is float
        assert type(profile.success_probability) is float
        assert attenuation(new_attenuator(AttenuatorClass.VDMC_VOA, profile)) == 60.0

    @pytest.mark.parametrize("floor", [-0.5, 80.5, 1e308, math.inf])
    def test_floor_outside_control_ranges_rejected(self, floor):
        vdmc = DEFAULT_PROFILES[AttenuatorClass.VDMC_VOA]
        message = r"insertion_loss_floor_db must be finite and in \[0, 80\] dB"
        with pytest.raises(ValueError, match=message):
            vdmc._replace(insertion_loss_floor_db=floor)

    @pytest.mark.parametrize("klass", list(AttenuatorClass))
    def test_minus_infinite_attack_threshold_rejected(self, klass):
        # only +inf means no threshold within reach; -inf once meant the same,
        # though -1e308 means damage at any power
        with pytest.raises(ValueError, match="attack_threshold_dbm must not be -inf"):
            DEFAULT_PROFILES[klass]._replace(attack_threshold_dbm=-math.inf)

    @pytest.mark.parametrize("floor", [0.0, 80.0])
    def test_floor_at_the_ends_of_its_range_accepted(self, floor):
        vdmc = DEFAULT_PROFILES[AttenuatorClass.VDMC_VOA]
        profile = vdmc._replace(insertion_loss_floor_db=floor)
        assert attenuation(new_attenuator(AttenuatorClass.VDMC_VOA, profile)) == max(53.0, floor)

    def test_whole_number_beyond_float_range_rejected(self):
        with pytest.raises(ProfileConfigError, match="failure_threshold_dbm is beyond the float"):
            profile_from_dict(
                DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA], {"failure_threshold_dbm": 10**400}
            )

    def test_infinite_thresholds_accepted(self):
        manual = DEFAULT_PROFILES[AttenuatorClass.MANUAL_VOA]
        assert manual._replace().attack_threshold_dbm == math.inf
        assert profile_from_dict(manual, {"attack_threshold_dbm": None}) == manual

    def test_defaults_match_sample_populations(self):
        fixed = DEFAULT_PROFILES[AttenuatorClass.FIXED]
        assert fixed.success_probability == pytest.approx(4 / 12)
        assert fixed.failure_probability == pytest.approx(6 / 12)
        mems = DEFAULT_PROFILES[AttenuatorClass.MEMS_VOA]
        assert (mems.attack_threshold_dbm, mems.failure_threshold_dbm) == (36.2, 36.6)
        vdmc = DEFAULT_PROFILES[AttenuatorClass.VDMC_VOA]
        assert vdmc.failure_probability == 0.0
        assert vdmc.insertion_loss_floor_db == 1.7

    def test_round_trip_dict(self):
        for profile in DEFAULT_PROFILES.values():
            assert profile_from_dict(profile, {}) == profile
        assert profile_to_dict(DEFAULT_PROFILES[AttenuatorClass.MANUAL_VOA])[
            "attack_threshold_dbm"
        ] is None

    def test_load_overrides(self, tmp_path):
        cfg = tmp_path / "profiles.json"
        cfg.write_text(
            json.dumps({"profiles": {"mems-voa": {"attack_threshold_dbm": 35.0}}})
        )
        profiles = load_profiles(str(cfg))
        assert profiles[AttenuatorClass.MEMS_VOA].attack_threshold_dbm == 35.0
        # untouched classes keep defaults
        assert profiles[AttenuatorClass.FIXED] == DEFAULT_PROFILES[AttenuatorClass.FIXED]

    @pytest.mark.parametrize(
        "doc",
        [
            {"profiles": {"mems-voa": {"bogus_field": 1}}},
            {"profiles": {"unknown-class": {}}},
            {"profiles": {"fixed": {"success_probability": 2.0}}},
            {"profiles": {"mems-voa": {"permanent": False}}},
            {"profiles": "not-a-map"},
            {"extra": {}},
        ],
    )
    def test_schema_violations(self, tmp_path, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ProfileConfigError):
            load_profiles(str(cfg))
