"""Phenomenological damage models for four fiber-optic attenuator classes.

Each class reacts differently to high-power c.w. exposure:

* manual VOA  -- survives everything up to 9 W unchanged,
* fixed       -- temporary thermal drop in attenuation, catastrophic
                 blockage above its failure threshold,
* MEMS VOA    -- permanent drop over the high-attenuation band, or
                 catastrophic failure (>70 dB),
* VDMC VOA    -- localized permanent dip at the exposed disk position,
                 gated by a cumulative power/time law, never catastrophic.

Per-sample thresholds and damage magnitudes are drawn from seeded
distributions calibrated against measured sample populations, so large
Monte Carlo runs reproduce the observed success/failure fractions while
any single seeded sample behaves like one lab specimen.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from bisect import bisect_left
from typing import NamedTuple

from . import _checked
from ._streams import Generator
from .fiber import dbm_to_watts, watts_to_dbm

# Top of the widest control range, dB; no insertion-loss floor may exceed it.
MAX_ATTENUATION_DB = 80.0


class AttenuatorClass(enum.Enum):
    MANUAL_VOA = "manual-voa"
    FIXED = "fixed"
    MEMS_VOA = "mems-voa"
    VDMC_VOA = "vdmc-voa"


class OutcomeKind(enum.Enum):
    NO_CHANGE = "NoChange"
    TEMPORARY_DROP = "TemporaryDrop"
    PERMANENT_DROP = "PermanentDrop"
    CRITICAL_FAILURE = "CriticalFailure"


@_checked
class ExposureOutcome(NamedTuple):
    kind: OutcomeKind
    delta_db: float = 0.0

    def _check(self):
        if self.kind in (OutcomeKind.TEMPORARY_DROP, OutcomeKind.PERMANENT_DROP):
            if self.delta_db >= 0:
                raise ValueError("drop outcomes require delta_db < 0")
        if self.kind is OutcomeKind.CRITICAL_FAILURE and self.delta_db <= 0:
            raise ValueError("critical failure requires delta_db > 0")


@_checked
class DamageProfile(NamedTuple):
    """Class-level damage statistics a sample population is drawn from."""

    attack_threshold_dbm: float
    failure_threshold_dbm: float
    success_delta_db_mean: float
    success_delta_db_spread: float
    success_probability: float
    failure_probability: float
    recovery_tau_s: float = 150.0
    insertion_loss_floor_db: float = 0.0

    def _check(self):
        for name, value in zip(self._fields, self):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if isinstance(value, int):  # JSON writes whole numbers as ints
                if abs(value) > sys.float_info.max:
                    raise ValueError(f"{name} is beyond the float range")
                return self._replace(**{name: float(value)})  # checked anew
            if math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        # +inf (null in a config) means no threshold within reach; -inf
        # would mean damage at any power, which no power ladder can measure
        if self.attack_threshold_dbm == -math.inf:
            raise ValueError("attack_threshold_dbm must not be -inf")
        if self.attack_threshold_dbm > self.failure_threshold_dbm:
            raise ValueError("attack threshold must not exceed failure threshold")
        if self.success_delta_db_spread < 0:
            raise ValueError("success_delta_db_spread must be >= 0")
        for name in ("success_probability", "failure_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {p}")
        if self.success_probability + self.failure_probability > 1.0 + 1e-12:
            raise ValueError("success + failure probability must not exceed 1")
        if self.recovery_tau_s < 0:
            raise ValueError("recovery_tau_s must be >= 0")
        # a floor above every setting hides every drop, and an infinite or
        # near-max one makes readouts and their means overflow
        if not 0 <= self.insertion_loss_floor_db <= MAX_ATTENUATION_DB:
            raise ValueError(
                f"insertion_loss_floor_db must be finite and in [0, {MAX_ATTENUATION_DB:g}] dB"
            )


# Calibrated per-class defaults (sample populations: 12 fixed, 13 MEMS,
# 25 VDMC disk points, 2 manual).
DEFAULT_PROFILES: dict[AttenuatorClass, DamageProfile] = {
    AttenuatorClass.MANUAL_VOA: DamageProfile(
        attack_threshold_dbm=math.inf,
        failure_threshold_dbm=math.inf,
        success_delta_db_mean=0.0,
        success_delta_db_spread=0.0,
        success_probability=0.0,
        failure_probability=0.0,
    ),
    AttenuatorClass.FIXED: DamageProfile(
        attack_threshold_dbm=34.0,
        failure_threshold_dbm=37.2,
        success_delta_db_mean=-1.37,
        success_delta_db_spread=0.15,
        success_probability=4 / 12,
        failure_probability=6 / 12,
        recovery_tau_s=150.0,
    ),
    AttenuatorClass.MEMS_VOA: DamageProfile(
        attack_threshold_dbm=36.2,
        failure_threshold_dbm=36.6,
        success_delta_db_mean=-5.34,
        success_delta_db_spread=2.5,
        success_probability=8 / 13,
        failure_probability=4 / 13,
    ),
    AttenuatorClass.VDMC_VOA: DamageProfile(
        attack_threshold_dbm=34.5,
        failure_threshold_dbm=36.5,
        success_delta_db_mean=-9.59,
        success_delta_db_spread=3.5,
        success_probability=18 / 25,
        failure_probability=0.0,
        insertion_loss_floor_db=1.7,
    ),
}

# Per-sample thresholds scatter uniformly within +-1 dBm of the class mean.
THRESHOLD_DISPERSION_DBM = 1.0

# MEMS voltage-attenuation curve parameters.
MEMS_V_MAX = 15.0
MEMS_A_MIN = 1.0
MEMS_A_MAX = 34.0

# Control ranges, dB of attenuation.
SETPOINT_RANGES = {
    AttenuatorClass.MANUAL_VOA: (1.5, MAX_ATTENUATION_DB),
    AttenuatorClass.FIXED: (25.0, 25.0),
    AttenuatorClass.MEMS_VOA: (MEMS_A_MIN, MEMS_A_MAX),
    AttenuatorClass.VDMC_VOA: (0.0, MAX_ATTENUATION_DB),
}

# A readout's control ranges, in each class's control coordinate: volts for
# a MEMS VOA, whose setpoint range they map onto, dB otherwise.
CONTROL_RANGES = {**SETPOINT_RANGES, AttenuatorClass.MEMS_VOA: (0.0, MEMS_V_MAX)}

# Setpoint, dB, of a specimen built without one; the CLI echoes it.
DEFAULT_SETPOINTS = {
    AttenuatorClass.MANUAL_VOA: 31.0,
    AttenuatorClass.FIXED: 25.0,
    AttenuatorClass.MEMS_VOA: 30.0,
    AttenuatorClass.VDMC_VOA: 53.0,
}

# Permanent drop is concentrated in the top 30% of the attenuation range,
# tapering linearly to zero below it.
MEMS_BAND_FRACTION = 0.30
MEMS_TAPER_FRACTION = 0.15
MEMS_BLOCKED_DB = 75.0

# VDMC cumulative-exposure attack law: (min power W, required cumulative s).
# Offsets are in dB relative to the class-mean attack threshold so that the
# per-sample threshold dispersion shifts the whole law together.
VDMC_TIER_OFFSETS_DB = (-1.5, -1.1, 0.0)
VDMC_TIER_TIMES_S = (200.0, 40.0, 10.0)
VDMC_DIP_HALF_WIDTH_DB = 0.5
VDMC_DEEPEN_FACTOR = 0.3
# A damaged point deepens only at a power this much above any it saw before.
VDMC_DEEPEN_MARGIN_W = 0.4

# Fixed-attenuator thermal drop scales with power relative to the class
# attack threshold, saturating at 1.6x (strong heating regime).
FIXED_THERMAL_POWER_CAP = 1.6


class Fate(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RESISTANT = "resistant"


def mems_voltage_to_attenuation(v: float) -> float:
    """Monotone voltage-to-attenuation curve of an undamaged MEMS VOA."""
    if not 0.0 <= v <= MEMS_V_MAX:
        raise ValueError(f"MEMS control voltage out of range: {v}")
    return MEMS_A_MIN + (MEMS_A_MAX - MEMS_A_MIN) * math.sqrt(v / MEMS_V_MAX)


def mems_attenuation_to_voltage(a_db: float) -> float:
    if not MEMS_A_MIN <= a_db <= MEMS_A_MAX:
        raise ValueError(f"MEMS attenuation setpoint out of range: {a_db}")
    return MEMS_V_MAX * ((a_db - MEMS_A_MIN) / (MEMS_A_MAX - MEMS_A_MIN)) ** 2


def _truncated_normal_below(rng, mean: float, spread: float, upper: float) -> float:
    """Normal draw conditioned on being <= upper (rejection with clamp)."""
    if spread == 0:
        return min(mean, upper)
    for _ in range(200):
        x = rng.normal(mean, spread)
        if x <= upper:
            return x
    return upper


def _draw_fate(u: float, profile: DamageProfile) -> Fate:
    if u < profile.success_probability:
        return Fate.SUCCESS
    if u < profile.success_probability + profile.failure_probability:
        return Fate.FAILURE
    return Fate.RESISTANT


class VdmcPoint(NamedTuple):
    """Exposure bookkeeping of the VDMC disk point at the control; replaced, never mutated."""

    tier_times_s: tuple[float, ...] = (0.0, 0.0, 0.0)
    max_power_w: float = 0.0
    damaged: bool = False
    deepen_count: int = 0
    depth_db: float = 0.0
    center_db: float = 0.0
    hw_lo_db: float = 0.0
    hw_hi_db: float = 0.0


class AttenuatorState(NamedTuple):
    """One attenuator specimen under attack. Its control is fixed at
    construction, and its permanent damage is recorded at that control. No
    field can be assigned: each operation returns a new state, built with
    `_replace`, and its input stays as it was."""

    klass: AttenuatorClass
    profile: DamageProfile
    seed: int
    setpoint_db: float
    control: float                      # native control coordinate (V for MEMS, dB otherwise)
    sampled_attack_threshold_dbm: float
    sampled_failure_threshold_dbm: float
    fate: Fate
    # fixed: the thermal drop at the class-threshold power; MEMS: the
    # permanent drop; both < 0
    drop_db: float
    failure_increase_db: float          # fixed: the rise of a blocked specimen
    thermal_offset_db: float = 0.0
    destroyed: bool = False
    blocked_db: float = 0.0
    mems_damaged: bool = False          # MEMS: the band drop is written
    vdmc_point: VdmcPoint = VdmcPoint()  # VDMC: the exposed point's bookkeeping


def new_attenuator(
    klass: AttenuatorClass,
    profile: DamageProfile | None = None,
    setpoint_db: float | None = None,
    seed: int = 0,
) -> AttenuatorState:
    """Instantiate a seeded attenuator specimen at the given setpoint."""
    profile, setpoint_db = specimen_inputs(klass, profile, setpoint_db)
    control = setpoint_db
    if klass is AttenuatorClass.MEMS_VOA:
        control = mems_attenuation_to_voltage(setpoint_db)
    rng = None if klass is AttenuatorClass.MANUAL_VOA else Generator(seed)
    draws = _draws(klass, profile, rng)
    return AttenuatorState(klass, profile, int(seed), float(setpoint_db), float(control), *draws)


def specimen_inputs(
    klass: AttenuatorClass, profile: DamageProfile | None, setpoint_db: float | None
) -> tuple[DamageProfile, float]:
    """(profile, setpoint_db) of a specimen, with the class defaults for
    None; ValueError if no specimen may be built from them."""
    if profile is None:
        profile = DEFAULT_PROFILES[klass]
    if setpoint_db is None:
        setpoint_db = DEFAULT_SETPOINTS[klass]
    lo, hi = SETPOINT_RANGES[klass]
    if not lo <= setpoint_db <= hi:
        raise ValueError(f"{klass.value} setting {setpoint_db} dB out of range [{lo}, {hi}]")

    if klass is AttenuatorClass.FIXED:
        if profile.success_probability > 0 and _fixed_drop_range(profile)[0] <= 0:
            raise ValueError(
                "fixed profile can draw a drop <= 0: need |success_delta_db_mean| > "
                "1.8 * success_delta_db_spread"
            )
        # the drop scales by power over these watts; only a dBm < 0 can underflow
        if profile.attack_threshold_dbm < 0 and dbm_to_watts(profile.attack_threshold_dbm) == 0:
            raise ValueError(
                f"fixed attack_threshold_dbm {profile.attack_threshold_dbm} underflows to 0 W"
            )
    return profile, setpoint_db


def _draws(klass: AttenuatorClass, profile: DamageProfile, rng) -> tuple:
    """A specimen's values drawn from its generator `rng`: its two sampled
    thresholds, fate, drop_db and failure_increase_db, in AttenuatorState's
    field order.

    A manual VOA, whose `rng` is None, draws nothing, as no code reads its
    values: its thresholds are inf and its fate RESISTANT whatever its
    profile, so a finite manual threshold in a caller's profile does not
    show in the sampled ones."""
    if klass is AttenuatorClass.MANUAL_VOA:
        return math.inf, math.inf, Fate.RESISTANT, 0.0, 0.0
    d = THRESHOLD_DISPERSION_DBM
    # drawn even where unused, so the draw sequence is the same for every class
    thr_a = profile.attack_threshold_dbm + rng.uniform(-d, d)
    thr_f = max(profile.failure_threshold_dbm + rng.uniform(-d, d), thr_a)
    if not math.isfinite(profile.attack_threshold_dbm):
        thr_a = thr_f = math.inf
    fate = _draw_fate(rng.random(), profile)

    drop_db = increase_db = 0.0
    if klass is AttenuatorClass.FIXED:
        if fate is Fate.SUCCESS:
            lo_db, hi_db = _fixed_drop_range(profile)
            mag_db = rng.normal(abs(profile.success_delta_db_mean), profile.success_delta_db_spread)
            drop_db = -min(max(mag_db, lo_db), hi_db)
        else:
            # below-detection thermal response of non-susceptible samples
            drop_db = -rng.uniform(0.1, 0.3)
        increase_db = rng.uniform(20.0, 35.0)
    elif klass is AttenuatorClass.MEMS_VOA:
        drop_db = _truncated_normal_below(
            rng, profile.success_delta_db_mean, profile.success_delta_db_spread, -1.0
        )
    return thr_a, thr_f, fate, drop_db, increase_db


def _fixed_drop_range(profile: DamageProfile) -> tuple[float, float]:
    """Bounds, dB, a susceptible fixed specimen's thermal drop is clipped to."""
    base_mag = abs(profile.success_delta_db_mean)
    spread = profile.success_delta_db_spread
    return base_mag - 1.8 * spread, base_mag + 1.2 * spread


def _vdmc_dip_db(point: VdmcPoint, setting_db: float) -> float:
    """Triangular (possibly skewed) dip contribution at a query setting."""
    if not point.damaged:
        return 0.0
    return point.depth_db * _vdmc_dip_weight(point, setting_db)


def _vdmc_dip_weight(point: VdmcPoint, setting_db: float) -> float:
    """Share of a damaged point's depth that shows at a query setting."""
    x = setting_db - point.center_db
    hw = point.hw_hi_db if x >= 0 else point.hw_lo_db
    return max(1.0 - abs(x) / hw, 0.0)


def attenuation(state: AttenuatorState, control: float | None = None) -> float:
    """Reported attenuation (dB) at a control setting, default the specimen's
    own. A given control must lie in CONTROL_RANGES, even for a destroyed
    specimen."""
    if control is None:
        control = state.control
    else:
        lo, hi = CONTROL_RANGES[state.klass]
        if not lo <= control <= hi:  # NaN fails too
            raise ValueError(f"{state.klass.value} control {control} out of range [{lo}, {hi}]")
    if state.destroyed:
        return max(state.blocked_db, state.profile.insertion_loss_floor_db)
    return _ATTENUATION[state.klass](state, control)


def _fixed_attenuation(state: AttenuatorState, control: float) -> float:
    return max(
        state.setpoint_db + state.thermal_offset_db,
        state.profile.insertion_loss_floor_db,
    )


def _mems_attenuation(state: AttenuatorState, control: float) -> float:
    baseline = mems_voltage_to_attenuation(control)
    return max(
        baseline + _mems_band_offset(state, baseline),
        state.profile.insertion_loss_floor_db,
    )


def _vdmc_attenuation(state: AttenuatorState, control: float) -> float:
    # baseline is the calibrated identity curve plus the exposed point's dip
    value = control + _vdmc_dip_db(state.vdmc_point, control)
    return max(value, state.profile.insertion_loss_floor_db)


def _mems_band_offset(state: AttenuatorState, baseline_db: float) -> float:
    if not state.mems_damaged:
        return 0.0
    return _mems_band_drop(state.drop_db, mems_voltage_to_attenuation(state.control), baseline_db)


def _mems_band_drop(drop_db: float, a0_db: float, baseline_db: float) -> float:
    """The share of a drop written at attenuation a0_db that shows at
    baseline_db; none at a weight of 0, even of an infinite drop."""
    span = MEMS_A_MAX - MEMS_A_MIN
    band_lo = MEMS_A_MIN + (1.0 - MEMS_BAND_FRACTION) * span
    taper = MEMS_TAPER_FRACTION * span

    def weight(a):
        if a >= band_lo:
            return 1.0
        return max((a - (band_lo - taper)) / taper, 0.0)

    w0 = max(weight(a0_db), 0.25)
    w = min(weight(baseline_db) / w0, 1.0)
    return drop_db * w if w > 0 else 0.0


_NO_CHANGE = ExposureOutcome(OutcomeKind.NO_CHANGE)


def apply_exposure(
    state: AttenuatorState, power_w: float, duration_s: float
) -> tuple[AttenuatorState, ExposureOutcome]:
    """Expose the attenuator to c.w. power for a duration; returns the state
    after it and the outcome.

    Randomness is drawn from the seed at construction, or for a VDMC point's
    dip at the exposure that first clears the law, so a trajectory is fixed
    by (class, profile, setpoint, seed) and the exposure sequence.
    """
    if state.destroyed:
        raise ValueError("cannot expose a destroyed attenuator")
    if not power_w >= 0:  # NaN fails too
        raise ValueError(f"power_w must be >= 0, got {power_w}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")

    if power_w == 0.0:
        return state, _NO_CHANGE
    return _EXPOSE[state.klass](state, power_w, watts_to_dbm(power_w), duration_s)


# Each _expose_* function returns the state after a nonzero exposure, and its
# outcome.
def _expose_fixed(state: AttenuatorState, power_w, p_dbm, duration_s):
    if state.fate is Fate.FAILURE and p_dbm >= state.sampled_failure_threshold_dbm:
        increase = state.failure_increase_db
        blocked = state._replace(
            destroyed=True, thermal_offset_db=0.0, blocked_db=state.setpoint_db + increase
        )
        return blocked, ExposureOutcome(OutcomeKind.CRITICAL_FAILURE, increase)
    if p_dbm >= state.sampled_attack_threshold_dbm:
        offset = state.drop_db * _fixed_heat_scale(state.profile, power_w)
        outcome = ExposureOutcome(OutcomeKind.TEMPORARY_DROP, offset)
        return state._replace(thermal_offset_db=offset), outcome
    return state, _NO_CHANGE


def _fixed_heat_scale(profile: DamageProfile, power_w: float) -> float:
    """Thermal-drop multiplier at power_w, relative to the class-mean threshold."""
    return min(power_w / dbm_to_watts(profile.attack_threshold_dbm), FIXED_THERMAL_POWER_CAP)


def _expose_mems(state: AttenuatorState, power_w, p_dbm, duration_s):
    if state.fate is Fate.FAILURE and p_dbm >= state.sampled_failure_threshold_dbm:
        rise = MEMS_BLOCKED_DB - mems_voltage_to_attenuation(state.control)
        outcome = ExposureOutcome(OutcomeKind.CRITICAL_FAILURE, rise)
        return state._replace(destroyed=True, blocked_db=MEMS_BLOCKED_DB), outcome
    if (
        state.fate is Fate.SUCCESS
        and not state.mems_damaged
        and p_dbm >= state.sampled_attack_threshold_dbm
    ):
        damaged = state._replace(mems_damaged=True)
        # none shows below the damage band or the floor
        shown = attenuation(damaged) - attenuation(state)
        if shown < 0:
            return damaged, ExposureOutcome(OutcomeKind.PERMANENT_DROP, shown)
        return damaged, _NO_CHANGE
    return state, _NO_CHANGE


def _expose_vdmc(state: AttenuatorState, power_w, p_dbm, duration_s):
    old = state.vdmc_point
    thr = state.sampled_attack_threshold_dbm
    times, cleared = _exposed_tier_times(old.tier_times_s, thr, p_dbm, duration_s)
    point = old._replace(tier_times_s=times, max_power_w=max(old.max_power_w, power_w))
    outcome = _NO_CHANGE
    if cleared:
        dip_rng = None if old.damaged else Generator([state.seed, *_dip_tail(state.control)])
        point, outcome = _damaged_vdmc_point(
            state, dip_rng, point, power_w, old.max_power_w, p_dbm >= thr
        )
    return state._replace(vdmc_point=point), outcome


def _exposed_tier_times(times: tuple, thr: float, p_dbm: float, duration_s: float):
    """A point's tier times after an exposure at p_dbm, given the sampled
    attack threshold thr, and whether they clear the damage law."""
    times = tuple(
        t + duration_s if p_dbm >= thr + off else t for t, off in zip(times, VDMC_TIER_OFFSETS_DB)
    )
    return times, any(t >= t_req for t, t_req in zip(times, VDMC_TIER_TIMES_S))


def _damaged_vdmc_point(
    state: AttenuatorState, dip_rng, point: VdmcPoint, power_w, max_power_w, optimal: bool
) -> tuple[VdmcPoint, ExposureOutcome]:
    """`point` after an exposure at power_w that clears the law, with its
    outcome: max_power_w is the highest power the point saw before, and an
    undamaged one draws its dip from `dip_rng`. `state` gives the profile and control."""
    if point.damaged:
        # repeated exposure at clearly higher power deepens the dip with
        # diminishing returns; damage never self-heals
        if not power_w > max_power_w + VDMC_DEEPEN_MARGIN_W:
            return point, _NO_CHANGE
        count = point.deepen_count + 1
        deeper = point._replace(
            deepen_count=count,
            depth_db=point.depth_db + point.depth_db * VDMC_DEEPEN_FACTOR ** count,
        )
        delta = _measured_vdmc_delta(state, deeper) - _measured_vdmc_delta(state, point)
        if delta < 0:
            return deeper, ExposureOutcome(OutcomeKind.PERMANENT_DROP, delta)
        return deeper, _NO_CHANGE

    point = _drawn_vdmc_point(state, dip_rng, point, optimal)
    if not point.damaged:
        return point, _NO_CHANGE
    delta = _measured_vdmc_delta(state, point)
    if delta >= 0:
        return point, _NO_CHANGE
    return point, ExposureOutcome(OutcomeKind.PERMANENT_DROP, delta)


def _dip_tail(control: float) -> tuple[int, int]:
    """What follows a specimen's seed in the entropy of its dip draw: its
    point's key, the control in milli-dB, so every exposure draws the same,
    and a tag."""
    return abs(round(control * 1000)), 0x5D


def _drawn_vdmc_point(
    state: AttenuatorState, rng, point: VdmcPoint, optimal: bool
) -> VdmcPoint:
    """`point` after an exposure that clears the law: unchanged if the point
    is not vulnerable, else damaged with a dip, drawn from `rng`. `state`
    gives the profile and control."""
    profile = state.profile
    if not rng.random() < profile.success_probability:
        return point
    depth = _truncated_normal_below(
        rng, profile.success_delta_db_mean, profile.success_delta_db_spread, -1.0
    )
    if optimal:  # optimal exposure: a symmetric dip at the setting
        center, hw_lo, hw_hi = state.control, VDMC_DIP_HALF_WIDTH_DB, VDMC_DIP_HALF_WIDTH_DB
    else:
        # suboptimal (low power, long time): shallower skewed dip with
        # its minimum displaced from the irradiated setting
        depth *= 0.8
        shift = rng.uniform(0.1, 0.3) * (1 if rng.random() < 0.5 else -1)
        center = state.control + shift
        hw_lo, hw_hi = 0.3, 0.7
    return point._replace(
        damaged=True, depth_db=depth, center_db=center, hw_lo_db=hw_lo, hw_hi_db=hw_hi
    )


def _measured_vdmc_delta(state: AttenuatorState, point: VdmcPoint) -> float:
    setting = state.control
    floor = state.profile.insertion_loss_floor_db
    baseline = max(setting, floor)
    return max(setting + _vdmc_dip_db(point, setting), floor) - baseline


_ATTENUATION = {
    AttenuatorClass.MANUAL_VOA: lambda state, control: control,
    AttenuatorClass.FIXED: _fixed_attenuation,
    AttenuatorClass.MEMS_VOA: _mems_attenuation,
    AttenuatorClass.VDMC_VOA: _vdmc_attenuation,
}

_EXPOSE = {
    AttenuatorClass.MANUAL_VOA: lambda state, power_w, p_dbm, duration_s: (state, _NO_CHANGE),
    AttenuatorClass.FIXED: _expose_fixed,
    AttenuatorClass.MEMS_VOA: _expose_mems,
    AttenuatorClass.VDMC_VOA: _expose_vdmc,
}


def cool_down(state: AttenuatorState, elapsed_s: float) -> AttenuatorState:
    """Exponential decay of the thermal offset; permanent damage untouched."""
    if not elapsed_s >= 0:  # NaN fails too
        raise ValueError(f"elapsed_s must be >= 0, got {elapsed_s}")
    offset = _cooled_offset(state.thermal_offset_db, state.profile.recovery_tau_s, elapsed_s)
    return state._replace(thermal_offset_db=offset)


def _cooled_offset(offset_db: float, tau_s: float, elapsed_s: float) -> float:
    """Thermal offset after cooling for elapsed_s; a factor that underflows
    to 0 cools fully, even an infinite offset."""
    if elapsed_s == 0:
        return offset_db
    factor = math.exp(-elapsed_s / tau_s) if tau_s > 0 else 0.0
    return offset_db * factor if factor > 0 else 0.0


# --- rung readouts -----------------------------------------------------------
# One function per class takes a fresh specimen `first` of a campaign's class,
# profile and setpoint, its readout `baseline`, and the delivered watts and
# dBm of the ladder's exposed rungs, which never fall. It returns (walk, tails):
# per stream a specimen draws from, what follows its seed in the entropy, and
# a walk from those streams to (rung, immediate, after, event) for each rung
# from the first whose exposure can change the specimen, as run_campaign and
# apply_exposure give them, bit for bit; each earlier rung reads `baseline`
# with NoChange. A specimen over a threshold at one rung is over it at every
# later one, so `bisect` finds that rung. An enum's `value` is slow, so the
# events are bound once, here, for the walks and the engine that runs them.
NO_CHANGE_EVENT, TEMPORARY_EVENT, PERMANENT_EVENT, CRITICAL_EVENT = (
    kind.value for kind in OutcomeKind
)


def _fixed_rungs(first, baseline, p_w, p_dbm, config):
    profile, setpoint = first.profile, first.setpoint_db
    floor, tau_s = profile.insertion_loss_floor_db, profile.recovery_tau_s
    scales = [_fixed_heat_scale(profile, w) for w in p_w]

    def walk(rng):
        thr_a, thr_f, fate, drop_db, increase_db = _draws(first.klass, profile, rng)
        failing = fate is Fate.FAILURE
        for k in range(bisect_left(p_dbm, thr_a), len(p_w)):
            if failing and p_dbm[k] >= thr_f:
                blocked = max(setpoint + increase_db, floor)
                yield k, blocked, blocked, CRITICAL_EVENT
                return
            offset = drop_db * scales[k]
            cooled = _cooled_offset(offset, tau_s, config.cooldown_s)
            yield k, max(setpoint + offset, floor), max(setpoint + cooled, floor), TEMPORARY_EVENT

    return walk, [()]


def _mems_rungs(first, baseline, p_w, p_dbm, config):
    floor = first.profile.insertion_loss_floor_db
    blocked = max(MEMS_BLOCKED_DB, floor)
    # damage is written at the control's level, the only one read here
    level = mems_voltage_to_attenuation(first.control)

    def walk(rng):
        thr_a, thr_f, fate, drop_db, _ = _draws(first.klass, first.profile, rng)
        if fate is Fate.FAILURE:
            k = bisect_left(p_dbm, thr_f)
            if k < len(p_w):
                yield k, blocked, blocked, CRITICAL_EVENT
        elif fate is Fate.SUCCESS:
            # the drop is reported on the first damaged rung only, where it shows
            damaged = max(level + _mems_band_drop(drop_db, level, level), floor)
            event = PERMANENT_EVENT if damaged - baseline < 0 else NO_CHANGE_EVENT
            for k in range(bisect_left(p_dbm, thr_a), len(p_w)):
                yield k, damaged, damaged, event
                event = NO_CHANGE_EVENT

    return walk, [()]


def _vdmc_rungs(first, baseline, p_w, p_dbm, config):
    control, floor = first.control, first.profile.insertion_loss_floor_db

    def walk(rng, dip_rng):
        thr = _draws(first.klass, first.profile, rng)[0]
        point = VdmcPoint()  # its dip, once drawn; its other exposure fields are unused
        times = point.tier_times_s
        for k in range(bisect_left(p_dbm, thr + min(VDMC_TIER_OFFSETS_DB)), len(p_w)):
            times, cleared = _exposed_tier_times(times, thr, p_dbm[k], config.dwell_s)
            if not cleared:
                continue
            # power never falls, so the highest the point saw is the rung before's
            highest_w = p_w[k - 1] if k else 0.0
            optimal = p_dbm[k] >= thr
            point, outcome = _damaged_vdmc_point(first, dip_rng, point, p_w[k], highest_w, optimal)
            if not point.damaged:  # every later draw gives the same
                return
            # no exposure heats a VDMC, so after equals immediate
            after = max(control + _vdmc_dip_db(point, control), floor)
            yield k, after, after, outcome.kind.value

    return walk, [(), _dip_tail(control)]


RUNG_READOUTS = {
    AttenuatorClass.MANUAL_VOA: lambda first, baseline, p_w, p_dbm, config: (lambda: (), []),
    AttenuatorClass.FIXED: _fixed_rungs,
    AttenuatorClass.MEMS_VOA: _mems_rungs,
    AttenuatorClass.VDMC_VOA: _vdmc_rungs,
}


# --- profile config loading -------------------------------------------------

_PROFILE_FIELDS = frozenset(DamageProfile._fields)

# The profile fields each class's model reads. A config may set no other for
# the class, as it would change nothing: a manual VOA reads no field, and
# neither a MEMS nor a VDMC VOA ever heats. A VDMC VOA never fails, but its
# failure threshold bounds the attack threshold its profile may hold.
_READ_FIELDS = {
    AttenuatorClass.MANUAL_VOA: frozenset(),
    AttenuatorClass.FIXED: _PROFILE_FIELDS,
    AttenuatorClass.MEMS_VOA: _PROFILE_FIELDS - {"recovery_tau_s"},
    AttenuatorClass.VDMC_VOA: _PROFILE_FIELDS - {"failure_probability", "recovery_tau_s"},
}


class ProfileConfigError(ValueError):
    """Raised when a damage-profile config file violates the schema."""


def profile_to_dict(profile: DamageProfile) -> dict:
    d = profile._asdict()
    for k in ("attack_threshold_dbm", "failure_threshold_dbm"):
        if math.isinf(d[k]):
            d[k] = None
    return d


def profile_from_dict(base: DamageProfile, overrides: dict) -> DamageProfile:
    unknown = set(overrides) - _PROFILE_FIELDS
    if unknown:
        raise ProfileConfigError(f"unknown profile fields: {sorted(unknown)}")
    merged = profile_to_dict(base)
    merged.update(overrides)
    for k in ("attack_threshold_dbm", "failure_threshold_dbm"):
        if merged[k] is None:
            merged[k] = math.inf
    try:
        return DamageProfile(**merged)
    except (TypeError, ValueError) as exc:
        raise ProfileConfigError(str(exc)) from exc


def load_profiles(path: str) -> dict[AttenuatorClass, DamageProfile]:
    """Load per-class profile overrides from a JSON config file.

    Schema: {"profiles": {"<class-name>": {<DamageProfile fields>}}}, where
    class names are the CLI spellings (manual-voa, fixed, mems-voa,
    vdmc-voa). Unlisted classes and fields keep their shipped defaults.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProfileConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("profiles", {}), dict):
        raise ProfileConfigError('config must be an object with a "profiles" map')
    unknown_top = set(doc) - {"profiles"}
    if unknown_top:
        raise ProfileConfigError(f"unknown top-level keys: {sorted(unknown_top)}")
    profiles = dict(DEFAULT_PROFILES)
    for name, overrides in doc.get("profiles", {}).items():
        try:
            klass = AttenuatorClass(name)
        except ValueError:
            raise ProfileConfigError(f"unknown attenuator class: {name!r}") from None
        if not isinstance(overrides, dict):
            raise ProfileConfigError(f"profile for {name!r} must be an object")
        profiles[klass] = profile_from_dict(DEFAULT_PROFILES[klass], overrides)
        unread = set(overrides) - _READ_FIELDS[klass]
        if unread:
            raise ProfileConfigError(f"{name} never reads profile fields {sorted(unread)}")
    return profiles
