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
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .fiber import dbm_to_watts, watts_to_dbm


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


@dataclass(frozen=True)
class ExposureOutcome:
    kind: OutcomeKind
    delta_db: float = 0.0

    def __post_init__(self):
        if self.kind in (OutcomeKind.TEMPORARY_DROP, OutcomeKind.PERMANENT_DROP):
            if self.delta_db >= 0:
                raise ValueError("drop outcomes require delta_db < 0")
        if self.kind is OutcomeKind.CRITICAL_FAILURE and self.delta_db <= 0:
            raise ValueError("critical failure requires delta_db > 0")


@dataclass(frozen=True)
class DamageProfile:
    """Class-level damage statistics a sample population is drawn from."""

    attack_threshold_dbm: float
    failure_threshold_dbm: float
    success_delta_db_mean: float
    success_delta_db_spread: float
    success_probability: float
    failure_probability: float
    recovery_tau_s: float = 150.0
    insertion_loss_floor_db: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
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
        if self.insertion_loss_floor_db < 0:
            raise ValueError("insertion_loss_floor_db must be >= 0")


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
    AttenuatorClass.MANUAL_VOA: (1.5, 80.0),
    AttenuatorClass.FIXED: (25.0, 25.0),
    AttenuatorClass.MEMS_VOA: (MEMS_A_MIN, MEMS_A_MAX),
    AttenuatorClass.VDMC_VOA: (0.0, 80.0),
}

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
    """Exposure bookkeeping of one VDMC disk position; replaced, never mutated."""

    setting_db: float
    tier_times_s: tuple[float, ...] = (0.0, 0.0, 0.0)
    max_power_w: float = 0.0
    damaged: bool = False
    # set when a cleared exposure drew this point as not vulnerable; the
    # draw is seeded per point, so every later one would agree
    resistant: bool = False
    deepen_count: int = 0
    depth_db: float = 0.0
    center_db: float = 0.0
    hw_lo_db: float = 0.0
    hw_hi_db: float = 0.0


@dataclass
class AttenuatorState:
    """One attenuator specimen under attack. Operations return a shallow copy
    and never mutate their input: shared values are immutable or replaced."""

    klass: AttenuatorClass
    profile: DamageProfile
    seed: int
    setpoint_db: float
    control: float                      # native control coordinate (V for MEMS, dB otherwise)
    sampled_attack_threshold_dbm: float
    sampled_failure_threshold_dbm: float
    fate: Fate
    thermal_offset_db: float = 0.0
    destroyed: bool = False
    blocked_db: float = 0.0
    # Fixed-class draws
    fixed_thermal_base_db: float = 0.0
    fixed_failure_increase_db: float = 0.0
    # MEMS-class draw, and the baseline attenuation at which band damage was written
    mems_depth_db: float = 0.0
    mems_damaged_at_db: float | None = None
    # VDMC per-point exposure bookkeeping, keyed by setting in milli-dB
    vdmc_points: dict[int, VdmcPoint] = field(default_factory=dict)

    def copy(self) -> "AttenuatorState":
        new = object.__new__(AttenuatorState)
        new.__dict__.update(self.__dict__)
        return new


def new_attenuator(
    klass: AttenuatorClass,
    profile: DamageProfile | None = None,
    setpoint_db: float | None = None,
    seed: int = 0,
) -> AttenuatorState:
    """Instantiate a seeded attenuator specimen at the given setpoint."""
    if profile is None:
        profile = DEFAULT_PROFILES[klass]
    if setpoint_db is None:
        setpoint_db = DEFAULT_SETPOINTS[klass]
    _check_setting(klass, setpoint_db)

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

    rng = np.random.default_rng(seed)
    if math.isfinite(profile.attack_threshold_dbm):
        thr_a = profile.attack_threshold_dbm + rng.uniform(
            -THRESHOLD_DISPERSION_DBM, THRESHOLD_DISPERSION_DBM
        )
        thr_f = profile.failure_threshold_dbm + rng.uniform(
            -THRESHOLD_DISPERSION_DBM, THRESHOLD_DISPERSION_DBM
        )
        thr_f = max(thr_f, thr_a)
    else:
        thr_a = thr_f = math.inf
        rng.uniform(-1, 1)  # keep the draw sequence fixed across classes
        rng.uniform(-1, 1)
    fate = _draw_fate(rng.random(), profile)

    state = AttenuatorState(
        klass=klass,
        profile=profile,
        seed=int(seed),
        setpoint_db=float(setpoint_db),
        control=float(setpoint_db),
        sampled_attack_threshold_dbm=thr_a,
        sampled_failure_threshold_dbm=thr_f,
        fate=fate,
    )

    if klass is AttenuatorClass.FIXED:
        if fate is Fate.SUCCESS:
            lo_db, hi_db = _fixed_drop_range(profile)
            state.fixed_thermal_base_db = min(
                max(
                    rng.normal(abs(profile.success_delta_db_mean), profile.success_delta_db_spread),
                    lo_db,
                ),
                hi_db,
            )
        else:
            # below-detection thermal response of non-susceptible samples
            state.fixed_thermal_base_db = rng.uniform(0.1, 0.3)
        state.fixed_failure_increase_db = rng.uniform(20.0, 35.0)
    elif klass is AttenuatorClass.MEMS_VOA:
        state.control = mems_attenuation_to_voltage(setpoint_db)
        state.mems_depth_db = _truncated_normal_below(
            rng, profile.success_delta_db_mean, profile.success_delta_db_spread, -1.0
        )
    return state


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
    """Reported attenuation (dB) at a control setting, default the setpoint."""
    if state.destroyed:
        return state.blocked_db
    if control is None:
        control = state.control
    return _ATTENUATION[state.klass](state, control)


def _check_setting(klass: AttenuatorClass, setting_db: float) -> None:
    lo, hi = SETPOINT_RANGES[klass]
    if not lo <= setting_db <= hi:
        raise ValueError(f"{klass.value} setting {setting_db} dB out of range [{lo}, {hi}]")


def _manual_attenuation(state: AttenuatorState, control: float) -> float:
    _check_setting(state.klass, control)
    return control


def _fixed_attenuation(state: AttenuatorState, control: float) -> float:
    return max(
        state.setpoint_db + state.thermal_offset_db,
        state.profile.insertion_loss_floor_db,
    )


def _mems_attenuation(state: AttenuatorState, control: float) -> float:
    baseline = mems_voltage_to_attenuation(control)
    return max(
        baseline + _mems_band_offset(state, baseline) + state.thermal_offset_db,
        state.profile.insertion_loss_floor_db,
    )


def _vdmc_attenuation(state: AttenuatorState, control: float) -> float:
    # baseline is the calibrated identity curve plus any local dips
    _check_setting(state.klass, control)
    value = control + state.thermal_offset_db
    for point in state.vdmc_points.values():
        value += _vdmc_dip_db(point, control)
    return max(value, state.profile.insertion_loss_floor_db)


def _mems_band_offset(state: AttenuatorState, baseline_db: float) -> float:
    a0_db = state.mems_damaged_at_db
    if a0_db is None:
        return 0.0
    return state.mems_depth_db * _mems_band_weight(a0_db, baseline_db)


def _mems_band_weight(a0_db: float, baseline_db: float) -> float:
    """Share of a drop written at attenuation a0_db that shows at baseline_db."""
    span = MEMS_A_MAX - MEMS_A_MIN
    band_lo = MEMS_A_MIN + (1.0 - MEMS_BAND_FRACTION) * span
    taper = MEMS_TAPER_FRACTION * span

    def weight(a):
        if a >= band_lo:
            return 1.0
        return max((a - (band_lo - taper)) / taper, 0.0)

    w0 = max(weight(a0_db), 0.25)
    return min(weight(baseline_db) / w0, 1.0)


_NO_CHANGE = ExposureOutcome(OutcomeKind.NO_CHANGE)


def apply_exposure(
    state: AttenuatorState, power_w: float, duration_s: float
) -> tuple[AttenuatorState, ExposureOutcome]:
    """Expose the attenuator to c.w. power for a duration; returns new state.

    All randomness was pre-drawn at construction, so trajectories are fully
    determined by (class, profile, setpoint, seed) and the exposure sequence.
    """
    if state.destroyed:
        raise ValueError("cannot expose a destroyed attenuator")
    if power_w < 0:
        raise ValueError(f"power_w must be >= 0, got {power_w}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")

    new = state.copy()
    if power_w == 0.0:
        return new, _NO_CHANGE
    return new, _EXPOSE[state.klass](new, power_w, watts_to_dbm(power_w), duration_s)


# Each _expose_* function updates `new`, a fresh copy it owns, and returns
# the outcome.
def _expose_fixed(new: AttenuatorState, power_w, p_dbm, duration_s) -> ExposureOutcome:
    if new.fate is Fate.FAILURE and p_dbm >= new.sampled_failure_threshold_dbm:
        new.destroyed = True
        new.thermal_offset_db = 0.0
        new.blocked_db = new.setpoint_db + new.fixed_failure_increase_db
        return ExposureOutcome(OutcomeKind.CRITICAL_FAILURE, new.fixed_failure_increase_db)
    if p_dbm >= new.sampled_attack_threshold_dbm:
        drop = new.fixed_thermal_base_db * _fixed_heat_scale(new.profile, power_w)
        new.thermal_offset_db = -drop
        return ExposureOutcome(OutcomeKind.TEMPORARY_DROP, -drop)
    return _NO_CHANGE


def _fixed_heat_scale(profile: DamageProfile, power_w: float) -> float:
    """Thermal-drop multiplier at power_w, relative to the class-mean threshold."""
    return min(power_w / dbm_to_watts(profile.attack_threshold_dbm), FIXED_THERMAL_POWER_CAP)


def _expose_mems(new: AttenuatorState, power_w, p_dbm, duration_s) -> ExposureOutcome:
    baseline = mems_voltage_to_attenuation(new.control)
    if new.fate is Fate.FAILURE and p_dbm >= new.sampled_failure_threshold_dbm:
        new.destroyed = True
        new.blocked_db = MEMS_BLOCKED_DB
        return ExposureOutcome(OutcomeKind.CRITICAL_FAILURE, MEMS_BLOCKED_DB - baseline)
    if (
        new.fate is Fate.SUCCESS
        and new.mems_damaged_at_db is None
        and p_dbm >= new.sampled_attack_threshold_dbm
    ):
        new.mems_damaged_at_db = baseline
        return ExposureOutcome(OutcomeKind.PERMANENT_DROP, new.mems_depth_db)
    return _NO_CHANGE


def _expose_vdmc(new: AttenuatorState, power_w, p_dbm, duration_s) -> ExposureOutcome:
    key = _vdmc_key(new.control)
    point, outcome = _exposed_vdmc_point(new, key, power_w, p_dbm, duration_s)
    # a new dict, so the input state's points stay as they were
    new.vdmc_points = {**new.vdmc_points, key: point}
    return outcome


def _vdmc_key(control_db: float) -> int:
    """A disk point's key: its setting in milli-dB."""
    return int(round(control_db * 1000.0))


def _exposed_vdmc_point(
    new: AttenuatorState, key: int, power_w, p_dbm, duration_s
) -> tuple[VdmcPoint, ExposureOutcome]:
    old = new.vdmc_points.get(key) or VdmcPoint(setting_db=new.control)
    thr = new.sampled_attack_threshold_dbm
    point = old._replace(
        tier_times_s=tuple(
            t + duration_s if p_dbm >= thr + off else t
            for t, off in zip(old.tier_times_s, VDMC_TIER_OFFSETS_DB)
        ),
        max_power_w=max(old.max_power_w, power_w),
    )
    cleared = any(t >= t_req for t, t_req in zip(point.tier_times_s, VDMC_TIER_TIMES_S))
    if not cleared:
        return point, _NO_CHANGE

    if old.damaged:
        # repeated exposure at clearly higher power deepens the dip with
        # diminishing returns; damage never self-heals
        if not _vdmc_deepens(power_w, old.max_power_w):
            return point, _NO_CHANGE
        count = old.deepen_count + 1
        deeper = point._replace(
            deepen_count=count,
            depth_db=_vdmc_deepened(old.depth_db, VDMC_DEEPEN_FACTOR ** count),
        )
        delta = _measured_vdmc_delta(new, deeper) - _measured_vdmc_delta(new, point)
        if delta < 0:
            return deeper, ExposureOutcome(OutcomeKind.PERMANENT_DROP, delta)
        return deeper, _NO_CHANGE

    if old.resistant:
        return point, _NO_CHANGE
    point = _drawn_vdmc_point(new, key, point, optimal=p_dbm >= thr)
    if point.resistant:
        return point, _NO_CHANGE
    delta = _measured_vdmc_delta(new, point)
    if delta >= 0:
        return point, _NO_CHANGE
    return point, ExposureOutcome(OutcomeKind.PERMANENT_DROP, delta)


def _vdmc_deepens(power_w, max_power_w):
    """Whether a damaged point deepens at power_w, floats or arrays."""
    return power_w > max_power_w + VDMC_DEEPEN_MARGIN_W


def _vdmc_deepened(depth_db, factor):
    """A dip's depth after a deepening; factor is VDMC_DEEPEN_FACTOR ** count."""
    return depth_db + depth_db * factor


def _drawn_vdmc_point(
    state: AttenuatorState, key: int, point: VdmcPoint, optimal: bool
) -> VdmcPoint:
    """`point` after its first exposure that clears the law: resistant, or
    damaged with a dip. The draw is seeded per point, so it is made once."""
    rng = np.random.default_rng([state.seed, abs(key), 0x5D])
    profile = state.profile
    if not rng.random() < profile.success_probability:
        return point._replace(resistant=True)
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
    setting = point.setting_db
    floor = state.profile.insertion_loss_floor_db
    baseline = max(setting, floor)
    return max(setting + _vdmc_dip_db(point, setting), floor) - baseline


_ATTENUATION = {
    AttenuatorClass.MANUAL_VOA: _manual_attenuation,
    AttenuatorClass.FIXED: _fixed_attenuation,
    AttenuatorClass.MEMS_VOA: _mems_attenuation,
    AttenuatorClass.VDMC_VOA: _vdmc_attenuation,
}

_EXPOSE = {
    AttenuatorClass.MANUAL_VOA: lambda new, power_w, p_dbm, duration_s: _NO_CHANGE,
    AttenuatorClass.FIXED: _expose_fixed,
    AttenuatorClass.MEMS_VOA: _expose_mems,
    AttenuatorClass.VDMC_VOA: _expose_vdmc,
}


def cool_down(state: AttenuatorState, elapsed_s: float) -> AttenuatorState:
    """Exponential decay of the thermal offset; permanent damage untouched."""
    if elapsed_s < 0:
        raise ValueError(f"elapsed_s must be >= 0, got {elapsed_s}")
    new = state.copy()
    new.thermal_offset_db = _cooled_offset(
        state.thermal_offset_db, state.profile.recovery_tau_s, elapsed_s
    )
    return new


def _cooled_offset(offset_db, tau_s: float, elapsed_s: float):
    """Thermal offset, a float or an array, after cooling for elapsed_s."""
    if elapsed_s > 0 and tau_s > 0:
        return offset_db * math.exp(-elapsed_s / tau_s)
    if elapsed_s > 0:
        return 0.0
    return offset_db


# --- batched readouts -------------------------------------------------------
# One function per class reads a batch of fresh specimens (one class, profile
# and setpoint) at every exposed rung of a campaign's power ladder at once.
# It returns (baseline, lowest, after, destroyed), each broadcastable over
# (specimens, rungs): the readout before any exposure, then at each rung
# min(immediate, after), after, and whether the specimen is destroyed. They
# are run_campaign's `attenuation` values bit for bit, up to the rung where
# the campaign stops; later rungs are not meaningful. The ladder's delivered
# power never falls, so a manual, fixed or MEMS specimen over a threshold at
# one rung is over it at every later one: its construction draws alone decide
# every rung. A VDMC specimen's exposure history does carry from rung to
# rung, so its readout steps through the rungs in order.


def _maximum(a, b):
    """max(a, b) elementwise with Python's rules: b only where b > a."""
    return np.where(b > a, b, a)


def _minimum(a, b):
    """min(a, b) elementwise with Python's rules: b only where b < a."""
    return np.where(b < a, b, a)


def _column(specimens: list[AttenuatorState], name: str) -> np.ndarray:
    """One field of every specimen, as an (n, 1) column."""
    return np.array([getattr(s, name) for s in specimens])[:, None]


def _manual_readout(specimens, p_w, p_dbm, config):
    level = _manual_attenuation(specimens[0], specimens[0].control)
    return level, level, level, False


def _fixed_readout(specimens, p_w, p_dbm, config):
    first = specimens[0]
    profile, setpoint = first.profile, first.setpoint_db
    fate = _column(specimens, "fate")
    destroyed = (fate == Fate.FAILURE) & (
        p_dbm >= _column(specimens, "sampled_failure_threshold_dbm")
    )
    heated = ~destroyed & (p_dbm >= _column(specimens, "sampled_attack_threshold_dbm"))
    offset = 0.0
    if heated.any():
        scale = np.array([_fixed_heat_scale(profile, w) for w in p_w.tolist()])
        drop = _column(specimens, "fixed_thermal_base_db") * scale
        offset = np.where(heated, -drop, 0.0)
    cooled = _cooled_offset(offset, profile.recovery_tau_s, config.cooldown_s)
    floor = profile.insertion_loss_floor_db
    blocked = setpoint + _column(specimens, "fixed_failure_increase_db")
    immediate = np.where(destroyed, blocked, _maximum(setpoint + offset, floor))
    after = np.where(destroyed, blocked, _maximum(setpoint + cooled, floor))
    baseline = _fixed_attenuation(first, first.control)
    return baseline, _minimum(immediate, after), after, destroyed


def _mems_readout(specimens, p_w, p_dbm, config):
    first = specimens[0]
    profile = first.profile
    fate = _column(specimens, "fate")
    destroyed = (fate == Fate.FAILURE) & (
        p_dbm >= _column(specimens, "sampled_failure_threshold_dbm")
    )
    damaged = (fate == Fate.SUCCESS) & (
        p_dbm >= _column(specimens, "sampled_attack_threshold_dbm")
    )
    # damage is written at the setpoint's own level, the only one read here
    level = mems_voltage_to_attenuation(first.control)
    damaged_db = _maximum(
        level + _column(specimens, "mems_depth_db") * _mems_band_weight(level, level),
        profile.insertion_loss_floor_db,
    )
    baseline = _mems_attenuation(first, first.control)
    after = np.where(destroyed, MEMS_BLOCKED_DB, np.where(damaged, damaged_db, baseline))
    return baseline, after, after, destroyed


def _vdmc_readout(specimens, p_w, p_dbm, config):
    # The control never moves, so a campaign exposes one disk point. Its
    # VdmcPoint fields are carried as arrays over the specimens and updated
    # as _exposed_vdmc_point updates them; a specimen draws its dip once, on
    # the rung where its point first clears the law.
    first = specimens[0]
    control = first.control
    key = _vdmc_key(control)
    n = len(specimens)
    thr = np.array([s.sampled_attack_threshold_dbm for s in specimens])
    tier_thr = [thr + off for off in VDMC_TIER_OFFSETS_DB]
    tier_times = [np.zeros(n) for _ in VDMC_TIER_TIMES_S]
    max_w = np.zeros(n)
    damaged = np.zeros(n, dtype=bool)
    resistant = np.zeros(n, dtype=bool)
    count = np.zeros(n, dtype=int)
    depth = np.zeros(n)
    weight = np.zeros(n)  # _vdmc_dip_weight at the setting, 0 until damaged
    # VDMC_DEEPEN_FACTOR ** count as the scalar engine computes it, by count
    factors = np.array([VDMC_DEEPEN_FACTOR ** c for c in range(len(p_w) + 1)])
    dip = np.empty((n, len(p_w)))
    for j, (w, dbm) in enumerate(zip(p_w.tolist(), p_dbm.tolist())):
        if w > 0:  # apply_exposure leaves the point untouched at 0 W
            tier_times = [
                np.where(dbm >= t_thr, t + config.dwell_s, t)
                for t, t_thr in zip(tier_times, tier_thr)
            ]
            deepen = damaged & _vdmc_deepens(w, max_w)
            count += deepen
            depth = np.where(deepen, _vdmc_deepened(depth, factors[count]), depth)
            max_w = _maximum(max_w, w)
            cleared = np.logical_or.reduce(
                [t >= t_req for t, t_req in zip(tier_times, VDMC_TIER_TIMES_S)]
            )
            for i in np.flatnonzero(cleared & ~damaged & ~resistant).tolist():
                point = _drawn_vdmc_point(
                    specimens[i], key, VdmcPoint(setting_db=control), optimal=dbm >= thr[i]
                )
                if point.resistant:
                    resistant[i] = True
                else:
                    damaged[i] = True
                    depth[i] = point.depth_db
                    weight[i] = _vdmc_dip_weight(point, control)
        dip[:, j] = depth * weight
    # no exposure changes the thermal offset, so after equals immediate
    after = _maximum(
        control + first.thermal_offset_db + dip, first.profile.insertion_loss_floor_db
    )
    return _vdmc_attenuation(first, control), after, after, False


BATCH_READOUT = {
    AttenuatorClass.MANUAL_VOA: _manual_readout,
    AttenuatorClass.FIXED: _fixed_readout,
    AttenuatorClass.MEMS_VOA: _mems_readout,
    AttenuatorClass.VDMC_VOA: _vdmc_readout,
}


# --- profile config loading -------------------------------------------------

_PROFILE_FIELDS = frozenset(f.name for f in fields(DamageProfile))


class ProfileConfigError(ValueError):
    """Raised when a damage-profile config file violates the schema."""


def profile_to_dict(profile: DamageProfile) -> dict:
    d = asdict(profile)
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
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
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
    return profiles
