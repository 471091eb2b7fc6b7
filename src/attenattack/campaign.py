"""Stepwise laser-damage test campaign against one attenuator specimen.

The campaign raises the injected c.w. power from a start level in fixed dBm
steps, dwells at each level, measures the attenuation after shutoff (and,
for thermally responding classes, immediately at shutoff), and stops on the
first of: attenuation drop beyond the success threshold, attenuation rise
beyond the failure threshold, a fiber-fuse interlock trip at the output
connector, or the maximum deliverable power being exhausted.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, asdict
from typing import NamedTuple

from ._streams import state_words
from .fiber import (
    FiberLink,
    LaserSource,
    dbm_to_watts,
    watts_to_dbm,
    delivered_power,
    max_injectable_power,
)
from .attenuators import (
    CRITICAL_EVENT,
    NO_CHANGE_EVENT,
    RUNG_READOUTS,
    AttenuatorClass,
    AttenuatorState,
    DamageProfile,
    OutcomeKind,
    apply_exposure,
    attenuation,
    cool_down,
    new_attenuator,
)
from .impact import DEFAULT_FAILURE_THRESHOLD_DB, DEFAULT_SUCCESS_THRESHOLD_DB

SCHEMA_VERSION = 1

# Most rungs a power ladder may hold; the default ladder has 30.
MAX_RUNGS = 2000

# Most trials a Monte Carlo run may hold. The engine keeps one block of seeds
# and no trial past its observer's call, so memory does not bound the count,
# but a run of this many takes tens of seconds, and one far beyond it would
# run for hours.
MAX_TRIALS = 10**6

# The injection link of a campaign given none: a 20 m patch fiber.
DEFAULT_LINK = FiberLink(length_km=0.02)

# The event of a step that tripped the fiber-fuse interlock.
FUSE_TRIP = "FuseTrip"


class CampaignOutcome(enum.Enum):
    SUCCESS = "Success"
    CRITICAL_FAILURE = "CriticalFailure"
    INCONCLUSIVE = "Inconclusive"
    FIBER_FUSE_DOS = "FiberFuseDoS"


@dataclass(frozen=True)
class CampaignConfig:
    start_power_dbm: float = 25.0
    step_dbm: float = 0.5
    dwell_s: float = 10.0
    success_delta_db: float = DEFAULT_SUCCESS_THRESHOLD_DB
    failure_delta_db: float = DEFAULT_FAILURE_THRESHOLD_DB
    max_power_dbm: float = 39.5
    cooldown_s: float = 10.0
    connectorized_output: bool = False
    fuse_threshold_w: float = 4.5

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.start_power_dbm > self.max_power_dbm:
            raise ValueError("start power must not exceed max power")
        if not 0.5 <= self.step_dbm <= 1.0:
            raise ValueError(f"step_dbm must lie in [0.5, 1], got {self.step_dbm}")
        if self.dwell_s < 10.0:
            raise ValueError(f"dwell_s must be >= 10, got {self.dwell_s}")
        if not self.success_delta_db < 0 < self.failure_delta_db:
            raise ValueError("need success_delta_db < 0 < failure_delta_db")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.fuse_threshold_w <= 0:
            raise ValueError("fuse_threshold_w must be > 0")


class CampaignStep(NamedTuple):
    power_dbm_set: float
    power_w_delivered: float
    duration_s: float
    attenuation_before_db: float
    attenuation_immediate_db: float
    attenuation_after_db: float
    delta_db: float
    event: str


class CampaignResult(NamedTuple):
    outcome: CampaignOutcome
    steps: list[CampaignStep]
    final_state: AttenuatorState
    baseline_db: float
    final_delta_db: float
    attack_power_dbm: float | None

    def to_json_dict(self, config: CampaignConfig) -> dict:
        state = self.final_state
        return {
            **document_header(config, state.klass, state.setpoint_db, state.seed),
            "baseline_db": self.baseline_db,
            "outcome": self.outcome.value,
            "final_delta_db": self.final_delta_db,
            "attack_power_dbm": self.attack_power_dbm,
            "steps": [s._asdict() for s in self.steps],
        }


def document_header(
    config: CampaignConfig, klass: AttenuatorClass, setpoint_db: float, seed: int
) -> dict:
    """The keys a campaign document shares with a Monte Carlo one."""
    return {
        "schema": SCHEMA_VERSION,
        "config": asdict(config),
        "attenuator_class": klass.value,
        "setpoint_db": setpoint_db,
        "seed": seed,
    }


def check_fuse(config: CampaignConfig, power_w_at_connector: float) -> bool:
    """Fiber-fuse trip test at the device's output connector.

    Only connectorized outputs can ignite; splice-terminated outputs pass
    any power the fiber itself tolerates.
    """
    if power_w_at_connector < 0:
        raise ValueError("power must be >= 0")
    return config.connectorized_output and power_w_at_connector >= config.fuse_threshold_w


def _power_ladder(config: CampaignConfig, link: FiberLink, laser: LaserSource):
    """Yield the campaign's rungs as (p_set_dbm, p_delivered_w, p_delivered_dbm, fuse).

    Power climbs from the start level in fixed steps up to the lower of
    max_power_dbm and the link's injectable limit. The last rung is the
    first that reaches that cap or trips the fuse. A rung that delivers 0 W
    reads -inf dBm. A ladder of more than MAX_RUNGS rungs is rejected.
    """
    injectable_w, _ = max_injectable_power(link, laser)
    if dbm_to_watts(config.start_power_dbm) > injectable_w:
        raise ValueError(
            f"start power {config.start_power_dbm} dBm exceeds the injectable "
            f"limit of {injectable_w:.3g} W"
        )
    cap_dbm = min(config.max_power_dbm, watts_to_dbm(injectable_w))
    if (cap_dbm - config.start_power_dbm) / config.step_dbm > MAX_RUNGS - 1:
        raise ValueError(f"a ladder from {config.start_power_dbm} dBm has over {MAX_RUNGS} rungs")
    p_dbm = config.start_power_dbm
    while True:
        p_set = min(p_dbm, cap_dbm)
        p_delivered = delivered_power(link, dbm_to_watts(p_set))
        fuse = check_fuse(config, p_delivered)
        yield p_set, p_delivered, watts_to_dbm(p_delivered) if p_delivered > 0 else -math.inf, fuse
        if fuse or p_set >= cap_dbm:
            return
        p_dbm += config.step_dbm


def _stop(config: CampaignConfig, baseline_db: float, immediate: float, after: float, destroyed):
    """(outcome, final_delta_db) of a step that ends its campaign, else (None,
    its delta after cool-down). A step that meets both ends in success."""
    delta_eval = min(immediate, after) - baseline_db
    if delta_eval <= config.success_delta_db:
        return CampaignOutcome.SUCCESS, delta_eval
    delta_post = after - baseline_db
    if destroyed or delta_post >= config.failure_delta_db:
        return CampaignOutcome.CRITICAL_FAILURE, delta_post
    return None, delta_post


def run_campaign(
    config: CampaignConfig,
    state: AttenuatorState,
    link: FiberLink,
    laser: LaserSource,
) -> CampaignResult:
    """Drive one attenuator through the stepwise damage procedure."""
    if state.destroyed:
        raise ValueError("campaign requires an intact attenuator")

    baseline_db = attenuation(state)
    steps: list[CampaignStep] = []
    attack_power: float | None = None

    before = baseline_db  # each step starts from the previous step's `after`
    for p_set, p_delivered, _, fuse in _power_ladder(config, link, laser):
        if fuse:
            # No exposure: it holds the previous `after`, or the baseline on rung 1.
            # Its delta_eval is no lower and its delta_post the same as the previous
            # step's, or on rung 1 both are 0, in (success_delta_db, failure_delta_db);
            # a NaN readout fails both comparisons. So it cannot stop the campaign.
            immediate = after = before
            duration, event = 0.0, FUSE_TRIP
        else:
            state, exposure = apply_exposure(state, p_delivered, config.dwell_s)
            immediate = attenuation(state)
            state = cool_down(state, config.cooldown_s)
            after = attenuation(state)
            duration, event = config.dwell_s, exposure.kind.value
        steps.append(
            CampaignStep(
                power_dbm_set=p_set,
                power_w_delivered=p_delivered,
                duration_s=duration,
                attenuation_before_db=before,
                attenuation_immediate_db=immediate,
                attenuation_after_db=after,
                delta_db=after - before,
                event=event,
            )
        )

        outcome, final_delta = _stop(config, baseline_db, immediate, after, state.destroyed)
        if outcome is not None:
            if outcome is CampaignOutcome.SUCCESS:
                attack_power = p_set
            break
        before = after
    else:  # still running at the last rung: it trips the fuse or reaches the cap
        outcome = CampaignOutcome.FIBER_FUSE_DOS if fuse else CampaignOutcome.INCONCLUSIVE

    return CampaignResult(
        outcome=outcome,
        steps=steps,
        final_state=state,
        baseline_db=baseline_db,
        final_delta_db=final_delta,
        attack_power_dbm=attack_power,
    )


class MonteCarloSummary(NamedTuple):
    n_trials: int
    success_rate: float
    critical_failure_rate: float
    inconclusive_rate: float
    fiber_fuse_rate: float
    mean_success_delta_db: float | None
    mean_attack_threshold_dbm: float | None

    def to_json_dict(self) -> dict:
        return self._asdict()


def _check_seed(master_seed: int) -> None:
    if master_seed < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed}")


def trial_seeds(master_seed: int, n_trials: int, offset: int = 0) -> list[int]:
    """Independent uint64 seeds of trials offset .. offset + n_trials - 1,
    by SeedSequence state expansion: the words of
    SeedSequence(master_seed).generate_state(offset + n_trials, np.uint64)
    from `offset` on, computed without those before it."""
    _check_seed(master_seed)
    return state_words(master_seed, offset, n_trials)


# Trials whose seeds trial_seeds computes at once: a fixed block keeps the
# engine's memory independent of n_trials.
_BATCH_TRIALS = 256

# A step's event is one of STEP_EVENTS: the exposure outcome kinds, then the
# fuse trip.
STEP_EVENTS = (*(kind.value for kind in OutcomeKind), FUSE_TRIP)


class Trial(NamedTuple):
    """One trial of a Monte Carlo run: its seed, outcome, final_delta_db,
    attack_power_dbm (None unless it succeeded), and per step, up to the rung
    the campaign stopped on, its readouts at shutoff and after cool-down and
    its event. Every trial of a run shares the rest: `baseline_db`, the
    readout before any exposure, and per rung of the ladder the CampaignStep
    fields that hold for every trial; a trial's steps are its first
    len(events) rungs."""

    seed: int
    outcome: CampaignOutcome
    final_delta_db: float
    attack_power_dbm: float | None
    attenuation_immediate_db: list[float]
    attenuation_after_db: list[float]
    events: list[str]
    baseline_db: float
    power_dbm_set: list[float]
    power_w_delivered: list[float]
    duration_s: list[float]


def _trials(
    config: CampaignConfig,
    klass: AttenuatorClass,
    profile: DamageProfile | None,
    setpoint_db: float | None,
    seed: int,
    n_trials: int,
    link: FiberLink,
    laser: LaserSource,
):
    """Yield the Trial of each of the n_trials trials of master `seed`, in
    order, each seeded by trial_seeds.

    Each trial's values and steps are those run_campaign gives its specimen.
    """
    # One fresh specimen checks the inputs, then gives the readout before any
    # exposure: the same for every specimen, as they share one class,
    # profile and setpoint.
    first = new_attenuator(klass, profile, setpoint_db)
    baseline = attenuation(first)
    rungs = list(_power_ladder(config, link, laser))
    p_set, p_w, p_dbm, fuse = (list(column) for column in zip(*rungs))
    fused = fuse[-1]  # only the last rung can trip the fuse
    n_exposed = len(rungs) - fused
    duration = [0.0 if f else config.dwell_s for f in fuse]
    walk = RUNG_READOUTS[klass](first, baseline, p_w[:n_exposed], p_dbm[:n_exposed], config)
    unchanged = [NO_CHANGE_EVENT] * n_exposed + [FUSE_TRIP] * fused
    for lo in range(0, n_trials, _BATCH_TRIALS):
        for trial_seed in trial_seeds(seed, min(_BATCH_TRIALS, n_trials - lo), lo):
            immediate = [baseline] * len(rungs)
            after = immediate.copy()
            events = unchanged.copy()
            for k, shown, cooled, event in walk(trial_seed):
                immediate[k], after[k], events[k] = shown, cooled, event
                # apply_exposure destroys a specimen exactly when it reports CriticalFailure
                destroyed = event == CRITICAL_EVENT
                outcome, final_delta = _stop(config, baseline, shown, cooled, destroyed)
                if outcome is not None:
                    break
            else:  # still running at the last rung: it trips the fuse or reaches the cap
                k = len(rungs) - 1
                if fused and k:
                    # a fuse rung is never exposed: it keeps the readout of
                    # the rung before it, or the baseline on rung 1, so, as in
                    # run_campaign, it can only end the campaign
                    immediate[k] = after[k] = after[k - 1]
                outcome = CampaignOutcome.FIBER_FUSE_DOS if fused else CampaignOutcome.INCONCLUSIVE
                final_delta = after[k] - baseline
            del immediate[k + 1:], after[k + 1:], events[k + 1:]
            power = p_set[k] if outcome is CampaignOutcome.SUCCESS else None
            yield Trial(
                trial_seed, outcome, final_delta, power, immediate, after, events,
                baseline, p_set, p_w, duration,
            )


def monte_carlo(
    config: CampaignConfig,
    klass: AttenuatorClass,
    profile: DamageProfile | None = None,
    setpoint_db: float | None = None,
    n_trials: int = 1000,
    seed: int = 0,
    link: FiberLink = DEFAULT_LINK,
    laser: LaserSource = LaserSource(),
    on_trial: Callable[[Trial], None] | None = None,
) -> MonteCarloSummary:
    """Run independent seeded campaigns and aggregate outcome statistics.

    Each trial gets the outcome run_campaign gives its specimen. `on_trial`,
    if given, sees each trial with its steps, in trial order; no trial
    outlives its call here. The run keeps one block of seeds and running
    totals.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n_trials}")
    _check_seed(seed)

    counts = dict.fromkeys(CampaignOutcome, 0)
    delta_sum = power_sum = 0
    for trial in _trials(config, klass, profile, setpoint_db, seed, n_trials, link, laser):
        counts[trial.outcome] += 1
        if trial.outcome is CampaignOutcome.SUCCESS:
            # in trial order, left to right, so the sums add the same floats
            # in the same order as a loop over run_campaign's results would
            delta_sum += trial.final_delta_db
            power_sum += trial.attack_power_dbm
        if on_trial is not None:
            on_trial(trial)

    successes = counts[CampaignOutcome.SUCCESS]
    return MonteCarloSummary(
        n_trials,
        # the rate fields are in CampaignOutcome order
        *(count / n_trials for count in counts.values()),
        mean_success_delta_db=delta_sum / successes if successes else None,
        mean_attack_threshold_dbm=power_sum / successes if successes else None,
    )
