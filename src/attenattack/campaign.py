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

import numpy as np

from .fiber import (
    FiberLink,
    LaserSource,
    dbm_to_watts,
    watts_to_dbm,
    delivered_power,
    max_injectable_power,
)
from .attenuators import (
    BATCH_READOUT,
    AttenuatorClass,
    AttenuatorState,
    DamageProfile,
    apply_exposure,
    attenuation,
    cool_down,
    new_attenuator,
)
from .impact import DEFAULT_FAILURE_THRESHOLD_DB, DEFAULT_SUCCESS_THRESHOLD_DB

SCHEMA_VERSION = 1

# Most rungs a power ladder may hold; the default ladder has 30.
MAX_RUNGS = 2000


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


@dataclass(frozen=True)
class CampaignStep:
    power_dbm_set: float
    power_w_delivered: float
    duration_s: float
    attenuation_before_db: float
    attenuation_immediate_db: float
    attenuation_after_db: float
    delta_db: float
    event: str


@dataclass
class CampaignResult:
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
            "steps": [dict(vars(s)) for s in self.steps],
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


def _stop_rule(config: CampaignConfig, delta_eval, delta_post, destroyed):
    """(success, critical failure) of an exposed rung, floats or arrays.

    Success is checked first: a rung that meets both ends in success.
    """
    return (
        delta_eval <= config.success_delta_db,
        destroyed | (delta_post >= config.failure_delta_db),
    )


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
    outcome = CampaignOutcome.INCONCLUSIVE
    attack_power: float | None = None

    before = baseline_db  # each step starts from the previous step's `after`
    for p_set, p_delivered, _, fuse in _power_ladder(config, link, laser):
        if fuse:
            steps.append(
                CampaignStep(
                    power_dbm_set=p_set,
                    power_w_delivered=p_delivered,
                    duration_s=0.0,
                    attenuation_before_db=before,
                    attenuation_immediate_db=before,
                    attenuation_after_db=before,
                    delta_db=0.0,
                    event="FuseTrip",
                )
            )
            outcome = CampaignOutcome.FIBER_FUSE_DOS
            final_delta = before - baseline_db
            break

        state, exposure = apply_exposure(state, p_delivered, config.dwell_s)
        immediate = attenuation(state)
        state = cool_down(state, config.cooldown_s)
        after = attenuation(state)
        steps.append(
            CampaignStep(
                power_dbm_set=p_set,
                power_w_delivered=p_delivered,
                duration_s=config.dwell_s,
                attenuation_before_db=before,
                attenuation_immediate_db=immediate,
                attenuation_after_db=after,
                delta_db=after - before,
                event=exposure.kind.value,
            )
        )

        delta_eval = min(immediate, after) - baseline_db
        final_delta = after - baseline_db
        success, failure = _stop_rule(config, delta_eval, final_delta, state.destroyed)
        if success:
            outcome = CampaignOutcome.SUCCESS
            final_delta = delta_eval
            attack_power = p_set
            break
        if failure:
            outcome = CampaignOutcome.CRITICAL_FAILURE
            break
        before = after

    return CampaignResult(
        outcome=outcome,
        steps=steps,
        final_state=state,
        baseline_db=baseline_db,
        final_delta_db=final_delta,
        attack_power_dbm=attack_power,
    )


@dataclass(frozen=True)
class MonteCarloSummary:
    n_trials: int
    success_rate: float
    critical_failure_rate: float
    inconclusive_rate: float
    fiber_fuse_rate: float
    mean_success_delta_db: float | None
    mean_attack_threshold_dbm: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def trial_seeds(master_seed: int, n_trials: int) -> list[int]:
    """Independent per-trial seeds derived by SeedSequence state expansion."""
    ss = np.random.SeedSequence(master_seed)
    return [int(s) for s in ss.generate_state(n_trials, dtype=np.uint64)]


# Trials the batched engine reads at once. Its arrays are trials x rungs, so
# a fixed batch keeps its memory independent of n_trials.
_BATCH_TRIALS = 256

# A batched trial's outcome code indexes this.
_OUTCOMES = tuple(CampaignOutcome)
_CODE = {outcome: code for code, outcome in enumerate(_OUTCOMES)}


def _batched_trials(
    config: CampaignConfig,
    klass: AttenuatorClass,
    profile: DamageProfile | None,
    setpoint_db: float | None,
    seeds: list[int],
    link: FiberLink,
    laser: LaserSource,
):
    """Yield (outcome codes, final_delta_db, attack_power_dbm) per batch of trials.

    Each trial's values are those run_campaign gives its specimen; the
    attack power is only meaningful where the outcome is a success.
    """
    readout = BATCH_READOUT[klass]
    rungs = None
    for lo in range(0, len(seeds), _BATCH_TRIALS):
        specimens = [
            new_attenuator(klass, profile, setpoint_db, seed=s)
            for s in seeds[lo:lo + _BATCH_TRIALS]
        ]
        if rungs is None:  # after a draw, so a bad setpoint is reported first
            rungs = list(_power_ladder(config, link, laser))
            p_set = np.array([r[0] for r in rungs])
            fused = rungs[-1][3]
            exposed = rungs[:-1] if fused else rungs
            p_w = np.array([r[1] for r in exposed])
            p_dbm = np.array([r[2] for r in exposed])
        n, n_exposed = len(specimens), len(exposed)
        baseline, lowest, after, destroyed = readout(specimens, p_w, p_dbm, config)

        # one column per rung; a fuse rung is never exposed and can only end
        # the campaign, with the readout of the rung before it
        delta_eval = np.empty((n, len(rungs)))
        delta_post = np.empty((n, len(rungs)))
        success = np.zeros((n, len(rungs)), dtype=bool)
        failure = np.zeros((n, len(rungs)), dtype=bool)
        exposed_cols = slice(0, n_exposed)
        delta_eval[:, exposed_cols] = lowest - baseline
        delta_post[:, exposed_cols] = after - baseline
        success[:, exposed_cols], failure[:, exposed_cols] = _stop_rule(
            config, delta_eval[:, exposed_cols], delta_post[:, exposed_cols], destroyed
        )
        if fused:
            delta_post[:, -1] = delta_post[:, -2] if n_exposed else baseline - baseline

        stop = success | failure
        stop[:, -1] = True  # the last rung ends every campaign still running
        k = stop.argmax(axis=1)
        rows = np.arange(n)
        won = success[rows, k]
        codes = np.select(
            [won, failure[rows, k]],
            [_CODE[CampaignOutcome.SUCCESS], _CODE[CampaignOutcome.CRITICAL_FAILURE]],
            _CODE[CampaignOutcome.FIBER_FUSE_DOS if fused else CampaignOutcome.INCONCLUSIVE],
        )
        yield codes, np.where(won, delta_eval[rows, k], delta_post[rows, k]), p_set[k]


def monte_carlo(
    config: CampaignConfig,
    klass: AttenuatorClass,
    profile: DamageProfile | None = None,
    setpoint_db: float | None = None,
    n_trials: int = 1000,
    seed: int = 0,
    link: FiberLink = FiberLink(length_km=0.02),
    laser: LaserSource = LaserSource(),
    on_result: Callable[[CampaignResult], None] | None = None,
) -> MonteCarloSummary:
    """Run independent seeded campaigns and aggregate outcome statistics.

    `on_result`, if given, sees each trial's result as soon as it finishes;
    no result outlives its trial here, so memory does not grow with
    `n_trials`. Without it, the batched engine gives the same summary
    without building results.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")

    counts = {o: 0 for o in CampaignOutcome}
    success_deltas: list[float] = []
    attack_powers: list[float] = []
    seeds = trial_seeds(seed, n_trials)

    if on_result is None:
        batches = _batched_trials(config, klass, profile, setpoint_db, seeds, link, laser)
        for codes, final_delta, attack_power in batches:
            tally = np.bincount(codes, minlength=len(_OUTCOMES)).tolist()
            for outcome, count in zip(_OUTCOMES, tally):
                counts[outcome] += count
            won = codes == _CODE[CampaignOutcome.SUCCESS]
            # in trial order, so the sums below add the same floats in the
            # same order as the per-trial loop
            success_deltas.extend(final_delta[won].tolist())
            attack_powers.extend(attack_power[won].tolist())
    else:
        for trial_seed in seeds:
            state = new_attenuator(klass, profile, setpoint_db, seed=trial_seed)
            result = run_campaign(config, state, link, laser)
            counts[result.outcome] += 1
            if result.outcome is CampaignOutcome.SUCCESS:
                success_deltas.append(result.final_delta_db)
                attack_powers.append(result.attack_power_dbm)
            on_result(result)

    return MonteCarloSummary(
        n_trials=n_trials,
        success_rate=counts[CampaignOutcome.SUCCESS] / n_trials,
        critical_failure_rate=counts[CampaignOutcome.CRITICAL_FAILURE] / n_trials,
        inconclusive_rate=counts[CampaignOutcome.INCONCLUSIVE] / n_trials,
        fiber_fuse_rate=counts[CampaignOutcome.FIBER_FUSE_DOS] / n_trials,
        mean_success_delta_db=(
            sum(success_deltas) / len(success_deltas) if success_deltas else None
        ),
        mean_attack_threshold_dbm=(
            sum(attack_powers) / len(attack_powers) if attack_powers else None
        ),
    )
