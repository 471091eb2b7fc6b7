"""Command-line front end.

Subcommands:
  thresholds  -- SRS/SBS threshold curve versus fiber length, CSV
  campaign    -- single or Monte Carlo laser-damage campaigns, JSON
  impact      -- mean-photon-number impact of an attenuation change, JSON
  risk        -- Bayesian vulnerability prediction for untested systems, JSON

stdout carries only the machine-readable artifact; human-oriented notes go
to stderr. Exit codes: 0 ok, 1 the output could not all be written (stdout
closed early, or a failed write), 2 flag validation, 3 config schema
violation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import operator
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

from . import fiber
from .attenuators import (
    AttenuatorClass,
    ProfileConfigError,
    load_profiles,
    new_attenuator,
    specimen_inputs,
)
from .campaign import (
    DEFAULT_LINK,
    STEP_EVENTS,
    CampaignConfig,
    CampaignOutcome,
    Trial,
    document_header,
    monte_carlo,
    run_campaign,
    trial_seeds,
)
from .impact import DEFAULT_MU0, impact_report
from .risk import Prior, RiskQuery, TestRecord, risk_report

EXIT_WRITE_FAILED = 1
EXIT_CONFIG_ERROR = 3

CONFIG_ENV_VAR = "QLA_CONFIG"


_INDENT = "  "


def _json(obj, level: int = 0) -> str:
    """Indent-2 sorted strict JSON of `obj`, with every line after the first
    indented `level` deep. A newline inside a string is written escaped, so
    every newline in the text is a line break."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + _INDENT * level) if level else text


def _template(obj, level: int, fields: dict[str, str]) -> str:
    """`_json(obj, level)` as a %-format template: each string value of `obj`
    that is a key of `fields` becomes that field's format spec."""
    text = _json(obj, level).replace("%", "%%")
    for marker, spec in fields.items():
        text = text.replace(encode_basestring_ascii(marker), spec)
    return text


# The CampaignStep fields that differ from trial to trial at one rung, in
# sorted order, their order in a step template, with their format specs.
_STEP_READOUTS = {
    "attenuation_after_db": "%r",
    "attenuation_before_db": "%r",
    "attenuation_immediate_db": "%r",
    "delta_db": "%r",
    "event": "%s",
}
# What a trial's text holds between two of its steps.
_STEP_SEPARATOR = ",\n" + _INDENT * 4
_OUTCOME_JSON = {outcome: encode_basestring_ascii(outcome.value) for outcome in CampaignOutcome}
_EVENT_JSON = {event: encode_basestring_ascii(event) for event in STEP_EVENTS}


def _require_finite(*columns: list[float]) -> None:
    """ValueError, as strict JSON raises it, unless every value is finite."""
    if not all(map(math.isfinite, itertools.chain(*columns))):
        raise ValueError("Out of range float values are not JSON compliant")


def _trial_renderer(config: CampaignConfig, klass: AttenuatorClass, setpoint_db: float):
    """A function from a Trial of one monte_carlo run to its text: what
    `_json(result.to_json_dict(config), 2)` writes for the result
    run_campaign gives the trial, byte for byte.

    The parts every trial shares are written once by _json, into templates
    whose varying fields are filled with the repr of floats, as the JSON
    encoder writes them.
    """
    trial_fields = ("attack_power_dbm", "baseline_db", "final_delta_db", "outcome", "seed")
    trial_template = _template(
        {
            **document_header(config, klass, float(setpoint_db), "\0seed"),
            **{name: "\0" + name for name in trial_fields},
            "steps": ["\0steps"],
        },
        2,
        {"\0" + name: f"%({name})s" for name in (*trial_fields, "steps")},
    )
    step_templates: list[str] = []  # by rung: every trial of a run shares the ladder

    def step_template(trial: Trial, rung: int) -> str:
        step = {name: "\0" + name for name in _STEP_READOUTS}
        for name in ("power_dbm_set", "power_w_delivered", "duration_s"):
            step[name] = getattr(trial, name)[rung]
        return _template(step, 4, {"\0" + name: spec for name, spec in _STEP_READOUTS.items()})

    def render(trial: Trial) -> str:
        after, immediate = trial.attenuation_after_db, trial.attenuation_immediate_db
        # the first step starts from the baseline, each later one from the
        # step before's after
        before = [trial.baseline_db, *after[:-1]]
        delta = list(map(operator.sub, after, before))
        _require_finite(after, immediate, before, delta, [trial.final_delta_db])
        for rung in range(len(step_templates), len(after)):
            step_templates.append(step_template(trial, rung))
        # in _STEP_READOUTS order; zip stops at the trial's last step
        fills = zip(after, before, immediate, delta, map(_EVENT_JSON.__getitem__, trial.events))
        power = trial.attack_power_dbm
        return trial_template % {
            "attack_power_dbm": "null" if power is None else repr(power),
            "baseline_db": repr(trial.baseline_db),
            "final_delta_db": repr(trial.final_delta_db),
            "outcome": _OUTCOME_JSON[trial.outcome],
            "seed": repr(trial.seed),
            "steps": _STEP_SEPARATOR.join(map(operator.mod, step_templates, fills)),
        }

    return render


def _write(out, *chunks: str) -> None:
    """Write a run's whole output, in one call, to the --out file in place of
    what it held, or else to whatever sys.stdout is now."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    # opened without truncating, so a run that fails before its output is
    # ready leaves the file as it was; a device or pipe has nothing to cut
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        out.truncate(0)
    out.writelines(chunks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attenattack",
        description="Laser-damage attack simulator for QKD source attenuators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)  # flags of every subcommand
    laser_defaults = fiber.LaserSource._field_defaults  # a class attribute is a field's getter
    config_defaults = CampaignConfig._field_defaults
    risk_defaults = RiskQuery._field_defaults
    common.add_argument("--out", default=None)

    p = sub.add_parser("thresholds", help="SRS/SBS threshold curve CSV", parents=[common])
    p.set_defaults(handler=_cmd_thresholds)
    p.add_argument("--l-min-km", type=float, default=0.01)
    p.add_argument("--l-max-km", type=float, default=20.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--linewidth-ghz", type=float, default=laser_defaults["linewidth_ghz"])
    p.add_argument("--alpha-per-km", type=float, default=fiber.DEFAULT_ALPHA_PER_KM)
    p.add_argument("--a-eff-um2", type=float, default=fiber.DEFAULT_A_EFF_UM2)
    p.add_argument("--g-r-m-per-w", type=float, default=fiber.DEFAULT_G_R_M_PER_W)
    p.add_argument("--g-b-m-per-w", type=float, default=fiber.DEFAULT_G_B_M_PER_W)
    p.add_argument(
        "--delta-nu-b-mhz", type=float, default=fiber.DEFAULT_DELTA_NU_B_MHZ
    )

    p = sub.add_parser("campaign", help="run seeded damage campaign(s)", parents=[common])
    p.set_defaults(handler=_cmd_campaign)
    p.add_argument(
        "--class",
        dest="attenuator_class",
        required=True,
        choices=[c.value for c in AttenuatorClass],
    )
    p.add_argument("--setpoint-db", type=float, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON damage-profile overrides")
    p.add_argument("--per-trial", action="store_true", help="include per-trial logs")
    p.add_argument("--start-dbm", type=float, default=config_defaults["start_power_dbm"])
    p.add_argument("--step-dbm", type=float, default=config_defaults["step_dbm"])
    p.add_argument("--max-dbm", type=float, default=config_defaults["max_power_dbm"])
    p.add_argument("--dwell-s", type=float, default=config_defaults["dwell_s"])
    p.add_argument("--cooldown-s", type=float, default=config_defaults["cooldown_s"])
    p.add_argument("--length-km", type=float, default=DEFAULT_LINK.length_km)
    p.add_argument("--connectorized", action="store_true")
    p.add_argument("--fuse-threshold-w", type=float, default=config_defaults["fuse_threshold_w"])

    p = sub.add_parser("impact", help="mean-photon-number impact report", parents=[common])
    p.set_defaults(handler=_cmd_impact)
    p.add_argument("--delta-db", type=float, required=True)
    p.add_argument("--mu0", type=float, default=DEFAULT_MU0)

    p = sub.add_parser("risk", help="Bayesian vulnerability prediction", parents=[common])
    p.set_defaults(handler=_cmd_risk)
    p.add_argument("--tested", type=int, default=5)
    p.add_argument("--compromised", type=int, default=4)
    p.add_argument("--dos", type=int, default=1)
    p.add_argument("--population", type=int, default=risk_defaults["population_total"])
    p.add_argument("--fraction", type=float, default=risk_defaults["vulnerable_fraction"])
    p.add_argument(
        "--prior", choices=[pr.value for pr in Prior], default=risk_defaults["prior"].value
    )

    return parser


def _cmd_thresholds(args, out) -> int:
    template = fiber.FiberLink(
        length_km=args.l_max_km,
        alpha_per_km=args.alpha_per_km,
        a_eff_um2=args.a_eff_um2,
        g_r_m_per_w=args.g_r_m_per_w,
        g_b_m_per_w=args.g_b_m_per_w,
        delta_nu_b_mhz=args.delta_nu_b_mhz,
    )
    laser = fiber.LaserSource(linewidth_ghz=args.linewidth_ghz)
    curve = fiber.threshold_curve(template, laser, args.l_min_km, args.l_max_km, args.points)
    _write(out, curve.to_csv())
    return 0


def _cmd_campaign(args, out) -> int:
    klass = AttenuatorClass(args.attenuator_class)
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    profile = None  # the class's shipped profile
    if config_path:
        try:
            profile = load_profiles(config_path)[klass]
        except (OSError, ProfileConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR

    config = CampaignConfig(
        start_power_dbm=args.start_dbm,
        step_dbm=args.step_dbm,
        dwell_s=args.dwell_s,
        max_power_dbm=args.max_dbm,
        cooldown_s=args.cooldown_s,
        connectorized_output=args.connectorized,
        fuse_threshold_w=args.fuse_threshold_w,
    )
    link = fiber.FiberLink(length_km=args.length_km)
    laser = fiber.LaserSource()
    # checked before a --per-trial run writes the setpoint into its template
    profile, setpoint = specimen_inputs(klass, profile, args.setpoint_db)

    if args.trials == 1:
        state = new_attenuator(klass, profile, setpoint, seed=trial_seeds(args.seed, 1)[0])
        result = run_campaign(config, state, link, laser)
        _write(out, _json(result.to_json_dict(config)), "\n")
        return 0

    # Each trial of a multi-trial run is rendered as it finishes; only its
    # text is kept, after the separator that precedes it in "trials".
    trials: list[str] = []
    render = _trial_renderer(config, klass, setpoint) if args.per_trial else None

    def keep(trial: Trial) -> None:
        trials.append(",\n    " if trials else "\n    ")
        trials.append(render(trial))

    summary = monte_carlo(
        config,
        klass,
        profile,
        setpoint,
        n_trials=args.trials,
        seed=args.seed,
        link=link,
        laser=laser,
        on_trial=keep if args.per_trial else None,
    )
    doc = _json({
        **document_header(config, klass, setpoint, args.seed),
        "summary": summary.to_json_dict(),
    })
    if not args.per_trial:
        _write(out, doc, "\n")
        return 0
    # "trials" sorts after every other key, so it goes in just before the
    # closing "\n}" of the document encoded without it.
    _write(out, doc[:-2], ',\n  "trials": [', *trials, "\n  ]\n}\n")
    return 0


def _cmd_impact(args, out) -> int:
    report = impact_report(args.delta_db, mu_before=args.mu0)
    print(report.summary_line(), file=sys.stderr)
    _write(out, _json(report.to_json_dict()), "\n")
    return 0


def _cmd_risk(args, out) -> int:
    query = RiskQuery(
        record=TestRecord(
            n_tested=args.tested,
            n_compromised=args.compromised,
            n_dos=args.dos,
        ),
        population_total=args.population,
        vulnerable_fraction=args.fraction,
        prior=Prior(args.prior),
    )
    _write(out, _json(risk_report(query)), "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    # No subcommand does linear algebra, so one BLAS thread spares each run the
    # start of OpenBLAS's thread pool. It must be set before numpy is first
    # imported, which importing this module does not do; a value already set
    # wins. Set here rather than in __main__, so the console script gets it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = code = None
    if args.out is not None:
        # Opened before any compute, so a bad path fails at once, but not
        # truncated: the file may be the run's config, and a run that fails
        # leaves it as it was. A run that fails removes the file it created
        # rather than leave it empty.
        created = not os.path.exists(args.out)
        try:
            out = open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w")
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: error: cannot open --out {args.out}: {exc.strerror}\n")
    try:
        code = args.handler(args, out)
        if out is not None:
            out.close()  # flushes the file's last writes
        sys.stdout.flush()
    except ValueError as exc:  # a library input check: a flag validation error
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except OSError as exc:
        # A write failed, or the reader closed stdout early (`| head`), which
        # it meant to. Python flushes stdout again at exit, so point it at
        # devnull for that flush to succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"{parser.prog}: error: cannot write output: {exc.strerror}", file=sys.stderr)
        code = EXIT_WRITE_FAILED
    finally:
        if out is not None:
            # after a failed write, close fails again but closes the file
            with contextlib.suppress(OSError):
                out.close()
            if code != 0 and created:
                os.remove(args.out)
    return code


def run() -> None:
    """The process entry of `python -m attenattack` and the console script."""
    # A run builds no reference cycles that grow with its input, and the
    # process ends right after it, so the cyclic collector only costs time:
    # its passes over numpy's objects while numpy imports, and at exit its
    # walk of every live object. Those exit-time passes run even with the
    # collector disabled, so the heap is frozen too; atexit handlers still
    # run. An argparse error leaves main through SystemExit, as before.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
