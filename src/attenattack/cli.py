"""Command-line front end.

Subcommands:
  thresholds  -- SRS/SBS threshold curve versus fiber length, CSV
  campaign    -- single or Monte Carlo laser-damage campaigns, JSON
  impact      -- mean-photon-number impact of an attenuation change, JSON
  risk        -- Bayesian vulnerability prediction for untested systems, JSON

stdout carries only the machine-readable artifact; human-oriented notes go
to stderr. Exit codes: 0 ok, 2 flag validation, 3 config schema violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import fiber
from .attenuators import (
    AttenuatorClass,
    DEFAULT_PROFILES,
    DEFAULT_SETPOINTS,
    ProfileConfigError,
    load_profiles,
    new_attenuator,
)
from .campaign import SCHEMA_VERSION, CampaignConfig, monte_carlo, run_campaign, trial_seeds
from .impact import impact_report
from .risk import Prior, RiskQuery, TestRecord, risk_report

EXIT_CONFIG_ERROR = 3

CONFIG_ENV_VAR = "QLA_CONFIG"


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attenattack",
        description="Laser-damage attack simulator for QKD source attenuators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("thresholds", help="SRS/SBS threshold curve CSV")
    p.add_argument("--l-min-km", type=float, default=0.01)
    p.add_argument("--l-max-km", type=float, default=20.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--linewidth-ghz", type=float, default=10.0)
    p.add_argument("--alpha-per-km", type=float, default=fiber.DEFAULT_ALPHA_PER_KM)
    p.add_argument("--a-eff-um2", type=float, default=fiber.DEFAULT_A_EFF_UM2)
    p.add_argument("--g-r-m-per-w", type=float, default=fiber.DEFAULT_G_R_M_PER_W)
    p.add_argument("--g-b-m-per-w", type=float, default=fiber.DEFAULT_G_B_M_PER_W)
    p.add_argument(
        "--delta-nu-b-mhz", type=float, default=fiber.DEFAULT_DELTA_NU_B_MHZ
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("campaign", help="run seeded damage campaign(s)")
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
    p.add_argument("--start-dbm", type=float, default=25.0)
    p.add_argument("--step-dbm", type=float, default=0.5)
    p.add_argument("--max-dbm", type=float, default=39.5)
    p.add_argument("--dwell-s", type=float, default=10.0)
    p.add_argument("--cooldown-s", type=float, default=10.0)
    p.add_argument("--length-km", type=float, default=0.02)
    p.add_argument("--connectorized", action="store_true")
    p.add_argument("--fuse-threshold-w", type=float, default=4.5)
    p.add_argument("--out", default=None)

    p = sub.add_parser("impact", help="mean-photon-number impact report")
    p.add_argument("--delta-db", type=float, required=True)
    p.add_argument("--mu0", type=float, default=0.5)
    p.add_argument("--out", default=None)

    p = sub.add_parser("risk", help="Bayesian vulnerability prediction")
    p.add_argument("--tested", type=int, default=5)
    p.add_argument("--compromised", type=int, default=4)
    p.add_argument("--dos", type=int, default=1)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument(
        "--prior", choices=[pr.value for pr in Prior], default=Prior.JEFFREYS.value
    )
    p.add_argument("--out", default=None)

    return parser


def _cmd_thresholds(args, parser) -> int:
    try:
        template = fiber.FiberLink(
            length_km=args.l_max_km,
            alpha_per_km=args.alpha_per_km,
            a_eff_um2=args.a_eff_um2,
            g_r_m_per_w=args.g_r_m_per_w,
            g_b_m_per_w=args.g_b_m_per_w,
            delta_nu_b_mhz=args.delta_nu_b_mhz,
        )
        laser = fiber.LaserSource(linewidth_ghz=args.linewidth_ghz)
        curve = fiber.threshold_curve(
            template, laser, args.l_min_km, args.l_max_km, args.points
        )
    except ValueError as exc:
        parser.error(str(exc))
    _emit(curve.to_csv(), args.out)
    return 0


def _cmd_campaign(args, parser) -> int:
    klass = AttenuatorClass(args.attenuator_class)
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        try:
            profiles = load_profiles(config_path)
        except (OSError, ProfileConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    else:
        profiles = DEFAULT_PROFILES
    profile = profiles[klass]

    setpoint = DEFAULT_SETPOINTS[klass] if args.setpoint_db is None else args.setpoint_db

    try:
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

        if args.trials == 1:
            state = new_attenuator(
                klass, profile, setpoint, seed=trial_seeds(args.seed, 1)[0]
            )
            result = run_campaign(config, state, link, laser)
            doc = result.to_json_dict(config)
        else:
            summary, results = monte_carlo(
                config,
                klass,
                profile,
                setpoint,
                n_trials=args.trials,
                seed=args.seed,
                link=link,
                laser=laser,
                collect_results=True,
            )
            doc = {
                "schema": SCHEMA_VERSION,
                "config": asdict(config),
                "attenuator_class": klass.value,
                "setpoint_db": setpoint,
                "seed": args.seed,
                "summary": summary.to_json_dict(),
            }
            if args.per_trial:
                doc["trials"] = [r.to_json_dict(config) for r in results]
    except ValueError as exc:
        parser.error(str(exc))
    _emit(_dump_json(doc), args.out)
    return 0


def _cmd_impact(args, parser) -> int:
    try:
        report = impact_report(args.delta_db, mu_before=args.mu0)
    except ValueError as exc:
        parser.error(str(exc))
    print(report.summary_line(), file=sys.stderr)
    _emit(_dump_json(report.to_json_dict()), args.out)
    return 0


def _cmd_risk(args, parser) -> int:
    try:
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
    except ValueError as exc:
        parser.error(str(exc))
    _emit(_dump_json(risk_report(query)), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "thresholds": _cmd_thresholds,
        "campaign": _cmd_campaign,
        "impact": _cmd_impact,
        "risk": _cmd_risk,
    }
    return handlers[args.subcommand](args, parser)


if __name__ == "__main__":
    sys.exit(main())
