"""Command-line front end.

Subcommands:
  thresholds  -- SRS/SBS threshold curve versus fiber length, CSV
  campaign    -- single or Monte Carlo laser-damage campaigns, JSON
  impact      -- mean-photon-number impact of an attenuation change, JSON
  risk        -- Bayesian vulnerability prediction for untested systems, JSON

stdout carries only the machine-readable artifact; human-oriented notes go
to stderr. Exit codes: 0 ok, 1 stdout closed before the output was all
written, 2 flag validation, 3 config schema violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import fiber
from .attenuators import (
    AttenuatorClass,
    DEFAULT_SETPOINTS,
    ProfileConfigError,
    load_profiles,
    new_attenuator,
)
from .campaign import CampaignConfig, document_header, monte_carlo, run_campaign, trial_seeds
from .impact import impact_report
from .risk import Prior, RiskQuery, TestRecord, risk_report

EXIT_STDOUT_CLOSED = 1
EXIT_CONFIG_ERROR = 3

CONFIG_ENV_VAR = "QLA_CONFIG"


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
# Exact types the C encoder writes as one token, the same as the stdlib does
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(level: int):
    """C encoder for a container of scalars nested `level` deep.

    Its item separator carries the newline and indent that indent mode puts
    between items, so only the brackets need re-spacing.
    """
    return c_make_encoder(
        None,  # no circular-reference markers: documents here are trees
        json.JSONEncoder().default,
        encode_basestring_ascii,
        None,
        ": ",
        ",\n" + _INDENT * (level + 1),
        True,  # sort_keys
        False,  # skipkeys
        False,  # allow_nan
    )


def _encode(obj, level: int, emit) -> None:
    """Emit `obj` nested `level` deep, as indent-2 sorted strict JSON."""
    if not isinstance(obj, _CONTAINERS):
        emit("".join(_flat_encoder(level)(obj, level)))
        return
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not obj:
        emit(opening + closing)
        return
    inner = "\n" + _INDENT * (level + 1)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        flat = "".join(_flat_encoder(level)(obj, level))
        emit(opening + inner + flat[1:-1] + "\n" + _INDENT * level + closing)
        return
    if is_dict:
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
    else:
        items = [("", v) for v in obj]
    sep = opening + inner
    for prefix, value in items:
        emit(sep + prefix)
        _encode(value, level + 1, emit)
        sep = "," + inner
    emit("\n" + _INDENT * level + closing)


def _json(obj, level: int = 0) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`, byte for
    byte, for a tree of dicts (string keys), lists and scalars, with every
    line after the first indented `level` deep.

    The stdlib writes indented JSON with its pure-Python encoder; this one
    hands each container of scalars to the C encoder instead.
    """
    chunks: list[str] = []
    _encode(obj, level, chunks.append)
    return "".join(chunks)


def _write(out, *chunks: str) -> None:
    """Write to the --out file, or else to whatever sys.stdout is now."""
    (out or sys.stdout).writelines(chunks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attenattack",
        description="Laser-damage attack simulator for QKD source attenuators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)  # flags of every subcommand
    common.add_argument("--out", default=None)

    p = sub.add_parser("thresholds", help="SRS/SBS threshold curve CSV", parents=[common])
    p.set_defaults(handler=_cmd_thresholds)
    p.add_argument("--l-min-km", type=float, default=0.01)
    p.add_argument("--l-max-km", type=float, default=20.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--linewidth-ghz", type=float, default=fiber.LaserSource.linewidth_ghz)
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
    p.add_argument("--start-dbm", type=float, default=CampaignConfig.start_power_dbm)
    p.add_argument("--step-dbm", type=float, default=CampaignConfig.step_dbm)
    p.add_argument("--max-dbm", type=float, default=CampaignConfig.max_power_dbm)
    p.add_argument("--dwell-s", type=float, default=CampaignConfig.dwell_s)
    p.add_argument("--cooldown-s", type=float, default=CampaignConfig.cooldown_s)
    p.add_argument("--length-km", type=float, default=0.02)
    p.add_argument("--connectorized", action="store_true")
    p.add_argument("--fuse-threshold-w", type=float, default=CampaignConfig.fuse_threshold_w)

    p = sub.add_parser("impact", help="mean-photon-number impact report", parents=[common])
    p.set_defaults(handler=_cmd_impact)
    p.add_argument("--delta-db", type=float, required=True)
    p.add_argument("--mu0", type=float, default=0.5)

    p = sub.add_parser("risk", help="Bayesian vulnerability prediction", parents=[common])
    p.set_defaults(handler=_cmd_risk)
    p.add_argument("--tested", type=int, default=5)
    p.add_argument("--compromised", type=int, default=4)
    p.add_argument("--dos", type=int, default=1)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument(
        "--prior", choices=[pr.value for pr in Prior], default=Prior.JEFFREYS.value
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

    setpoint = DEFAULT_SETPOINTS[klass] if args.setpoint_db is None else args.setpoint_db

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
        state = new_attenuator(klass, profile, setpoint, seed=trial_seeds(args.seed, 1)[0])
        result = run_campaign(config, state, link, laser)
        _write(out, _json(result.to_json_dict(config)), "\n")
        return 0

    # Each trial of a multi-trial run is encoded as it finishes; only its
    # text is kept, after the separator that precedes it in "trials".
    trials: list[str] = []

    def keep(result) -> None:
        trials.append(",\n    " if trials else "\n    ")
        trials.append(_json(result.to_json_dict(config), 2))

    summary = monte_carlo(
        config,
        klass,
        profile,
        setpoint,
        n_trials=args.trials,
        seed=args.seed,
        link=link,
        laser=laser,
        on_result=keep if args.per_trial else None,
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = code = None
    if args.out is not None:
        # Opened before any compute, so a bad path fails at once. A run that
        # fails removes the file it created rather than leave it empty.
        created = not os.path.exists(args.out)
        try:
            out = open(args.out, "w")
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: error: cannot open --out {args.out}: {exc.strerror}\n")
    try:
        code = args.handler(args, out)
        sys.stdout.flush()
    except ValueError as exc:  # a library input check: a flag validation error
        parser.error(str(exc))
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Python flushes stdout
        # again at exit, so point it at devnull for that flush to succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_STDOUT_CLOSED
    finally:
        if out is not None:
            out.close()
            if code != 0 and created:
                os.remove(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
