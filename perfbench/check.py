"""Output check for one CLI invocation's stdout.

An argv list recorded in golden.json must reproduce its sha256 exactly.
Any other argv list (another seed or size) gets a structural check: strict
JSON, rates that sum to 1, the requested trial count, the requested CSV
row count.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import option, trials

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

THRESHOLDS_HEADER = "length_km,p_srs_w,p_sbs_w"


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def key(argv: list[str]) -> str:
    return " ".join(argv)


def sha256(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def check(argv: list[str], out: bytes, golden: dict[str, str]) -> str | None:
    """Return None if `out` is right for `argv`, else what is wrong."""
    expected = golden.get(key(argv))
    if expected is not None:
        digest = sha256(out)
        return None if digest == expected else f"sha256 {digest} != golden {expected}"
    try:
        return _check_structure(argv, out.decode())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _check_structure(argv: list[str], text: str) -> str | None:
    sub = argv[0]
    if sub == "thresholds":
        lines = text.splitlines()
        if lines[0] != THRESHOLDS_HEADER:
            return f"bad CSV header {lines[0]!r}"
        points = int(option(argv, "--points", "200"))
        if len(lines) - 1 != points:
            return f"{len(lines) - 1} CSV rows, expected {points}"
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            if len(values) != 3 or not all(math.isfinite(v) and v > 0 for v in values):
                return f"bad CSV row {line!r}"
        return None

    doc = _strict_json(text)
    if sub == "risk":
        for field in ("prob_exceeds", "prob_exceeds_infinite_population"):
            if not 0.0 <= doc[field] <= 1.0:
                return f"{field} = {doc[field]} outside [0, 1]"
        return None
    if sub == "impact":
        return None if isinstance(doc, dict) and doc else "empty impact report"
    if sub != "campaign":
        return f"no check for subcommand {sub!r}"

    n_trials = trials(argv)
    if doc["attenuator_class"] != option(argv, "--class"):
        return f"attenuator_class {doc['attenuator_class']!r} != requested"
    if n_trials == 1:
        return None if doc["steps"] else "single-trial log has no steps"
    summary = doc["summary"]
    rates = sum(
        summary[f]
        for f in ("success_rate", "critical_failure_rate", "inconclusive_rate", "fiber_fuse_rate")
    )
    if abs(rates - 1.0) > 1e-9:
        return f"outcome rates sum to {rates!r}"
    if summary["n_trials"] != n_trials:
        return f"n_trials {summary['n_trials']} != requested {n_trials}"
    if doc["seed"] != int(option(argv, "--seed", "0")):
        return f"seed {doc['seed']} != requested"
    if "--per-trial" in argv and len(doc["trials"]) != n_trials:
        return f"{len(doc['trials'])} per-trial logs, expected {n_trials}"
    return None
