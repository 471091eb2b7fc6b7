"""Workload definitions: each workload is a list of CLI argv lists.

An argv list is what follows `python -m attenattack`. The workload seed
reaches the program only as `--seed`; the analysis subcommands take no
seed, so their inputs are the same for every seed.
"""

from __future__ import annotations

DEFAULT_SEED = 1

CLASSES = ("manual-voa", "fixed", "mems-voa", "vdmc-voa")

# Trials per class on mc-classes, trials of the per-trial campaign, and the
# two large analysis inputs. "tiny" is the self-test size.
SIZES = {
    "full": {"mc": 1000, "per_trial": 2000, "population": 100000, "points": 100000},
    "tiny": {"mc": 20, "per_trial": 20, "population": 1000, "points": 500},
}

WORKLOADS = ("mc-classes", "per-trial-analysis")

# Stdout of these is pinned to golden hashes as well as that of every
# workload invocation at DEFAULT_SEED: the five byte-identity pipelines of
# the acceptance suite and one per-trial campaign per class.
EXTRA_GOLDEN = [
    ["campaign", "--class", "vdmc-voa", "--setpoint-db", "53", "--trials", "1", "--seed", "11"],
    ["campaign", "--class", "mems-voa", "--trials", "50", "--seed", "5", "--per-trial"],
    ["campaign", "--class", "fixed", "--trials", "50", "--seed", "9"],
    ["thresholds", "--points", "50"],
    ["risk"],
] + [
    ["campaign", "--class", klass, "--trials", "20", "--seed", "7", "--per-trial"]
    for klass in CLASSES
]


def invocations(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The argv lists one pass over `workload` runs, in order."""
    n = SIZES[size]
    if workload == "mc-classes":
        return [
            ["campaign", "--class", klass, "--trials", str(n["mc"]), "--seed", str(seed)]
            for klass in CLASSES
        ]
    if workload == "per-trial-analysis":
        return [
            [
                "campaign", "--class", "mems-voa", "--trials", str(n["per_trial"]),
                "--seed", str(seed), "--per-trial",
            ],
            ["risk"],
            ["risk", "--population", str(n["population"]), "--tested", "5"],
            ["thresholds", "--points", "200"],
            ["thresholds", "--points", str(n["points"])],
            ["impact", "--delta-db", "-1"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def trials(argv: list[str]) -> int:
    """Monte Carlo trials an invocation runs (0 for non-campaign ones)."""
    if argv[0] != "campaign":
        return 0
    return int(option(argv, "--trials", "1"))


def option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    """Value following `flag` in argv, or `default` if the flag is absent."""
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return default
