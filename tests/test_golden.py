"""CLI stdout must match the sha256 hashes pinned in perfbench/golden.json.

The small pinned invocations run here, in-process through cli.main, and so
do the summary-only campaigns of up to 1000 trials, which the batched engine
runs in well under a second. The benchmark checks the other full-size ones:
the large --per-trial log, --points 100000 and --population 100000.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from attenattack import cli
from attenattack.attenuators import AttenuatorClass

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)

# Largest value of each size flag that still counts as small.
SMALL = {"--trials": 50, "--points": 500, "--population": 1000}
# Largest --trials of a summary-only campaign that still counts as small.
SUMMARY_TRIALS = 1000


def is_small(argv: list[str]) -> bool:
    limits = dict(SMALL)
    if argv[0] == "campaign" and "--per-trial" not in argv:
        limits["--trials"] = SUMMARY_TRIALS
    return all(
        int(argv[argv.index(flag) + 1]) <= limit
        for flag, limit in limits.items()
        if flag in argv
    )


SMALL_KEYS = sorted(key for key in GOLDEN if is_small(key.split()))


def test_small_set_covers_each_subcommand():
    assert {key.split()[0] for key in SMALL_KEYS} == {
        "campaign", "thresholds", "impact", "risk"
    }


def test_small_set_covers_each_summary_only_campaign():
    for klass in AttenuatorClass:
        assert f"campaign --class {klass.value} --trials 1000 --seed 1" in SMALL_KEYS


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_stdout_matches_golden(key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(key.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[key]
