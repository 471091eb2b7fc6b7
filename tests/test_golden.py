"""CLI stdout must match the sha256 hashes pinned in perfbench/golden.json.

Only the small pinned invocations run here, in-process through cli.main;
the benchmark checks the full-size ones.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from attenattack import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)

# Largest value of each size flag that still counts as small.
SMALL = {"--trials": 50, "--points": 500, "--population": 1000}


def is_small(argv: list[str]) -> bool:
    return all(
        int(argv[argv.index(flag) + 1]) <= limit
        for flag, limit in SMALL.items()
        if flag in argv
    )


SMALL_KEYS = sorted(key for key in GOLDEN if is_small(key.split()))


def test_small_set_covers_each_subcommand():
    assert {key.split()[0] for key in SMALL_KEYS} == {
        "campaign", "thresholds", "impact", "risk"
    }


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_stdout_matches_golden(key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(key.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[key]
