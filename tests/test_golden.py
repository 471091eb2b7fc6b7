"""CLI stdout must match the sha256 hashes pinned in perfbench/golden.json.

Every pinned invocation runs here, in-process through cli.main: the
full-size ones (the 2000-trial --per-trial log, --points 100000 and
--population 100000) as well as the small ones, all in about a second.
The two largest also run as `python -m attenattack` children, through the
process entry cli.run, which an in-process call never reaches.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from attenattack import cli
from attenattack.attenuators import AttenuatorClass

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)

KEYS = sorted(GOLDEN)


def test_golden_set_covers_each_subcommand():
    assert {key.split()[0] for key in KEYS} == {"campaign", "thresholds", "impact", "risk"}


def test_golden_set_covers_each_summary_only_campaign():
    for klass in AttenuatorClass:
        assert f"campaign --class {klass.value} --trials 1000 --seed 1" in KEYS


@pytest.mark.parametrize("key", KEYS)
def test_stdout_matches_golden(key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(key.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[key]


@pytest.mark.parametrize(
    "key",
    ["campaign --class mems-voa --trials 2000 --seed 1 --per-trial", "thresholds --points 100000"],
)
def test_process_entry_stdout_matches_golden(key):
    cp = subprocess.run(
        [sys.executable, "-m", "attenattack", *key.split()], capture_output=True, timeout=120
    )
    assert (cp.returncode, cp.stderr) == (0, b"")
    assert hashlib.sha256(cp.stdout).hexdigest() == GOLDEN[key]


# Pinned here rather than in perfbench/golden.json, which only a benchmark
# change may re-record: a master seed of seven 32-bit words, more than the
# SeedSequence pool's four, mixed in by its second loop, which no golden
# invocation reaches. Recorded with the numpy-seeded engine it replaced.
HUGE_SEED_PER_TRIAL = "bfa83d6b7ffb7dd8350dd85364c91f48d75a4b6a4230db92753d42a3b01f5177"


def test_seed_above_2_to_the_128_matches_its_pin():
    argv = ["campaign", "--class", "vdmc-voa", "--trials", "20", "--seed", str(2**200),
            "--per-trial"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == HUGE_SEED_PER_TRIAL
