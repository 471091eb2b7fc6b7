"""The records that validate their input are immutable NamedTuples.

Each rejects an invalid value however it is built: by its constructor, by
`_make` or by `_replace`. No module of the package imports `dataclasses`, so
no CLI run loads it, or `inspect` with it.
"""

import copy
import pickle
import subprocess
import sys

import pytest

from attenattack.attenuators import (
    DEFAULT_PROFILES,
    AttenuatorClass,
    ExposureOutcome,
    OutcomeKind,
)
from attenattack.campaign import CampaignConfig
from attenattack.fiber import FiberLink, LaserSource
from attenattack.risk import RiskQuery, TestRecord

# a valid record of each class, and a field value that makes it invalid
RECORDS = [
    (ExposureOutcome(OutcomeKind.PERMANENT_DROP, -1.0), "delta_db", 1.0),
    (DEFAULT_PROFILES[AttenuatorClass.FIXED], "success_probability", 1.5),
    (CampaignConfig(), "step_dbm", 2.0),
    (FiberLink(length_km=1.0), "length_km", 0.0),
    (LaserSource(), "max_power_w", -1.0),
    (TestRecord(5, 4, 1), "n_compromised", 5),
    (RiskQuery(TestRecord(5, 4, 1)), "population_total", 4),
]


@pytest.mark.parametrize(
    "record, name, invalid", RECORDS, ids=[type(record).__name__ for record, *_ in RECORDS]
)
def test_invalid_value_rejected_however_the_record_is_built(record, name, invalid):
    cls = type(record)
    values = {**record._asdict(), name: invalid}
    with pytest.raises(ValueError):
        cls(**values)
    with pytest.raises(ValueError):
        cls._make(values.values())
    with pytest.raises(ValueError):
        record._replace(**{name: invalid})
    # a valid record survives a copy and a pickle, and no field can be assigned
    assert cls(*record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


def loaded_modules(code: str) -> set[str]:
    cp = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert cp.returncode == 0, cp.stderr
    return set(cp.stdout.split())


def test_cli_run_loads_no_dataclasses():
    code = """
import contextlib, io
from attenattack.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["campaign", "--class", "vdmc-voa", "--trials", "20"]) == 0
"""
    # against a bare interpreter, so that what `site` loads is not counted
    loaded = loaded_modules(code) - loaded_modules("")
    assert "attenattack.campaign" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()
