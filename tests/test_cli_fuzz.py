"""Fuzz the flags of every subcommand and every `--config` profile field,
in-process through cli.main.

Every value is drawn from the edges of the float and int ranges (±inf, NaN,
±1e308, denormals, 0, ±3100, whole numbers up to 10**20) and from ordinary
values; a profile field may also be null, a string or `true`. Whatever the
input, a run must exit 0, 2 or 3 without any other exception, never because
strict JSON rejects a value, and a run that succeeds must write strict JSON,
with the requested number of trials, or CSV
with the requested number of rows, every value finite, and raise no
RuntimeWarning.

Size flags (`--points`, `--population`) draw only small or far out-of-range
whole numbers, and `--trials` at most 5, so that each case takes milliseconds.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from attenattack import cli
from attenattack.attenuators import AttenuatorClass, DamageProfile
from attenattack.fiber import MAX_CURVE_POINTS
from attenattack.risk import MAX_POPULATION

EDGES = [
    "inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "-5e-324", "0", "-0.0",
    "3100", "-3100", str(10**20), str(-(10**20)),
]
# Whole numbers: small, at the edges, and far past any size limit.
WHOLE = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from([MAX_CURVE_POINTS + 1, MAX_POPULATION + 1, 2**63, 10**20, -(10**20)]),
).map(str)
VALUES = st.one_of(
    st.sampled_from(EDGES), WHOLE, st.floats(1e-3, 1e3).map(repr), st.floats().map(repr)
)
SIZES = st.one_of(WHOLE, st.sampled_from(EDGES))

THRESHOLD_FLAGS = [
    "--l-min-km", "--l-max-km", "--linewidth-ghz", "--alpha-per-km", "--a-eff-um2",
    "--g-r-m-per-w", "--g-b-m-per-w", "--delta-nu-b-mhz",
]
# Counts and fractions in the default query's range, as well as the rest.
COUNTS = st.integers(0, 60).map(str) | VALUES
FRACTIONS = st.floats(0, 1).map(repr) | VALUES

FUZZ = settings(max_examples=200, deadline=None)


def flags(**values) -> st.SearchStrategy[list[str]]:
    """argv tail setting up to three of the flags to drawn values; the rest
    keep their defaults, so that some runs get past validation."""
    chosen = st.lists(st.sampled_from(sorted(values)), unique=True, max_size=3)
    return chosen.flatmap(
        lambda names: st.tuples(*(values[f].map(f"{f}={{}}".format) for f in names)).map(list)
    )


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse and flag validation
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
    # strict JSON rejects only inf and nan, which come of no input check
    assert "not JSON compliant" not in err.getvalue(), argv
    if code != 0:
        assert out.getvalue() == "", argv
    else:  # a numpy warning in a run that succeeds is a result of inf or nan
        numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not numeric, (argv, numeric)
    return code, out.getvalue()


def strict_json(text: str) -> dict:
    def reject(constant):
        raise AssertionError(f"non-finite {constant} in the JSON output")

    return json.loads(text, parse_constant=reject)


@FUZZ
@given(flags(**dict.fromkeys(THRESHOLD_FLAGS, VALUES), **{"--points": SIZES}))
def test_thresholds_flags(argv):
    code, out = run(["thresholds", *argv])
    if code != 0:
        return
    header, *rows = out.splitlines()
    assert header == "length_km,p_srs_w,p_sbs_w"
    points = dict(a.split("=", 1) for a in argv).get("--points", "200")
    assert len(rows) == int(points)
    for row in rows:
        values = [float(v) for v in row.split(",")]
        assert len(values) == 3 and all(map(math.isfinite, values)), row


@FUZZ
@given(VALUES, flags(**{"--mu0": VALUES}))
def test_impact_flags(delta, argv):
    code, out = run(["impact", f"--delta-db={delta}", *argv])
    if code == 0:
        strict_json(out)


@FUZZ
@given(
    flags(
        **dict.fromkeys(["--tested", "--compromised", "--dos"], COUNTS),
        **{
            "--population": SIZES,
            "--fraction": FRACTIONS,
            "--prior": st.sampled_from(["jeffreys", "uniform", "beta"]),
        },
    )
)
def test_risk_flags(argv):
    code, out = run(["risk", *argv])
    if code == 0:
        strict_json(out)


CLASSES = [c.value for c in AttenuatorClass]
CAMPAIGN_FLAGS = [
    "--setpoint-db", "--start-dbm", "--step-dbm", "--max-dbm", "--dwell-s", "--cooldown-s",
    "--length-km", "--fuse-threshold-w",
]
# At most 5 trials, and some counts no campaign may have.
TRIALS = st.integers(-1, 5)
SWITCHES = st.lists(st.sampled_from(["--per-trial", "--connectorized"]), unique=True)


def assert_campaign_document(out: str, trials: int, per_trial: bool) -> None:
    doc = strict_json(out)
    if trials == 1:
        assert doc["steps"], out
        return
    assert doc["summary"]["n_trials"] == trials
    assert len(doc.get("trials", [])) == (trials if per_trial else 0)


@FUZZ
@given(
    st.sampled_from(CLASSES),
    TRIALS,
    SWITCHES,
    flags(**dict.fromkeys(CAMPAIGN_FLAGS, VALUES), **{"--seed": WHOLE}),
)
def test_campaign_flags(klass, trials, switches, argv):
    code, out = run(["campaign", "--class", klass, f"--trials={trials}", *switches, *argv])
    if code == 0:
        assert_campaign_document(out, trials, "--per-trial" in switches)


# JSON values: the edges above as numbers, and values that are no number.
FIELD_EDGES = [
    math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 0, -0.0,
    3100, -3100, 1e20, -1e20, 10**20, -(10**20),
]
NOT_NUMBERS = [None, "abc", True]
FIELD_VALUES = st.one_of(
    st.sampled_from(FIELD_EDGES), st.sampled_from(NOT_NUMBERS), st.floats(-50, 50), st.floats()
)
PROFILE_FIELDS = list(DamageProfile._fields)
# A null threshold means none within reach; any other null is no number.
NULLABLE = {"attack_threshold_dbm", "failure_threshold_dbm"}


# (class, profile overrides, flags); the flags decide where a profile's drops
# show: the setting and the cool-down.
CONFIG_CASES = st.tuples(
    st.sampled_from(CLASSES),
    st.dictionaries(st.sampled_from(PROFILE_FIELDS), FIELD_VALUES, max_size=3),
    flags(**dict.fromkeys(["--setpoint-db", "--cooldown-s"], VALUES)),
)
# An infinite drop with a field or flag that hides all of it: a cool-down
# that undoes it (1e308 s, or a recovery_tau_s of 0) or a MEMS setting below
# the damage band. The drop is drawn, or scaled by the heat, past the float
# range from a mean at or near -inf. By its draw weights CONFIG_CASES draws
# such a profile and flag together about once in 1e5 examples, so they are
# also drawn on purpose.
HIDERS = [
    ("fixed", {"recovery_tau_s": 0}, []),
    ("fixed", {}, ["--cooldown-s=1e308"]),
    ("mems-voa", {}, ["--setpoint-db=5"]),
]
INFINITE_DROPS = [
    {"success_delta_db_mean": -math.inf},
    {"success_delta_db_mean": -1.79e308},
    {"success_delta_db_mean": -1.79e308, "success_delta_db_spread": 0.99e308},
]
HIDDEN_DROP_CASES = st.builds(
    lambda hider, drop: (hider[0], {**hider[1], **drop}, hider[2]),
    st.sampled_from(HIDERS),
    st.sampled_from(INFINITE_DROPS),
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "profiles.json"


@FUZZ
@given(case=CONFIG_CASES | HIDDEN_DROP_CASES, trials=TRIALS, switches=SWITCHES)
def test_campaign_config_fields(config_path, case, trials, switches):
    klass, overrides, argv = case
    # json.dumps writes inf and nan as the Infinity and NaN that json.load reads
    config_path.write_text(json.dumps({"profiles": {klass: overrides}}))
    code, out = run([
        "campaign", "--class", klass, f"--trials={trials}", "--config", str(config_path),
        *switches, *argv,
    ])
    if any(
        isinstance(value, (bool, str)) or value is None and name not in NULLABLE
        for name, value in overrides.items()
    ):
        assert code == 3, overrides
    if code == 0:
        assert_campaign_document(out, trials, "--per-trial" in switches)
