import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest.mock import patch

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from attenattack import campaign, cli
from attenattack.attenuators import (
    _PROFILE_FIELDS,
    DEFAULT_PROFILES,
    SETPOINT_RANGES,
    AttenuatorClass,
    profile_to_dict,
)
from attenattack.campaign import DEFAULT_LINK, monte_carlo
from attenattack.impact import impact_report
from attenattack.risk import RiskQuery


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "attenattack", *args]
    # a hang fails the test instead of stalling the suite
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


def run_in_process(*argv):
    """(exit code, stdout, stderr) of cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # flag validation
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestThresholds:
    def test_csv_shape_and_monotonicity(self):
        cp = run_cli(
            "thresholds",
            "--l-min-km", "0.01",
            "--l-max-km", "20",
            "--points", "200",
            "--linewidth-ghz", "10",
        )
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "length_km,p_srs_w,p_sbs_w"
        assert len(lines) == 201
        srs = [float(l.split(",")[1]) for l in lines[1:]]
        sbs = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(a > b for a, b in zip(srs, srs[1:]))
        assert all(a > b for a, b in zip(sbs, sbs[1:]))

    def test_value_at_1km(self):
        cp = run_cli("thresholds", "--l-min-km", "1", "--l-max-km", "20", "--points", "5")
        row = cp.stdout.strip().splitlines()[1].split(",")
        assert float(row[0]) == pytest.approx(1.0)
        assert float(row[1]) == pytest.approx(15.4, rel=0.02)

    def test_single_point_rejected(self):
        cp = run_cli("thresholds", "--points", "1")
        assert cp.returncode == 2

    def test_out_file(self, tmp_path: Path):
        out = tmp_path / "curve.csv"
        cp = run_cli("thresholds", "--points", "3", "--out", str(out))
        assert cp.returncode == 0
        assert cp.stdout == ""
        assert out.read_text().startswith("length_km,")


class TestCampaign:
    def test_manual_voa_inconclusive(self):
        cp = run_cli(
            "campaign", "--class", "manual-voa", "--setpoint-db", "31",
            "--trials", "1", "--seed", "7",
        )
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["outcome"] == "Inconclusive"
        assert doc["schema"] == 1

    def test_vdmc_never_critically_fails(self):
        cp = run_cli(
            "campaign", "--class", "vdmc-voa", "--trials", "200", "--seed", "1"
        )
        doc = json.loads(cp.stdout)
        assert doc["summary"]["critical_failure_rate"] == 0.0
        assert doc["summary"]["success_rate"] > 0.5

    @pytest.mark.parametrize("klass", ["fixed", "mems-voa"])
    def test_destroyed_specimen_reads_at_least_its_floor(self, tmp_path: Path, klass):
        # an 80 dB floor lies above every blocked level; a destroyed specimen
        # once read below it, and its drop counted as a success
        cfg = tmp_path / "floor.json"
        cfg.write_text(json.dumps({"profiles": {klass: {
            "insertion_loss_floor_db": 80, "success_probability": 0.0, "failure_probability": 1.0,
        }}}))
        args = ("campaign", "--class", klass, "--seed", "1", "--config", str(cfg))
        code, out, err = run_in_process(*args, "--trials", "200")
        assert code == 0, err
        assert json.loads(out)["summary"]["critical_failure_rate"] == 1.0
        code, out, err = run_in_process(*args, "--trials", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["outcome"] == "CriticalFailure"
        assert doc["steps"][-1]["attenuation_after_db"] == 80.0

    def test_byte_identical_reruns(self):
        args = ("campaign", "--class", "mems-voa", "--trials", "25", "--seed", "3",
                "--per-trial")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_unknown_class_rejected(self):
        cp = run_cli("campaign", "--class", "rotary-voa")
        assert cp.returncode == 2

    def test_bad_config_schema_exit_3(self, tmp_path: Path):
        cfg = tmp_path / "bad.json"
        # `permanent` was a profile field that nothing read; it is unknown now
        for klass, overrides in (("fixed", {"nope": 1}), ("mems-voa", {"permanent": False})):
            cfg.write_text(json.dumps({"profiles": {klass: overrides}}))
            cp = run_cli("campaign", "--class", klass, "--config", str(cfg))
            assert cp.returncode == 3
            assert "config error" in cp.stderr

    def test_config_that_is_not_utf8_exits_3(self, tmp_path: Path):
        # once read as a flag error (exit 2), without the config error prefix
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"profiles": {"fixed": {"nope": "\u00e9"}}}'.encode("latin-1"))
        cp = run_cli("campaign", "--class", "fixed", "--config", str(cfg))
        assert cp.returncode == 3, cp.stderr
        assert cp.stdout == ""
        assert cp.stderr.startswith("config error: invalid JSON")
        assert cp.stderr.count("\n") == 1

    def test_config_nested_too_deeply_exits_3(self, tmp_path: Path):
        # once a RecursionError traceback
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000)
        cp = run_cli("campaign", "--class", "fixed", "--config", str(cfg))
        assert cp.returncode == 3, cp.stderr
        assert cp.stdout == ""
        assert cp.stderr.startswith("config error: invalid JSON")
        assert "Traceback" not in cp.stderr

    def test_nan_profile_override_rejected(self, tmp_path: Path):
        # json.load parses NaN; an override that compares false everywhere
        # would otherwise silently do nothing
        cfg = tmp_path / "nan.json"
        cfg.write_text(
            '{"profiles": {"fixed": {"insertion_loss_floor_db": NaN, "recovery_tau_s": NaN}}}'
        )
        cp = run_cli("campaign", "--class", "fixed", "--trials", "5", "--config", str(cfg))
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert "must not be NaN" in cp.stderr

    @pytest.mark.parametrize("value", ["null", '"abc"', "true"])
    @pytest.mark.parametrize("klass", [c.value for c in AttenuatorClass])
    def test_profile_field_that_is_not_a_number_exits_3(self, tmp_path: Path, klass, value):
        # fixed, MEMS and VDMC once ended in a TypeError traceback; manual-voa
        # never reads the field and ran on
        cfg = tmp_path / "typed.json"
        cfg.write_text('{"profiles": {"%s": {"success_delta_db_mean": %s}}}' % (klass, value))
        code, out, err = run_in_process(
            "campaign", "--class", klass, "--trials", "3", "--config", str(cfg)
        )
        assert code == 3
        assert out == ""
        assert "success_delta_db_mean must be a number" in err

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
    def test_fixed_profile_that_can_draw_no_drop_exits_2(self, tmp_path: Path, seed):
        cfg = tmp_path / "shallow.json"
        cfg.write_text(json.dumps({"profiles": {"fixed": {
            "success_delta_db_mean": -0.1, "success_delta_db_spread": 0.5,
            "success_probability": 1.0, "failure_probability": 0.0,
        }}}))
        cp = run_cli("campaign", "--class", "fixed", "--seed", seed, "--config", str(cfg))
        assert cp.returncode == 2, cp.stderr
        assert cp.stdout == ""
        assert "success_delta_db_mean" in cp.stderr
        assert "success_delta_db_spread" in cp.stderr

    @pytest.mark.parametrize("attack, trials", [("-4000", "1"), ("-4000", "5")])
    def test_fixed_profile_whose_threshold_underflows_exits_2(self, tmp_path: Path, attack, trials):
        # the thermal drop scales by power over the threshold's watts, 0.0 here
        cfg = tmp_path / "underflow.json"
        cfg.write_text(
            '{"profiles": {"fixed": {"attack_threshold_dbm": %s, "failure_threshold_dbm": 37}}}'
            % attack
        )
        cp = run_cli("campaign", "--class", "fixed", "--trials", trials, "--config", str(cfg))
        assert cp.returncode == 2, cp.stderr
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert "underflows to 0 W" in cp.stderr

    @pytest.mark.parametrize(
        "args, code",
        [
            # 2e7 rungs: rejected before any is run, not left to hang
            (("--start-dbm=-1e7",), 2),
            # 1000 rungs
            (("--start-dbm=-460",), 0),
            # the bound counts rungs up to the injectable limit, not to --max-dbm
            (("--max-dbm", "1e7"), 0),
        ],
    )
    def test_ladder_length_is_bounded(self, args, code):
        cp = run_cli("campaign", "--class", "fixed", "--trials", "3", *args)
        assert cp.returncode == code, cp.stderr
        assert "Traceback" not in cp.stderr
        if code == 2:
            assert "rungs" in cp.stderr
            assert cp.stdout == ""
        else:
            assert json.loads(cp.stdout)["summary"]["n_trials"] == 3

    @pytest.mark.parametrize("trials", [("1",), ("5",), ("5", "--per-trial")])
    @pytest.mark.parametrize("setpoint", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("klass", [c.value for c in AttenuatorClass])
    def test_non_finite_setpoint_exits_2_naming_its_range(self, klass, setpoint, trials):
        # a multi-trial run once wrote the setpoint into its trial template
        # before any specimen checked it, and failed on the JSON instead
        code, out, err = run_in_process(
            "campaign", "--class", klass, f"--setpoint-db={setpoint}", "--trials", *trials
        )
        lo, hi = SETPOINT_RANGES[AttenuatorClass(klass)]
        assert code == 2
        assert out == ""
        assert f"setting {setpoint} dB out of range [{lo}, {hi}]" in err

    @pytest.mark.parametrize("per_trial", [False, True])
    def test_trial_renderer_built_only_for_per_trial(self, per_trial):
        renderer = patch.object(cli, "_trial_renderer", wraps=cli._trial_renderer)
        writer = patch.object(cli, "_json", wraps=cli._json)
        with renderer as render, writer as write:
            # 300 trials span two blocks of seeds, and one renderer writes them all
            code, out, _ = run_in_process(
                "campaign", "--class", "fixed", "--trials", "300",
                *(["--per-trial"] if per_trial else []),
            )
        assert code == 0
        assert json.loads(out)["summary"]["n_trials"] == 300
        assert render.call_count == per_trial
        if not per_trial:
            assert write.call_count == 1

    def test_config_env_fallback(self, tmp_path: Path):
        import os

        cfg = tmp_path / "profiles.json"
        # raise the MEMS attack threshold beyond the sweep: never damaged
        cfg.write_text(
            json.dumps(
                {"profiles": {"mems-voa": {
                    "attack_threshold_dbm": 60.0,
                    "failure_threshold_dbm": 61.0,
                }}}
            )
        )
        env = dict(os.environ, QLA_CONFIG=str(cfg))
        cp = run_cli(
            "campaign", "--class", "mems-voa", "--trials", "20", "--seed", "1",
            env=env,
        )
        doc = json.loads(cp.stdout)
        assert doc["summary"]["inconclusive_rate"] == 1.0


class TestImpact:
    def test_one_db_drop(self):
        cp = run_cli("impact", "--delta-db", "-1")
        doc = json.loads(cp.stdout)
        assert doc["mpn_ratio"] == pytest.approx(1.259, abs=0.001)
        assert doc["classification"] == "Compromised"
        assert "Compromised" in cp.stderr

    def test_zero_delta_keeps_mu(self):
        cp = run_cli("impact", "--delta-db", "0", "--mu0", "0.5")
        doc = json.loads(cp.stdout)
        assert doc["mu_after"] == 0.5
        assert doc["classification"] == "Unaffected"

    def test_vdmc_average(self):
        cp = run_cli("impact", "--delta-db", "-9.59", "--mu0", "0.5")
        doc = json.loads(cp.stdout)
        assert doc["mu_after"] == pytest.approx(4.55, abs=0.01)

    def test_invalid_mu0(self):
        cp = run_cli("impact", "--delta-db", "-1", "--mu0", "0")
        assert cp.returncode == 2

    def test_mean_photon_number_beyond_float_range_exits_2(self):
        # once printed the result note, then failed to write inf as JSON
        code, out, err = run_in_process("impact", "--delta-db=-3", "--mu0", "1.7e308")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "float range" in err
        assert "Compromised" not in err


class TestRisk:
    def test_current_record(self):
        cp = run_cli(
            "risk", "--tested", "5", "--compromised", "4", "--dos", "1",
            "--population", "50", "--fraction", "0.2",
        )
        doc = json.loads(cp.stdout)
        assert doc["prob_exceeds"] == pytest.approx(0.995, abs=0.005)

    def test_earlier_record(self):
        cp = run_cli(
            "risk", "--tested", "2", "--compromised", "2", "--dos", "0",
            "--population", "50", "--fraction", "0.2",
        )
        doc = json.loads(cp.stdout)
        assert doc["prob_exceeds"] == pytest.approx(0.990, abs=0.005)

    def test_inconsistent_counts(self):
        cp = run_cli("risk", "--tested", "5", "--compromised", "6")
        assert cp.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("campaign", "--class", "fixed", "--start-dbm", "nan"),
        ("campaign", "--class", "fixed", "--dwell-s", "nan"),
        ("campaign", "--class", "fixed", "--max-dbm", "nan"),
        ("campaign", "--class", "fixed", "--length-km", "inf"),
        ("thresholds", "--l-max-km", "inf"),
        ("impact", "--delta-db", "-1", "--mu0", "nan"),
    ],
)
def test_non_finite_flag_exits_2(args):
    cp = run_cli(*args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("risk", "--population", "100000000"),
        ("risk", "--population", str(10**21)),
        ("thresholds", "--points", "100000000"),
        ("impact", "--delta-db=-3100"),  # a mean photon number past the float range
    ],
)
def test_oversized_input_exits_2(args):
    cp = run_cli(*args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("thresholds", "--l-min-km", "5e-324"),
        ("thresholds", "--l-min-km", "1e-310", "--alpha-per-km", "1e300"),
        ("campaign", "--class", "fixed", "--length-km", "5e-324"),
    ],
)
def test_link_without_finite_threshold_exits_2(args):
    cp = run_cli(*args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert "Traceback" not in cp.stderr
    assert "threshold is not finite" in cp.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("impact", "--delta-db", "-1"),
        ("campaign", "--class", "fixed", "--trials", "3"),
        ("thresholds", "--points", "3"),
    ],
)
def test_unopenable_out_path_exits_2(tmp_path: Path, args):
    cp = run_cli(*args, "--out", str(tmp_path / "missing" / "x.json"))
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.count("\n") == 1
    assert "cannot open --out" in cp.stderr


def test_failed_run_leaves_no_out_file(tmp_path: Path):
    out = tmp_path / "x.csv"
    cp = run_cli("thresholds", "--points", "1", "--out", str(out))
    assert cp.returncode == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("thresholds", "--points", "1"),
        ("campaign", "--class", "fixed", "--trials", "0"),
        ("campaign", "--class", "fixed", "--trials", "3", "--per-trial", "--seed", "-1"),
    ],
)
def test_failed_run_leaves_an_existing_out_file_as_it_was(tmp_path: Path, args):
    out = tmp_path / "prev.json"
    out.write_bytes(b'{"earlier": "output"}\n')
    cp = run_cli(*args, "--out", str(out))
    assert cp.returncode == 2
    assert out.read_bytes() == b'{"earlier": "output"}\n'


@pytest.mark.parametrize("via_env", [False, True], ids=["--config", "QLA_CONFIG"])
def test_config_named_as_out_is_read_intact(tmp_path: Path, via_env):
    cfg = tmp_path / "profiles.json"
    # the MEMS attack threshold beyond the sweep: never damaged
    text = json.dumps({"profiles": {"mems-voa": {"attack_threshold_dbm": 60.0,
                                                 "failure_threshold_dbm": 61.0}}})
    cfg.write_text(text)
    config = [] if via_env else ["--config", str(cfg)]
    env = dict(os.environ, QLA_CONFIG=str(cfg)) if via_env else None
    args = ("campaign", "--class", "mems-voa", "--trials", "3", *config)
    # a failed run leaves the config as it was
    cp = run_cli(*args, "--seed", "-1", "--out", str(cfg), env=env)
    assert cp.returncode == 2, cp.stderr
    assert cfg.read_text() == text
    # a run that succeeds reads the config, then writes its output over it
    expected = run_cli(*args, env=env)
    cp = run_cli(*args, "--out", str(cfg), env=env)
    assert cp.returncode == expected.returncode == 0, cp.stderr
    assert json.loads(expected.stdout)["summary"]["success_rate"] == 0.0
    assert cfg.read_text() == expected.stdout


def test_out_file_longer_than_the_output_is_replaced(tmp_path: Path):
    out = tmp_path / "prev.csv"
    out.write_text("x" * 100_000)
    cp = run_cli("thresholds", "--points", "3", "--out", str(out))
    assert cp.returncode == 0
    assert out.read_text() == run_cli("thresholds", "--points", "3").stdout


def test_out_device_is_written_without_truncation():
    cp = run_cli("thresholds", "--points", "3", "--out", os.devnull)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == cp.stderr == ""


def test_per_trial_out_file_matches_stdout(tmp_path: Path):
    args = ("campaign", "--class", "vdmc-voa", "--trials", "4", "--seed", "2", "--per-trial")
    out = tmp_path / "trials.json"
    to_file = run_cli(*args, "--out", str(out))
    to_stdout = run_cli(*args)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == ""
    assert out.read_bytes() == to_stdout.stdout.encode()
    assert len(json.loads(to_stdout.stdout)["trials"]) == 4


def test_stdout_closed_early_exits_1_without_traceback():
    # about 800 KB, far more than a pipe buffer holds, so writes hit the
    # closed pipe
    cmd = [sys.executable, "-m", "attenattack", "campaign", "--class", "mems-voa",
           "--trials", "100", "--per-trial"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Traceback" not in stderr, stderr.decode()


# each writes more than the 8 KiB of limit_file_size: about 170 KB and 28 KB
WRITERS = [
    ("campaign", "--class", "mems-voa", "--trials", "20", "--per-trial"),
    ("thresholds", "--points", "500"),
]
DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def assert_write_failed(cp: subprocess.CompletedProcess) -> None:
    assert cp.returncode == 1
    assert cp.stderr.startswith("attenattack: error: cannot write output: ")
    assert cp.stderr.count("\n") == 1, cp.stderr


@DEV_FULL
@pytest.mark.parametrize("args", WRITERS)
def test_out_file_that_cannot_be_written_exits_1(args):
    assert_write_failed(run_cli(*args, "--out", "/dev/full"))


@DEV_FULL
@pytest.mark.parametrize("args", WRITERS)
def test_stdout_that_cannot_be_written_exits_1(args):
    cmd = [sys.executable, "-m", "attenattack", *args]
    with open("/dev/full", "w") as full:
        cp = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert_write_failed(cp)


def limit_file_size():
    # 8 KiB; a write past it fails with EFBIG, as Python ignores SIGXFSZ
    resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))


@pytest.mark.skipif(resource is None, reason="no resource module")
@pytest.mark.parametrize("args", WRITERS)
def test_write_past_file_size_limit_leaves_no_out_file(tmp_path: Path, args):
    # once left the part written before the limit: the second flush, on
    # close, failed before the file was removed
    out = tmp_path / "new.json"
    cmd = [sys.executable, "-m", "attenattack", *args, "--out", str(out)]
    cp = subprocess.run(
        cmd, capture_output=True, text=True, timeout=60, preexec_fn=limit_file_size
    )
    assert_write_failed(cp)
    assert cp.stdout == ""
    assert not out.exists()


def test_start_power_beyond_float_range_exits_2():
    cp = run_cli("campaign", "--class", "fixed", "--start-dbm", "1e6", "--max-dbm", "1e7")
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.count("\n") == 1
    assert "exceeds the injectable limit" in cp.stderr


def test_defaults_come_from_the_library():
    parser = cli._build_parser()
    campaign_args = parser.parse_args(["campaign", "--class", "fixed"])
    assert campaign_args.length_km == DEFAULT_LINK.length_km
    assert inspect.signature(monte_carlo).parameters["link"].default is DEFAULT_LINK
    impact_args = parser.parse_args(["impact", "--delta-db", "-1"])
    assert impact_args.mu0 == inspect.signature(impact_report).parameters["mu_before"].default
    risk_args = parser.parse_args(["risk"])
    defaults = RiskQuery._field_defaults
    assert risk_args.population == defaults["population_total"]
    assert risk_args.fraction == defaults["vulnerable_fraction"]
    assert risk_args.prior == defaults["prior"].value


# A value for each profile field a class reads that changes a seeded
# --per-trial run, or the overrides that do. Every other (class, field) pair
# is one the model never reads, and a config may not set it.
READ_FIELD_VALUES = {
    ("fixed", "attack_threshold_dbm"): 30.0,
    ("fixed", "failure_threshold_dbm"): 36.0,
    ("fixed", "success_delta_db_mean"): -2.0,
    ("fixed", "success_delta_db_spread"): 0.05,
    ("fixed", "success_probability"): 0.2,
    ("fixed", "failure_probability"): 0.1,
    ("fixed", "recovery_tau_s"): 10.0,
    ("fixed", "insertion_loss_floor_db"): 25.5,
    ("mems-voa", "attack_threshold_dbm"): 33.0,
    ("mems-voa", "failure_threshold_dbm"): 37.5,
    ("mems-voa", "success_delta_db_mean"): -8.0,
    ("mems-voa", "success_delta_db_spread"): 1.0,
    ("mems-voa", "success_probability"): 0.3,
    ("mems-voa", "failure_probability"): 0.1,
    ("mems-voa", "insertion_loss_floor_db"): 31.0,
    ("vdmc-voa", "attack_threshold_dbm"): 33.0,
    # it bounds the attack threshold, which may then exceed the shipped 36.5 dBm
    ("vdmc-voa", "failure_threshold_dbm"): {
        "attack_threshold_dbm": 38.0, "failure_threshold_dbm": 40.0
    },
    ("vdmc-voa", "success_delta_db_mean"): -5.0,
    ("vdmc-voa", "success_delta_db_spread"): 1.0,
    ("vdmc-voa", "success_probability"): 0.3,
    ("vdmc-voa", "insertion_loss_floor_db"): 60.0,
}
UNREAD_FIELDS = sorted(
    {(c.value, f) for c in AttenuatorClass for f in _PROFILE_FIELDS} - set(READ_FIELD_VALUES)
)
PER_TRIAL_RUN = ("--trials", "20", "--seed", "3", "--per-trial")


@pytest.mark.parametrize("klass, field", list(READ_FIELD_VALUES))
def test_each_read_profile_field_changes_the_run(tmp_path: Path, klass, field):
    cfg = tmp_path / "profile.json"
    value = READ_FIELD_VALUES[klass, field]
    overrides = value if isinstance(value, dict) else {field: value}
    cfg.write_text(json.dumps({"profiles": {klass: overrides}}))
    code, out, err = run_in_process(
        "campaign", "--class", klass, *PER_TRIAL_RUN, "--config", str(cfg)
    )
    assert code == 0, err
    assert out != run_in_process("campaign", "--class", klass, *PER_TRIAL_RUN)[1]


@pytest.mark.parametrize(
    "mode", [("--trials", "1"), ("--trials", "3"), ("--trials", "3", "--per-trial")]
)
@pytest.mark.parametrize("klass, field", UNREAD_FIELDS)
def test_profile_field_the_class_never_reads_exits_3(tmp_path: Path, klass, field, mode):
    # once a silent no-op: the run's output was the same without it. Even the
    # class's shipped value is rejected.
    value = profile_to_dict(DEFAULT_PROFILES[AttenuatorClass(klass)])[field]
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps({"profiles": {klass: {field: value}}}))
    code, out, err = run_in_process("campaign", "--class", klass, *mode, "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert err == f"config error: {klass} never reads profile fields ['{field}']\n"


@pytest.mark.parametrize(
    "mode", [("--trials", "1"), ("--trials", "3"), ("--trials", "3", "--per-trial")]
)
@pytest.mark.parametrize("klass", [c.value for c in AttenuatorClass])
@pytest.mark.parametrize("floor", ["Infinity", "1e308", "80.5"])
def test_infinite_floor_exits_3(tmp_path: Path, klass, mode, floor):
    # JSON config files may spell an infinite floor; every readout would be
    # inf, and no drop could be measured. A finite floor of 1e308 once ran:
    # one trial reported a -1e308 dB drop, and the mean of several
    # overflowed. No floor may lie above the widest control range, 80 dB.
    cfg = tmp_path / "floor.json"
    cfg.write_text('{"profiles": {"%s": {"insertion_loss_floor_db": %s}}}' % (klass, floor))
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_in_process(
            "campaign", "--class", klass, *mode, "--config", str(cfg), "--out", str(out)
        )
    assert code == 3, err
    assert "insertion_loss_floor_db must be finite" in err
    assert stdout == ""
    assert not out.exists()
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "mode", [("--trials", "1"), ("--trials", "20"), ("--trials", "20", "--per-trial")]
)
@pytest.mark.parametrize("klass", [c.value for c in AttenuatorClass])
def test_minus_infinite_attack_threshold_exits_3(tmp_path: Path, klass, mode):
    # once read as "never damaged": every trial Inconclusive, and fixed
    # exited 2, while -1e308 means damaged at every power
    cfg = tmp_path / "threshold.json"
    cfg.write_text('{"profiles": {"%s": {"attack_threshold_dbm": -Infinity}}}' % klass)
    out = tmp_path / "out.json"
    code, stdout, err = run_in_process(
        "campaign", "--class", klass, *mode, "--config", str(cfg), "--out", str(out)
    )
    assert code == 3, err
    assert "attack_threshold_dbm must not be -inf" in err
    assert stdout == ""
    assert not out.exists()


# A susceptible specimen that draws a drop of -inf, at a setting where no
# share of it may show: a fixed one cooled by a factor that underflows to 0,
# a MEMS one below its damage band. Both once read as NaN.
INFINITE_DROP = {
    "success_delta_db_mean": -1.79e308, "success_delta_db_spread": 0.99e308,
    "success_probability": 1.0, "failure_probability": 0.0,
}


@pytest.mark.parametrize("mode", [("--trials", "300"), ("--trials", "300", "--per-trial")])
@pytest.mark.parametrize(
    "klass, overrides, flags",
    [
        # a drawn dip, or the dip it deepens to, past the float range
        ("vdmc-voa", {"success_delta_db_mean": -1e308}, ()),
        ("vdmc-voa", {"success_delta_db_mean": -1.7e308}, ()),
        # exposure times summed past the float range
        ("vdmc-voa", {}, ("--dwell-s", "1e308")),
        # a thermal drop scaled past the float range
        ("fixed", {"success_delta_db_mean": 1.5e308}, ()),
        # an infinite drop that cools fully, or that lies below the MEMS band
        ("fixed", INFINITE_DROP, ("--cooldown-s", "1e308")),
        ("mems-voa", INFINITE_DROP, ("--setpoint-db", "5")),
    ],
    ids=["vdmc-dip", "vdmc-deepened-dip", "vdmc-dwell", "fixed-drop", "fixed-cooled-inf-drop",
         "mems-inf-drop-below-band"],
)
def test_batched_readout_overflows_without_warning(tmp_path: Path, klass, overrides, flags, mode):
    # run_campaign's float arithmetic gives inf there without a warning, and
    # so must the engine's rung walks, summary-only or writing each trial
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps({"profiles": {klass: overrides}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_in_process(
            "campaign", "--class", klass, *mode, *flags, "--seed", "1", "--config", str(cfg)
        )
    assert code == 0, err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "klass, flags, seed, shown_db",
    [("fixed", ("--cooldown-s", "1e308"), "1", 25.0), ("mems-voa", ("--setpoint-db", "5"), "3", 5.0)],
    ids=["fixed-cooled-inf-drop", "mems-inf-drop-below-band"],
)
def test_hidden_infinite_drop_reads_finite_in_one_trial(tmp_path: Path, klass, flags, seed, shown_db):
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps({"profiles": {klass: INFINITE_DROP}}))
    code, out, err = run_in_process(
        "campaign", "--class", klass, "--trials", "1", *flags, "--seed", seed, "--config", str(cfg)
    )
    assert code == 0, err
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in the output"))
    # fully cooled, or below the band: no share of the drop shows afterwards
    assert {step["attenuation_after_db"] for step in doc["steps"]} == {shown_db}


@pytest.mark.parametrize("run", [("--trials", "1", "--seed", "0"), ("--trials", "200", "--per-trial")])
def test_mems_drop_below_its_band_logs_no_permanent_drop(run):
    # susceptible specimens are damaged, but below the band none of it shows
    code, out, err = run_in_process("campaign", "--class", "mems-voa", "--setpoint-db", "5", *run)
    assert code == 0, err
    doc = json.loads(out)
    events = {step["event"] for trial in doc.get("trials", [doc]) for step in trial["steps"]}
    assert "PermanentDrop" not in events


@pytest.mark.parametrize("trials", ["1", "3"])
def test_negative_seed_exits_2_naming_it(trials):
    # a manual VOA draws nothing from its seed, and still checks it
    for klass in ("fixed", "manual-voa"):
        code, out, err = run_in_process(
            "campaign", "--class", klass, "--trials", trials, "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("klass", [c.value for c in AttenuatorClass])
def test_one_trial_is_the_first_per_trial_entry(klass):
    # --trials 1 builds its specimen with new_attenuator, the batched engine
    # draws it in its rung readouts
    code, single, err = run_in_process("campaign", "--class", klass, "--trials", "1", "--seed", "5")
    assert code == 0, err
    code, multi, err = run_in_process(
        "campaign", "--class", klass, "--trials", "3", "--per-trial", "--seed", "5"
    )
    assert code == 0, err
    assert json.loads(single) == json.loads(multi)["trials"][0]


@pytest.mark.parametrize("trials", [str(campaign.MAX_TRIALS + 1), "1000000000000000", str(10**30)])
def test_trials_beyond_bound_exit_2_before_any_draw(trials):
    with patch.object(campaign, "trial_seeds", side_effect=AssertionError("seeds drawn")):
        code, out, err = run_in_process("campaign", "--class", "fixed", "--trials", trials)
    assert code == 2
    assert out == ""
    assert f"[1, {campaign.MAX_TRIALS}]" in err


def per_trial_peak(path: Path, n_trials: int) -> int:
    """tracemalloc peak of an in-process --per-trial run written to `path`."""
    argv = ["campaign", "--class", "mems-voa", "--trials", str(n_trials), "--seed", "3",
            "--per-trial", "--out", str(path)]
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_per_trial_memory_grows_only_by_its_text(tmp_path: Path):
    # The trials' text is kept until the summary before it is known; nothing
    # else may grow with --trials. 1024 more MEMS trials write ~8.7 MB.
    per_trial_peak(tmp_path / "warm.json", 8)  # templates, encoders, imports
    small, large = tmp_path / "small.json", tmp_path / "large.json"
    growth = per_trial_peak(large, 1280) - per_trial_peak(small, 256)
    assert growth < large.stat().st_size - small.stat().st_size + 2**20


def cyclic_garbage(argv: list[str]) -> int:
    """Objects gc.collect() frees after cli.main(argv) runs with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("per_trial", [False, True])
@pytest.mark.parametrize("klass", [k.value for k in AttenuatorClass])
def test_run_garbage_does_not_grow_with_trials(tmp_path: Path, klass, per_trial):
    # cli.run keeps the cyclic collector off for the whole process, which is
    # safe only while the cycles a run leaves do not grow with its input.
    def argv(n_trials: int) -> list[str]:
        flags = ["--per-trial"] if per_trial else []
        return ["campaign", "--class", klass, "--trials", str(n_trials), "--seed", "5",
                *flags, "--out", str(tmp_path / f"{n_trials}.json")]

    cyclic_garbage(argv(8))  # templates, encoders, imports
    assert cyclic_garbage(argv(256)) == cyclic_garbage(argv(2560))


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_runs_one_blas_thread_unless_set(preset, expected):
    code = """
import contextlib, gc, io, os, runpy, sys
sys.argv = ["attenattack", "impact", "--delta-db", "-1"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("attenattack", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(gc.isenabled(), gc.get_freeze_count() > 0)
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    cp = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert cp.returncode == 0, cp.stderr
    # the process entry also leaves the collector off and the heap frozen
    assert cp.stdout == expected + "\nFalse True\n"


def test_main_module_runs_no_collection():
    # __main__ turns the collector off before it imports cli, whose imports
    # would otherwise run collections before run() turns it off
    code = """
import contextlib, gc, io, runpy, sys
passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info))
sys.argv = ["attenattack", "campaign", "--class", "fixed", "--trials", "200"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("attenattack", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(len(passes))
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "0\n"


def test_console_script_runs_one_blas_thread():
    # The console script calls cli.run without __main__; importing cli must
    # not load numpy, so that main can still set the thread count first.
    code = """
import contextlib, io, os, sys
from attenattack.cli import main
assert "numpy" not in sys.modules, "numpy loaded on importing cli"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["risk"]) == 0
assert "numpy" in sys.modules
tasks = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    cp = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "1 1\n"


def test_numpy_imported_first_is_the_one_used():
    code = """
import numpy
from attenattack import risk
risk.risk_report(risk.RiskQuery(risk.TestRecord(5, 4, 1)))
assert risk.np is numpy
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr


def test_only_risk_imports_scipy():
    code = """
import contextlib, io, sys
import attenattack
assert "numpy" not in sys.modules, "numpy imported with the package"
assert "scipy" not in sys.modules, "scipy imported with the package"
from attenattack.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(["thresholds", "--points", "5"])
    main(["impact", "--delta-db", "-1"])
    # the package draws its own streams, so no campaign needs numpy
    for klass in ("manual-voa", "fixed", "mems-voa", "vdmc-voa"):
        for mode in (["--trials", "1"], ["--trials", "300"], ["--trials", "300", "--per-trial"]):
            assert main(["campaign", "--class", klass, *mode]) == 0
    assert "numpy" not in sys.modules, "numpy imported by a campaign"
    assert "scipy" not in sys.modules, "scipy imported before risk"
    main(["risk"])
    assert "numpy" in sys.modules
# risk loads scipy's ufunc extension, not the scipy.special package, and
# leaves no placeholder for the package behind
import scipy
assert "scipy.special._ufuncs" in sys.modules
assert "scipy.special" not in sys.modules, "scipy.special package initialised"
assert "scipy.special._support_alternative_backends" not in sys.modules
assert "special" not in vars(scipy)
import scipy.special
from attenattack import risk
assert scipy.special.gammaln is risk.gammaln
assert scipy.special.betaln is risk.betaln
assert scipy.special.betainc is risk.betainc
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr


def test_scipy_special_imported_by_another_thread_meanwhile():
    # Threads wait at the ufunc extension's look-up, inside risk's load, and
    # then import scipy.special, each in another way. No thread may get a
    # placeholder package that lacks the ufuncs, and none may deadlock.
    code = """
import importlib, importlib.abc, sys, threading
import scipy
from attenattack import risk

inside = threading.Event()
got = []

def importer(way):
    inside.wait(30)
    try:
        if way == 0:
            from scipy.special import gammaln
        elif way == 1:
            import scipy.special
            gammaln = scipy.special.gammaln
        else:
            gammaln = importlib.import_module("scipy.special").gammaln
        got.append(gammaln)
    except BaseException as exc:
        got.append(exc)

class Meanwhile(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs":
            inside.set()
            # let the threads import now; one that waits on the package's
            # module lock is still alive after the timeout
            for t in workers:
                t.join(0.2)
        return None

workers = [threading.Thread(target=importer, args=(i % 3,)) for i in range(6)]
for t in workers:
    t.start()
sys.meta_path.insert(0, Meanwhile())
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    risk._import_special()
finally:
    sys.setswitchinterval(interval)
for t in workers:
    t.join(30)
    assert not t.is_alive(), "an importer thread hangs"
assert inside.is_set()
assert got == [risk.gammaln] * len(workers), got
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr


# The risk queries of the per-trial-analysis benchmark workload.
RISK_QUERIES = [["risk"], ["risk", "--population", "100000", "--tested", "5"]]
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)

# Before cli.main, a child may import scipy.special itself, so that risk
# takes the plain import.
PACKAGE_FIRST = "import scipy.special"
# Or it may make every look-up of the ufunc extension under the placeholder
# package fail, so that the direct load raises ImportError and risk falls
# back to the plain import, which runs the package's own init.
EXTENSION_FAILS = """
import importlib.abc, sys
import scipy
from attenattack import risk

class FailUnderPlaceholder(importlib.abc.MetaPathFinder):
    failed = 0

    def find_spec(self, name, path=None, target=None):
        package = sys.modules.get("scipy.special")
        if name == "scipy.special._ufuncs" and getattr(package, "__file__", None) is None:
            FailUnderPlaceholder.failed += 1
            raise ImportError("no ufunc extension")
        return None

sys.meta_path.insert(0, FailUnderPlaceholder())
try:
    risk._load_ufuncs()
except ImportError:
    pass
else:
    raise AssertionError("the direct load did not fail")
assert "scipy.special" not in sys.modules, "placeholder left in sys.modules"
assert "special" not in vars(scipy), "placeholder left in the scipy namespace"
"""
AFTER_FALLBACK = """
assert FailUnderPlaceholder.failed == 2, "risk did not try the direct load"
import scipy.special
assert scipy.special.__file__, "scipy.special is not the real package"
assert scipy.special.gammaln is risk.gammaln
"""


def risk_child(argv: list[str], before: str = "", after: str = "") -> bytes:
    """Stdout of cli.main(argv) in a child that runs `before` first and
    `after` last."""
    code = f"""
import contextlib, io, sys
{before}
from attenattack.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert main({argv!r}) == 0
{after}
sys.stdout.write(buf.getvalue())
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert cp.returncode == 0, cp.stderr.decode()
    return cp.stdout


@pytest.mark.parametrize("argv", RISK_QUERIES, ids=" ".join)
def test_risk_bytes_do_not_depend_on_how_scipy_is_loaded(argv):
    direct = risk_child(argv)
    assert hashlib.sha256(direct).hexdigest() == GOLDEN[" ".join(argv)]
    assert risk_child(argv, PACKAGE_FIRST) == direct
    assert risk_child(argv, EXTENSION_FAILS, AFTER_FALLBACK) == direct


def test_help_smoke():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("thresholds", "campaign", "impact", "risk"):
        assert sub in cp.stdout
