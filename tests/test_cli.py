import json
import subprocess
import sys
from pathlib import Path

import pytest


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "attenattack", *args]
    # a hang fails the test instead of stalling the suite
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


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

    @pytest.mark.parametrize(
        "attack, trials", [("-4000", "1"), ("-4000", "5"), ("-Infinity", "5")]
    )
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


def test_only_risk_imports_scipy():
    code = """
import contextlib, io, sys
from attenattack.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(["campaign", "--class", "vdmc-voa", "--trials", "3", "--per-trial"])
    main(["thresholds", "--points", "5"])
    main(["impact", "--delta-db", "-1"])
    assert "scipy" not in sys.modules, "scipy imported before risk"
    main(["risk"])
assert "scipy" in sys.modules
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr


def test_help_smoke():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("thresholds", "campaign", "impact", "risk"):
        assert sub in cp.stdout
