import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erasurechain
from erasurechain import cli, erasure_model, markov_engine
from erasurechain.cli import main
from erasurechain.erasure_model import (
    Classification, Model, all_patterns, build_classes, classify, format_pattern,
)

from conftest import members_index

RUN = [sys.executable, "-m", "erasurechain.cli"]
# The CLI subprocess imports the same package as this test run, installed
# or not.
PACKAGE_ROOT = str(Path(erasurechain.__file__).resolve().parents[1])
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, check=True):
    proc = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=600, env=ENV
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


class TestClassify:
    def test_correctable_triple(self):
        proc = run_cli("classify", "MMM....")
        data = json.loads(proc.stdout)
        assert data["classification"] == "correctable"
        assert data["weight"] == 3
        assert data["class_label"] == "w3"

    def test_clean_pattern(self):
        data = json.loads(run_cli("classify", ".......").stdout)
        assert data["weight"] == 0
        assert data["next_step"] == "done"

    def test_heavy_pattern_fails(self):
        data = json.loads(run_cli("classify", "EEEE...").stdout)
        assert data["classification"] == "procedure_fail"
        assert data["next_step"] == "abort"

    def test_parse_error_exit_code(self):
        proc = run_cli("classify", "..X!...", check=False)
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "error" in err

    def test_manifest_embedded(self):
        data = json.loads(run_cli("classify", "Z......").stdout)
        manifest = data["manifest"]
        assert manifest["command"] == "classify"
        assert manifest["circuit_config_hash"]
        assert manifest["tool_version"]


class TestClasses:
    def test_lossy_table(self):
        data = json.loads(run_cli("classes", "--model", "lossy").stdout)
        assert data["pattern_total"] == 2187
        assert len(data["classes"]) == 11
        labels = [c["label"] for c in data["classes"]]
        assert "[2,1]" in labels

    def test_ideal_table(self):
        data = json.loads(run_cli("classes", "--model", "ideal").stdout)
        assert data["pattern_total"] == 128
        assert len(data["classes"]) == 5


class TestSeries:
    def test_reports_reference_comparison(self):
        data = json.loads(run_cli("series", "--model", "ideal", "--order", "6").stdout)
        assert data["computed_coefficients"]["eps^3"] == "49"
        assert data["reference_coefficients"]["eps^3"] == "56"


class TestThreshold:
    def test_measurement_flags_reference(self):
        data = json.loads(run_cli("threshold", "--model", "measurement").stdout)
        assert abs(data["root_float"] - 0.2559) < 0.001
        assert data["reference_value"] == 0.25
        assert data["reference_differs"] is True

    def test_lossy_reference_fixture(self):
        data = json.loads(
            run_cli(
                "threshold", "--model", "lossy", "--fixture", "lossy-ref",
                "--bracket", "1/100,3/100",
            ).stdout
        )
        assert abs(data["root_float"] - 0.0178) < 0.0005

    def test_ideal_reference_fixture_has_no_root(self):
        proc = run_cli(
            "threshold", "--model", "ideal", "--fixture", "ideal-ref",
            "--bracket", "1/1000,1/5", check=False,
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "no_sign_change"
        assert "samples_of_recursion_minus_condition" in err

    @pytest.mark.parametrize(
        "model, fixture",
        [
            ("measurement", "lossy-ref"),
            ("measurement", "ideal-ref"),
            ("lossy", "ideal-ref"),
            ("ideal", "lossy-ref"),
        ],
    )
    def test_fixture_of_another_model_rejected(self, model, fixture):
        proc = run_cli("threshold", "--model", model, "--fixture", fixture, check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--fixture" in json.loads(proc.stderr)["error"]


class TestSweep:
    def test_zero_grid(self):
        data = json.loads(run_cli("sweep", "--model", "ideal", "--grid", "0").stdout)
        assert data["rows"] == [
            {"eps": 0.0, "encoded_failure_exact": 0.0, "mc_mean": None, "mc_stderr": None}
        ]

    def test_grid_range_syntax(self):
        data = json.loads(
            run_cli("sweep", "--model", "ideal", "--grid", "1/100:3/100:1/100").stdout
        )
        assert [row["eps"] for row in data["rows"]] == [0.01, 0.02, 0.03]

    def test_out_of_range_grid_rejected(self):
        proc = run_cli("sweep", "--model", "ideal", "--grid", "0.7", check=False)
        assert proc.returncode == 2

    def test_csv_determinism(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--model", "lossy", "--grid", "1/100,1/50",
            "--trials", "2000", "--seed", "11", "--format", "csv",
            "--output", str(out),
        ]
        run_cli(*args)
        first = out.read_bytes()
        run_cli(*args)
        assert out.read_bytes() == first
        text = first.decode()
        assert text.splitlines()[1] == "eps,encoded_failure_exact,mc_mean,mc_stderr"


class TestMc:
    def test_json_report(self):
        data = json.loads(
            run_cli(
                "mc", "--model", "ideal", "--eps", "1/10",
                "--trials", "20000", "--seed", "3",
            ).stdout
        )
        assert data["trials"] == 20000
        assert abs(data["z_vs_exact"]) <= 4
        assert data["passed"] in (True, False)

    def test_csv_columns(self):
        proc = run_cli(
            "mc", "--model", "lossy", "--eps", "1/100", "--trials", "2000",
            "--seed", "3", "--format", "csv",
        )
        lines = proc.stdout.splitlines()
        assert lines[1] == "eps,delta,trials,mean,stderr,z_vs_exact"
        assert len(lines) == 3

    @pytest.mark.parametrize("eps", ["0", "1"])
    def test_rate_endpoint_has_zero_stderr(self, eps):
        # Every trial ends the same way, so the mean is exact with no spread.
        data = json.loads(
            run_cli("mc", "--model", "ideal", "--eps", eps, "--trials", "100").stdout
        )
        assert data["mean"] == data["exact"] == float(eps)
        assert data["stderr"] == 0.0
        assert data["z_vs_exact"] == 0.0
        assert data["passed"] is True

    def test_no_failures_at_a_small_rate_passes(self):
        # No trial fails, so the plug-in standard error is 0; the mean is
        # scored against the exact value's own spread.  At eps = 1/1000 the
        # exact rate is about 1e-7, so 2000 trials see no failure with
        # probability 0.9998, whatever the seed's stream.
        data = json.loads(
            run_cli(
                "mc", "--model", "lossy", "--eps", "1/1000", "--trials", "2000",
                "--seed", "7",
            ).stdout
        )
        assert (data["mean"], data["stderr"]) == (0.0, 0.0)
        p = data["exact"]
        assert data["z_vs_exact"] == pytest.approx(-sqrt(2000 * p / (1 - p)), rel=1e-12)
        assert data["passed"] is True

    def test_lossless_gates_with_lost_detections_never_fail(self):
        # eps = 0, delta = 1: every trial starts clean.  The class that
        # never leaves itself holds no injected mass, so the exact rate is
        # 0 rather than a singular system.
        data = json.loads(
            run_cli(
                "mc", "--model", "lossy", "--eps", "0", "--delta", "1",
                "--trials", "1000", "--seed", "1",
            ).stdout
        )
        assert data["exact"] == data["mean"] == 0.0
        assert data["stderr"] == 0.0
        assert data["passed"] is True

    def test_slow_absorption_is_a_json_error(self, capsys):
        # With every detection lost a correct procedure absorbs slowly; a
        # trial left live at the step cap is reported, not a traceback.
        argv = ["mc", "--model", "lossy", "--eps", "1/100000", "--delta", "1",
                "--trials", "1000000", "--seed", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "a trial did not absorb within MAX_STEPS = 10000 attempts "
            "at eps = 1/100000, delta = 1"
        }


class TestConcat:
    def test_zero_start(self):
        data = json.loads(
            run_cli("concat", "--model", "measurement", "--eps0", "0").stdout
        )
        assert all(level["rate"] == 0.0 for level in data["levels"])

    def test_measurement_decreasing(self):
        data = json.loads(
            run_cli(
                "concat", "--model", "measurement", "--eps0", "1/10", "--levels", "3"
            ).stdout
        )
        rates = [level["rate"] for level in data["levels"]]
        assert abs(rates[0] - 0.0256915) < 1e-7
        assert rates[0] > rates[1] > rates[2]

    def test_level_cap(self):
        proc = run_cli(
            "concat", "--model", "measurement", "--eps0", "1/10",
            "--levels", "11", check=False,
        )
        assert proc.returncode == 2

    def test_ideal_level_five_prints(self):
        # Level 4's exact rate has a 277,008-bit denominator; each level
        # prints the double of its exact rate without carrying it.
        data = json.loads(
            run_cli("concat", "--model", "ideal", "--eps0", "1/19", "--levels", "5").stdout
        )
        assert [level["level"] for level in data["levels"]] == [1, 2, 3, 4, 5]
        assert data["levels"][4]["rate"] == 1.3910727308118855e-95



@pytest.mark.parametrize(
    "args, flag",
    [
        (("concat", "--model", "ideal", "--eps0", "-1", "--levels", "2"), "--eps0"),
        (("mc", "--model", "ideal", "--eps", "2"), "--eps"),
        (("mc", "--model", "lossy", "--eps", "1/10", "--delta", "2"), "--delta"),
        (("threshold", "--model", "ideal", "--bracket=-1/10,1/4"), "--bracket"),
        (("threshold", "--model", "ideal", "--bracket", "1/100"), "--bracket"),
        # Rejected from its point count, before any point is built.
        (("sweep", "--model", "ideal", "--grid", "0:1/2:1/1000000000"), "grid"),
        (("sweep", "--model", "ideal", "--grid", "0:1:1/10"), "grid"),
        (("mc", "--model", "ideal", "--eps", "1/10", "--seed", "-1"), "--seed"),
        (("mc", "--model", "ideal", "--eps", "1/10", "--trials", "0"), "--trials"),
        (("sweep", "--model", "ideal", "--grid", "1/10", "--trials", "-5"), "--trials"),
        (("sweep", "--model", "ideal", "--grid", "1/10", "--trials", "10", "--seed", "-1"),
         "--seed"),
        (("mc", "--model", "ideal", "--eps", "1/20", "--delta", "1/2"), "--delta"),
        (("mc", "--model", "lossy", "--eps", "1/20", "--delta", "", "--trials", "100",
          "--seed", "1"), "--delta"),
        (("sweep", "--model", "ideal", "--grid", ""), "--grid"),
        (("sweep", "--model", "ideal", "--grid", ","), "--grid"),
        (("sweep", "--model", "ideal", "--grid", "1/10,,1/5"), "--grid"),
        (("concat", "--model", "measurement", "--eps0", "1/10", "--levels", "-1"), "--levels"),
        (("concat", "--model", "measurement", "--eps0", "1/10", "--levels", "11"), "--levels"),
        # Every rate and target is 0 at 0; ideal and measurement also meet at 1.
        (("threshold", "--model", "ideal", "--bracket", "0,1/4"), "--bracket"),
        (("threshold", "--model", "measurement", "--bracket", "1/2,1"), "--bracket"),
        (("sweep", "--model", "ideal", "--grid", "1/10:1/100:1/100"), "grid"),
        (("series", "--model", "ideal", "--order", "-1"), "--order"),
        (("series", "--model", "lossy", "--order", "1001"), "--order"),
        (("threshold", "--model", "ideal", "--tol", "0"), "--tol"),
        (("threshold", "--model", "ideal", "--tol", "-1"), "--tol"),
        # Unparsable rationals name the flag they were given to.
        (("mc", "--model", "ideal", "--eps", "abc"), "--eps"),
        (("threshold", "--model", "ideal", "--tol", "x"), "--tol"),
        (("concat", "--model", "ideal", "--eps0", "1/0"), "--eps0"),
        (("threshold", "--model", "ideal", "--bracket", "a,b"), "--bracket"),
    ],
)
def test_out_of_domain_argument_rejected(args, flag):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in json.loads(proc.stderr)["error"]


class TestCircuitConfig:
    def test_override_changes_hash(self, tmp_path):
        cfg = tmp_path / "alt.json"
        cfg.write_text(json.dumps({"helper_detections": 2}))
        base = json.loads(run_cli("classify", "Z......").stdout)
        alt = json.loads(
            run_cli("classify", "Z......", "--circuit-config", str(cfg)).stdout
        )
        assert (
            base["manifest"]["circuit_config_hash"]
            != alt["manifest"]["circuit_config_hash"]
        )

    @pytest.mark.parametrize(
        "config",
        [
            {"helper_detection": 2},  # misspelt key
            {"constructon": "per_teleportation"},  # misspelt construction key
            {"ancilla_detections": -1},
            {"readout_detections": 1.5},
            {"coupling_full_fraction": "3/2"},
            {"coupling_full_fraction": "-1/2"},
            {"construction": "per_teleport"},
            {"construction": "per_teleportation", "helper_detections": 2},
            {"construction": "per_teleportation", "coupling_full_fraction": "1/2"},
            ["not", "an", "object"],
            {"ancilla_detections": 17},  # above MAX_DETECTIONS
        ],
    )
    def test_malformed_config_rejected(self, tmp_path, config):
        # A config the program would not read as written must not run as
        # some other accounting (the default one, say).
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli("classes", "--model", "ideal", "--circuit-config", str(cfg),
                       check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error" in json.loads(proc.stderr)

    def test_repeated_key_rejected(self, tmp_path):
        # Read as the last value, the file would run and hash as the
        # default accounting: the first value would never be seen.
        cfg = tmp_path / "repeated.json"
        cfg.write_text('{"ancilla_detections": 4, "ancilla_detections": 0}')
        proc = run_cli("classes", "--model", "ideal", "--circuit-config", str(cfg),
                       check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": f"--circuit-config {cfg}: repeated key 'ancilla_detections'"
        }

    @pytest.mark.parametrize(
        "content", [b"", b"\xff\xfe{}"], ids=["not-json", "not-utf8"],
    )
    def test_unreadable_config_names_the_flag_and_file(self, tmp_path, content):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        proc = run_cli("threshold", "--model", "lossy", "--circuit-config", str(cfg),
                       check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"].startswith(f"--circuit-config {cfg}: ")


REPO_ROOT = Path(__file__).resolve().parents[1]
PER_TELEPORTATION = "configs/per_teleportation.json"
ALT_CONFIG = "perfbench/alt_config.json"


# (arguments, sha256 of stdout): the default, per_teleportation and
# alternative configs across every subcommand.
GOLDEN_STDOUT = [
    (("classify", "..Z..E."),
     "f660cffdc1b9a53332914e7913a85119ab67711fbc2fc6d9e696f7a4fbf62b58"),
    (("classify", "MM.M..."),
     "38c394e89288395da033d2fae6a9d54a3e74dc00a51099fcb01448ff17264ca4"),
    (("classes", "--model", "ideal"),
     "75fbe59dd2226e48dfa69ad85dde967e8ac6b97c6beb433d4a777fd71b902888"),
    (("classes", "--model", "lossy"),
     "23d77ab385a687b67a1dacc860a9e9d6c773bbbc1d68bb62d52a795e7f27a1fd"),
    (("classes", "--model", "lossy", "--circuit-config", PER_TELEPORTATION),
     "397c30b3a04145f7414d81d4a69f36338ee78f9fdd50629cbff5a4f63fed98de"),
    (("chain", "--model", "ideal"),
     "5e3243126140941b3d13262fa4309304010dcb94b2b4e08018e6a623e01d493b"),
    (("chain", "--model", "lossy"),
     "9e687617444918f563f13dab0d5a4ca5bbd646e70bf40639faea2c1ad459408d"),
    (("chain", "--model", "lossy", "--circuit-config", PER_TELEPORTATION),
     "e3fe4ee3dbfc4ffa66246708dd1d9b37928d70cc2de1ab4246bb4573cb667f8c"),
    (("chain", "--model", "lossy", "--circuit-config", ALT_CONFIG),
     "cbe61d3b000010852e7effe2d38d9088b701f02a379f53b46cd7b9ec2b81ed09"),
    (("series", "--model", "ideal", "--order", "6"),
     "ebf4150833b43fec3b2c498be1374ba7dbc3b4c0afb3c77e9501e5a460ef5e08"),
    (("series", "--model", "lossy", "--order", "6"),
     "87c646d03a5ba8f8957c4a9a6d8fac0fdcb18431221f8491a5024176654d85bc"),
    (("series", "--model", "lossy", "--order", "6",
      "--circuit-config", PER_TELEPORTATION),
     "b5a82a560f4fe6afae0a8506bcd81a43db2fe80fd81642fa6aad1a512c64ac42"),
    (("threshold", "--model", "ideal"),
     "6f1caeae0da77279b98b7e4aced510eca1c41e59e3c0910ac6900546936d0066"),
    (("threshold", "--model", "lossy"),
     "bb9d186d27dbf1275da332490083a6bccef91ec0f2c47c0226feb8fb5a8f7098"),
    (("threshold", "--model", "measurement"),
     "597f7541ecb089a7f0d59e0dc1f538683871ac9a80e1bab7fd081b27d2e16e04"),
    (("threshold", "--model", "lossy", "--circuit-config", PER_TELEPORTATION),
     "17deacffd7050635d7b9c5e6fbd6e6b32aaa6929acfed5ea8e4d95913350788d"),
    (("threshold", "--model", "lossy", "--circuit-config", ALT_CONFIG),
     "66292d3a6bf4f7fc1cdddb7301c88f9860803a9fe1336b680a0d240b39ca6907"),
    (("sweep", "--model", "lossy", "--grid", "1/100:1/10:1/100"),
     "9f3599884068daf3466213e93b0d1ef86ebfe487c394b56f2ef2b2b11a9775ad"),
    (("sweep", "--model", "ideal", "--grid", "1/20,1/10", "--trials", "2000",
      "--seed", "3", "--format", "csv"),
     "263b78d5fcf7a95830b42bdf41bf8da82cb6eb280d20d5ce1aa3b8f08f67886a"),
    (("mc", "--model", "ideal", "--eps", "1/10", "--trials", "20000",
      "--seed", "1"),
     "8b1362d4200463295083439a3958549a4cbb03456f5b21b739bea2c5c1488d33"),
    (("mc", "--model", "lossy", "--eps", "1/20", "--delta", "1/50",
      "--trials", "20000", "--seed", "2", "--circuit-config", ALT_CONFIG),
     "bfc236132b079e4df1c9698986f83a1b9bca593e34efd1c92d83f4ab638b1e87"),
    (("concat", "--model", "lossy", "--eps0", "1/100", "--levels", "4",
      "--circuit-config", PER_TELEPORTATION),
     "9996664ba71b2e5dae00c3dbb788f5d744294bc5ea327432b6c18a140934b2c6"),
]


class TestCensus:
    @pytest.mark.parametrize(
        "model, config",
        [("ideal", None), ("lossy", None), ("lossy", PER_TELEPORTATION), ("lossy", ALT_CONFIG)],
        ids=["ideal", "lossy", "per_teleportation", "alt_config"],
    )
    def test_counts_match_brute_force(self, model, config, monkeypatch, capsys):
        # The counts are read from the class table; count them pattern by
        # pattern instead.
        monkeypatch.chdir(REPO_ROOT)
        args = ["classes", "--model", model]
        if config is not None:
            args += ["--circuit-config", config]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        patterns = all_patterns(Model(model))
        fail = sum(classify(p) is Classification.PROCEDURE_FAIL for p in patterns)
        assert data["pattern_total"] == len(patterns)
        assert data["procedure_fail_patterns"] == fail
        assert data["correctable_patterns"] == len(patterns) - fail


@pytest.mark.parametrize(
    "args",
    [
        ("chain", "--model", "lossy"),
        ("classes", "--model", "lossy"),
        ("classify", "..Z..E."),
        ("series", "--model", "lossy"),
        ("threshold", "--model", "lossy"),
        ("concat", "--model", "lossy", "--eps0", "1/100", "--levels", "10"),
    ],
    ids=lambda args: args[0],
)
def test_csv_rejected_before_the_command_runs(args, monkeypatch, capsys):
    calls = []
    for name in ("build_chain", "build_classes", "chain_recursion"):
        real = getattr(cli, name)

        def spy(*a, real=real, name=name, **k):
            calls.append(name)
            return real(*a, **k)

        monkeypatch.setattr(cli, name, spy)
    assert main([*args, "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"csv output is not defined for {args[0]!r}"}
    assert calls == []


class TestSourceDateEpoch:
    """SOURCE_DATE_EPOCH stamps the manifest, and is checked before the
    command runs."""

    def test_valid_value_stamps_the_manifest(self, monkeypatch, capsys):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert main(["classes", "--model", "ideal"]) == 0
        unset = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert main(["classes", "--model", "ideal"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        stamped = json.loads(out)
        assert stamped["manifest"].pop("timestamp") == "2023-11-14T22:13:20+00:00"
        assert unset["manifest"].pop("timestamp") is None
        assert stamped == unset

    @pytest.mark.parametrize(
        "value",
        ["99999999999999999999", "abc", "1.5", ""],
        ids=["overflow", "not-a-number", "not-an-integer", "empty"],
    )
    def test_malformed_value_rejected_before_the_command_runs(self, value, monkeypatch, capsys):
        calls = []
        real = cli.build_classes

        def spy(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(cli, "build_classes", spy)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        assert main(["classes", "--model", "ideal"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        message = json.loads(err)["error"]
        assert message.startswith("SOURCE_DATE_EPOCH ") and repr(value) in message
        assert calls == []


class TestClassifyLabel:
    @pytest.mark.parametrize("config", [None, PER_TELEPORTATION, ALT_CONFIG],
                             ids=["default", "per_teleportation", "alt_config"])
    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_label_is_the_class_tables(self, model, config):
        # classify reads the label from the pattern's signature alone; the
        # verified class table must agree for every pattern.
        fault_model = cli._load_config(None if config is None else str(REPO_ROOT / config))
        table = build_classes(model, config=fault_model)
        index = members_index(table)
        for p in all_patterns(model):
            args = argparse.Namespace(pattern=format_pattern(p))
            label = cli.cmd_classify(args, fault_model)["class_label"]
            assert label == table.classes[index[p]].label, format_pattern(p)


# A representative command line per subcommand.
PARSER_ARGV = {
    "classify": ["classify", "..Z..E.", "--format", "csv"],
    "classes": ["classes", "--model", "lossy", "--circuit-config", "c.json"],
    "chain": ["chain", "--model", "ideal"],
    "series": ["series", "--model", "lossy", "--order", "3"],
    "threshold": ["threshold", "--model", "measurement", "--tol", "1/100",
                  "--bracket", "1/10,1/5", "--fixture", "full-chain"],
    "sweep": ["sweep", "--model", "ideal", "--grid", "0:1/10:1/20", "--trials", "5",
              "--seed", "2", "--output", "out.csv"],
    "mc": ["mc", "--model", "lossy", "--eps", "1/50", "--delta", "1/30",
           "--trials", "10", "--seed", "4"],
    "concat": ["concat", "--model", "measurement", "--eps0", "1/10", "--levels", "2"],
}

HELP = """\
usage: erasurechain [-h] [--version]
                    {classify,classes,chain,series,threshold,sweep,mc,concat}
                    ...

Exact thresholds and Monte Carlo checks for erasure noise on the [[7,1,3]]
code

positional arguments:
  {classify,classes,chain,series,threshold,sweep,mc,concat}
    classify            classify a 7-character pattern
    classes             equivalence-class table
    chain               export the symbolic transition matrix
    series              encoded failure series in eps
    threshold           solve a break-even condition
    sweep               encoded failure over an eps grid
    mc                  Monte Carlo estimate vs the exact chain
    concat              per-level rates under concatenation

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
USAGE = """\
usage: erasurechain [-h] [--version]
                    {classify,classes,chain,series,threshold,sweep,mc,concat}
                    ...
"""


FLAGS = sorted({
    flag
    for _, _, arguments in cli.SUBCOMMANDS.values()
    for flag, _ in arguments + cli.COMMON_ARGUMENTS
    if flag.startswith("-")
})
JUNK = st.sampled_from(
    ["", "-", "--", "-h", "--help", "--version", "-1", "-1/10", "1/10", "0", "x",
     " 3", "+4", "3_0", "ideal", "lossy", "csv", "..Z..E.", "--model", "bogus"]
) | st.text("-=/. 1aZE", max_size=4)


def _valid(options):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(0, 10**6).map(str)
    return st.sampled_from(["1/10", "0", "..Z..E.", "1/100:1/10:1/100"])


@st.composite
def command_lines(draw):
    """A subcommand's valid ``--flag value`` pairs and positionals, each
    present three times in four, then up to two changes: a junk value, a
    flag spelled --flag=value or abbreviated, a flag repeated with a junk
    value, a pair dropped, or a stray token or flag added."""
    name = draw(st.sampled_from([*cli.SUBCOMMANDS, "bogus", "", "-h", "--version"]))
    arguments = cli.SUBCOMMANDS[name][2] + cli.COMMON_ARGUMENTS if name in cli.SUBCOMMANDS else ()
    pieces = [
        [flag, draw(_valid(options))] if flag.startswith("-") else [draw(_valid(options))]
        for flag, options in arguments
        if draw(st.sampled_from([True, True, True, False]))
    ]
    changes = ["junk", "equals", "prefix", "repeat", "drop", "extra"]
    for change in draw(st.lists(st.sampled_from(changes), max_size=2)):
        if change == "extra" or not pieces:
            extra = st.tuples(st.sampled_from(FLAGS), JUNK).map(list) | JUNK.map(lambda t: [t])
            pieces.append(draw(extra))
            continue
        i = draw(st.integers(0, len(pieces) - 1))
        *flag, value = pieces[i]
        if change == "junk":
            pieces[i] = [*flag, draw(JUNK)]
        elif change == "repeat":
            pieces.append([*flag, draw(JUNK)])
        elif change == "drop":
            del pieces[i]
        elif flag and change == "equals":
            pieces[i] = [f"{flag[0]}={value}"]
        elif flag:
            pieces[i] = [flag[0][: draw(st.integers(3, len(flag[0])))], value]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def _exit_output(parse, argv, capsys):
    """(exit code, stdout, stderr) of a command line that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParser:
    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        # argparse wraps its usage and help at the terminal's width.
        monkeypatch.setenv("COLUMNS", "80")

    def test_every_subcommand_has_a_command_line(self):
        assert list(PARSER_ARGV) == list(cli.SUBCOMMANDS)

    @pytest.mark.parametrize("name", PARSER_ARGV)
    def test_plain_parse_matches_argparse(self, name):
        argv = PARSER_ARGV[name]
        plain = cli._plain_args(argv)
        assert plain is not None
        assert vars(plain) == vars(cli.build_parser().parse_args(argv))

    def test_golden_lines_are_plain(self):
        parser = cli.build_parser()
        for args, _ in GOLDEN_STDOUT:
            plain = cli._plain_args(list(args))
            assert plain is not None, args
            assert vars(plain) == vars(parser.parse_args(list(args))), args

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(argv=command_lines())
    def test_plain_parse_is_argparses(self, argv):
        # Whenever the plain parse takes a line, argparse accepts it too and
        # builds the same attributes.
        plain = cli._plain_args(argv)
        if plain is None:
            return
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                full = cli.build_parser().parse_args(argv)
            except SystemExit:
                raise AssertionError(f"argparse rejects {argv}: {err.getvalue()}")
        assert vars(plain) == vars(full)

    @pytest.mark.parametrize("spelling", [["--model=ideal"], ["--mod", "ideal"]],
                             ids=["equals", "abbreviated"])
    def test_other_spellings_print_the_same_bytes(self, spelling, capsys):
        # argparse still reads the spellings the plain parse leaves to it.
        assert cli._plain_args(["threshold", *spelling]) is None
        assert main(["threshold", "--model", "ideal"]) == 0
        plain = capsys.readouterr()
        assert main(["threshold", *spelling]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_help_bytes(self, argv, capsys):
        assert _exit_output(main, argv, capsys) == (0, HELP, "")

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
             "'classify', 'classes', 'chain', 'series', 'threshold', 'sweep', 'mc', "
             "'concat')"),
            (["mc", "--model", "ideal", "--eps", "1/10", "--bogus"],
             "unrecognized arguments: --bogus"),
        ],
        ids=["bare", "unknown", "unrecognized"],
    )
    def test_error_bytes(self, argv, error, capsys):
        assert _exit_output(main, argv, capsys) == (
            2, "", f"{USAGE}erasurechain: error: {error}\n"
        )

    @pytest.mark.parametrize(
        "argv, usage, error",
        [
            (["threshold", "--model", "bogus"],
             "usage: erasurechain threshold [-h] --model {ideal,lossy,measurement}\n"
             "                              [--tol TOL] [--bracket BRACKET]\n"
             "                              [--fixture {full-chain,ideal-ref,lossy-ref}]\n"
             "                              [--circuit-config CIRCUIT_CONFIG]\n"
             "                              [--format {json,csv}]\n",
             "argument --model: invalid choice: 'bogus' (choose from 'ideal', "
             "'lossy', 'measurement')"),
            (["series", "--model", "ideal", "--order", "x"],
             "usage: erasurechain series [-h] --model {ideal,lossy} [--order ORDER]\n"
             "                           [--circuit-config CIRCUIT_CONFIG]\n"
             "                           [--format {json,csv}]\n",
             "argument --order: invalid int value: 'x'"),
            (["mc", "--model", "ideal"],
             "usage: erasurechain mc [-h] --model {ideal,lossy} --eps EPS [--delta DELTA]\n"
             "                       [--trials TRIALS] [--seed SEED]\n"
             "                       [--circuit-config CIRCUIT_CONFIG] [--format {json,csv}]\n",
             "the following arguments are required: --eps"),
        ],
        ids=["choice", "int", "required"],
    )
    def test_subcommand_error_bytes(self, argv, usage, error, capsys):
        assert _exit_output(main, argv, capsys) == (
            2, "", f"{usage}erasurechain {argv[0]}: error: {error}\n"
        )


class TestGoldenBytes:
    """Public output bytes stay the same: stdout hashes to its pinned value.

    Run in-process from the repository root, so each config path reaches the
    manifest as written here, and with no ``SOURCE_DATE_EPOCH``, so the
    manifest carries no timestamp.
    """

    @pytest.mark.parametrize(
        "args, digest", GOLDEN_STDOUT, ids=[" ".join(a) for a, _ in GOLDEN_STDOUT]
    )
    def test_stdout_digest(self, args, digest, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert main(list(args)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cold_imports():
    # The CLI imports neither numpy.ma nor numpy.random at startup, and a
    # Monte Carlo run does not import numpy.ma.  Plain command lines never
    # reach argparse, whose messages import locale through gettext.  The
    # records are NamedTuples, so neither the import nor a plain command
    # line loads dataclasses or argparse, unless numpy alone does.
    numpy_loads = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=600, env=ENV,
    ).stdout.split()
    unused = [m for m in ("dataclasses", "argparse") if m not in numpy_loads]
    script = (
        "import contextlib, io, sys\n"
        "from fractions import Fraction\n"
        f"UNUSED = {unused!r}\n"
        "import erasurechain.cli\n"
        "assert 'numpy.ma' not in sys.modules, 'cli imports numpy.ma'\n"
        "assert 'numpy.random' not in sys.modules, 'cli imports numpy.random'\n"
        "loaded = [m for m in UNUSED if m in sys.modules]\n"
        "assert not loaded, f'cli imports {loaded}'\n"
        "from erasurechain.erasure_model import ModelParams\n"
        "from erasurechain.montecarlo import simulate\n"
        "simulate(ModelParams.lossy(Fraction(1, 10), Fraction(1, 7)), 1000, 1)\n"
        "assert 'numpy.ma' not in sys.modules, 'simulate imports numpy.ma'\n"
        "for argv in (['threshold', '--model', 'ideal'],\n"
        "             ['mc', '--model', 'ideal', '--eps', '1/10', '--trials', '1000'],\n"
        "             ['classify', '..Z..E.']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert erasurechain.cli.main(argv) == 0, argv\n"
        "assert 'locale' not in sys.modules, 'a plain command line imports locale'\n"
        "loaded = [m for m in UNUSED if m in sys.modules]\n"
        "assert not loaded, f'a plain command line imports {loaded}'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600, env=ENV
    )
    assert done.returncode == 0, done.stderr


EXACT_LOSSY_COMMANDS = [
    ("classes", "--model", "lossy"),
    ("series", "--model", "lossy", "--order", "6"),
    ("threshold", "--model", "lossy"),
    ("threshold", "--model", "lossy", "--circuit-config", ALT_CONFIG),
]


@pytest.fixture
def fresh_class_tables():
    """No class table cached, so a command builds its own; the tables it
    leaves are dropped afterwards."""
    erasure_model._class_table.cache_clear()
    yield
    erasure_model._class_table.cache_clear()


@pytest.mark.parametrize("args", EXACT_LOSSY_COMMANDS, ids=" ".join)
def test_lossy_commands_never_build_the_pattern_index(
    args, fresh_class_tables, monkeypatch, capsys
):
    # The build groups codes into classes and keeps their rows; only a
    # table passed in is re-read code by code from its members, and no
    # command passes one.
    def rebuilt(table, config=None):
        raise AssertionError("a table's members were read into a pattern index")

    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(erasure_model, "verify_class_soundness", rebuilt)
    monkeypatch.setattr(markov_engine, "verify_class_soundness", rebuilt)
    assert main(list(args)) == 0
    assert capsys.readouterr().err == ""


class TestCollector:
    """``main`` runs with the cyclic collector off and leaves it as the
    caller had it, whichever way it returns."""

    @pytest.fixture(autouse=True)
    def _restore(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify", "..Z..E."], 0),
            (["threshold", "--model", "ideal", "--tol", "0"], 2),  # CliError
            (["classify", "..X!..."], 2),  # ValueError
        ],
        ids=["exit-0", "cli-error", "value-error"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_returns(self, argv, code, enabled, monkeypatch, capsys):
        inside = []
        real = cli._load_config

        def spy(path):
            inside.append(gc.isenabled())
            return real(path)

        monkeypatch.setattr(cli, "_load_config", spy)
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert inside == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["threshold", "--bogus", "1"], 2)],
        ids=["help", "bad-flag"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_argparse_exit(self, argv, code, enabled, capsys):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert gc.isenabled() is enabled

    def test_escaping_exception(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "build_classes", broken)
        gc.enable()
        with pytest.raises(RuntimeError):
            main(["classes", "--model", "ideal"])
        assert gc.isenabled()

    @pytest.mark.parametrize("args", EXACT_LOSSY_COMMANDS, ids=" ".join)
    def test_no_collection_inside_a_lossy_command(
        self, args, fresh_class_tables, monkeypatch, capsys
    ):
        # The class build, the solve and the bisection allocate freely, and
        # no generation is ever collected.
        monkeypatch.chdir(REPO_ROOT)
        collections = []

        def seen(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.enable()
        gc.callbacks.append(seen)
        try:
            assert main(list(args)) == 0
        finally:
            gc.callbacks.remove(seen)
        assert collections == []
