import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erasurechain

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
