"""Regenerate expected.json, the reference outputs the benchmark checks against.

Run from the repository root: ``python3 perfbench/make_expected.py``.
The committed file was produced by the CLI at the commit that introduced the
benchmark.  Threshold references are brackets from a bisection tightened to
1e-30, so any correct bracket at a looser tolerance must overlap them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
ALT = str(HERE / "alt_config.json")
CONCAT_EPS0 = ("1/19", "2/19")
RATE_POINTS = ("1/20", "1/10", "1/4")


def cli(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SOURCE_DATE_EPOCH", None)
    out = subprocess.run(
        [sys.executable, "-m", "erasurechain.cli", *argv],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def root_bracket(*argv: str) -> list:
    return cli("threshold", *argv, "--tol", "1/" + "1" + "0" * 30)["bracket"]


def main() -> None:
    classes = cli("classes", "--model", "lossy")
    series = cli("series", "--model", "lossy", "--order", "6")
    sweep = cli("sweep", "--model", "ideal", "--grid", ",".join(RATE_POINTS))
    expected = {
        "config_hash": {
            "default": classes["manifest"]["circuit_config_hash"],
            "alt": cli("classes", "--model", "ideal", "--circuit-config", ALT)[
                "manifest"
            ]["circuit_config_hash"],
        },
        "classes_lossy": {
            "sizes": [[c["label"], c["size"]] for c in classes["classes"]],
            "pattern_total": classes["pattern_total"],
            "correctable_patterns": classes["correctable_patterns"],
        },
        "series_lossy_order6": series["computed_coefficients"],
        "root_bracket": {
            "ideal": root_bracket("--model", "ideal"),
            "measurement": root_bracket("--model", "measurement"),
            "lossy": root_bracket("--model", "lossy"),
            "lossy_alt": root_bracket("--model", "lossy", "--circuit-config", ALT),
        },
        "rate_ideal": {
            x: row["encoded_failure_exact"] for x, row in zip(RATE_POINTS, sweep["rows"])
        },
        "concat_ideal": {
            eps0: [
                lvl["rate"]
                for lvl in cli("concat", "--model", "ideal", "--eps0", eps0, "--levels", "4")[
                    "levels"
                ]
            ]
            for eps0 in CONCAT_EPS0
        },
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
