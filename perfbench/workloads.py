"""The benchmark's workloads: CLI commands per pass and their output checks.

Every check compares with values the CLI computed when the benchmark was
defined (expected.json) or with a second public path through the package
(``run_to_absorption`` on a chain built at a numeric rate).  None compares
with the paper's reference values.

Why each workload exists (also in BENCHMARK.json):

* exact-lossy: symbolic Poly/Fraction products of the lossy class build,
  soundness check and initial distribution, rebuilt by every command.  No
  random input.  The alternative circuit config defeats a cache keyed on
  the model alone and has larger outcome tables.
* ideal-solve-mc: the cheap ideal chain, so no symbolic class build to
  speak of: numeric exact solves (a tight bisection, the measurement
  recursion, a seeded sweep and a seeded concatenation that evaluates big
  rationals), then the Monte Carlo walk at two rates with seeded MC seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ALT_CONFIG = str(HERE / "alt_config.json")
EXPECTED = json.loads((HERE / "expected.json").read_text())

THRESHOLD_TIGHT_TOL = "1/1000000000000"
SWEEP_POINTS = 300
SWEEP_ORACLE_POINTS = 6
MC_TRIALS = 100_000
MC_RATES = ("1/20", "1/10")
MC_Z_LIMIT = 5.0

Check = Callable[[dict], Optional[str]]


@dataclass
class Command:
    """One CLI invocation of a pass, with the check its output must pass."""

    name: str
    argv: List[str]
    check: Check
    solves: int = 0  # exact numeric solves known before the run
    trials: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    commands: List[Command]
    environment: Dict[str, object] = field(default_factory=dict)


# -- checks ------------------------------------------------------------------
def _hash_check(payload: dict, which: str) -> Optional[str]:
    got = payload["manifest"]["circuit_config_hash"]
    want = EXPECTED["config_hash"][which]
    return None if got == want else f"config hash {got} != {want}"


def check_classes_lossy(payload: dict) -> Optional[str]:
    want = EXPECTED["classes_lossy"]
    sizes = [[c["label"], c["size"]] for c in payload["classes"]]
    if sizes != want["sizes"]:
        return f"class table {sizes} != {want['sizes']}"
    for key in ("pattern_total", "correctable_patterns"):
        if payload[key] != want[key]:
            return f"{key} {payload[key]} != {want[key]}"
    return _hash_check(payload, "default")


def check_series_lossy(payload: dict) -> Optional[str]:
    got = payload["computed_coefficients"]
    want = EXPECTED["series_lossy_order6"]
    if got != want:
        return f"series coefficients {got} != {want}"
    return _hash_check(payload, "default")


def threshold_check(reference: str, tol: Fraction, config: str = "default") -> Check:
    """The bracket holds the root, is at most tol wide and overlaps the
    reference bracket, which is tight enough to hold only the true root."""
    ref_lo, ref_hi = (Fraction(x) for x in EXPECTED["root_bracket"][reference])

    def check(payload: dict) -> Optional[str]:
        lo, hi = (Fraction(x) for x in payload["bracket"])
        root = Fraction(payload["root"])
        if not lo <= root <= hi:
            return f"root {payload['root']} outside its bracket"
        if hi - lo > tol:
            return f"bracket wider than tol {tol}"
        if hi < ref_lo or lo > ref_hi:
            return f"bracket [{float(lo)}, {float(hi)}] misses the {reference} root"
        if not isinstance(payload["iterations"], int):
            return "iterations missing"
        return _hash_check(payload, config)

    return check


def concat_check(eps0: str, levels: int) -> Check:
    want = EXPECTED["concat_ideal"][eps0][:levels]

    def check(payload: dict) -> Optional[str]:
        got = [lvl["rate"] for lvl in payload["levels"]]
        return None if got == want else f"concat rates {got} != {want}"

    return check


class SweepCheck:
    """Sweep rows against fixed check points and, at seeded points, against
    ``run_to_absorption`` on a chain built at that numeric rate."""

    def __init__(self, grid: List[Fraction], fixed: Dict[Fraction, float], sample: List[int]):
        self.grid = grid
        self.fixed = fixed
        self.sample = sample
        self._oracle: Dict[Fraction, float] = {}

    def oracle(self, x: Fraction) -> float:
        if x not in self._oracle:
            from erasurechain.erasure_model import ModelParams
            from erasurechain.markov_engine import build_chain, run_to_absorption

            chain = build_chain(ModelParams.ideal(x))
            self._oracle[x] = float(run_to_absorption(chain).encoded_failure)
        return self._oracle[x]

    def __call__(self, payload: dict) -> Optional[str]:
        rows = payload["rows"]
        if [r["eps"] for r in rows] != [float(x) for x in self.grid]:
            return "sweep rows do not follow the grid"
        for i, x in enumerate(self.grid):
            got = rows[i]["encoded_failure_exact"]
            if x in self.fixed and got != self.fixed[x]:
                return f"rate at {x}: {got} != {self.fixed[x]}"
            if i in self.sample and got != self.oracle(x):
                return f"rate at {x}: {got} != run_to_absorption {self.oracle(x)}"
        return None


def mc_check(eps: str, trials: int, seed: int) -> Check:
    exact = EXPECTED["rate_ideal"][eps]

    def check(payload: dict) -> Optional[str]:
        if payload["trials"] != trials or payload["seed"] != seed:
            return "mc ran other trials or seed than asked"
        if payload["exact"] != exact:
            return f"mc exact {payload['exact']} != {exact}"
        z = (payload["mean"] - exact) / payload["stderr"]
        if abs(z) > MC_Z_LIMIT:
            return f"mc mean {payload['mean']} is {z:.2f} stderr from exact"
        return None

    return check


# -- workloads ---------------------------------------------------------------
def exact_lossy(seed: int, tiny: bool = False) -> Workload:
    tol = Fraction(1, 10**6)
    commands = [
        Command("classes_lossy", ["classes", "--model", "lossy"], check_classes_lossy),
        Command(
            "series_lossy",
            ["series", "--model", "lossy", "--order", "6"],
            check_series_lossy,
        ),
        Command(
            "threshold_lossy",
            ["threshold", "--model", "lossy"],
            threshold_check("lossy", tol),
        ),
        Command(
            "threshold_lossy_alt",
            ["threshold", "--model", "lossy", "--circuit-config", ALT_CONFIG],
            threshold_check("lossy_alt", tol, "alt"),
        ),
    ]
    if tiny:
        commands = commands[:1]
    return Workload("exact-lossy", seed, commands)


def solve_commands(seed: int, tiny: bool) -> Tuple[List[Command], dict]:
    """The exact-solve commands of ideal-solve-mc and their environment."""
    rng = random.Random(seed)
    points = 12 if tiny else SWEEP_POINTS
    grid = []
    for _ in range(points):
        b = rng.randint(100, 999)
        grid.append(Fraction(rng.randint(1, b // 4), b))
    fixed = {Fraction(x): v for x, v in EXPECTED["rate_ideal"].items()}
    grid += sorted(fixed)
    sample = rng.sample(range(points), min(SWEEP_ORACLE_POINTS, points))
    eps0 = rng.choice(sorted(EXPECTED["concat_ideal"]))
    levels = 2 if tiny else 4

    commands = [
        Command(
            "threshold_ideal",
            ["threshold", "--model", "ideal", "--tol", THRESHOLD_TIGHT_TOL],
            threshold_check("ideal", Fraction(THRESHOLD_TIGHT_TOL)),
        ),
        Command(
            "threshold_measurement",
            ["threshold", "--model", "measurement"],
            threshold_check("measurement", Fraction(1, 10**6)),
        ),
        Command(
            "sweep_ideal",
            ["sweep", "--model", "ideal", "--grid", ",".join(str(x) for x in grid)],
            SweepCheck(grid, fixed, sample),
            solves=len(grid),
        ),
        Command(
            "concat_ideal",
            ["concat", "--model", "ideal", "--eps0", eps0, "--levels", str(levels)],
            concat_check(eps0, levels),
        ),
    ]
    env = {"sweep_points": len(grid), "sweep_oracle_points": len(sample), "concat_eps0": eps0}
    return commands, env


def mc_commands(seed: int, tiny: bool) -> Tuple[List[Command], dict]:
    """The Monte Carlo commands of ideal-solve-mc and their environment."""
    rng = random.Random(seed)
    trials = 2_000 if tiny else MC_TRIALS
    commands = []
    for eps in MC_RATES:
        mc_seed = rng.randrange(2**31)
        commands.append(
            Command(
                f"mc_ideal_{eps.replace('/', '_')}",
                ["mc", "--model", "ideal", "--eps", eps, "--trials", str(trials),
                 "--seed", str(mc_seed)],
                mc_check(eps, trials, mc_seed),
                trials=trials,
            )
        )
    env = {"mc_trials": trials, "mc_seeds": [c.argv[-1] for c in commands]}
    return commands, env


def ideal_solve_mc(seed: int, tiny: bool = False) -> Workload:
    solve, solve_env = solve_commands(seed, tiny)
    mc, mc_env = mc_commands(seed, tiny)
    return Workload("ideal-solve-mc", seed, solve + mc, {**solve_env, **mc_env})


WORKLOADS = {"exact-lossy": exact_lossy, "ideal-solve-mc": ideal_solve_mc}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
