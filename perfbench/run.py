"""erasurechain benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-lossy --seed 1 --seconds 60 --trace 0

Runs the workload's CLI commands (workloads.py) one at a time, each in a
fresh interpreter (child.py), pass after pass until ``--seconds`` would be
exceeded; the first pass always runs whole.  Every command starts from the
same on-disk state: its working directory, HOME, TMPDIR and XDG directories
are a new empty directory, and files it leaves in ``src/`` are removed.
Every output is checked.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes (tracer.py wraps every
layer's public functions from outside the package) and prints the per-layer
metrics plus the tracing overhead; the spans are written to
``perfbench/.work/`` when the run ends.

The last stdout line is the result JSON; the lines before it are a report
with the environment and per-command statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

# Which end-to-end metric each per-layer metric should move, and on which
# workload: see README.md in this directory.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "erasure_model.build_classes_calls": "count",
    "erasure_model.build_classes_s": "s",
    "erasure_model.verify_class_soundness_s": "s",
    "erasure_model.initial_distribution_s": "s",
    "correction_circuits.attempt_calls": "count",
    "correction_circuits.attempt_distinct": "count",
    "correction_circuits.attempt_useful_ratio": "ratio",
    "correction_circuits.attempt_s": "s",
    "exact_arith.poly_mul_calls": "count",
    "exact_arith.poly_mul_s": "s",
    "exact_arith.poly_evaluate_calls": "count",
    "exact_arith.poly_evaluate_s": "s",
    "markov_engine.build_chain_calls": "count",
    "markov_engine.build_chain_s": "s",
    "markov_engine.encoded_failure_at_calls": "count",
    "markov_engine.encoded_failure_at_s": "s",
    "markov_engine.run_to_absorption_s": "s",
    "threshold_solver.chain_recursion_s": "s",
    "threshold_solver.solve_break_even_s": "s",
    "threshold_solver.bisection_steps": "count",
    "threshold_solver.concat_projection_s": "s",
    "montecarlo.simulate_s": "s",
    "montecarlo.simulate_self_s": "s",
    "montecarlo.table_s": "s",
    "montecarlo.walk_steps": "count",
    "montecarlo.steps_per_trial": "step/trial",
    "pauli_algebra.supports_logical_calls": "count",
    "trace.overhead_s": "s",
}


# wall_ref is wall_s in units of the reference loop (child.py) timed in the
# same run: this shared host's speed drifts by up to 1.7x from one minute to
# the next, and the ratio cancels most of that drift.  See README.md.
END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


# -- running commands --------------------------------------------------------
def _src_files() -> set:
    return {
        p for p in SRC.rglob("*") if "__pycache__" not in p.parts
    }


def _restore_src(snapshot: set) -> None:
    """Remove what a command left in src/, deepest paths first."""
    for path in sorted(_src_files() - snapshot, key=lambda p: len(p.parts), reverse=True):
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path)
        else:
            path.unlink()


def _child_env(workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    for key in ("SOURCE_DATE_EPOCH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        HOME=workdir,
        TMPDIR=workdir,
        XDG_CACHE_HOME=workdir,
        XDG_CONFIG_HOME=workdir,
        XDG_DATA_HOME=workdir,
    )
    return env


def run_child(argv: List[str], pass_id: int, trace: bool, snapshot: set, timeout: float) -> dict:
    """One CLI command in a fresh interpreter and a fresh empty directory."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cmd-", dir=WORK)
    cmd = [sys.executable, str(HERE / "child.py"), str(pass_id), "1" if trace else "0", "--", *argv]
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=_child_env(workdir), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _restore_src(snapshot)
    process_s = perf_counter() - t0
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"rc": proc.returncode, "error": "child failed: " + proc.stderr[-400:]}
    report["process_s"] = process_s
    report["error"] = None
    return report


def check_output(command: workloads.Command, report: dict) -> Optional[str]:
    if report.get("error"):
        return report["error"]
    if report["rc"] != 0:
        return f"exit code {report['rc']}: {report['stderr'][-400:]}"
    try:
        payload = json.loads(report["stdout"])
    except json.JSONDecodeError:
        return "output is not JSON"
    try:
        return command.check(payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def run_passes(workload: workloads.Workload, seconds: float, trace: bool) -> List[dict]:
    """Whole passes (or, at the end, the commands that still fit) until the
    time is up.  With ``trace`` passes alternate untraced and traced."""
    snapshot = _src_files()
    start = perf_counter()
    estimate: Dict[tuple, float] = {}
    records: List[dict] = []
    pass_id = 0
    while True:
        traced = trace and pass_id % 2 == 1
        must_finish = pass_id < (2 if trace else 1)
        for index, command in enumerate(workload.commands):
            elapsed = perf_counter() - start
            key = (index, traced)
            if not must_finish and elapsed + estimate.get(key, 0.0) > seconds:
                return records
            report = run_child(command.argv, pass_id, traced, snapshot,
                               timeout=max(5.0, RUN_LIMIT_S - elapsed))
            report.update(index=index, pass_id=pass_id, traced=traced)
            report["check"] = check_output(command, report)
            estimate[key] = report.get("process_s", 0.0)
            records.append(report)
            if report["rc"] is None:  # a hung command ends the run
                return records
        pass_id += 1


def failed_commands(workload: workloads.Workload, records: List[dict]) -> List[dict]:
    """Commands that exited nonzero or failed their output check."""
    return [
        {"command": workload.commands[r["index"]].name, "pass": r["pass_id"], "error": r["check"]}
        for r in records if r["check"] is not None
    ]


# -- metrics -----------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _by_command(records: List[dict], key: str) -> Dict[int, List[float]]:
    out: Dict[int, List[float]] = {}
    for r in records:
        if r.get("error") is None:
            out.setdefault(r["index"], []).append(r[key])
    return out


def wall_s(records: List[dict]) -> float:
    """Summed cli.main time of one pass, from per-command medians."""
    return sum(_median(v) for v in _by_command(records, "main_s").values())


def end_to_end(records: List[dict]) -> Dict[str, float]:
    """The gated figures (``END_TO_END_UNITS``) and, for the report, the raw
    ``wall_s`` and ``ref_s`` that ``wall_ref`` is made of."""
    ok = [r for r in records if r.get("error") is None]
    imports = [r["import_s"] for r in ok]
    ref_s = _median([r["ref_s"] for r in ok])
    rss = _by_command(records, "maxrss_kb")
    wall = wall_s(records)
    return {
        "wall_ref": wall / ref_s if ref_s else 0.0,
        "wall_s": wall,
        "ref_s": ref_s,
        "setup_s": _median(imports),
        "peak_rss_mb": max((_median(v) for v in rss.values()), default=0.0) / 1024,
    }


def command_stats(workload: workloads.Workload, records: List[dict]) -> Dict[str, dict]:
    stats = {}
    for index, samples in _by_command(records, "main_s").items():
        quart = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        stats[workload.commands[index].name] = {
            "n": len(samples), "median_s": _median(samples), "q1_s": quart[0], "q3_s": quart[2],
        }
    return stats


def workload_metrics(workload: workloads.Workload, records: List[dict]) -> Dict[str, float]:
    """The figures a later change may cite by name: the time of each command
    (``<command>_s``), the summed process time of a pass (``process_s``),
    exact solves per second and MC trials per second.  Reported, not gated."""
    medians = {i: _median(v) for i, v in _by_command(records, "main_s").items()}
    out = {f"{workload.commands[i].name}_s": t for i, t in medians.items()}
    out["process_s"] = sum(_median(v) for v in _by_command(records, "process_s").values())
    solves = solve_time = trials = mc_time = 0.0
    for i, t in medians.items():
        command = workload.commands[i]
        iterations = next(
            (json.loads(r["stdout"]).get("iterations") for r in records
             if r["index"] == i and r["check"] is None), None,
        )
        if isinstance(iterations, int):
            solves += iterations + 2
            solve_time += t
        elif command.solves:
            solves += command.solves
            solve_time += t
        if command.trials:
            trials += command.trials
            mc_time += t
    if solve_time:
        out["exact_solves_per_s"] = solves / solve_time
    if mc_time:
        out["mc_trials_per_s"] = trials / mc_time
    return out


def per_layer(spans_by_child: List[dict], trials: int) -> Dict[str, float]:
    """Per-layer figures of one traced pass (all of its commands)."""
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    layer_self: Dict[str, float] = {}
    leaves: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    efa: List[float] = []
    simulate_self = table_s = 0.0
    walk_steps = 0
    for dump in spans_by_child:
        spans = dump["spans"]
        selfs = tracer.self_times(spans)
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[tracer.END] - rec[tracer.START]
            calls[name] = calls.get(name, 0) + 1
            if not tracer.has_ancestor(spans, i, name):
                inclusive[name] = inclusive.get(name, 0.0) + dur
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
            if name == "markov_engine.encoded_failure_at":
                efa.append(dur)
            elif name == "montecarlo.simulate":
                simulate_self += selfs[i]
                walk_steps += rec[tracer.LEAF_COUNTS].get("erasure_model.classify", 0)
            elif name == "correction_circuits.attempt" and tracer.has_ancestor(
                spans, i, "montecarlo.simulate"
            ):
                table_s += dur
        for name, (n, t) in dump["leaves"].items():
            agg = leaves.setdefault(name, [0, 0.0])
            agg[0] += n
            agg[1] += t
        for name, n in dump["counters"].items():
            counters[name] = counters.get(name, 0) + n

    attempts = calls.get("correction_circuits.attempt", 0)
    distinct = counters.get("correction_circuits.attempt_distinct", 0)
    mul = leaves.get("exact_arith.Poly.__mul__", [0, 0.0])
    evaluate = leaves.get("exact_arith.Poly.evaluate", [0, 0.0])
    return {
        "cli.self_s": layer_self.get("cli", 0.0),
        "erasure_model.build_classes_calls": calls.get("erasure_model.build_classes", 0),
        "erasure_model.build_classes_s": inclusive.get("erasure_model.build_classes", 0.0),
        "erasure_model.verify_class_soundness_s":
            inclusive.get("erasure_model.verify_class_soundness", 0.0),
        "erasure_model.initial_distribution_s":
            inclusive.get("erasure_model.initial_distribution", 0.0),
        "correction_circuits.attempt_calls": attempts,
        "correction_circuits.attempt_distinct": distinct,
        "correction_circuits.attempt_useful_ratio": distinct / attempts if attempts else 0.0,
        "correction_circuits.attempt_s": inclusive.get("correction_circuits.attempt", 0.0),
        "exact_arith.poly_mul_calls": mul[0],
        "exact_arith.poly_mul_s": mul[1],
        "exact_arith.poly_evaluate_calls": evaluate[0],
        "exact_arith.poly_evaluate_s": evaluate[1],
        "markov_engine.build_chain_calls": calls.get("markov_engine.build_chain", 0),
        "markov_engine.build_chain_s": inclusive.get("markov_engine.build_chain", 0.0),
        "markov_engine.encoded_failure_at_calls": len(efa),
        "markov_engine.encoded_failure_at_s": _median(efa),
        "markov_engine.run_to_absorption_s":
            inclusive.get("markov_engine.run_to_absorption", 0.0),
        "threshold_solver.chain_recursion_s":
            inclusive.get("threshold_solver.chain_recursion", 0.0),
        "threshold_solver.solve_break_even_s":
            inclusive.get("threshold_solver.solve_break_even", 0.0),
        "threshold_solver.bisection_steps": counters.get("threshold_solver.bisection_steps", 0),
        "threshold_solver.concat_projection_s":
            inclusive.get("threshold_solver.concat_projection", 0.0),
        "montecarlo.simulate_s": inclusive.get("montecarlo.simulate", 0.0),
        "montecarlo.simulate_self_s": simulate_self,
        "montecarlo.table_s": table_s,
        "montecarlo.walk_steps": walk_steps,
        "montecarlo.steps_per_trial": walk_steps / trials if trials else 0.0,
        "pauli_algebra.supports_logical_calls":
            leaves.get("pauli_algebra.supports_logical", [0, 0.0])[0],
    }


def layer_metrics(workload: workloads.Workload, records: List[dict]) -> Dict[str, float]:
    """Median (the lower one, so counts stay whole) over traced passes of
    each per-layer figure, plus the tracing overhead."""
    trials = sum(c.trials for c in workload.commands)
    passes: Dict[int, List[dict]] = {}
    for r in records:
        if r["traced"] and r.get("error") is None:
            passes.setdefault(r["pass_id"], []).append(r)
    complete = [p for p in passes.values() if len(p) == len(workload.commands)]
    figures = [per_layer([r["trace"] for r in p], trials) for p in complete]
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)  # 0 if a traced pass failed
    for name in figures[0] if figures else ():
        out[name] = statistics.median_low([f[name] for f in figures])
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    out["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    return out


def write_spans(workload: workloads.Workload, records: List[dict]) -> Path:
    """All spans of the run, one JSON line each, parents as line numbers."""
    path = WORK / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    offset = 0
    with path.open("w") as fh:
        for r in records:
            if not r["traced"] or r.get("error") is not None:
                continue
            command = workload.commands[r["index"]].name
            spans = r["trace"]["spans"]
            for name, start, end, parent, pass_id, leaf_s, counts in spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent + offset if parent >= 0 else None,
                    "pass": pass_id, "command": command,
                    "leaf_s": leaf_s, "leaf_counts": counts,
                }) + "\n")
            offset += len(spans)
    return path


# -- environment -------------------------------------------------------------
def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(workload: workloads.Workload, records: List[dict], seconds: int,
                trace: bool) -> dict:
    hashes = {
        json.loads(r["stdout"])["manifest"]["circuit_config_hash"]
        for r in records if r["check"] is None
    }
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "circuit_config_hashes": sorted(hashes),
        **workload.environment,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "erasurechain" / "cli.py").is_file():
        print(f"no erasurechain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the second-path checks
    workload = workloads.build(args.workload, args.seed)
    trace = bool(args.trace)

    warm = run_child(["--version"], -1, False, _src_files(), timeout=60)
    if warm.get("error") or warm["rc"] != 0:
        print(f"erasurechain does not start: {warm}", file=sys.stderr)
        return 2

    records = run_passes(workload, args.seconds, trace)
    failures = failed_commands(workload, records)
    untraced = [r for r in records if not r["traced"]]
    report = {
        "environment": environment(workload, records, args.seconds, trace),
        "passes": len({r["pass_id"] for r in records}),
        "commands": command_stats(workload, untraced),
        "workload_metrics": workload_metrics(workload, untraced),
        "error_rate": len(failures) / len(records),
        "failures": failures,
    }
    if trace:
        metrics = layer_metrics(workload, records)
        units = PER_LAYER_UNITS
        report["spans_file"] = str(write_spans(workload, records).relative_to(ROOT))
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS
        report["end_to_end"] = metrics
    print(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
