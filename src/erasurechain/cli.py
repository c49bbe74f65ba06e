"""Command-line interface.

Subcommands: classify, classes, chain, series, threshold, sweep, mc,
concat.  JSON goes to stdout by default; sweep and mc can emit CSV.  Every
payload embeds a run manifest (command, parameters, fault-model hash, tool
version).  Output is byte-deterministic for fixed flags and seed: the
manifest timestamp is null unless SOURCE_DATE_EPOCH is set.

A plain command line (a subcommand, then exact ``--flag value`` pairs and
its positionals, every value valid) is parsed straight from SUBCOMMANDS.
argparse parses every other line: help, ``--version``, other spellings
such as ``--flag=value`` or an abbreviated flag, and every line it
rejects, so it alone prints help and usage errors, and only those lines
import it.  Both parsers build the same attributes (a
``types.SimpleNamespace`` or an ``argparse.Namespace``), so the output
bytes do not depend on which one ran.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional, Tuple

from . import __version__
from .correction_circuits import DEFAULT_FAULT_MODEL, FaultModel, select_step, DONE, ABORT
from .erasure_model import (
    _label,
    _signature,
    Model,
    ModelParams,
    build_classes,
    classify,
    format_pattern,
    infer_model,
    parse_pattern,
    pattern_counts,
    pattern_weight,
)
from .markov_engine import build_chain, encoded_failure_at
from .montecarlo import compare, simulate
from .threshold_solver import (
    BreakEvenCondition,
    MEASUREMENT_TAIL,
    NoSignChange,
    REFERENCE_SERIES_IDEAL,
    REFERENCE_SERIES_LOSSY,
    REFERENCE_THRESHOLDS,
    chain_recursion,
    concat_projection,
    default_bracket,
    solve_break_even,
)

# Everything imported so far lives as long as the process: keep it out of
# the collector's scans, so that a command's collections visit only what
# the command allocates.
gc.freeze()


class CliError(Exception):
    pass


def _timestamp() -> Optional[str]:
    """The manifest timestamp from SOURCE_DATE_EPOCH, None when it is unset.
    ``_main`` reads it before the command runs; a value that is not whole
    seconds a date can hold is a CliError (exit 2)."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise CliError(
            f"SOURCE_DATE_EPOCH must be whole seconds since 1970 that a date can hold, "
            f"got {epoch!r}"
        ) from None


def _manifest(args, config: FaultModel, timestamp: Optional[str]) -> dict:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and v is not None
    }
    return {
        "command": args.command,
        "parameters": {k: str(v) for k, v in sorted(params.items())},
        "circuit_config_hash": config.config_hash(),
        "tool_version": __version__,
        "timestamp": timestamp,
    }


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object that names each key once: a repeated key would hide
    what the file said behind its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _load_config(path: Optional[str]) -> FaultModel:
    if path is None:
        return DEFAULT_FAULT_MODEL
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # not JSON, not UTF-8, or a repeated key
            raise CliError(f"--circuit-config {path}: {exc}") from None
    return FaultModel.from_json(data)


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: invalid rational {text!r}: {exc}") from None


def _parse_rate(text: str, flag: str) -> Fraction:
    """A probability given on the command line, checked against [0, 1]."""
    if not text:
        raise CliError(f"{flag} is empty")
    value = _parse_fraction(text, flag)
    if not 0 <= value <= 1:
        raise CliError(f"{flag} must lie in [0, 1], got {text}")
    return value


def _parse_bracket(text: str) -> Tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--bracket must be two rationals lo,hi, got {text!r}")
    lo, hi = (_parse_fraction(p, "--bracket") for p in parts)
    # Every rate and target is 0 at 0, and ideal and measurement also meet
    # at 1: a bracket reaching either end would return that trivial root.
    if not 0 < lo < hi < 1:
        raise CliError(f"--bracket must satisfy 0 < lo < hi < 1, got {text}")
    return lo, hi


# Largest number of points a lo:hi:step grid may expand to.
MAX_GRID_POINTS = 10_000
# Highest series order: lossy order 1000 prints in about a second.
MAX_SERIES_ORDER = 1000


def _parse_grid(text: str) -> List[Fraction]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError("grid range must be lo:hi:step")
        lo, hi, step = (_parse_fraction(p, "--grid") for p in parts)
        if step <= 0:
            raise CliError("grid step must be positive")
        if lo > hi:
            raise CliError(f"grid range lo:hi:step must have lo <= hi, got {text}")
        # Checked from its ends and its point count before it is expanded.
        _check_grid_values((lo, hi))
        count = (hi - lo) // step + 1
        if count > MAX_GRID_POINTS:
            raise CliError(
                f"grid range has {count} points, more than {MAX_GRID_POINTS}"
            )
        grid = []
        x = lo
        while x <= hi:
            grid.append(x)
            x += step
        return grid
    if not text:
        raise CliError("--grid is empty")
    entries = text.split(",")
    if not all(entries):
        raise CliError(f"--grid has an empty entry in {text!r}")
    grid = [_parse_fraction(p, "--grid") for p in entries]
    _check_grid_values(grid)
    return grid


_HALF = Fraction(1, 2)


def _check_grid_values(values) -> None:
    if not all(0 <= x <= _HALF for x in values):
        raise CliError("grid values must lie in [0, 0.5]")


def _check_at_least(value: int, least: int, flag: str) -> None:
    if value < least:
        raise CliError(f"{flag} must be >= {least}, got {value}")


def _check_at_most(value: int, most: int, flag: str) -> None:
    if value > most:
        raise CliError(f"{flag} must be <= {most}, got {value}")


def _model_params(model: str, eps=None, delta=None) -> ModelParams:
    if model == "ideal":
        return ModelParams.ideal(eps)
    if model == "lossy":
        if delta is None:
            delta = eps
        return ModelParams.lossy(eps, delta)
    raise CliError(f"unknown model {model!r}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_classify(args, config: FaultModel) -> dict:
    pattern = parse_pattern(args.pattern)
    try:
        model = infer_model(pattern)
        mixed = False
    except ValueError:
        model, mixed = None, True
    result = classify(pattern)
    step = select_step(pattern)
    if step is DONE:
        action = "done"
    elif step is ABORT:
        action = "abort"
    else:
        action = {
            "kind": step.kind.value,
            "target": step.target,
            "helpers": list(step.helpers),
        }
    m, n, k = pattern_counts(pattern)
    # A class is the patterns of one signature, read from the step as the
    # class build reads it, so the label needs no table.
    label = None if mixed else _label(_signature(pattern, step), model or Model.IDEAL)
    return {
        "pattern": format_pattern(pattern),
        "model": "mixed" if mixed else (model.value if model else None),
        "weight": pattern_weight(pattern),
        "full_erasures": m,
        "z_erasures": n,
        "z_measurements": k,
        "classification": result.value,
        "class_label": label,
        "next_step": action,
    }


def cmd_classes(args, config: FaultModel) -> dict:
    model = Model(args.model)
    table = build_classes(model, config=config)
    # The verified partition is the census: the fail class holds exactly
    # the procedure failures.
    total = sum(c.size for c in table.classes)
    fail = table.classes[table.fail_id].size
    payload = table.to_json()
    payload["pattern_total"] = total
    payload["correctable_patterns"] = total - fail
    payload["procedure_fail_patterns"] = fail
    return payload


def cmd_chain(args, config: FaultModel) -> dict:
    params = _model_params(args.model)
    chain = build_chain(params, config=config)
    return chain.to_json()


def cmd_series(args, config: FaultModel) -> dict:
    _check_at_least(args.order, 0, "--order")
    _check_at_most(args.order, MAX_SERIES_ORDER, "--order")
    model = Model(args.model)
    series = chain_recursion(args.model, config=config).series(args.order)
    reference = (
        REFERENCE_SERIES_IDEAL if model is Model.IDEAL else REFERENCE_SERIES_LOSSY
    ).series(6)
    return {
        "model": model.value,
        "order": args.order,
        "series": series.to_json(),
        "series_text": str(series),
        "reference_coefficients": {
            f"eps^{k}": str(reference.coefficient(k)) for k in range(3, 7)
        },
        "computed_coefficients": {
            f"eps^{k}": str(series.coefficient(k)) for k in range(min(args.order, 6) + 1)
        },
    }


def cmd_threshold(args, config: FaultModel) -> dict:
    tol = _parse_fraction(args.tol, "--tol")
    if tol <= 0:
        raise CliError(f"--tol must be positive, got {args.tol}")
    bracket = _parse_bracket(args.bracket) if args.bracket else None
    if args.fixture not in ("full-chain", f"{args.model}-ref"):
        raise CliError(
            f"--fixture {args.fixture} applies only to --model "
            f"{args.fixture.removesuffix('-ref')}, got --model {args.model}"
        )
    # Reference fixtures keep the default accounting's break-even target.
    target_config = None
    if args.model == "measurement":
        condition = BreakEvenCondition.MEASUREMENT
        rate = MEASUREMENT_TAIL
        provenance = "binomial measurement recursion"
    elif args.fixture == "ideal-ref":
        condition = BreakEvenCondition.IDEAL_GATE
        rate = REFERENCE_SERIES_IDEAL
        provenance = "reference truncated series (ideal)"
    elif args.fixture == "lossy-ref":
        condition = BreakEvenCondition.LOSSY_GATE
        rate = REFERENCE_SERIES_LOSSY
        provenance = "reference truncated series (lossy)"
    else:
        condition = (
            BreakEvenCondition.IDEAL_GATE
            if args.model == "ideal"
            else BreakEvenCondition.LOSSY_GATE
        )
        rate = chain_recursion(args.model, config=config)
        provenance = "full absorbing chain"
        target_config = config

    if bracket is None:
        bracket = default_bracket(condition)

    try:
        result = solve_break_even(rate, condition, bracket, tol, target_config)
    except NoSignChange as exc:
        samples = {}
        lo, hi = bracket
        for k in range(5):
            x = lo + (hi - lo) * Fraction(k, 4)
            samples[f"{float(x):.6g}"] = float(rate(x) - exc.target(x))
        raise CliError(
            json.dumps(
                {
                    "error": "no_sign_change",
                    "detail": str(exc),
                    "bracket": [str(bracket[0]), str(bracket[1])],
                    "samples_of_recursion_minus_condition": samples,
                }
            )
        ) from None

    reference = REFERENCE_THRESHOLDS.get(args.model)
    payload = result.to_json()
    payload["model"] = args.model
    payload["recursion_provenance"] = provenance
    if reference is not None:
        payload["reference_value"] = reference
        payload["reference_note"] = (
            "commonly quoted value, shown for comparison; computed root is "
            "reported unrounded"
        )
        if abs(float(result.root) - reference) > 0.001:
            payload["reference_differs"] = True
    return payload


def cmd_sweep(args, config: FaultModel) -> dict:
    _check_at_least(args.trials, 0, "--trials")
    _check_at_least(args.seed, 0, "--seed")
    grid = _parse_grid(args.grid)
    rate = chain_recursion(args.model, config=config)

    rows = []
    for x in grid:
        # One correctly rounded int division: float(rate(x)) without the
        # Fraction's gcd.
        n, d = rate.point(x.numerator, x.denominator)
        row = {
            "eps": float(x),
            "encoded_failure_exact": n / d,
        }
        if args.trials:
            numeric = _model_params(args.model, x)
            est = simulate(numeric, args.trials, seed=args.seed, config=config)
            row["mc_mean"] = est.mean
            row["mc_stderr"] = est.stderr
        else:
            row["mc_mean"] = None
            row["mc_stderr"] = None
        rows.append(row)
    return {"model": args.model, "rows": rows}


def cmd_mc(args, config: FaultModel) -> dict:
    eps = _parse_rate(args.eps, "--eps")
    delta = _parse_rate(args.delta, "--delta") if args.delta is not None else None
    _check_at_least(args.trials, 1, "--trials")
    _check_at_least(args.seed, 0, "--seed")
    if args.model == "ideal" and delta is not None:
        raise CliError("--delta applies only to --model lossy")
    numeric = _model_params(args.model, eps, delta)
    est = simulate(numeric, args.trials, seed=args.seed, config=config)
    exact = encoded_failure_at(build_chain(numeric, config=config))
    report = compare(exact, est)
    return {
        "model": args.model,
        "eps": float(eps),
        "delta": float(numeric.delta.coefficient(0)),
        "trials": args.trials,
        "seed": args.seed,
        "mean": est.mean,
        "stderr": est.stderr,
        "z_vs_exact": report.z,
        "exact": float(exact),
        "passed": report.passed,
    }


def cmd_concat(args, config: FaultModel) -> dict:
    eps0 = _parse_rate(args.eps0, "--eps0")
    _check_at_least(args.levels, 0, "--levels")
    _check_at_most(args.levels, 10, "--levels")
    if args.model == "measurement":
        rate = MEASUREMENT_TAIL
    else:
        rate = chain_recursion(args.model, config=config)
    rates = concat_projection(rate, eps0, args.levels)
    return {
        "model": args.model,
        "eps0": float(eps0),
        "levels": [
            {"level": k + 1, "rate": r} for k, r in enumerate(rates)
        ],
    }


# ----------------------------------------------------------------------
# CSV rendering
# ----------------------------------------------------------------------

def _csv_sweep(payload: dict, manifest: dict) -> str:
    lines = [f"# manifest: {json.dumps(manifest, sort_keys=True)}"]
    lines.append("eps,encoded_failure_exact,mc_mean,mc_stderr")
    for row in payload["rows"]:
        mc_mean = "" if row["mc_mean"] is None else repr(row["mc_mean"])
        mc_stderr = "" if row["mc_stderr"] is None else repr(row["mc_stderr"])
        lines.append(
            f"{row['eps']!r},{row['encoded_failure_exact']!r},{mc_mean},{mc_stderr}"
        )
    return "\n".join(lines) + "\n"


def _csv_mc(payload: dict, manifest: dict) -> str:
    lines = [f"# manifest: {json.dumps(manifest, sort_keys=True)}"]
    lines.append("eps,delta,trials,mean,stderr,z_vs_exact")
    lines.append(
        f"{payload['eps']!r},{payload['delta']!r},{payload['trials']},"
        f"{payload['mean']!r},{payload['stderr']!r},{payload['z_vs_exact']!r}"
    )
    return "\n".join(lines) + "\n"


_CSV_RENDERERS = {"sweep": _csv_sweep, "mc": _csv_mc}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

_MODEL = {"choices": ("ideal", "lossy"), "required": True}
_MODEL_OR_MEASUREMENT = {"choices": ("ideal", "lossy", "measurement"), "required": True}

# name: (help, handler, (add_argument names and keywords, ...)); every
# subcommand then takes COMMON_ARGUMENTS too.
SUBCOMMANDS = {
    "classify": ("classify a 7-character pattern", cmd_classify, (
        ("pattern", {"help": "e.g. '..M..E.' with . M Z E"}),
    )),
    "classes": ("equivalence-class table", cmd_classes, (("--model", _MODEL),)),
    "chain": ("export the symbolic transition matrix", cmd_chain, (("--model", _MODEL),)),
    "series": ("encoded failure series in eps", cmd_series, (
        ("--model", _MODEL),
        ("--order", {"type": int, "default": 6}),
    )),
    "threshold": ("solve a break-even condition", cmd_threshold, (
        ("--model", _MODEL_OR_MEASUREMENT),
        ("--tol", {"default": "1/1000000"}),
        ("--bracket", {"default": None, "help": "lo,hi as rationals"}),
        ("--fixture", {
            "choices": ("full-chain", "ideal-ref", "lossy-ref"),
            "default": "full-chain",
            "help": "recursion source: the exact chain or a reference polynomial",
        }),
    )),
    "sweep": ("encoded failure over an eps grid", cmd_sweep, (
        ("--model", _MODEL),
        ("--grid", {"required": True, "help": "comma list or lo:hi:step"}),
        ("--trials", {"type": int, "default": 0, "help": "MC overlay trials"}),
        ("--seed", {"type": int, "default": 0}),
        ("--output", {"default": None, "help": "write CSV/JSON to a file"}),
    )),
    "mc": ("Monte Carlo estimate vs the exact chain", cmd_mc, (
        ("--model", _MODEL),
        ("--eps", {"required": True}),
        ("--delta", {"default": None}),
        ("--trials", {"type": int, "default": 100_000}),
        ("--seed", {"type": int, "default": 0}),
    )),
    "concat": ("per-level rates under concatenation", cmd_concat, (
        ("--model", _MODEL_OR_MEASUREMENT),
        ("--eps0", {"required": True}),
        ("--levels", {"type": int, "default": 3}),
    )),
}
COMMON_ARGUMENTS = (
    ("--circuit-config", {"default": None,
                          "help": "JSON file overriding fault-location counts"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)


def build_parser():
    """The argparse parser of every subcommand, from SUBCOMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="erasurechain",
        description="Exact thresholds and Monte Carlo checks for erasure "
        "noise on the [[7,1,3]] code",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + COMMON_ARGUMENTS:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace of a plain command line, read from SUBCOMMANDS, or None.

    A plain line is a subcommand followed only by exact ``--flag value``
    pairs and its positionals, with no value starting with "-", no flag
    given twice, every required argument present and every value passing
    its type and choices.  argparse parses such a line to the same
    attributes; any other line is left to it.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, func, arguments = SUBCOMMANDS[argv[0]]
    table = dict(arguments + COMMON_ARGUMENTS)
    positionals = [name for name in table if not name.startswith("-")]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-") and token in table:
            name, value = token, next(tokens, None)
        elif positionals:
            name, value = positionals.pop(0), token
        else:
            return None
        if value is None or value.startswith("-") or name in given:
            return None
        given[name] = value
    namespace = SimpleNamespace(command=argv[0], func=func)
    for name, options in table.items():
        if name in given:
            value = given[name]
            if "type" in options:
                try:
                    value = options["type"](value)
                except ValueError:
                    return None
            if "choices" in options and value not in options["choices"]:
                return None
        elif options.get("required") or name in positionals:
            return None
        else:
            value = options.get("default")
        setattr(namespace, name.lstrip("-").replace("-", "_"), value)
    return namespace


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line; 0 on success, 2 on a rejected input.

    A command's heap holds no reference cycles worth collecting, so the
    cyclic collector is off while it runs, and left as the caller had it
    on every way out, argparse's ``SystemExit`` included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: Optional[List[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.circuit_config)
        timestamp = _timestamp()
        render_csv = None
        if args.format == "csv":
            render_csv = _CSV_RENDERERS.get(args.command)
            if render_csv is None:
                raise CliError(f"csv output is not defined for {args.command!r}")
        payload = args.func(args, config)
        manifest = _manifest(args, config, timestamp)
        if render_csv is not None:
            text = render_csv(payload, manifest)
        else:
            payload["manifest"] = manifest
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

        output = getattr(args, "output", None)
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except CliError as exc:
        message = str(exc)
        try:
            err = json.loads(message)
        except json.JSONDecodeError:
            err = {"error": message}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
