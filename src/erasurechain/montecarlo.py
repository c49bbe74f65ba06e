"""Stochastic fault injection that cross-checks the exact chain.

Each trial samples an injected erasure pattern, then repeatedly samples
one-attempt outcomes until the block is clean or the pattern becomes a
procedure failure.  Outcome tables come straight from the exact engine
(``correction_circuits.attempt`` evaluated at the numeric rates), so the
sampler exercises the identical fault-effect logic; any disagreement with
the chain can only come from the chain assembly itself, which is the point
of the comparison.

Reproducibility: trials are processed in shards of at most 2**20.  Shard k
draws from ``numpy``'s counter-based Philox generator seeded with
``SeedSequence(entropy=seed, spawn_key=(k,))``, and the per-shard failure
counts are folded in shard order, so an estimate depends only on
(seed, trials, parameters) regardless of how shards are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Dict, List, Tuple

import numpy as np

from .correction_circuits import DEFAULT_FAULT_MODEL, FaultModel, attempt
from .erasure_model import (
    Classification,
    Erasure,
    ModelParams,
    Pattern,
    classify,
    pattern_weight,
    qubit_marginals,
)
from .pauli_algebra import N_QUBITS

SHARD_SIZE = 1 << 20
# A trial still live after this many attempts means a broken procedure.
MAX_STEPS = 10_000
# Largest |z| that compare() accepts.
Z_LIMIT = 3.0


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int
    failures: int


@dataclass(frozen=True)
class CompareReport:
    exact: Fraction
    estimate: McEstimate
    z: float
    passed: bool


class _WalkTables:
    """Cached cumulative outcome tables for every reachable pattern."""

    def __init__(self, params: ModelParams, config: FaultModel):
        self.params = params
        self.config = config
        self.cache: Dict[Pattern, Tuple[np.ndarray, List[Pattern]]] = {}

    def outcomes(self, pattern: Pattern) -> Tuple[np.ndarray, List[Pattern]]:
        hit = self.cache.get(pattern)
        if hit is not None:
            return hit
        dist = attempt(pattern, self.params, self.config)
        outcomes = sorted(dist.items())
        cum = np.cumsum([float(p.evaluate(0, 0)) for _, p in outcomes])
        cum[-1] = 1.0  # guard against float round-off at the top
        entry = (cum, [q for q, _ in outcomes])
        self.cache[pattern] = entry
        return entry


def simulate(
    params: ModelParams,
    trials: int,
    seed: int,
    config: FaultModel = DEFAULT_FAULT_MODEL,
) -> McEstimate:
    """Fraction of trials whose correction ends in a procedure failure."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if params.eps.total_degree() > 0 or params.delta.total_degree() > 0:
        raise ValueError("Monte Carlo needs numeric rates")

    marginals = qubit_marginals(params, config)
    # Per-qubit cumulative thresholds in a fixed status order.
    statuses = [s for s in (Erasure.Z_MEASURED, Erasure.Z_ERASED, Erasure.FULL) if s in marginals]
    thresholds = np.cumsum([float(marginals[s].evaluate(0, 0)) for s in statuses])

    tables = _WalkTables(params, config)
    failures = 0
    done = 0
    shard = 0
    while done < trials:
        n = min(SHARD_SIZE, trials - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(shard,)))
        )
        u = rng.random((n, N_QUBITS))
        # status index per qubit: number of thresholds the draw clears
        idx = np.searchsorted(thresholds, u)  # thresholds sorted ascending
        hit = idx < len(statuses)
        dirty_rows = np.nonzero(hit.any(axis=1))[0]
        for row in dirty_rows:
            pattern = tuple(
                statuses[idx[row, q]] if hit[row, q] else Erasure.NONE
                for q in range(N_QUBITS)
            )
            failures += _walk(pattern, tables, rng)
        done += n
        shard += 1

    mean = failures / trials
    stderr = sqrt(mean * (1 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, failures=failures)


def _walk(pattern: Pattern, tables: _WalkTables, rng) -> int:
    """Run one trial to absorption; 1 on procedure failure, 0 on recovery."""
    for _ in range(MAX_STEPS):
        if pattern_weight(pattern) == 0:
            return 0
        if classify(pattern) is Classification.PROCEDURE_FAIL:
            return 1
        cum, outcomes = tables.outcomes(pattern)
        pattern = outcomes[int(np.searchsorted(cum, rng.random(), side="right"))]
    raise RuntimeError("trial did not absorb; check the correction procedure")


def compare(exact: Fraction, estimate: McEstimate) -> CompareReport:
    """z-score of the Monte Carlo mean against the exact probability.

    The plug-in standard error sqrt(mean(1-mean)/trials) is 0 whenever
    every trial agrees, which at a small rate is the likely outcome of a
    correct run.  If the mean then differs from the exact value p, it is
    scored against sqrt(p(1-p)/trials) instead.  When that is 0 too (p is
    0 or 1 and the mean is at the other end), the comparison is a
    ValueError; a zero-error mean equal to p passes with z = 0.
    """
    stderr = estimate.stderr
    if stderr == 0 and estimate.mean != float(exact):
        stderr = sqrt(exact * (1 - exact) / estimate.trials)
        if stderr == 0:
            raise ValueError(
                f"Monte Carlo mean {estimate.mean} with zero standard error "
                f"differs from the exact value {float(exact)}"
            )
    if stderr == 0:
        return CompareReport(exact=exact, estimate=estimate, z=0.0, passed=True)
    z = (estimate.mean - float(exact)) / stderr
    return CompareReport(exact=exact, estimate=estimate, z=z, passed=abs(z) <= Z_LIMIT)
