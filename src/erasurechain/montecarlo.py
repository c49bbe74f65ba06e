"""Stochastic fault injection that cross-checks the exact chain.

Each trial samples an injected erasure pattern, then one-attempt outcomes
until the block is clean or a procedure failure.  Outcome rows come from
the local outcome tables (``correction_circuits.local_attempt``) at the
numeric rates, the tables ``attempt`` writes into a pattern, not from the
class lumping, so a disagreement with the chain points at lumping or
assembly.

A state is a pattern's code (``erasure_model.code_layout``).  Before the
walk, every state is flagged clean, failed or live, from this module's own
``pattern_weight`` and ``classify`` calls, and every live state's outcome
row is filled, so a walk step only reads the table.  A row is shared by
every state that takes the same step (local table and qubit positions):
the code offsets of its outcomes (``erasure_model.code_offsets``) and
their cumulative probabilities, so a state's row is its code plus the
offsets.

The walk reads the same stream ``Generator.random`` reads, as raw words.
``Generator.random()`` turns a Philox word w into u = k * 2**-53 with
k = w >> 11, so every comparison of u with a double is a comparison of k
with an integer on the 2**-53 grid, with the same answer:

- u > t exactly when k > floor(t * 2**53) (``floor_grid``), for the
  injection thresholds;
- cum <= u exactly when ceil(cum * 2**53) <= k (``ceil_grid``), for the
  outcome rows, whose padding 1.0 becomes 2**53, which no k reaches.

A qubit's injected status is the number of the marginals' cumulative
thresholds below its k, and a k past them all leaves the qubit intact.
Each step draws one word for every live trial and moves it to the outcome
at the number of its row's bounds at or below k; absorbed trials are
counted and retired, keeping the live ones in order.

Shard s (at most 2**20 trials) draws from Philox seeded with
``SeedSequence(entropy=seed, spawn_key=(s,))``: the (n, 7) injection, then
one word per live trial per step.  The injection is drawn and encoded in
blocks of ``CHUNK`` trials; a Philox stream drawn in blocks gives the
words of one draw.  Failures are folded in shard order, so an estimate
depends only on (seed, trials, parameters), and it is the estimate the
walk on ``Generator.random`` doubles gave.  The per-trial walk before that
drew in another order, so its seeds gave other estimates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import sqrt
from typing import NamedTuple

import numpy as np

from .correction_circuits import (
    DEFAULT_FAULT_MODEL, FaultModel, LocalAttempt, local_attempt, outcome_tables,
)
from .erasure_model import (
    Classification, Erasure, ModelParams, all_patterns, classify, code_layout,
    code_offsets, pattern_weight, qubit_marginals,
)
from .pauli_algebra import N_QUBITS

SHARD_SIZE = 1 << 20
# Trials whose injection is drawn and encoded at once (458 kB of words and
# a float comparison mask of the same size).
CHUNK = 1 << 13
# Attempts a trial may take; slow but correct absorption can exceed it.
MAX_STEPS = 10_000
# Largest |z| that compare() accepts.
Z_LIMIT = 3.0
# Generator.random() reads a Philox word w as (w >> 11) * 2**-53.
GRID = 2.0**53
# Terminal flags of a state.
CLEAN, FAIL, LIVE = 0, 1, 2


class McEstimate(NamedTuple):
    mean: float
    stderr: float
    trials: int
    seed: int
    failures: int


class CompareReport(NamedTuple):
    exact: Fraction
    estimate: McEstimate
    z: float
    passed: bool


class PatternTable:
    """Terminal flags and outcome rows of every pattern, filled at once.

    ``flag[code]`` is CLEAN, FAIL or LIVE.  A live state's row is the
    ``depth`` slots from ``code * depth`` of ``next`` and ``bound``: slot j
    holds the j-th outcome of ``sorted(attempt(pattern).items())`` and
    ``ceil_grid`` of the cumulative probability up to it.  ``depth`` is the
    longest row rounded up to a power of two, and slots past a row's end
    hold 2**53, which no k reaches.  The states are flagged in
    ``all_patterns`` order, which is code order.
    """

    def __init__(self, params: ModelParams, config: FaultModel):
        self.params = params
        self.digit, places = code_layout(params.model)
        self.powers = np.array(places)
        tables = outcome_tables(params, config)
        longest = max(len(local) for local in tables.values())
        self.depth = depth = 1 << (longest - 1).bit_length()
        patterns = all_patterns(params.model)
        flag = [LIVE] * len(patterns)
        # Every state taking a step (local table and qubit positions) shares
        # its row: the helpers are intact and the target's status is the
        # key.  A row is its outcomes' code offsets and cumulative
        # probabilities, padded to depth; the live codes and their rows.
        rows, offsets, cum = {}, [], []
        live, row_of = [], []
        for code, pattern in enumerate(patterns):
            if pattern_weight(pattern) == 0:
                flag[code] = CLEAN
            elif classify(pattern) is Classification.PROCEDURE_FAIL:
                flag[code] = FAIL
            else:
                local = local_attempt(pattern, tables)
                row = rows.get((local.key, local.positions))
                if row is None:
                    row = rows[local.key, local.positions] = len(offsets)
                    row_offsets, row_cum = self._row(params.model, local)
                    pad = depth - len(row_offsets)
                    offsets.append(row_offsets + [0] * pad)
                    cum.append(row_cum + [1.0] * pad)
                live.append(code)
                row_of.append(row)
        self.flag = np.array(flag, dtype=np.int8)
        live, row_of = np.array(live), np.array(row_of)
        next_codes = np.zeros((len(patterns), depth), dtype=np.intp)
        next_codes[live] = live[:, None] + np.array(offsets)[row_of]
        bound = np.full((len(patterns), depth), 1 << 53, dtype=np.uint64)
        bound[live] = ceil_grid(cum)[row_of]
        self.next, self.bound = next_codes.reshape(-1), bound.reshape(-1)

    @staticmethod
    def _row(model, local: LocalAttempt):
        """The outcomes' code offsets in ascending order, which is pattern
        order, and their cumulative probabilities."""
        # Outcomes differ at the positions, so no two offsets tie.
        row = sorted(zip(code_offsets(model, local), (prob for _, prob in local.outcomes)))
        # At numeric rates the constant term is the probability; the sum
        # runs left to right, as a float cumsum does.
        cum = list(accumulate(float(prob.coefficient(0, 0)) for _, prob in row))
        cum[-1] = 1.0  # guard against float round-off at the top
        return [offset for offset, _ in row], cum


def floor_grid(t) -> np.ndarray:
    """floor(t * 2**53) as uint64: for k in [0, 2**53), k > floor_grid(t)
    exactly when k * 2**-53 > t.  Exact for doubles t in [0, 1]."""
    return np.floor(np.multiply(t, GRID)).astype(np.uint64)


def ceil_grid(cum) -> np.ndarray:
    """ceil(cum * 2**53) as uint64: for k in [0, 2**53), ceil_grid(cum) <= k
    exactly when cum <= k * 2**-53.  Exact for doubles cum in [0, 2)."""
    return np.ceil(np.multiply(cum, GRID)).astype(np.uint64)


def simulate(
    params: ModelParams, trials: int, seed: int, config: FaultModel = DEFAULT_FAULT_MODEL
) -> McEstimate:
    """Fraction of trials whose correction ends in a procedure failure."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not params.is_numeric():
        raise ValueError("Monte Carlo needs numeric rates")

    table = PatternTable(params, config)
    marginals = qubit_marginals(params, config)
    # Per-qubit cumulative thresholds on the grid; a k past them all leaves
    # the qubit intact.
    statuses = [s for s in (Erasure.Z_MEASURED, Erasure.Z_ERASED, Erasure.FULL) if s in marginals]
    thresholds = floor_grid(np.cumsum([float(marginals[s].evaluate(0, 0)) for s in statuses]))
    # A trial's digit is the first status's digit plus one step at each
    # threshold below its k, so a block's codes are a float product with
    # the place values, exact below 2**53.
    levels = [table.digit[s] for s in statuses] + [table.digit[Erasure.NONE]]
    places = table.powers.astype(float)
    base = levels[0] * places.sum()
    steps = [(t, (b - a) * places) for t, a, b in zip(thresholds, levels, levels[1:])]

    failures = 0
    for shard, start in enumerate(range(0, trials, SHARD_SIZE)):
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(shard,))
        bitgen = np.random.Philox(sequence)
        n = min(SHARD_SIZE, trials - start)
        # Passed on without a name, the injected codes are freed by the
        # walk's first step.
        failures += _absorb(_inject(bitgen, n, base, steps), table, bitgen)

    mean = failures / trials
    stderr = sqrt(mean * (1 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, failures=failures)


def _inject(bitgen, n: int, base: float, steps) -> np.ndarray:
    """The codes of n injected patterns, drawn and encoded CHUNK at a time."""
    states = np.empty(n, dtype=np.intp)
    above = np.empty((min(CHUNK, n), N_QUBITS))
    for first in range(0, n, CHUNK):
        k = bitgen.random_raw((min(CHUNK, n - first), N_QUBITS))
        k >>= 11
        mask = above[: len(k)]
        codes = np.full(len(k), base)
        for t, step in steps:
            np.greater(k, t, out=mask)
            codes += mask @ step
        states[first : first + len(k)] = codes
    return states


def _absorb(states: np.ndarray, table: PatternTable, bitgen) -> int:
    """Step every live trial until all absorb; the number that fail."""
    failures = 0
    depth, bound, flags = table.depth, table.bound, table.flag
    halves = [depth >> i for i in range(1, depth.bit_length())]
    for _ in range(MAX_STEPS):
        flag = flags.take(states)
        failures += int(np.count_nonzero(flag == FAIL))
        states = np.compress(flag == LIVE, states)
        if not states.size:
            return failures
        k = bitgen.random_raw(states.size)
        k >>= 11
        # The outcome is the number of the row's bounds at or below k.  A
        # row's bounds at or below k come first and its last slot is 2**53,
        # so halving finds the first bound above k in log2(depth) reads.
        # Each live code becomes its row's first slot in place.
        at = states
        at *= depth
        for half in halves:
            at += (bound[half - 1 :].take(at) <= k) * half
        states = table.next.take(at)
    eps, delta = table.params.eps.coefficient(0), table.params.delta.coefficient(0)
    raise ValueError(
        f"a trial did not absorb within MAX_STEPS = {MAX_STEPS} attempts at "
        f"eps = {eps}, delta = {delta}"
    )


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
