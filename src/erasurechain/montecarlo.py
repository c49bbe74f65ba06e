"""Stochastic fault injection that cross-checks the exact chain.

Each trial samples an injected erasure pattern, then one-attempt outcomes
until the block is clean or a procedure failure.  Outcome rows come from
the local outcome tables at the numeric rates, the tables ``attempt``
writes into a pattern, not from the class lumping, so a disagreement with
the chain points at lumping or assembly.

A state is a pattern's code (``erasure_model.code_layout``).  Before the
walk, every state is flagged clean, failed or live, from this module's own
``pattern_weight`` and ``classify`` calls, and the outcome rows are filled
one step at a time, so a walk step only reads the table.  The steps are
the class build's (``correction_circuits.live_steps``): the live codes
grouped by target status and qubit positions, decided once per model.  A
step's codes share its row, the code offsets of its outcomes
(``erasure_model.code_offsets``) and their cumulative probabilities, so a
state's row is its code plus the offsets.

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
one word per live trial per step.  Philox is counter-based, so a stream
drawn in blocks gives the words of one draw (Salmon et al., SC 2011).  The
injection is drawn and encoded ``CHUNK`` trials at a time, and each step
runs over blocks of at most ``BLOCK`` trials, in trial order, so the words
come in the order of one draw per step.  A state is a 16-bit code (every
code is below 3**7 = 2187), so a shard holds its injected codes and the
walk's copy, 4 bytes a trial, and the rest of the working set is bounded
by the two block sizes.  Failures are folded in shard order, so an
estimate depends only on (seed, trials, parameters), and it is the
estimate the walk on ``Generator.random`` doubles gave.  The per-trial
walk before that drew in another order, so its seeds gave other
estimates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import sqrt
from typing import NamedTuple

import numpy as np

from .correction_circuits import (
    DEFAULT_FAULT_MODEL, FaultModel, LocalAttempt, live_steps, outcome_tables,
)
from .erasure_model import (
    Classification, Erasure, ModelParams, all_patterns, classify, code_layout,
    code_offsets, pattern_weight, qubit_marginals,
)
from .pauli_algebra import N_QUBITS

SHARD_SIZE = 1 << 20
# Trials whose injection is drawn and encoded at once (229 kB of words and
# a float comparison mask of the same size).
CHUNK = 1 << 12
# Live trials that one walk step advances at once (about 0.5 MB of words,
# row offsets and bounds).
BLOCK = 1 << 14
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
    ``depth`` slots from ``code * depth`` of ``next`` (int16 codes) and
    ``bound``: slot j holds the j-th outcome of
    ``sorted(attempt(pattern).items())`` and ``ceil_grid`` of the
    cumulative probability up to it.  ``depth`` is the
    longest row rounded up to a power of two, and slots past a row's end
    hold 2**53, which no k reaches.  The states are flagged in code order,
    and the rows of each group of ``live_steps`` are filled at once.
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
        for code, pattern in enumerate(patterns):
            if pattern_weight(pattern) == 0:
                flag[code] = CLEAN
            elif classify(pattern) is Classification.PROCEDURE_FAIL:
                flag[code] = FAIL
        self.flag = np.array(flag, dtype=np.int8)
        next_codes = np.zeros((len(patterns), depth), dtype=np.int16)
        bound = np.full((len(patterns), depth), 1 << 53, dtype=np.uint64)
        # The codes of one step (target status and qubit positions) share
        # its row: its outcomes' code offsets, padded with 0 to depth, and
        # their cumulative probabilities.
        for key, positions, codes in live_steps(params.model):
            offsets, cum = self._row(params.model, LocalAttempt(positions, key, tables[key]))
            codes = np.array(codes)
            next_codes[codes] = codes[:, None] + (offsets + [0] * (depth - len(offsets)))
            bound[codes, : len(cum)] = ceil_grid(cum)
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
        failures += _absorb(_inject(bitgen, n, base, steps), table, bitgen)

    mean = failures / trials
    stderr = sqrt(mean * (1 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, failures=failures)


def _inject(bitgen, n: int, base: float, steps) -> np.ndarray:
    """The int16 codes of n injected patterns, drawn and encoded CHUNK at a
    time."""
    states = np.empty(n, dtype=np.int16)
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
    """Step every live trial until all absorb; the number that fail.

    The walk keeps its own int16 copy of ``states`` and steps it over
    blocks of at most BLOCK trials.  A block's flags are read, its failures
    counted and its live trials kept; it draws one word per live trial,
    and their next codes are written back compacted, after the live trials
    of the blocks before it.  The blocks run in trial order, so the words
    are those of one draw per step.
    """
    failures = 0
    depth, bound, flags, next_codes = table.depth, table.bound, table.flag, table.next
    halves = [depth >> i for i in range(1, depth.bit_length())]
    live = np.array(states, dtype=np.int16)
    for _ in range(MAX_STEPS):
        kept = 0
        for first in range(0, live.size, BLOCK):
            block = live[first : first + BLOCK]
            flag = flags.take(block)
            failures += int(np.count_nonzero(flag == FAIL))
            block = np.compress(flag == LIVE, block)
            if not block.size:
                continue
            k = bitgen.random_raw(block.size)
            k >>= 11
            # The outcome is the number of the row's bounds at or below k.
            # A row's bounds at or below k come first and its last slot is
            # 2**53, so halving finds the first bound above k in
            # log2(depth) reads.  A row's first slot is code * depth, which
            # overflows int16, so the codes are widened first.
            at = np.multiply(block, depth, dtype=np.intp)
            for half in halves:
                at += (bound[half - 1 :].take(at) <= k) * half
            # kept <= first, so the write leaves the blocks still to come.
            next_codes.take(at, out=live[kept : kept + block.size])
            kept += block.size
        if not kept:
            return failures
        live = live[:kept]
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
