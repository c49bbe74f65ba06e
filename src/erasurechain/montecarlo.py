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
offsets; a row is written into all of its states' columns at once.
A qubit's injected status is read from its uniform draw u by comparison:
the number of the marginals' cumulative thresholds below u picks the
status, and a draw past them all leaves the qubit intact.  Each step draws
one uniform u for every live trial and moves it to the outcome at the
number of cumulative entries <= u; absorbed trials are counted and
retired.

Shard k (at most 2**20 trials) draws from Philox seeded with
``SeedSequence(entropy=seed, spawn_key=(k,))``: the (n, 7) injection, then
one draw per live trial per step.  The injection is drawn and encoded in
blocks of ``CHUNK`` trials into one reused buffer; a Philox stream drawn in
blocks gives the values of one draw.  Failures are folded in shard order,
so an estimate depends only on (seed, trials, parameters).  The per-trial
walk this replaced drew in another order, so seeds now give other estimates.
"""

from __future__ import annotations

from fractions import Fraction
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
# Trials whose injection is drawn and encoded at once (two 458 kB buffers).
CHUNK = 1 << 13
# Attempts a trial may take; slow but correct absorption can exceed it.
MAX_STEPS = 10_000
# Largest |z| that compare() accepts.
Z_LIMIT = 3.0
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

    ``flag[code]`` is CLEAN, FAIL or LIVE.  A live state's row is column
    ``code`` of ``next`` and ``cum``: slot j holds the j-th outcome of
    ``sorted(attempt(pattern).items())`` and the cumulative probability up to
    it.  Slots past a row's end hold 1.0, which no uniform draw reaches.
    The states are flagged in ``all_patterns`` order, which is code order.
    """

    def __init__(self, params: ModelParams, config: FaultModel):
        self.params = params
        self.digit, places = code_layout(params.model)
        self.powers = np.array(places)
        tables = outcome_tables(params, config)
        depth = max(len(local) for local in tables.values())
        patterns = all_patterns(params.model)
        self.flag = np.full(len(patterns), LIVE, dtype=np.int8)
        self.next = np.zeros((depth, len(patterns)), dtype=np.intp)
        self.cum = np.ones((depth, len(patterns)))
        failed = []
        # (table key, positions) -> (its row, the live codes taking the step)
        steps = {}
        for code, pattern in enumerate(patterns):
            if pattern_weight(pattern) == 0:
                self.flag[code] = CLEAN
            elif classify(pattern) is Classification.PROCEDURE_FAIL:
                failed.append(code)
            else:
                local = local_attempt(pattern, tables)
                step = steps.get((local.key, local.positions))
                if step is None:
                    step = steps[local.key, local.positions] = (self._row(params.model, local), [])
                step[1].append(code)
        self.flag[failed] = FAIL
        # The helpers are intact and the target's status is the key, so
        # every state taking a step shares its offsets: one write per step.
        for (offsets, cum), codes in steps.values():
            codes = np.array(codes, dtype=np.intp)
            self.next[: len(offsets), codes] = codes + offsets[:, None]
            self.cum[: len(cum), codes] = cum[:, None]

    @staticmethod
    def _row(model, local: LocalAttempt):
        """The outcomes' code offsets in ascending order, which is pattern
        order, and their cumulative probabilities."""
        # Outcomes differ at the positions, so no two offsets tie.
        row = sorted(zip(code_offsets(model, local), (prob for _, prob in local.outcomes)))
        # At numeric rates the constant term is the probability.
        cum = np.cumsum([float(prob.coefficient(0, 0)) for _, prob in row])
        cum[-1] = 1.0  # guard against float round-off at the top
        return np.array([offset for offset, _ in row], dtype=np.intp), cum


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
    # Per-qubit cumulative thresholds; a draw past them all leaves the qubit intact.
    statuses = [s for s in (Erasure.Z_MEASURED, Erasure.Z_ERASED, Erasure.FULL) if s in marginals]
    thresholds = np.cumsum([float(marginals[s].evaluate(0, 0)) for s in statuses])
    # A draw's digit is the first status's digit plus one step at each
    # threshold below it, so a block's codes are a float product with the
    # place values, exact below 2**53.
    levels = [table.digit[s] for s in statuses] + [table.digit[Erasure.NONE]]
    places = table.powers.astype(float)
    base = levels[0] * places.sum()
    steps = [(t, (b - a) * places) for t, a, b in zip(thresholds, levels, levels[1:])]
    draw = np.empty((min(CHUNK, trials), N_QUBITS))
    above = np.empty_like(draw)

    failures = 0
    for shard, start in enumerate(range(0, trials, SHARD_SIZE)):
        n = min(SHARD_SIZE, trials - start)
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(shard,))
        rng = np.random.Generator(np.random.Philox(sequence))
        states = np.empty(n, dtype=np.intp)
        for first in range(0, n, CHUNK):
            u, mask = draw[: n - first], above[: n - first]
            rng.random(out=u)
            codes = np.full(len(u), base)
            for t, step in steps:
                np.greater(u, t, out=mask)
                codes += mask @ step
            states[first : first + len(u)] = codes
        failures += _absorb(states, table, rng)

    mean = failures / trials
    stderr = sqrt(mean * (1 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, failures=failures)


def _absorb(states: np.ndarray, table: PatternTable, rng) -> int:
    """Step every live trial until all absorb; the number that fail."""
    failures = 0
    for _ in range(MAX_STEPS):
        flag = table.flag[states]
        failures += int(np.count_nonzero(flag == FAIL))
        states = states[flag == LIVE]
        if not states.size:
            return failures
        u = rng.random(states.size)
        outcome = np.zeros(states.size, dtype=np.intp)
        # The last slot is 1.0 in every row, so no draw passes it.
        for cum in table.cum[:-1]:
            outcome += cum[states] <= u
        states = table.next[outcome, states]
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
