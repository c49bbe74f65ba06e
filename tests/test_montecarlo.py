import json
import math
from fractions import Fraction as F
from math import sqrt
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erasurechain.montecarlo as mc
from erasurechain.correction_circuits import (
    DEFAULT_FAULT_MODEL,
    Construction,
    FaultModel,
    attempt,
)
from erasurechain.erasure_model import (
    Classification,
    Erasure,
    ModelParams,
    all_patterns,
    classify,
    pattern_weight,
    qubit_marginals,
)
from erasurechain.markov_engine import build_chain, encoded_failure_at
from erasurechain.montecarlo import McEstimate, PatternTable, compare, simulate
from erasurechain.pauli_algebra import N_QUBITS

from conftest import fault_models


class TestSimulate:
    def test_zero_rate_never_fails(self):
        est = simulate(ModelParams.ideal(F(0)), trials=2000, seed=5)
        assert est.mean == 0.0
        assert est.failures == 0

    def test_replay_is_bit_identical(self):
        params = ModelParams.ideal(F(1, 10))
        a = simulate(params, trials=30_000, seed=123)
        b = simulate(params, trials=30_000, seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        params = ModelParams.ideal(F(1, 10))
        a = simulate(params, trials=30_000, seed=1)
        b = simulate(params, trials=30_000, seed=2)
        assert a.failures != b.failures

    def test_stderr_formula(self):
        est = simulate(ModelParams.ideal(F(1, 10)), trials=30_000, seed=9)
        assert est.stderr == pytest.approx(
            sqrt(est.mean * (1 - est.mean) / est.trials)
        )

    def test_seeded_failure_counts_are_pinned(self, monkeypatch):
        # Counts recorded from the seed stream documented in the module
        # docstring; a change to the draws or the walk moves them.
        per_teleportation = FaultModel(construction=Construction.PER_TELEPORTATION)
        assert simulate(ModelParams.ideal(F(1, 10)), 100_000, 3).failures == 6821
        assert simulate(ModelParams.ideal(F(1, 20)), 100_000, 7).failures == 848
        assert simulate(ModelParams.lossy(F(1, 50), F(1, 30)), 100_000, 3).failures == 194
        lossy = ModelParams.lossy(F(1, 50), F(1, 50))
        assert simulate(lossy, 50_000, 11, per_teleportation).failures == 539
        monkeypatch.setattr(mc, "SHARD_SIZE", 1000)
        assert simulate(ModelParams.lossy(F(1, 20), F(1, 20)), 5000, 77).failures == 96

    def test_sharded_run_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(mc, "SHARD_SIZE", 1000)
        params = ModelParams.lossy(F(1, 20), F(1, 20))
        a = simulate(params, trials=5000, seed=77)
        b = simulate(params, trials=5000, seed=77)
        assert a == b

    def test_unabsorbed_trial_raises(self, monkeypatch):
        # About half the trials start with an erasure at 1/10; one attempt
        # cannot settle them all.
        monkeypatch.setattr(mc, "MAX_STEPS", 1)
        message = "did not absorb within MAX_STEPS = 1 attempts at eps = 1/10, delta = 0"
        with pytest.raises(ValueError, match=message):
            simulate(ModelParams.ideal(F(1, 10)), trials=1000, seed=0)

    def test_symbolic_rates_rejected(self):
        with pytest.raises(ValueError):
            simulate(ModelParams.ideal(), trials=10, seed=0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(ModelParams.ideal(F(0)), trials=0, seed=0)


REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "default": DEFAULT_FAULT_MODEL,
    "per_teleportation": FaultModel(construction=Construction.PER_TELEPORTATION),
    "alt_config": FaultModel.from_json(
        json.loads((REPO_ROOT / "perfbench" / "alt_config.json").read_text())
    ),
}
RATES = {
    "ideal-0": ModelParams.ideal(F(0)),
    "ideal-1/10": ModelParams.ideal(F(1, 10)),
    "lossy-0-1/10": ModelParams.lossy(F(0), F(1, 10)),
    "lossy-1/10-0": ModelParams.lossy(F(1, 10), F(0)),
    "lossy-1/10-1/10": ModelParams.lossy(F(1, 10), F(1, 10)),
    "lossy-1/50-1/30": ModelParams.lossy(F(1, 50), F(1, 30)),
}
ROW_CASES = {
    "ideal": (ModelParams.ideal(F(1, 10)), DEFAULT_FAULT_MODEL),
    "lossy-per_gate": (ModelParams.lossy(F(1, 50), F(1, 30)), DEFAULT_FAULT_MODEL),
    "lossy-per_teleportation": (
        ModelParams.lossy(F(1, 50), F(1, 50)), CONFIGS["per_teleportation"]
    ),
}
for rate, params in RATES.items():
    for name, config in CONFIGS.items():
        if (params, config) not in ROW_CASES.values():
            ROW_CASES[f"{rate}-{name}"] = (params, config)


class TestPatternTable:
    @pytest.mark.parametrize("params, config", ROW_CASES.values(), ids=ROW_CASES)
    def test_rows_are_the_attempt_tables(self, params, config):
        # State i is the i-th pattern in enumeration order, which is the
        # base-b reading with qubit 1 most significant.
        patterns = all_patterns(params.model)
        code_of = {p: i for i, p in enumerate(patterns)}
        table = PatternTable(params, config)
        for code, pattern in enumerate(patterns):
            if pattern_weight(pattern) == 0:
                assert table.flag[code] == mc.CLEAN
                continue
            if classify(pattern) is Classification.PROCEDURE_FAIL:
                assert table.flag[code] == mc.FAIL
                continue
            assert table.flag[code] == mc.LIVE
            outcomes = sorted(attempt(pattern, params, config).items())
            width = len(outcomes)
            depth = table.depth
            assert width <= depth and depth & (depth - 1) == 0
            row = slice(code * depth, (code + 1) * depth)
            codes = [code_of[q] for q, _ in outcomes]
            assert table.next[row][:width].tolist() == codes
            cum = np.cumsum([float(p.evaluate(0, 0)) for _, p in outcomes])
            assert cum[-1] == pytest.approx(1.0, abs=1e-12)
            cum[-1] = 1.0
            # ceil(cum * 2**53) in Python ints: the scaling is exact.
            assert table.bound[row][:width].tolist() == [math.ceil(c * 2**53) for c in cum]
            assert table.bound[row][width:].tolist() == [2**53] * (depth - width)


@pytest.mark.parametrize(
    "params", [ModelParams.ideal(F(1, 10)), ModelParams.lossy(F(1, 50), F(1, 30))],
    ids=["ideal", "lossy"],
)
def test_every_state_is_flagged_before_the_walk(params):
    patterns = all_patterns(params.model)
    fails = sum(classify(p) is Classification.PROCEDURE_FAIL for p in patterns)
    table = PatternTable(params, DEFAULT_FAULT_MODEL)
    counts = [int(np.count_nonzero(table.flag == f)) for f in (mc.CLEAN, mc.FAIL, mc.LIVE)]
    assert counts == [1, fails, len(patterns) - 1 - fails]


def test_walk_reads_only_the_table(monkeypatch):
    params = ModelParams.lossy(F(1, 20), F(1, 30))
    states, table, bitgen = _one_shot_states(params, 5000, seed=41)

    def rederive(*args, **kwargs):
        raise AssertionError("the walk re-derived a state")

    for name in ("local_attempt", "classify", "pattern_weight"):
        monkeypatch.setattr(mc, name, rederive)
    failures = mc._absorb(states, table, bitgen)
    monkeypatch.undo()
    assert failures == simulate(params, 5000, seed=41).failures


def _one_shot_states(params, trials, seed, config=DEFAULT_FAULT_MODEL):
    """Shard 0's injection as one (trials, 7) draw of ``Generator.random``
    doubles, encoded qubit by qubit, and the bit generator after it."""
    table = PatternTable(params, config)
    marginals = qubit_marginals(params, config)
    statuses = [s for s in (Erasure.Z_MEASURED, Erasure.Z_ERASED, Erasure.FULL) if s in marginals]
    thresholds = np.cumsum([float(marginals[s].evaluate(0, 0)) for s in statuses])
    digits = np.array([table.digit[s] for s in statuses] + [table.digit[Erasure.NONE]])
    rng = _shard_generator(seed)
    u = rng.random((trials, N_QUBITS))
    index = np.zeros(u.shape, dtype=np.intp)
    for t in thresholds:
        index += u > t
    return digits[index] @ table.powers, table, rng.bit_generator


def _shard_generator(seed):
    """Shard 0's generator, as ``simulate`` seeds its bit generator."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.Philox(sequence))


@pytest.mark.parametrize(
    "params",
    [ModelParams.ideal(F(1, 10)), ModelParams.lossy(F(1, 20), F(1, 30))],
    ids=["ideal", "lossy"],
)
@pytest.mark.parametrize(
    "trials", [1, mc.CHUNK - 1, mc.CHUNK, mc.CHUNK + 1, 3 * mc.CHUNK + 5]
)
def test_chunked_injection_matches_one_draw(params, trials, monkeypatch):
    states, table, bitgen = _one_shot_states(params, trials, seed=41)
    expected = mc._absorb(states, table, bitgen)
    injected = []
    real = mc._absorb

    def spy(states, table, bitgen):
        injected.append(states.copy())
        return real(states, table, bitgen)

    monkeypatch.setattr(mc, "_absorb", spy)
    assert simulate(params, trials, seed=41).failures == expected
    assert np.array_equal(injected[0], states)


def _unit_doubles():
    """Doubles in [0, 1] and a little above, weighted towards the edges of
    the 2**-53 grid that ``Generator.random`` reads."""
    on_grid = st.integers(0, 2**53).map(lambda j: j * 2.0**-53)
    return st.one_of(
        st.sampled_from(
            [0.0, 1.0, 2.0**-1074, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
        ),
        st.floats(0.0, 1.0),
        on_grid,
        on_grid.map(lambda t: math.nextafter(t, 0.0)),
        on_grid.map(lambda t: math.nextafter(t, 2.0)),
    )


class TestGrid:
    @settings(max_examples=1000, deadline=None)
    @given(t=_unit_doubles(), data=st.data())
    def test_integer_comparisons_are_the_double_comparisons(self, t, data):
        # k is a word's top 53 bits; Generator.random returns k * 2**-53,
        # exactly.  The interesting k sit next to t's grid point.
        top = 2**53 - 1
        point = min(int(t * 2**53), top)
        near = st.integers(max(point - 2, 0), min(point + 2, top))
        k = data.draw(st.one_of(near, st.integers(0, top)))
        u = k * 2.0**-53
        word = np.array([k], dtype=np.uint64)
        assert (word > mc.floor_grid([t]))[0] == (u > t)
        assert (mc.ceil_grid([t]) <= word)[0] == (t <= u)

    def test_raw_words_are_the_generator_doubles(self):
        # The walk's draws: injection blocks, then one word per live trial
        # per step, in sizes that shrink as trials absorb.
        sizes = [
            (mc.CHUNK, N_QUBITS), (mc.CHUNK, N_QUBITS), (17, N_QUBITS),
            5000, 1234, 17, 1, 0, 3, 777,
        ]
        sequence = np.random.SeedSequence(entropy=2024, spawn_key=(3,))
        bitgen = np.random.Philox(sequence)
        rng = np.random.Generator(np.random.Philox(sequence))
        for size in sizes:
            words = bitgen.random_raw(size)
            assert words.dtype == np.uint64
            doubles = (words >> 11) * 2.0**-53
            assert np.array_equal(doubles.view(np.uint64), rng.random(size).view(np.uint64))
        np.testing.assert_equal(bitgen.state, rng.bit_generator.state)


class FloatRows(NamedTuple):
    """The outcome rows as the walk on doubles read them: column ``code`` of
    ``next`` and ``cum`` is a state's row, 1.0 past its ``width``."""

    flag: np.ndarray
    next: np.ndarray
    cum: np.ndarray
    width: np.ndarray


def float_rows(params, config):
    """Every state's flag and row from ``attempt``, not from the table."""
    patterns = all_patterns(params.model)
    code_of = {p: i for i, p in enumerate(patterns)}
    flag = np.full(len(patterns), mc.LIVE, dtype=np.int8)
    rows = {}
    for code, pattern in enumerate(patterns):
        if pattern_weight(pattern) == 0:
            flag[code] = mc.CLEAN
        elif classify(pattern) is Classification.PROCEDURE_FAIL:
            flag[code] = mc.FAIL
        else:
            outcomes = sorted(attempt(pattern, params, config).items())
            cum = np.cumsum([float(p.evaluate(0, 0)) for _, p in outcomes])
            cum[-1] = 1.0
            rows[code] = [code_of[q] for q, _ in outcomes], cum
    depth = max(len(cum) for _, cum in rows.values())
    next_codes = np.zeros((depth, len(patterns)), dtype=np.intp)
    cums = np.ones((depth, len(patterns)))
    width = np.zeros(len(patterns), dtype=np.intp)
    for code, (codes, cum) in rows.items():
        next_codes[: len(codes), code] = codes
        cums[: len(cum), code] = cum
        width[code] = len(codes)
    return FloatRows(flag, next_codes, cums, width)


def float_absorb(states, rows, rng):
    """The walk on ``Generator.random`` doubles that the walk on raw words
    replaced.  Returns the failures and whether a trial took the last
    outcome of a row of the greatest width."""
    failures, last = 0, False
    for _ in range(mc.MAX_STEPS):
        flag = rows.flag[states]
        failures += int(np.count_nonzero(flag == mc.FAIL))
        states = states[flag == mc.LIVE]
        if not states.size:
            return failures, last
        u = rng.random(states.size)
        outcome = np.zeros(states.size, dtype=np.intp)
        # The last slot is 1.0 in every row, so no draw passes it.
        for cum in rows.cum[:-1]:
            outcome += cum[states] <= u
        last = last or bool(np.any(outcome == len(rows.cum) - 1))
        states = rows.next[outcome, states]
    raise ValueError("a trial did not absorb within MAX_STEPS")


class ScriptedWords:
    """A stream of 64-bit words: the given ones, then Philox's.  It serves
    both walks, as raw words and as ``Generator.random`` doubles."""

    def __init__(self, first, seed):
        self.first = np.array(first, dtype=np.uint64)
        self.rest = np.random.Philox(seed)
        self.drawn = 0

    def random_raw(self, size):
        n = int(np.prod(size))
        head, self.first = self.first[:n], self.first[n:]
        self.drawn += n
        return np.concatenate([head, self.rest.random_raw(n - len(head))]).reshape(size)

    def random(self, size):
        return (self.random_raw(size) >> 11) * 2.0**-53


ORACLE_CASES = {
    "ideal-1/10-seed3": (ModelParams.ideal(F(1, 10)), "default", 3, 20_000),
    "ideal-1/20-seed7": (ModelParams.ideal(F(1, 20)), "default", 7, 20_000),
    "ideal-1/4-seed1": (ModelParams.ideal(F(1, 4)), "default", 1, 3_000),
    "ideal-0": (ModelParams.ideal(F(0)), "default", 5, 1_000),
    "lossy-1/20-1/20-default": (ModelParams.lossy(F(1, 20), F(1, 20)), "default", 77, 20_000),
    "lossy-1/10-1/10-default": (ModelParams.lossy(F(1, 10), F(1, 10)), "default", 2, 10_000),
    "lossy-1/50-1/30-per_teleportation": (
        ModelParams.lossy(F(1, 50), F(1, 30)), "per_teleportation", 3, 20_000
    ),
    "lossy-1/10-1/10-per_teleportation": (
        ModelParams.lossy(F(1, 10), F(1, 10)), "per_teleportation", 11, 10_000
    ),
    "lossy-1/10-1/10-alt_config": (ModelParams.lossy(F(1, 10), F(1, 10)), "alt_config", 4, 10_000),
    "lossy-1/10-0-alt_config": (ModelParams.lossy(F(1, 10), F(0)), "alt_config", 9, 10_000),
    "lossy-0-1/10-per_teleportation": (
        ModelParams.lossy(F(0), F(1, 10)), "per_teleportation", 6, 10_000
    ),
}


class TestFloatWalkOracle:
    @pytest.mark.parametrize(
        "params, config, seed, trials", ORACLE_CASES.values(), ids=ORACLE_CASES
    )
    def test_raw_walk_is_the_float_walk(self, params, config, seed, trials):
        config = CONFIGS[config]
        states, table, bitgen = _one_shot_states(params, trials, seed, config)
        rng = _shard_generator(seed)
        rng.random((trials, N_QUBITS))
        expected, _ = float_absorb(states, float_rows(params, config), rng)
        assert mc._absorb(states, table, bitgen) == expected
        np.testing.assert_equal(bitgen.state, rng.bit_generator.state)

    def test_a_row_of_the_greatest_width_ends_at_its_last_slot(self):
        # Ideal rows are 8 wide, the table's depth, so a row's last outcome
        # is the table's last slot, whose bound is 2**53 as in the padding.
        params = ModelParams.ideal(F(1, 4))
        states, table, bitgen = _one_shot_states(params, 3_000, seed=1)
        rows = float_rows(params, DEFAULT_FAULT_MODEL)
        assert table.depth == len(rows.cum) == 8
        rng = _shard_generator(1)
        rng.random((3_000, N_QUBITS))
        expected, last = float_absorb(states, rows, rng)
        assert last
        assert mc._absorb(states, table, bitgen) == expected

    @pytest.mark.parametrize("params, config", [
        (ModelParams.ideal(F(1, 4)), "default"),
        (ModelParams.lossy(F(1, 10), F(1, 10)), "per_teleportation"),
    ], ids=["ideal", "lossy-per_teleportation"])
    def test_words_on_a_bound_take_the_next_outcome(self, params, config):
        # A Philox word almost never lands on a bound, so the first step's
        # words are put there: each live state once per bound of its row,
        # with k on the bound and one below it, and the 11 low bits, which
        # the shift drops, set.  u = k * 2**-53 equals cum on the bound, and
        # cum <= u moves the trial on.
        config = CONFIGS[config]
        table = PatternTable(params, config)
        states, first = [], []
        for code in np.flatnonzero(table.flag == mc.LIVE).tolist():
            for bound in table.bound[code * table.depth : (code + 1) * table.depth].tolist():
                for k in (bound, bound - 1):
                    if not 0 <= k < 2**53:
                        continue
                    states.append(code)
                    first.append(k << 11 | 2047)
        states = np.array(states, dtype=np.intp)
        doubles, words = ScriptedWords(first, 5), ScriptedWords(first, 5)
        expected, _ = float_absorb(states, float_rows(params, config), doubles)
        assert mc._absorb(states, table, words) == expected
        assert words.drawn == doubles.drawn

    @pytest.mark.parametrize("max_steps", [1, 3])
    def test_both_walks_stop_at_max_steps_after_the_same_draws(self, max_steps, monkeypatch):
        monkeypatch.setattr(mc, "MAX_STEPS", max_steps)
        params = ModelParams.ideal(F(1, 4))
        states, table, bitgen = _one_shot_states(params, 2_000, seed=8)
        rng = _shard_generator(8)
        rng.random((2_000, N_QUBITS))
        with pytest.raises(ValueError, match="MAX_STEPS"):
            float_absorb(states, float_rows(params, DEFAULT_FAULT_MODEL), rng)
        with pytest.raises(ValueError, match=f"MAX_STEPS = {max_steps} attempts"):
            mc._absorb(states, table, bitgen)
        np.testing.assert_equal(bitgen.state, rng.bit_generator.state)


# A correct sampler lands beyond 4 standard errors about once in 16,000
# examples (normal approximation), so 15 examples rarely raise a false alarm.
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    config=fault_models(),
    eps=st.fractions(min_value=F(1, 200), max_value=F(1, 10), max_denominator=1000),
)
def test_random_fault_models_agree_with_chain(config, eps):
    params = ModelParams.lossy(eps, eps)
    chain = build_chain(params, config=config)  # asserts stochastic, nonnegative rows
    exact = encoded_failure_at(chain)
    report = compare(exact, simulate(params, trials=20_000, seed=20230817, config=config))
    assert abs(report.z) <= 4, f"{config}, eps={eps}: z={report.z}"


class TestAgreementWithChain:
    def test_ideal_mid_rate(self):
        eps = F(1, 20)
        est = simulate(ModelParams.ideal(eps), trials=200_000, seed=20230817)
        exact = encoded_failure_at(build_chain(ModelParams.ideal(eps)))
        report = compare(exact, est)
        assert report.passed, f"z={report.z}"

    def test_lossy_diagonal(self):
        eps = F(1, 50)
        for config in (
            DEFAULT_FAULT_MODEL,
            FaultModel(construction=Construction.PER_TELEPORTATION),
        ):
            params = ModelParams.lossy(eps, eps)
            est = simulate(params, trials=200_000, seed=20230817, config=config)
            exact = encoded_failure_at(build_chain(params, config=config))
            report = compare(exact, est)
            assert report.passed, f"{config.construction.value}: z={report.z}"


class TestCompare:
    def test_zero_z_when_exact_matches(self):
        est = McEstimate(mean=0.25, stderr=0.01, trials=100, seed=0, failures=25)
        report = compare(F(1, 4), est)
        assert report.z == 0.0
        assert report.passed

    def test_boundary_pass_at_three_sigma(self):
        # stderr = 1/64 keeps the arithmetic exact in binary floats.
        est = McEstimate(mean=0.25, stderr=0.015625, trials=100, seed=0, failures=25)
        report = compare(F(1, 4) + 3 * F(1, 64), est)
        assert report.z == -3.0
        assert report.passed

    def test_fails_beyond_three_sigma(self):
        est = McEstimate(mean=0.25, stderr=0.015625, trials=100, seed=0, failures=25)
        report = compare(F(1, 4) + 4 * F(1, 64), est)
        assert not report.passed

    def test_zero_stderr_rejected(self):
        # Every trial failed, yet the exact rate is 0: neither the mean nor
        # the exact value has any spread to score the gap against.
        est = McEstimate(mean=1.0, stderr=0.0, trials=100, seed=0, failures=100)
        with pytest.raises(ValueError, match=r"mean 1\.0 .* exact value 0\.0"):
            compare(F(0), est)

    def test_zero_stderr_scored_against_exact_spread(self):
        # No trial failed: the gap is scored against sqrt(p(1-p)/trials)
        # with p the exact value, here sqrt(1/400) = 1/20.
        est = McEstimate(mean=0.0, stderr=0.0, trials=100, seed=0, failures=0)
        report = compare(F(1, 2), est)
        assert report.z == -10.0
        assert not report.passed

    @pytest.mark.parametrize("mean", [0.0, 1.0])
    def test_zero_stderr_passes_when_mean_is_exact(self, mean):
        est = McEstimate(mean=mean, stderr=0.0, trials=100, seed=0, failures=int(100 * mean))
        report = compare(F(int(mean)), est)
        assert report.z == 0.0
        assert report.passed
