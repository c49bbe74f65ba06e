import json
from fractions import Fraction as F
from math import sqrt
from pathlib import Path

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
            codes = [code_of[q] for q, _ in outcomes]
            assert table.next[:width, code].tolist() == codes
            cum = np.cumsum([float(p.evaluate(0, 0)) for _, p in outcomes])
            assert cum[-1] == pytest.approx(1.0, abs=1e-12)
            cum[-1] = 1.0
            assert np.array_equal(table.cum[:width, code], cum)
            assert np.all(table.cum[width:, code] == 1.0)


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
    states, table, rng = _one_shot_states(params, 5000, seed=41)

    def rederive(*args, **kwargs):
        raise AssertionError("the walk re-derived a state")

    for name in ("local_attempt", "classify", "pattern_weight"):
        monkeypatch.setattr(mc, name, rederive)
    failures = mc._absorb(states, table, rng)
    monkeypatch.undo()
    assert failures == simulate(params, 5000, seed=41).failures


def _one_shot_states(params, trials, seed, config=DEFAULT_FAULT_MODEL):
    """Shard 0's injection as one (trials, 7) draw, encoded qubit by qubit,
    and the generator after it."""
    table = PatternTable(params, config)
    marginals = qubit_marginals(params, config)
    statuses = [s for s in (Erasure.Z_MEASURED, Erasure.Z_ERASED, Erasure.FULL) if s in marginals]
    thresholds = np.cumsum([float(marginals[s].evaluate(0, 0)) for s in statuses])
    digits = np.array([table.digit[s] for s in statuses] + [table.digit[Erasure.NONE]])
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.Philox(sequence))
    u = rng.random((trials, N_QUBITS))
    index = np.zeros(u.shape, dtype=np.intp)
    for t in thresholds:
        index += u > t
    return digits[index] @ table.powers, table, rng


@pytest.mark.parametrize(
    "params",
    [ModelParams.ideal(F(1, 10)), ModelParams.lossy(F(1, 20), F(1, 30))],
    ids=["ideal", "lossy"],
)
@pytest.mark.parametrize(
    "trials", [1, mc.CHUNK - 1, mc.CHUNK, mc.CHUNK + 1, 3 * mc.CHUNK + 5]
)
def test_chunked_injection_matches_one_draw(params, trials, monkeypatch):
    states, table, rng = _one_shot_states(params, trials, seed=41)
    expected = mc._absorb(states, table, rng)
    injected = []
    real = mc._absorb

    def spy(states, table, rng):
        injected.append(states.copy())
        return real(states, table, rng)

    monkeypatch.setattr(mc, "_absorb", spy)
    assert simulate(params, trials, seed=41).failures == expected
    assert np.array_equal(injected[0], states)


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
