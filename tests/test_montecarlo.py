from fractions import Fraction as F
from math import sqrt

import pytest

import erasurechain.montecarlo as mc
from erasurechain.correction_circuits import DEFAULT_FAULT_MODEL, Construction, FaultModel
from erasurechain.erasure_model import ModelParams
from erasurechain.markov_engine import build_chain, encoded_failure_at
from erasurechain.montecarlo import McEstimate, compare, simulate


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

    def test_sharded_run_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(mc, "SHARD_SIZE", 1000)
        params = ModelParams.lossy(F(1, 20), F(1, 20))
        a = simulate(params, trials=5000, seed=77)
        b = simulate(params, trials=5000, seed=77)
        assert a == b

    def test_symbolic_rates_rejected(self):
        with pytest.raises(ValueError):
            simulate(ModelParams.ideal(), trials=10, seed=0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(ModelParams.ideal(F(0)), trials=0, seed=0)


class TestAgreementWithChain:
    def test_ideal_mid_rate(self):
        eps = F(1, 20)
        est = simulate(ModelParams.ideal(eps), trials=200_000, seed=20230817)
        chain = build_chain(ModelParams.ideal())
        exact = encoded_failure_at(chain, eps, F(0))
        report = compare(exact, est)
        assert report.passed, f"z={report.z}"

    def test_lossy_diagonal(self):
        eps = F(1, 50)
        for config in (
            DEFAULT_FAULT_MODEL,
            FaultModel(construction=Construction.PER_TELEPORTATION),
        ):
            est = simulate(
                ModelParams.lossy(eps, eps), trials=200_000, seed=20230817, config=config
            )
            chain = build_chain(ModelParams.lossy(), config=config)
            exact = encoded_failure_at(chain, eps, eps)
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
        # Every trial recovered, yet the exact rate is not 0.
        est = McEstimate(mean=0.0, stderr=0.0, trials=100, seed=0, failures=0)
        with pytest.raises(ValueError, match=r"mean 0\.0 .* exact value 0\.5"):
            compare(F(1, 2), est)

    @pytest.mark.parametrize("mean", [0.0, 1.0])
    def test_zero_stderr_passes_when_mean_is_exact(self, mean):
        est = McEstimate(mean=mean, stderr=0.0, trials=100, seed=0, failures=int(100 * mean))
        report = compare(F(int(mean)), est)
        assert report.z == 0.0
        assert report.passed
