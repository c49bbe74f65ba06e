import random
import re
from fractions import Fraction as F

import pytest

import erasurechain.markov_engine as markov_engine
from erasurechain.correction_circuits import Construction, FaultModel
from erasurechain.exact_arith import Poly
from erasurechain.erasure_model import (
    CLEAN_PATTERN,
    ClassUnsound,
    EquivClass,
    Model,
    ModelParams,
    build_classes,
    initial_distribution,
    pattern_weight,
)
from erasurechain.markov_engine import (
    build_chain,
    encoded_failure_at,
    recursion_series,
    run_to_absorption,
)
from erasurechain.threshold_solver import chain_recursion, concat_projection


def ideal_chain():
    return build_chain(ModelParams.ideal())


def lossy_chain():
    return build_chain(ModelParams.lossy())


def per_teleportation_chain():
    config = FaultModel(construction=Construction.PER_TELEPORTATION)
    return build_chain(ModelParams.lossy(), config=config)


class TestBuildChain:
    def test_rows_sum_to_one_symbolically(self):
        for chain in (ideal_chain(), lossy_chain(), per_teleportation_chain()):
            for row_sum in chain.row_sums():
                assert row_sum == Poly.one()

    def test_absorbing_rows_are_identity(self):
        chain = ideal_chain()
        for cid in chain.absorbing:
            row = chain.P[cid]
            for j, entry in enumerate(row):
                assert entry == (Poly.one() if j == cid else Poly.zero())

    def test_zero_noise_correctable_classes_progress(self):
        # At eps = 0 the ideal chain walks straight down in weight.
        chain = ideal_chain()
        table = chain.table
        for cls in table.classes:
            if cls.id in chain.absorbing:
                continue
            w = pattern_weight(cls.representative)
            row = chain.P[cls.id]
            for j, entry in enumerate(row):
                v = entry.evaluate(F(0), F(0))
                target_w = pattern_weight(table.classes[j].representative)
                if v == 1:
                    assert target_w == w - 1
                else:
                    assert v == 0

    def test_lossy_class_labels(self):
        chain = lossy_chain()
        labels = {c.label for c in chain.table.classes}
        assert "[1,1]" in labels and "[3,0]" in labels and "fail" in labels

    def test_unsound_table_rejected(self):
        table = build_classes(Model.IDEAL)
        w1, w2 = table.classes[1], table.classes[2]
        merged = EquivClass(1, "bogus", w1.representative, w1.size + w2.size,
                            w1.members + w2.members)
        classes = [table.classes[0], merged, table.classes[3], table.classes[4]]
        classes = [
            EquivClass(i, c.label, c.representative, c.size, c.members)
            for i, c in enumerate(classes)
        ]
        index = {p: c.id for c in classes for p in c.members}
        bad = type(table)(
            model=table.model, classes=classes, index=index, clean_id=0, fail_id=3
        )
        with pytest.raises(ClassUnsound):
            build_chain(ModelParams.ideal(), table=bad)

    def test_row_missing_an_outcome_rejected(self, monkeypatch):
        real_attempt = markov_engine.attempt

        def drop_one_outcome(pattern, params, config):
            outcomes = dict(real_attempt(pattern, params, config))
            outcomes.pop(next(iter(outcomes)))
            return outcomes

        monkeypatch.setattr(markov_engine, "attempt", drop_one_outcome)
        table = build_classes(Model.LOSSY)
        first = next(c for c in table.classes if c.id not in (table.clean_id, table.fail_id))
        with pytest.raises(ValueError, match=re.escape(f"class {first.label} sums to")):
            build_chain(ModelParams.lossy())

    def test_negative_entry_at_numeric_rates_rejected(self, monkeypatch):
        # Moving unit mass onto the clean pattern keeps each row summing to
        # one but leaves a negative entry.
        real_attempt = markov_engine.attempt

        def move_mass(pattern, params, config):
            outcomes = dict(real_attempt(pattern, params, config))
            other = next(q for q in outcomes if q != CLEAN_PATTERN)
            outcomes[other] = outcomes[other] + 1
            outcomes[CLEAN_PATTERN] = outcomes.get(CLEAN_PATTERN, Poly.zero()) - 1
            return outcomes

        monkeypatch.setattr(markov_engine, "attempt", move_mass)
        with pytest.raises(ValueError, match="has a negative entry"):
            build_chain(ModelParams.ideal(F(1, 10)))

    def test_matrix_entries_probability_valued_on_grid(self):
        grid = [F(k, 40) for k in range(0, 11, 2)]
        for chain in (ideal_chain(), lossy_chain(), per_teleportation_chain()):
            for row in chain.P:
                for entry in row:
                    for e in grid:
                        for d in (F(0), F(1, 8), F(1, 4)):
                            assert 0 <= entry.evaluate(e, d) <= 1


class TestAbsorption:
    def test_zero_noise_never_fails(self):
        chain = ideal_chain()
        assert encoded_failure_at(chain, F(0), F(0)) == 0
        lchain = lossy_chain()
        assert encoded_failure_at(lchain, F(0), F(0)) == 0

    def test_truncated_runs_report_shrinking_residual(self):
        chain = build_chain(ModelParams.ideal(F(1, 10)))
        previous = None
        for t in (1, 2, 4, 8, 16, 32, 48):
            result = run_to_absorption(chain, max_attempts=t)
            assert result.attempts_used == t
            res = result.residual_mass.evaluate(0, 0)
            assert 0 <= res <= 1
            if previous is not None:
                assert res <= previous
            previous = res
        assert previous < F(1, 10**6)

    def test_truncated_fail_mass_approaches_absorbing_solve(self):
        eps = F(1, 10)
        chain = build_chain(ModelParams.ideal(eps))
        exact = encoded_failure_at(chain, F(0), F(0))
        late = run_to_absorption(chain, max_attempts=60)
        gap = exact - late.encoded_failure.evaluate(0, 0)
        assert 0 <= gap < F(1, 10**12)

    def test_unbounded_symbolic_requires_series_order(self):
        chain = ideal_chain()
        with pytest.raises(ValueError):
            run_to_absorption(chain)


class TestSeries:
    def test_low_order_coefficients_vanish(self):
        for params in (ModelParams.ideal(), ModelParams.lossy()):
            series = recursion_series(params, 4)
            for k in (0, 1, 2):
                assert series.coefficient(k) == 0
            assert series.coefficient(3) >= 7

    def test_order_zero_is_zero(self):
        assert recursion_series(ModelParams.ideal(), 0).is_zero()

    def test_ideal_series_regression(self):
        # Exact engine output, cross-validated in this suite against the
        # unreduced 128-state chain and the Monte Carlo sampler.
        series = recursion_series(ModelParams.ideal(), 6)
        assert series.coefficient(3) == 49
        assert series.coefficient(4) == 441
        assert series.coefficient(5) == -2086
        assert series.coefficient(6) == -3801

    def test_lossy_series_regression(self):
        series = recursion_series(ModelParams.lossy(), 6)
        assert series.coefficient(3) == F(203, 2)
        assert series.coefficient(4) == F(6041, 4)
        assert series.coefficient(5) == F(-9303, 2)
        assert series.coefficient(6) == F(-54887)

    def test_series_is_single_variable_for_lossy(self):
        series = recursion_series(ModelParams.lossy(), 5)
        assert all(j == 0 for (_, j) in series.terms)

    def test_series_matches_numeric_solve_at_small_rate(self):
        # The truncated series and the exact absorbing solve agree up to
        # the order-8 remainder at a small rate.
        eps = F(1, 1000)
        series = recursion_series(ModelParams.ideal(), 7)
        chain = ideal_chain()
        exact = encoded_failure_at(chain, eps, F(0))
        series_value = series.evaluate(eps, eps)
        assert abs(exact - series_value) < 10**7 * eps**8


class TestReducedVersusUnreduced:
    def test_ideal_exact_equality(self, ideal_singleton_table):
        params = ModelParams.ideal()
        reduced = build_chain(params)
        full = build_chain(params, table=ideal_singleton_table)
        for eps in (F(1, 100), F(1, 10)):
            assert encoded_failure_at(reduced, eps, F(0)) == encoded_failure_at(
                full, eps, F(0)
            )

    def test_series_sanity_full_solve_stays_probability(self):
        # Sampled over [0, 1/4], the absorbing-solve failure rate is a
        # probability even where the truncated series misbehaves.
        chain = ideal_chain()
        for k in range(0, 21, 2):
            eps = F(k, 80)
            value = encoded_failure_at(chain, eps, F(0))
            assert 0 <= value <= 1

    def test_lossy_diagonal_probability_valued(self):
        chain = lossy_chain()
        for k in range(0, 21, 4):
            eps = F(k, 80)
            value = encoded_failure_at(chain, eps, eps)
            assert 0 <= value <= 1


class TestChainExport:
    def test_json_structure(self):
        chain = ideal_chain()
        data = chain.to_json()
        assert data["model"] == "ideal"
        assert len(data["matrix"]) == len(data["classes"]) == 5
        assert data["absorbing"] == [chain.table.clean_id, chain.table.fail_id]
        restored = Poly.from_json(data["matrix"][1][0])
        assert restored == chain.P[1][0]


def fraction_oracle(chain, eps, delta):
    """Absorption probability by Fraction Gauss-Jordan elimination.

    An independent reference for the integer solve in
    ``encoded_failure_at``: evaluate every entry as a Fraction and reduce
    [I - Q | r] to the absorption vector.
    """
    clean_id, fail_id = chain.absorbing
    transient = [i for i in range(chain.size) if i not in (clean_id, fail_id)]
    pos = {cid: k for k, cid in enumerate(transient)}
    n = len(transient)
    M = [[F(0)] * (n + 1) for _ in range(n)]
    for i in transient:
        for j in range(chain.size):
            v = chain.P[i][j].evaluate(eps, delta)
            if j == fail_id:
                M[pos[i]][n] += v
            elif j != clean_id:
                M[pos[i]][pos[j]] -= v
        M[pos[i]][pos[i]] += 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular transient system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    total = F(0)
    initial = initial_distribution(chain.params, chain.table, chain.config)
    for cid, mass in initial.items():
        v = mass.evaluate(eps, delta)
        if cid == fail_id:
            total += v
        elif cid != clean_id:
            total += v * M[pos[cid]][n]
    return total


def random_rate(rng):
    den = rng.choice((1, 2, 19, 1000, 10**6, rng.randint(1, 10**6)))
    return F(rng.randint(0, den), den)


CONFIGS = {
    "per_gate": FaultModel(),
    "per_teleportation": FaultModel(construction=Construction.PER_TELEPORTATION),
}


class TestFractionFreeSolve:
    """The integer Bareiss solve returns the Fraction elimination's rational."""

    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_matches_oracle_at_random_rationals(self, construction):
        config = CONFIGS[construction]
        rng = random.Random(4)
        ideal = build_chain(ModelParams.ideal(), config=config)
        lossy = build_chain(ModelParams.lossy(), config=config)
        for _ in range(12):
            eps = random_rate(rng)
            assert encoded_failure_at(ideal, eps, F(0)) == fraction_oracle(ideal, eps, F(0))
            delta = random_rate(rng)
            while delta == eps:
                delta = random_rate(rng)
            assert encoded_failure_at(lossy, eps, delta) == fraction_oracle(lossy, eps, delta)

    def test_matches_oracle_on_numeric_rate_chain(self):
        for params in (ModelParams.ideal(F(3, 17)), ModelParams.lossy(F(1, 20), F(1, 7))):
            chain = build_chain(params)
            expected = fraction_oracle(chain, F(0), F(0))
            assert encoded_failure_at(chain, F(0), F(0)) == expected
            assert run_to_absorption(chain).encoded_failure == expected

    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_matches_oracle_at_rate_endpoints(self, construction):
        config = CONFIGS[construction]
        ideal = build_chain(ModelParams.ideal(), config=config)
        lossy = build_chain(ModelParams.lossy(), config=config)
        for eps in (F(0), F(1)):
            assert encoded_failure_at(ideal, eps, F(0)) == fraction_oracle(ideal, eps, F(0))
            for delta in (F(0), F(1)):
                if (eps, delta) == (0, 1):
                    continue
                assert encoded_failure_at(lossy, eps, delta) == fraction_oracle(
                    lossy, eps, delta
                )

    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_lossless_gates_with_lost_detections_is_singular(self, construction):
        # eps = 0, delta = 1: a class holding a full erasure never leaves itself.
        lossy = build_chain(ModelParams.lossy(), config=CONFIGS[construction])
        with pytest.raises(ValueError, match="singular transient system"):
            fraction_oracle(lossy, F(0), F(1))
        with pytest.raises(ValueError, match="singular transient system"):
            encoded_failure_at(lossy, F(0), F(1))

    def test_concat_to_level_three_matches_oracle(self):
        chain = build_chain(ModelParams.ideal())
        x = F(1, 19)
        expected = []
        for _ in range(3):
            x = fraction_oracle(chain, x, F(0))
            expected.append(x)
        assert concat_projection(chain_recursion("ideal"), F(1, 19), 3) == expected
