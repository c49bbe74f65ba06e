import json
from fractions import Fraction as F
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurechain import cli, erasure_model, threshold_solver
from erasurechain.correction_circuits import Construction, FaultModel
from erasurechain.exact_arith import Poly
from erasurechain.markov_engine import FailureRate
from erasurechain.threshold_solver import (
    MEASUREMENT_TAIL,
    BreakEvenCondition,
    NoSignChange,
    REFERENCE_SERIES_IDEAL,
    REFERENCE_SERIES_LOSSY,
    chain_recursion,
    concat_projection,
    default_bracket,
    solve_break_even,
)


def binomial_tail(d: F) -> F:
    """Independent oracle for the measurement recursion."""
    return sum(comb(7, i) * d**i * (1 - d) ** (7 - i) for i in range(3, 8))


def exact_levels(rate: FailureRate, eps0: F, levels: int) -> list:
    """Oracle for concat_projection: the exact Fraction iterate of the rate."""
    x, out = F(eps0), []
    for _ in range(levels):
        x = rate.at(x)
        out.append(x)
    return out


def oracle_floats(rate: FailureRate, eps0: F, levels: int) -> list:
    return [float(x) for x in exact_levels(rate, eps0, levels)]


REPO_ROOT = Path(__file__).resolve().parents[1]
IDENTITY = FailureRate([0, 1], [1])
SQUARE = FailureRate([0, 0, 1], [1])
QUARTIC = FailureRate([0, 0, 0, 0, 1], [1])
PER_TELEPORTATION = FaultModel(construction=Construction.PER_TELEPORTATION)


@lru_cache(maxsize=None)
def rate_of(model: str) -> FailureRate:
    """The rate of 'ideal', 'lossy' (per_gate), 'per_teleportation' (lossy)
    or 'measurement'."""
    if model == "measurement":
        return MEASUREMENT_TAIL
    if model == "per_teleportation":
        return chain_recursion("lossy", PER_TELEPORTATION)
    return chain_recursion(model)


class TestMeasurementRecursion:
    def test_endpoints(self):
        assert MEASUREMENT_TAIL(F(0)) == 0
        assert MEASUREMENT_TAIL(F(1)) == 1

    def test_quarter_point_exact(self):
        expected = binomial_tail(F(1, 4))
        assert expected == F(3991, 16384)
        assert MEASUREMENT_TAIL(F(1, 4)) == expected
        assert abs(float(expected) - 0.24359) < 1e-5

    def test_matches_oracle_on_grid(self):
        for k in range(0, 33):
            d = F(k, 32)
            assert MEASUREMENT_TAIL(d) == binomial_tail(d)

    def test_monotone_increasing(self):
        values = [MEASUREMENT_TAIL(F(k, 64)) for k in range(65)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSolveBreakEven:
    def test_square_map_fixed_point(self):
        result = solve_break_even(SQUARE, BreakEvenCondition.IDEAL_GATE, (F(1, 2), F(3, 2)))
        assert result.root == 1

    def test_measurement_fixed_point(self):
        result = solve_break_even(
            MEASUREMENT_TAIL,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
        )
        assert abs(float(result.root) - 0.2559) < 0.001
        # The commonly quoted 0.25 is a rounding of this fixed point, and
        # the recursion value there confirms it is not the exact root.
        assert MEASUREMENT_TAIL(F(1, 4)) != F(1, 4)
        assert result.bracket[1] - result.bracket[0] <= F(1, 10**6)

    def test_reference_lossy_polynomial_root(self):
        result = solve_break_even(
            REFERENCE_SERIES_LOSSY,
            BreakEvenCondition.LOSSY_GATE,
            (F(1, 100), F(3, 100)),
        )
        assert abs(float(result.root) - 0.0178) < 0.0005

    def test_reference_ideal_polynomial_has_no_fixed_point(self):
        with pytest.raises(NoSignChange):
            solve_break_even(
                REFERENCE_SERIES_IDEAL,
                BreakEvenCondition.IDEAL_GATE,
                (F(1, 1000), F(1, 5)),
            )

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            solve_break_even(IDENTITY, BreakEvenCondition.IDEAL_GATE, (F(1, 2), F(1, 4)))

    def test_tolerance_refinement_nests(self):
        # Halving the tolerance must keep the root inside the wider bracket.
        coarse = solve_break_even(
            MEASUREMENT_TAIL,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
            tol=F(1, 10**4),
        )
        fine = solve_break_even(
            MEASUREMENT_TAIL,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
            tol=F(1, 2 * 10**4),
        )
        assert coarse.bracket[0] <= fine.bracket[0]
        assert fine.bracket[1] <= coarse.bracket[1]
        assert coarse.bracket[0] <= fine.root <= coarse.bracket[1]

    def test_exact_hit_returns_degenerate_bracket(self):
        result = solve_break_even(
            FailureRate([-1, 4], [2]),  # 2x - 1/2
            BreakEvenCondition.IDEAL_GATE,
            (F(0), F(1)),
        )
        assert result.root == F(1, 2)
        assert result.bracket == (F(1, 2), F(1, 2))

    def test_lossy_target_built_once(self, monkeypatch):
        # The break-even line is one polynomial, not a marginal rebuilt at
        # every bisection step.
        rate = rate_of("lossy")
        calls = []
        marginals = erasure_model.qubit_marginals

        def spy(params, config=None):
            calls.append(params)
            return marginals(params, config)

        monkeypatch.setattr(erasure_model, "qubit_marginals", spy)
        monkeypatch.setattr(threshold_solver, "qubit_marginals", spy)
        condition = BreakEvenCondition.LOSSY_GATE
        result = solve_break_even(rate, condition, default_bracket(condition))
        assert result.iterations > 1
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "model, condition, config",
        [
            ("ideal", BreakEvenCondition.IDEAL_GATE, None),
            ("lossy", BreakEvenCondition.LOSSY_GATE, None),
            (
                "lossy",
                BreakEvenCondition.LOSSY_GATE,
                FaultModel(construction=Construction.PER_TELEPORTATION),
            ),
            ("measurement", BreakEvenCondition.MEASUREMENT, None),
        ],
        ids=["ideal", "lossy", "per_teleportation", "measurement"],
    )
    def test_bisection_reads_target_on_integers(self, model, condition, config, monkeypatch):
        # Both sides of g = rate - target are FailureRates, so no step
        # substitutes into a Poly.
        rate = rate_of(model) if config is None else chain_recursion(model, config)

        def forbidden(*args, **kwargs):
            raise AssertionError("Poly.evaluate called")

        monkeypatch.setattr(Poly, "evaluate", forbidden)
        result = solve_break_even(rate, condition, default_bracket(condition), config=config)
        assert result.iterations > 1
        with pytest.raises(NoSignChange) as raised:
            solve_break_even(rate, condition, (F(1, 1000), F(1, 999)), config=config)
        assert raised.value.target == condition.target(config)


class TestConcatProjection:
    def test_zero_stays_zero(self):
        rates = concat_projection(MEASUREMENT_TAIL, F(0), 5)
        assert rates == oracle_floats(MEASUREMENT_TAIL, F(0), 5) == [0.0] * 5

    def test_exact_fixed_point_is_constant(self):
        rates = concat_projection(SQUARE, F(1), 4)
        assert rates == oracle_floats(SQUARE, F(1), 4) == [1.0] * 4

    def test_measurement_iteration_decreasing(self):
        rates = concat_projection(MEASUREMENT_TAIL, F(1, 10), 3)
        exact = exact_levels(MEASUREMENT_TAIL, F(1, 10), 3)
        assert exact[0] == binomial_tail(F(1, 10)) == F(51383, 2000000)
        assert rates == [float(x) for x in exact]
        assert abs(rates[0] - 0.0256915) < 1e-7
        assert rates[0] > rates[1] > rates[2]

    def test_below_threshold_decreases_above_increases(self):
        below = concat_projection(MEASUREMENT_TAIL, F(1, 5), 4)
        assert below == oracle_floats(MEASUREMENT_TAIL, F(1, 5), 4)
        assert all(a > b for a, b in zip([0.2] + below, below))
        above = concat_projection(MEASUREMENT_TAIL, F(27, 100), 2)
        assert above == oracle_floats(MEASUREMENT_TAIL, F(27, 100), 2)
        assert above[0] > 0.27

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            concat_projection(MEASUREMENT_TAIL, F(1, 10), -1)

    def test_quartic_map_iterates_past_the_old_bit_cap(self):
        # x^4 quadruples the bit length: level 10's exact rate is 1/3^(4^10),
        # with a denominator of about 1.66 million bits.
        rates = concat_projection(QUARTIC, F(1, 3), 10)
        assert rates == [float(F(1, 3 ** 4**k)) for k in range(1, 11)]

    def test_rate_at_the_old_bit_cap_iterates(self):
        at_cap = F(1, 2 ** (1 << 17))
        assert concat_projection(IDENTITY, at_cap, 2) == [float(at_cap)] * 2 == [0.0] * 2


class TestCertifiedConcat:
    @pytest.mark.parametrize("model", ["ideal", "lossy", "measurement"])
    @pytest.mark.parametrize(
        "eps0", [F(0), F(1, 1000), F(1, 19), F(2, 19), F(1, 4), F(9, 10), F(1)], ids=str
    )
    def test_matches_exact_oracle(self, model, eps0):
        rate = rate_of(model)
        assert concat_projection(rate, eps0, 3) == oracle_floats(rate, eps0, 3)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "measurement", "lossy", "per_teleportation"]),
        eps0=st.fractions(min_value=0, max_value=1, max_denominator=10**9),
        levels=st.integers(0, 3),
    )
    def test_matches_exact_oracle_at_random_rates(self, model, eps0, levels):
        # Level 3 of a lossy rate (degree 61 or 107) has millions of bits.
        if model in ("lossy", "per_teleportation"):
            levels = min(levels, 2)
        rate = rate_of(model)
        assert concat_projection(rate, eps0, levels) == oracle_floats(rate, eps0, levels)

    def test_exact_dyadic_level(self):
        # Level 1 from 1/4 is 3991/16384, kept exact: the next level is
        # evaluated on a degenerate interval.
        rates = concat_projection(MEASUREMENT_TAIL, F(1, 4), 2)
        assert rates[0] == 0.24359130859375 == F(3991, 16384)
        assert rates == oracle_floats(MEASUREMENT_TAIL, F(1, 4), 2)

    def test_rate_not_certified_monotone_rejected(self, monkeypatch, capsys):
        # D = 2^100 (2x - 1)^2 + 1 is positive, but its Bernstein
        # coefficients change sign and the rate 1/D peaks at x = 1/2.
        bump = FailureRate([1], [2**100 + 1, -(2**102), 2**102])
        assert not bump.nondecreasing()
        with pytest.raises(ValueError, match="certified nondecreasing"):
            concat_projection(bump, F(1, 3), 3)
        monkeypatch.setattr(cli, "chain_recursion", lambda model, config=None: bump)
        assert cli.main(["concat", "--model", "ideal", "--eps0", "1/3", "--levels", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "certified nondecreasing" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "model", ["ideal", "lossy", "per_teleportation", "alt_config", "measurement"]
    )
    def test_shipped_rates_are_certified(self, model):
        if model == "alt_config":
            alt = json.loads((REPO_ROOT / "perfbench" / "alt_config.json").read_text())
            rate = chain_recursion("lossy", FaultModel.from_json(alt))
        else:
            rate = rate_of(model)
        assert rate.nondecreasing()
        assert rate.at(F(0)) == 0 and rate.at(F(1)) == 1

    @pytest.mark.parametrize("model", ["lossy", "per_teleportation"])
    @pytest.mark.parametrize("eps0", [F(1, 10), F(99, 100)], ids=str)
    def test_ten_levels_above_threshold_take_one_64_bit_pass(self, model, eps0, monkeypatch):
        passes = []
        certified_levels = threshold_solver._certified_levels

        def spy(rate, x, levels, bits):
            passes.append(bits)
            return certified_levels(rate, x, levels, bits)

        monkeypatch.setattr(threshold_solver, "_certified_levels", spy)
        rate = rate_of(model)
        rates = concat_projection(rate, eps0, 10)
        assert passes == [64]
        assert rates[:2] == oracle_floats(rate, eps0, 2)
        assert all(x <= y <= 1 for x, y in zip([float(eps0)] + rates, rates))

    def test_singular_rate_rejected(self):
        with pytest.raises(ValueError, match="singular transient system"):
            concat_projection(FailureRate([0], [0, 1]), F(0), 1)

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"the rate leaves \[0, 1\]"):
            concat_projection(FailureRate([2], [1]), F(1, 3), 1)
        with pytest.raises(ValueError, match="eps0 must lie in"):
            concat_projection(IDENTITY, F(3, 2), 1)

    def test_levels_past_a_fixed_point_are_not_evaluated(self, monkeypatch):
        # Level 5 underflows to the 2^-1100 grid and level 6 rounds back to
        # the same interval, so levels 7-10 repeat its 0.0 unevaluated.
        # Two points check f(0) and f(1), one is level 1 at eps0, and
        # levels 2-6 take two each.
        calls = []
        point = FailureRate.point

        def spy(self, p, q):
            calls.append((p, q))
            return point(self, p, q)

        monkeypatch.setattr(FailureRate, "point", spy)
        rates = concat_projection(rate_of("per_teleportation"), F(1, 1000), 10)
        assert rates == [
            9.690759173744745e-07,
            8.536707284834112e-16,
            5.835445385871647e-43,
            1.8639096847047979e-124,
        ] + [0.0] * 6
        assert len(calls) == 13
        assert calls[-2:] == [(0, 2**1100), (1, 2**1100)]
        rates = concat_projection(rate_of("ideal"), F(1, 19), 10)
        assert rates[5:] == [1.3190024180416206e-283] + [0.0] * 4

    @pytest.mark.parametrize(
        "model, eps0, levels", [("ideal", F(1, 19), 7), ("lossy", F(1, 100), 5)]
    )
    def test_deep_levels_match_high_precision(self, model, eps0, levels):
        mpmath = pytest.importorskip("mpmath")
        rate = rate_of(model)

        def poly(coeffs, x):
            acc = mpmath.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        with mpmath.workdps(400):
            x, expected = mpmath.mpf(eps0.numerator) / eps0.denominator, []
            for _ in range(levels):
                x = poly(rate.N, x) / poly(rate.D, x)
                expected.append(float(x))
        assert concat_projection(rate, eps0, levels) == expected
        assert all(expected[:5])


class TestResultSerialization:
    def test_json_fields(self):
        result = solve_break_even(
            MEASUREMENT_TAIL,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
        )
        data = result.to_json()
        assert data["condition"] == "measurement"
        assert data["iterations"] > 0
        assert float(F(data["root"])) == data["root_float"]


def fraction_bisection(rate, condition, bracket, tol, config=None):
    """Reference bisection on Fractions: g = rate - target is built and
    compared at every midpoint.  Returns what ``solve_break_even`` returns,
    or the NoSignChange message."""
    lo, hi = F(bracket[0]), F(bracket[1])
    target = condition.target(config)
    g_lo, g_hi = rate(lo) - target(lo), rate(hi) - target(hi)
    if g_lo == 0:
        return (lo, (lo, lo), 0)
    if g_hi == 0:
        return (hi, (hi, hi), 0)
    if (g_lo < 0) == (g_hi < 0):
        return (
            f"no sign change on [{float(lo):.6g}, {float(hi):.6g}]: "
            f"g(lo)={float(g_lo):.6g}, g(hi)={float(g_hi):.6g}"
        )
    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        g_mid = rate(mid) - target(mid)
        iterations += 1
        if g_mid == 0:
            return (mid, (mid, mid), iterations)
        if (g_mid < 0) == (g_lo < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return ((lo + hi) / 2, (lo, hi), iterations)


def integer_bisection(rate, condition, bracket, tol, config=None):
    try:
        result = solve_break_even(rate, condition, bracket, tol, config)
    except NoSignChange as exc:
        return str(exc)
    return (result.root, result.bracket, result.iterations)


class TestIntegerSigns:
    """The bisection reads sign(n*b - a*d) from the two sides' unreduced
    points; midpoints, iterations, bracket and messages are those of the
    Fraction bisection."""

    @pytest.mark.parametrize(
        "model, condition, config",
        [
            ("ideal", BreakEvenCondition.IDEAL_GATE, None),
            ("lossy", BreakEvenCondition.LOSSY_GATE, None),
            ("per_teleportation", BreakEvenCondition.LOSSY_GATE, PER_TELEPORTATION),
            ("measurement", BreakEvenCondition.MEASUREMENT, None),
        ],
    )
    @pytest.mark.parametrize("tol", [F(1, 10**6), F(1, 10**12), F(3, 7)], ids=str)
    def test_chain_rates(self, model, condition, config, tol):
        rate = rate_of(model)
        for bracket in (default_bracket(condition), (F(1, 1000), F(1, 999))):
            assert integer_bisection(rate, condition, bracket, tol, config) == fraction_bisection(
                rate, condition, bracket, tol, config
            )

    @pytest.mark.parametrize(
        "rate, bracket, tol",
        [
            (FailureRate([-1, 4], [2]), (F(0), F(1)), F(1, 10)),  # hits 1/2 on step 1
            (FailureRate([-1, 4], [2]), (F(1, 2), F(3, 4)), F(1, 10)),  # root at lo
            (FailureRate([-3, 8], [4]), (F(1, 8), F(3, 4)), F(1, 100)),  # root at hi
            (SQUARE, (F(1, 2), F(7, 4)), F(5, 8)),  # width exactly tol after one step
            (SQUARE, (F(1, 2), F(7, 4)), F(5, 32)),  # and after three
            (SQUARE, (F(1, 3), F(5, 3)), F(1, 6)),  # hits 1 on step 1
            (QUARTIC, (F(-1, 3), F(1, 3)), F(1, 10)),  # hits 0 on step 1
            (QUARTIC, (F(1, 3), F(1, 2)), F(1, 10)),  # no sign change
            (REFERENCE_SERIES_IDEAL, (F(1, 1000), F(1, 5)), F(1, 10**6)),
            (REFERENCE_SERIES_LOSSY, (F(1, 100), F(3, 100)), F(1, 10**6)),
        ],
    )
    def test_edge_brackets(self, rate, bracket, tol):
        condition = BreakEvenCondition.IDEAL_GATE
        expected = fraction_bisection(rate, condition, bracket, tol)
        assert integer_bisection(rate, condition, bracket, tol) == expected

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        lo=st.fractions(0, 1, max_denominator=60),
        width=st.fractions(F(1, 60), 1, max_denominator=60),
        tol=st.fractions(F(1, 10**4), F(1, 2), max_denominator=10**4),
    )
    def test_random_brackets(self, lo, width, tol):
        condition = BreakEvenCondition.MEASUREMENT
        bracket = (lo, lo + width)
        expected = fraction_bisection(MEASUREMENT_TAIL, condition, bracket, tol)
        assert integer_bisection(MEASUREMENT_TAIL, condition, bracket, tol) == expected
