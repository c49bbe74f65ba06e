from fractions import Fraction as F
from math import comb

import pytest

from erasurechain.threshold_solver import (
    BreakEvenCondition,
    MAX_RATE_BITS,
    NoSignChange,
    REFERENCE_SERIES_IDEAL,
    REFERENCE_SERIES_LOSSY,
    concat_projection,
    default_bracket,
    measurement_recursion,
    polynomial_recursion,
    solve_break_even,
)


def binomial_tail(d: F) -> F:
    """Independent oracle for the measurement recursion."""
    return sum(comb(7, i) * d**i * (1 - d) ** (7 - i) for i in range(3, 8))


class TestMeasurementRecursion:
    def test_endpoints(self):
        assert measurement_recursion(F(0)) == 0
        assert measurement_recursion(F(1)) == 1

    def test_quarter_point_exact(self):
        expected = binomial_tail(F(1, 4))
        assert expected == F(3991, 16384)
        assert measurement_recursion(F(1, 4)) == expected
        assert abs(float(expected) - 0.24359) < 1e-5

    def test_matches_oracle_on_grid(self):
        for k in range(0, 33):
            d = F(k, 32)
            assert measurement_recursion(d) == binomial_tail(d)

    def test_monotone_increasing(self):
        values = [measurement_recursion(F(k, 64)) for k in range(65)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            measurement_recursion(F(-1, 10))


class TestSolveBreakEven:
    def test_square_map_fixed_point(self):
        result = solve_break_even(
            lambda x: x * x, BreakEvenCondition.IDEAL_GATE, (F(1, 2), F(3, 2))
        )
        assert result.root == 1

    def test_measurement_fixed_point(self):
        result = solve_break_even(
            measurement_recursion,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
        )
        assert abs(float(result.root) - 0.2559) < 0.001
        # The commonly quoted 0.25 is a rounding of this fixed point, and
        # the recursion value there confirms it is not the exact root.
        assert measurement_recursion(F(1, 4)) != F(1, 4)
        assert result.bracket[1] - result.bracket[0] <= F(1, 10**6)

    def test_reference_lossy_polynomial_root(self):
        result = solve_break_even(
            polynomial_recursion(REFERENCE_SERIES_LOSSY),
            BreakEvenCondition.LOSSY_GATE,
            (F(1, 100), F(3, 100)),
        )
        assert abs(float(result.root) - 0.0178) < 0.0005

    def test_reference_ideal_polynomial_has_no_fixed_point(self):
        with pytest.raises(NoSignChange):
            solve_break_even(
                polynomial_recursion(REFERENCE_SERIES_IDEAL),
                BreakEvenCondition.IDEAL_GATE,
                (F(1, 1000), F(1, 5)),
            )

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            solve_break_even(
                lambda x: x, BreakEvenCondition.IDEAL_GATE, (F(1, 2), F(1, 4))
            )

    def test_tolerance_refinement_nests(self):
        # Halving the tolerance must keep the root inside the wider bracket.
        coarse = solve_break_even(
            measurement_recursion,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
            tol=F(1, 10**4),
        )
        fine = solve_break_even(
            measurement_recursion,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
            tol=F(1, 2 * 10**4),
        )
        assert coarse.bracket[0] <= fine.bracket[0]
        assert fine.bracket[1] <= coarse.bracket[1]
        assert coarse.bracket[0] <= fine.root <= coarse.bracket[1]

    def test_exact_hit_returns_degenerate_bracket(self):
        result = solve_break_even(
            lambda x: 2 * x - F(1, 2),
            BreakEvenCondition.IDEAL_GATE,
            (F(0), F(1)),
        )
        assert result.root == F(1, 2)
        assert result.bracket == (F(1, 2), F(1, 2))


class TestConcatProjection:
    def test_zero_stays_zero(self):
        rates = concat_projection(measurement_recursion, F(0), 5)
        assert rates == [F(0)] * 5

    def test_exact_fixed_point_is_constant(self):
        rates = concat_projection(lambda x: x * x, F(1), 4)
        assert rates == [F(1)] * 4

    def test_measurement_iteration_decreasing(self):
        rates = concat_projection(measurement_recursion, F(1, 10), 3)
        assert rates[0] == binomial_tail(F(1, 10))
        assert rates[0] == F(51383, 2000000)
        assert abs(float(rates[0]) - 0.0256915) < 1e-7
        assert rates[0] > rates[1] > rates[2]

    def test_below_threshold_decreases_above_increases(self):
        below = concat_projection(measurement_recursion, F(1, 5), 4)
        assert all(a > b for a, b in zip([F(1, 5)] + below, below))
        above = concat_projection(measurement_recursion, F(27, 100), 2)
        assert above[0] > F(27, 100)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            concat_projection(measurement_recursion, F(1, 10), -1)

    def test_oversized_input_rate_rejected(self):
        # x^4 quadruples the bit length: level 9 starts from 1/3^65536
        # (103,872 bits), level 10 from 1/3^262144.
        rates = concat_projection(lambda x: x**4, F(1, 3), 9)
        assert rates[-1] == F(1, 3 ** 4**9)
        with pytest.raises(ValueError, match=r"^level 10: .*415489-bit"):
            concat_projection(lambda x: x**4, F(1, 3), 10)

    def test_rate_bit_limit_is_inclusive(self):
        at_limit = F(1, 2 ** (MAX_RATE_BITS - 1))
        assert concat_projection(lambda x: x, at_limit, 1) == [at_limit]
        with pytest.raises(ValueError, match=r"^level 1: "):
            concat_projection(lambda x: x, at_limit / 2, 1)


class TestResultSerialization:
    def test_json_fields(self):
        result = solve_break_even(
            measurement_recursion,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
        )
        data = result.to_json()
        assert data["condition"] == "measurement"
        assert data["iterations"] > 0
        assert float(F(data["root"])) == data["root_float"]
