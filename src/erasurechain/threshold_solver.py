"""Break-even fixed points of the encoded-error recursions.

A threshold is the noise rate where one level of encoding stops helping:

    ideal gate    eps^(1) = eps
    lossy gate    eps^(1) = F(eps)    (encoded failures are counted as
                                       encoded full erasures, so they are
                                       compared with F, the per-qubit
                                       full-erasure marginal of one encoded
                                       gate: eps/2 under the default per_gate
                                       construction, eps under
                                       per_teleportation)
    measurement   delta^(1) = delta

Roots are found by exact bisection on Fraction arithmetic; the recursion
callables themselves are exact (the chain's rational function N/D or fixed
reference polynomials), so a sign is never ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Callable, List, Tuple

from .exact_arith import Poly

Recursion = Callable[[Fraction], Fraction]


class BreakEvenCondition(Enum):
    IDEAL_GATE = "ideal_gate"        # eps^(1) = eps
    LOSSY_GATE = "lossy_gate"        # eps^(1) = full-erasure marginal
    MEASUREMENT = "measurement"      # delta^(1) = delta

    def target(self, x: Fraction, config=None) -> Fraction:
        """Break-even value at rate x; ``config`` picks the construction."""
        if self is BreakEvenCondition.LOSSY_GATE:
            from .erasure_model import Erasure, ModelParams, qubit_marginals

            marginals = qubit_marginals(ModelParams.lossy_diagonal(x), config)
            return marginals[Erasure.FULL].evaluate(0, 0)
        return x


class NoSignChange(Exception):
    """The bracket does not straddle a fixed point of the recursion."""


@dataclass(frozen=True)
class ThresholdResult:
    root: Fraction
    bracket: Tuple[Fraction, Fraction]
    iterations: int
    condition: BreakEvenCondition

    def to_json(self) -> dict:
        return {
            "condition": self.condition.value,
            "root": str(self.root),
            "root_float": float(self.root),
            "bracket": [str(self.bracket[0]), str(self.bracket[1])],
            "bracket_float": [float(self.bracket[0]), float(self.bracket[1])],
            "iterations": self.iterations,
        }


# Commonly quoted reference values for this correction scheme, kept for
# side-by-side reporting; computed roots are never calibrated to them.
REFERENCE_THRESHOLDS = {
    "ideal": 0.115,
    "lossy": 0.0178,
    "measurement": 0.25,
}

# Reference truncated recursions (coefficients of eps^3..eps^6).  They are
# comparison targets for the full-chain series and solver fixtures; the
# quoted lossy threshold is consistent with its polynomial, while the ideal
# polynomial truncation turns negative well below its quoted threshold and
# therefore has no fixed point at all in (0, 0.2).
REFERENCE_SERIES_IDEAL = Poly(
    {(3, 0): Fraction(56), (4, 0): Fraction(406), (5, 0): Fraction(3878), (6, 0): Fraction(-129675)}
)
REFERENCE_SERIES_LOSSY = Poly(
    {(3, 0): Fraction(1050), (4, 0): Fraction(33173), (5, 0): Fraction(-46242), (6, 0): Fraction(-6861701)}
)


def measurement_recursion(delta: Fraction) -> Fraction:
    """Encoded measurement failure rate: binomial tail over weight >= 3.

    Encoded basis states are codeword superpositions of a [7,4,3] classical
    code, so lost single-qubit readouts act as classical erasures; weight
    <= 2 losses are always decodable and everything heavier is counted as
    an encoded failure.
    """
    d = Fraction(delta)
    if not 0 <= d <= 1:
        raise ValueError("delta must lie in [0, 1]")
    total = Fraction(0)
    for i in range(3, 8):
        total += comb(7, i) * d**i * (1 - d) ** (7 - i)
    return total


def solve_break_even(
    recursion: Recursion,
    condition: BreakEvenCondition,
    bracket: Tuple[Fraction, Fraction],
    tol: Fraction = Fraction(1, 10**6),
    config=None,
) -> ThresholdResult:
    """Bisection for recursion(x) = condition(x) inside the bracket.

    Requires a sign change of recursion(x) - condition(x) across the
    bracket and tightens it to width <= tol; exact arithmetic makes the
    procedure deterministic.  ``config`` is the FaultModel whose
    construction sets the lossy-gate target (default accounting if None).
    """
    lo, hi = Fraction(bracket[0]), Fraction(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")

    g_lo = recursion(lo) - condition.target(lo, config)
    g_hi = recursion(hi) - condition.target(hi, config)
    if g_lo == 0:
        return ThresholdResult(lo, (lo, lo), 0, condition)
    if g_hi == 0:
        return ThresholdResult(hi, (hi, hi), 0, condition)
    if (g_lo < 0) == (g_hi < 0):
        raise NoSignChange(
            f"no sign change on [{float(lo):.6g}, {float(hi):.6g}]: "
            f"g(lo)={float(g_lo):.6g}, g(hi)={float(g_hi):.6g}"
        )

    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        g_mid = recursion(mid) - condition.target(mid, config)
        iterations += 1
        if g_mid == 0:
            return ThresholdResult(mid, (mid, mid), iterations, condition)
        if (g_mid < 0) == (g_lo < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return ThresholdResult((lo + hi) / 2, (lo, hi), iterations, condition)


# Largest denominator, in bits, of a rate that concat_projection feeds to
# the recursion.  Each level multiplies the bit length (by about 16 for the
# ideal chain, 40 for the lossy one and 7 for measurement), and a level
# past this size takes minutes or does not finish.
MAX_RATE_BITS = 1 << 17


def concat_projection(
    recursion: Recursion, eps0: Fraction, levels: int
) -> List[Fraction]:
    """Per-level failure rates from iterating the level-1 recursion.

    Worst-case assumption: every concatenation level sees the same encoded
    error model, so level k is the recursion applied k times.  A level
    whose input rate has a denominator of more than MAX_RATE_BITS bits is
    a ValueError naming that level.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    rates: List[Fraction] = []
    x = Fraction(eps0)
    for level in range(1, levels + 1):
        bits = x.denominator.bit_length()
        if bits > MAX_RATE_BITS:
            raise ValueError(
                f"level {level}: its input rate has a {bits}-bit denominator, "
                f"more than {MAX_RATE_BITS} bits"
            )
        x = recursion(x)
        rates.append(x)
    return rates


def polynomial_recursion(poly: Poly) -> Recursion:
    """Wrap a single-variable polynomial as a recursion callable."""

    def rec(x: Fraction) -> Fraction:
        return poly.evaluate(x, x)

    return rec


def chain_recursion(model_name: str, config=None) -> Recursion:
    """Exact full-chain recursion for 'ideal' or 'lossy' (delta = eps)."""
    from .correction_circuits import DEFAULT_FAULT_MODEL
    from .erasure_model import ModelParams
    from .markov_engine import build_chain, failure_rate

    if model_name == "ideal":
        params = ModelParams.ideal()
    elif model_name == "lossy":
        params = ModelParams.lossy_diagonal()
    else:
        raise ValueError("model must be 'ideal' or 'lossy'")
    cfg = config if config is not None else DEFAULT_FAULT_MODEL
    return failure_rate(build_chain(params, config=cfg)).at


def default_bracket(condition: BreakEvenCondition) -> Tuple[Fraction, Fraction]:
    if condition is BreakEvenCondition.MEASUREMENT:
        return (Fraction(1, 10), Fraction(2, 5))
    if condition is BreakEvenCondition.LOSSY_GATE:
        return (Fraction(1, 1000), Fraction(1, 4))
    return (Fraction(1, 100), Fraction(1, 4))
