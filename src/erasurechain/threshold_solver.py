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

Every rate is a ``FailureRate`` N/D: the chain's exact rational function,
the measurement binomial tail, or a reference polynomial (D = 1), and so
is every break-even line, so both sides are read by integer Horner.  Roots
are found by exact bisection on the integer sign of rate - target at each
midpoint, so a sign is never ambiguous.

Concatenation iterates a rate N/D level by level.  The exact level-k rate
grows 7-40x in bit length per level, so ``concat_projection`` carries an
outward-rounded interval of bounded precision instead and returns each
level's double, proven to be ``float()`` of the exact rate.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .erasure_model import Erasure, ModelParams, qubit_marginals
from .markov_engine import FailureRate, _eps_row, build_chain, failure_rate


class BreakEvenCondition(Enum):
    IDEAL_GATE = "ideal_gate"        # eps^(1) = eps
    LOSSY_GATE = "lossy_gate"        # eps^(1) = full-erasure marginal
    MEASUREMENT = "measurement"      # delta^(1) = delta

    def target(self, config=None) -> FailureRate:
        """The break-even line as a rate, read by the same integer Horner as
        the recursion; ``config`` picks the construction."""
        if self is BreakEvenCondition.LOSSY_GATE:
            full = qubit_marginals(ModelParams.lossy_diagonal(), config)[Erasure.FULL]
            (coeffs,), scale = _eps_row([full])
            return FailureRate(coeffs, [scale])
        return FailureRate([0, 1], [1])


class NoSignChange(Exception):
    """The bracket does not straddle a fixed point of the recursion;
    ``target`` is the break-even line the recursion was compared with."""

    def __init__(self, message: str, target: FailureRate):
        super().__init__(message)
        self.target = target


class ThresholdResult(NamedTuple):
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
REFERENCE_SERIES_IDEAL = FailureRate([0, 0, 0, 56, 406, 3878, -129675], [1])
REFERENCE_SERIES_LOSSY = FailureRate([0, 0, 0, 1050, 33173, -46242, -6861701], [1])


# Encoded measurement failure rate: the binomial tail
# sum_{i>=3} C(7, i) delta^i (1 - delta)^(7 - i).  Encoded basis states are
# codeword superpositions of a [7,4,3] classical code, so lost single-qubit
# readouts act as classical erasures; weight <= 2 losses are always
# decodable and everything heavier is counted as an encoded failure.
MEASUREMENT_TAIL = FailureRate([0, 0, 0, 35, -105, 126, -70, 15], [1])


def solve_break_even(
    rate: FailureRate,
    condition: BreakEvenCondition,
    bracket: Tuple[Fraction, Fraction],
    tol: Fraction = Fraction(1, 10**6),
    config=None,
) -> ThresholdResult:
    """Bisection for rate(x) = condition(x) inside the bracket.

    Requires a sign change of rate(x) - condition(x) across the bracket
    and tightens it to width <= tol; exact arithmetic makes the procedure
    deterministic.  ``rate`` is anything with ``FailureRate.point``; the
    sign of rate - target at p/q is that of n*b - a*d for the unreduced
    (n, d) and (a, b) the two give there, with d, b > 0.  The bracket is
    carried as integer numerators over one denominator that doubles per
    step, so no midpoint builds or reduces a Fraction.  ``config`` is the
    FaultModel whose construction sets the lossy-gate target (default
    accounting if None).
    """
    lo, hi = Fraction(bracket[0]), Fraction(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")

    target = condition.target(config)

    def g(p: int, q: int) -> Tuple[int, int]:
        """rate - target at p/q as (numerator, denominator > 0), unreduced."""
        n, d = rate.point(p, q)
        a, b = target.point(p, q)
        return n * b - a * d, d * b

    # The bracket is [a/q, b/q].
    q = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    (g_lo, d_lo), (g_hi, d_hi) = g(a, q), g(b, q)
    if not g_lo:
        return ThresholdResult(lo, (lo, lo), 0, condition)
    if not g_hi:
        return ThresholdResult(hi, (hi, hi), 0, condition)
    negative = g_lo < 0
    if negative == (g_hi < 0):
        raise NoSignChange(
            f"no sign change on [{float(lo):.6g}, {float(hi):.6g}]: "
            f"g(lo)={float(Fraction(g_lo, d_lo)):.6g}, g(hi)={float(Fraction(g_hi, d_hi)):.6g}",
            target,
        )

    # Halve until hi - lo <= tol = t/u; each step doubles q.
    t, u = tol.numerator, tol.denominator
    iterations = 0
    while (b - a) * u > t * q:
        mid, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        g_mid = g(mid, q)[0]
        iterations += 1
        if not g_mid:
            root = Fraction(mid, q)
            return ThresholdResult(root, (root, root), iterations, condition)
        if (g_mid < 0) == negative:
            a = mid
        else:
            b = mid
    bracket = (Fraction(a, q), Fraction(b, q))
    return ThresholdResult(Fraction(a + b, 2 * q), bracket, iterations, condition)


# Finest grid, 2^-_GRID_BITS, that concat_projection rounds a rate to: below
# the smallest subnormal double, 2^-1074, so a rate that underflows still
# gets its double, yet is carried in no more bits than one that does not.
_GRID_BITS = 1100


def concat_projection(rate: FailureRate, eps0: Fraction, levels: int) -> List[float]:
    """Per-level failure rates from iterating the level-1 rate, as doubles.

    Worst-case assumption: every concatenation level sees the same encoded
    error model, so level k is the rate function applied k times.  Each
    returned double is ``float()`` of that exact level-k rational, proven
    by interval enclosure (Moore, *Interval Analysis*, 1966) rather than by
    carrying the rationals, whose bit length grows 7-40x per level.

    ``rate`` must be certified nondecreasing on [0, 1] with f(0) >= 0 and
    f(1) <= 1, checked once (else ValueError).  It then maps [lo, hi] in
    [0, 1] onto [f(lo), f(hi)] in [0, 1], so each level's enclosure is the
    exact rate (``FailureRate.point``) at the last level's two ends, or at
    its one point.  That interval is rounded outward to ``bits``
    significant bits on a grid no finer than 2^-1100, or kept exact if its
    numerator and denominator fit in ``bits`` bits.  Rounding to the
    nearest double is monotone, so two ends that round to one double give
    the exact rate's.  Otherwise every level is recomputed from eps0 with
    twice the bits, starting from 64; with enough bits every rate is kept
    exact, so the loop ends.  A level whose rounded interval equals the one
    it started from, such as one that underflows to 0 on the 2^-1100 grid,
    is a fixed point: its double is repeated for every later level.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    x = Fraction(eps0)
    if not 0 <= x <= 1:
        raise ValueError("eps0 must lie in [0, 1]")
    (n0, _), (n1, d1) = rate.point(0, 1), rate.point(1, 1)
    if n0 < 0 or n1 > d1:
        raise ValueError("the rate leaves [0, 1]: f(0) < 0 or f(1) > 1")
    if not rate.nondecreasing():
        raise ValueError("concat needs a rate certified nondecreasing on [0, 1]")
    bits = 64
    while True:
        rates = _certified_levels(rate, x, levels, bits)
        if rates is not None:
            return rates
        bits *= 2


def _certified_levels(
    rate: FailureRate, x: Fraction, levels: int, bits: int
) -> Optional[List[float]]:
    """Each level's proven double at ``bits`` of precision, or None."""
    lo = hi = x.numerator  # the rate lies in [lo/q, hi/q]
    q = x.denominator
    out: List[float] = []
    for level in range(1, levels + 1):
        state = (lo, hi, q)
        a, b = rate.point(lo, q)
        c, d = (a, b) if lo == hi else rate.point(hi, q)
        if (a, b) == (c, d):
            exact = Fraction(a, b)
            lo = hi = exact.numerator
            q = exact.denominator
        if (a, b) != (c, d) or max(lo.bit_length(), q.bit_length()) > bits:
            shift = min(bits - c.bit_length() + d.bit_length(), _GRID_BITS)
            lo = (a << shift) // b
            hi = -((-c << shift) // d)
            q = 1 << shift
            if lo / q != hi / q:
                return None
        out.append(lo / q)
        if (lo, hi, q) == state:
            # Each level's state is a function of the last one's, so a level
            # that returns its own state repeats it, and its double, forever.
            out.extend([out[-1]] * (levels - level))
            return out
    return out


def chain_recursion(model_name: str, config=None) -> FailureRate:
    """Exact full-chain rate N/D for 'ideal' or 'lossy' (delta = eps)."""
    if model_name == "ideal":
        params = ModelParams.ideal()
    elif model_name == "lossy":
        params = ModelParams.lossy_diagonal()
    else:
        raise ValueError("model must be 'ideal' or 'lossy'")
    return failure_rate(build_chain(params, config=config))


def default_bracket(condition: BreakEvenCondition) -> Tuple[Fraction, Fraction]:
    if condition is BreakEvenCondition.MEASUREMENT:
        return (Fraction(1, 10), Fraction(2, 5))
    if condition is BreakEvenCondition.LOSSY_GATE:
        return (Fraction(1, 1000), Fraction(1, 4))
    return (Fraction(1, 100), Fraction(1, 4))
