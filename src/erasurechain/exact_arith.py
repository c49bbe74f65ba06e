"""Exact sparse polynomial arithmetic over the rationals in two noise variables.

Every probability in the exact engine is a polynomial in the gate failure
rate ``eps`` and the per-detector loss rate ``delta``, with exact rational
coefficients.  A polynomial is stored as a dict mapping exponent pairs to
coefficients:

    terms: Dict[(eps_degree, delta_degree), int | Fraction]

The zero polynomial is the empty dict; zero coefficients are never stored.
A coefficient has one canonical form: an ``int`` when it is integral (most
are), otherwise a ``Fraction`` in lowest terms with denominator > 1, so
integer products and sums never build a ``Fraction``.  Floats, bools and
strings are rejected with ``TypeError``.
All operations are exact, so identities like row-stochasticity of a
transition matrix can be asserted with ``==`` rather than a tolerance.

Single-variable polynomials (for runs that substitute delta = eps, or for
the ideal model where delta = 0) are just the special case where every
stored delta_degree is zero.  ``Substitution`` maps many polynomials
through one pair of values for eps and delta, sharing the powers it builds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Dict, Iterable, List, Tuple

Exponent = Tuple[int, int]

RationalLike = int | Fraction


class Poly:
    """Sparse bivariate polynomial with exact rational coefficients.

    Each stored coefficient is a nonzero ``int``, or a ``Fraction`` whose
    denominator is > 1; equal polynomials have equal ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponent, RationalLike] | None = None):
        clean: Dict[Exponent, RationalLike] = {}
        if terms:
            for exp, coeff in terms.items():
                if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"Poly coefficients must be ints or Fractions, got {coeff!r}")
                if coeff:
                    coeff = coeff.numerator if coeff.denominator == 1 else coeff
                    clean[(int(exp[0]), int(exp[1]))] = coeff
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(0, 0): 1})

    @staticmethod
    def constant(value: RationalLike) -> "Poly":
        return Poly({(0, 0): value})

    @staticmethod
    def eps() -> "Poly":
        return Poly({(1, 0): 1})

    @staticmethod
    def delta() -> "Poly":
        return Poly({(0, 1): 1})

    @staticmethod
    def monomial(eps_deg: int, delta_deg: int, coeff: RationalLike = 1) -> "Poly":
        return Poly({(eps_deg, delta_deg): coeff})

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        other = coerce(other)
        out = dict(self.terms)
        get = out.get
        for exp, coeff in other.terms.items():
            prev = get(exp)
            if prev is None:
                out[exp] = coeff
            else:
                s = prev + coeff
                if s:
                    out[exp] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
                else:
                    del out[exp]
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        result = Poly.__new__(Poly)
        result.terms = {exp: -c for exp, c in self.terms.items()}
        return result

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        return self + (-coerce(other))

    def __rsub__(self, other: "Poly | RationalLike") -> "Poly":
        return coerce(other) + (-self)

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        other = coerce(other)
        if not self.terms or not other.terms:
            return Poly.zero()
        out: Dict[Exponent, RationalLike] = {}
        get = out.get
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                exp = (i1 + i2, j1 + j2)
                prev = get(exp)
                if prev is None:
                    out[exp] = c1 * c2
                else:
                    s = prev + c1 * c2
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        for exp, c in out.items():
            if type(c) is Fraction and c.denominator == 1:
                out[exp] = c.numerator
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "Poly":
        """Each term divided by the nonzero int ``k``, one reduction per term
        (``p * Fraction(1, k)`` reduces twice per term)."""
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"a Poly divides only by an int, got {k!r}")
        if not k:
            raise ZeroDivisionError("Poly division by zero")
        out: Dict[Exponent, RationalLike] = {}
        for exp, c in self.terms.items():
            q = Fraction(c.numerator, c.denominator * k)
            out[exp] = q.numerator if q.denominator == 1 else q
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    @staticmethod
    def sum(polys: Iterable["Poly"]) -> "Poly":
        """The sum of ``polys``, one reduction per term: a term's
        coefficients are added as numerators over the lcm of their
        denominators, where a chain of ``+`` reduces a ``Fraction`` at
        every step."""
        parts: Dict[Exponent, List[RationalLike]] = {}
        for p in polys:
            for exp, c in p.terms.items():
                group = parts.get(exp)
                if group is None:
                    parts[exp] = [c]
                else:
                    group.append(c)
        out: Dict[Exponent, RationalLike] = {}
        for exp, group in parts.items():
            if len(group) == 1:
                out[exp] = group[0]
                continue
            den = lcm(*[c.denominator for c in group])
            if den == 1:
                total = sum(group)
            else:
                total = Fraction(sum([c.numerator * (den // c.denominator) for c in group]), den)
                total = total.numerator if total.denominator == 1 else total
            if total:
                out[exp] = total
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def coefficient(self, eps_deg: int, delta_deg: int = 0) -> RationalLike:
        return self.terms.get((eps_deg, delta_deg), 0)

    def key(self) -> tuple:
        """Canonical hashable form, usable as a dict key or for sorting."""
        return tuple(sorted(self.terms.items()))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, eps: RationalLike, delta: RationalLike = 0) -> Fraction:
        """Exact substitution of rational values for both variables."""
        e = Fraction(eps)
        d = Fraction(delta)
        total = Fraction(0)
        for (i, j), coeff in self.terms.items():
            total += coeff * e**i * d**j
        return total

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> list:
        """Wire format: list of {eps_deg, delta_deg, num, den}, ints as strings."""
        return [
            {
                "eps_deg": i,
                "delta_deg": j,
                "num": str(c.numerator),
                "den": str(c.denominator),
            }
            for (i, j), c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(data: list) -> "Poly":
        terms: Dict[Exponent, RationalLike] = {}
        for entry in data:
            exp = (int(entry["eps_deg"]), int(entry["delta_deg"]))
            terms[exp] = Fraction(int(entry["num"]), int(entry["den"]))
        return Poly(terms)

    def __repr__(self) -> str:
        return f"Poly({self!s})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i == 1:
                factors.append("eps")
            elif i > 1:
                factors.append(f"eps^{i}")
            if j == 1:
                factors.append("delta")
            elif j > 1:
                factors.append(f"delta^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


class Substitution:
    """The ring map p(eps, delta) -> p(x, y) for fixed polynomials x and y.

    Each monomial x^i * y^j is expanded once, on its first use, from powers
    of x and y that are also built once, and shared by every polynomial the
    map is applied to.  Applying it is one pass over the polynomial's terms
    into one terms dict; no zero coefficient is stored.
    """

    __slots__ = ("_powers", "_monomials")

    def __init__(self, x: "Poly | RationalLike", y: "Poly | RationalLike"):
        self._powers: Tuple[List[Poly], List[Poly]] = (
            [Poly.one(), coerce(x)],
            [Poly.one(), coerce(y)],
        )
        self._monomials: Dict[Exponent, Dict[Exponent, RationalLike]] = {}

    def _power(self, axis: int, k: int) -> Poly:
        powers = self._powers[axis]
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def _monomial(self, exp: Exponent) -> Dict[Exponent, RationalLike]:
        terms = (self._power(0, exp[0]) * self._power(1, exp[1])).terms
        self._monomials[exp] = terms
        return terms

    def __call__(self, p: Poly) -> Poly:
        monomials = self._monomials
        out: Dict[Exponent, RationalLike] = {}
        get = out.get
        for exp, coeff in p.terms.items():
            terms = monomials.get(exp)
            if terms is None:
                terms = self._monomial(exp)
            for e, c in terms.items():
                prev = get(e)
                out[e] = coeff * c if prev is None else prev + coeff * c
        result = Poly.__new__(Poly)
        result.terms = {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in out.items()
            if c
        }
        return result


def coerce(value: "Poly | RationalLike") -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)


def bernstein_coefficients(coeffs: List[int]) -> List[int]:
    """C(n, k) b_k for k = 0..n, where p(x) = sum c_i x^i = sum b_k C(n, k)
    x^k (1 - x)^(n - k) and n = len(coeffs) - 1.

    They are the coefficients of (1 + t)^n p(1/(1 + t)), from the top: the
    reversed list Taylor-shifted by 1, which is n rounds of prefix sums,
    additions only.  All > 0 (>= 0) proves p > 0 (>= 0) on [0, 1]
    (Farouki, *The Bernstein polynomial basis: a centennial retrospective*,
    2012).
    """
    out = list(coeffs)
    for m in range(len(out), 1, -1):
        out[:m] = accumulate(out[:m])
    return out
