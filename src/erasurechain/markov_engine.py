"""Absorbing Markov chain over erasure-pattern classes.

One correction attempt defines a stochastic map on equivalence classes;
iterating it describes the whole recovery procedure.  Two absorbing states:
the clean pattern (recovery finished) and the failure sink (the block is
discarded and counts as an encoded failure: an encoded Z measurement under
ideal hardware, an encoded full erasure under lossy hardware).

The encoded failure rate is the probability of absorbing into the sink,
starting from the distribution injected by one encoded gate.  It comes
from one elimination: a fraction-free (Bareiss) pass over the bordered
absorbing system, scaled to integer polynomials in eps and evaluated at
the single point eps = 2^w, so the pass runs on plain ints.  Every entry
it computes is a minor, whose coefficients fit a signed w-bit slot, so
the determinants are read back exactly from the slots of two ints.  The
rows are read straight off the terms of the chain entries.  The class
chains are sparse, and a row whose pivot-column entry is zero skips that
step and is brought up to date only when it is next used: 25 or 26 of
the 45 row updates of a lossy diagonal pass skip.  A chain in eps alone
(ideal, or lossy on the delta = eps diagonal) gives the rate as one
rational function N/D; series are its Taylor division, numeric rates
(what threshold searches use) are N(x)/D(x) by Horner on integers, and
concatenation reads a rate certified nondecreasing on [0, 1] at the two
ends of an interval of rates.

Every chain is one substitution.  ``build_classes`` verifies the class
table at symbolic rates and keeps the rows it verified, one exact
polynomial per target class (``class_rows``), each proved to sum to one;
a chain at any rates, the delta = eps diagonal or one numeric point (eps,
delta), is those rows with the rates substituted.  ``attempt`` uses only
ring operations on eps and delta, so this equals the chain assembled from
attempts at those rates, its rows still sum to one, and a rate at one
point is the elimination of a chain whose entries are constants.  Only
nonnegativity depends on the point, so a numeric chain checks it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import List, NamedTuple, Optional, Tuple

from .exact_arith import Poly, Substitution, bernstein_coefficients
from .erasure_model import (
    ClassTable,
    ModelParams,
    build_classes,
    class_rows,
    initial_distribution,
    verify_class_soundness,
)
from .correction_circuits import DEFAULT_FAULT_MODEL, FaultModel


class TransitionMatrix(NamedTuple):
    table: ClassTable
    P: List[List[Poly]]
    params: ModelParams
    config: FaultModel

    @property
    def size(self) -> int:
        return len(self.table.classes)

    @property
    def absorbing(self) -> Tuple[int, int]:
        return (self.table.clean_id, self.table.fail_id)

    def to_json(self) -> dict:
        return {
            "model": self.params.model.value,
            "config_hash": self.config.config_hash(),
            "classes": self.table.to_json()["classes"],
            "absorbing": list(self.absorbing),
            "matrix": [[entry.to_json() for entry in row] for row in self.P],
        }


def build_chain(
    params: ModelParams,
    table: Optional[ClassTable] = None,
    config: Optional[FaultModel] = None,
) -> TransitionMatrix:
    """Assemble the class-level transition matrix for one attempt.

    ``config`` None is the default FaultModel.  The rows are the table's
    verified rows at symbolic rates with ``params.eps`` and ``params.delta``
    substituted.  A table built here is the shared one from
    ``build_classes``, whose rows ``class_rows`` keeps; a table passed in is
    verified here.  ``verify_class_soundness`` proves the symbolic rows
    sound and summing to exactly one, with identity rows for the clean and
    fail classes, so every substitution keeps all of that (a mismatch
    raises ClassUnsound, a bad sum ValueError).  At numeric rates a row
    holding a negative entry is a ValueError naming the class.
    """
    if config is None:
        config = DEFAULT_FAULT_MODEL
    if table is None:
        table = build_classes(params.model, config=config)
        rows = class_rows(params.model, config=config)
    elif table.model is not params.model:
        raise ValueError("class table and params disagree on the model")
    else:
        rows = verify_class_soundness(table, config)

    at = Substitution(params.eps, params.delta)
    numeric = params.is_numeric()
    n = len(table.classes)
    P: List[List[Poly]] = []
    for cls, projected in zip(table.classes, rows):
        row = [Poly.zero() for _ in range(n)]
        for cid, prob in projected.items():
            row[cid] = at(prob)
        if numeric and any(entry.coefficient(0, 0) < 0 for entry in row):
            raise ValueError(f"transition row of class {cls.label} has a negative entry")
        P.append(row)
    return TransitionMatrix(table=table, P=P, params=params, config=config)


def _solve(chain: TransitionMatrix):
    """(det M, det A * s) of the bordered absorbing system, as coefficient
    lists in eps, lowest degree first, with no trailing zero.

    M stacks each transient row [I - Q | r] (r is the column into the fail
    class) on the border row [-c | c0] (the injected mass on the transient
    classes and on the fail class); A is its top-left transient block.
    Each row is scaled to integer coefficients straight from the terms of
    its entries (``_eps_row``); s is the border row's scale.
    ``_eliminate`` gives det(M) and det(A).  By the Schur complement
    det(M) / det(A) = s * (c0 + c^T A^-1 r), the absorption probability.

    At numeric rates the transient classes are only those injected mass
    reaches (``_reached``).  c is zero off them and their rows of Q stay
    on them, so c^T A^-1 r is the same on that block, and a class no mass
    reaches that never leaves itself (lossy eps = 0, delta = 1) does not
    make A singular.  Symbolic chains keep every transient class.
    """
    initial = initial_distribution(chain.params, chain.table, chain.config)
    clean_id, fail_id = chain.absorbing
    transient = [i for i in range(chain.size) if i not in (clean_id, fail_id)]
    if chain.params.is_numeric():
        transient = _reached(chain.P, initial, transient)

    zero = Poly.zero()
    rows = []
    for unit, i in enumerate(transient):
        P = chain.P[i]
        rows.append(_eps_row([P[j] for j in transient] + [P[fail_id]], unit)[0])
    border = [initial.get(j, zero) for j in transient] + [initial.get(fail_id, zero)]
    values, scale = _eps_row(border)
    rows.append(values)
    det_m, det_a = _eliminate(rows)
    return det_m, [c * scale for c in det_a]


def _reached(P: List[List[Poly]], initial, transient: List[int]) -> List[int]:
    """The transient classes holding injected mass or entered from one that
    does through a nonzero entry of P, in class order."""
    reached = {i for i in transient if initial.get(i)}
    stack = list(reached)
    while stack:
        row = P[stack.pop()]
        for j in transient:
            if row[j] and j not in reached:
                reached.add(j)
                stack.append(j)
    return [i for i in transient if i in reached]


def _eliminate(rows: List[List[List[int]]]) -> Tuple[List[int], List[int]]:
    """det(M) and det(A) of a square matrix M of integer polynomials in eps.

    ``rows[r][j]`` is a coefficient list, lowest degree first; A is M
    without its last row and column.  One fraction-free Bareiss pass
    (Bareiss 1968) with pivot swaps among the first m = len(rows) - 1 rows
    only leaves det(A) as its m-th pivot and det(M) as its last; a swap
    flips the sign of both, so their ratio needs no correction.  The pass
    runs on plain ints, every entry evaluated at eps = 2^w (Kronecker
    substitution), and the two determinants are read back from signed
    w-bit slots.  That is exact: every entry the pass computes is a minor
    of M, so its coefficients are at most B in size, the product of the
    rows' l1 coefficient norms, and w = B.bit_length() + 2 gives each slot
    room for them with a sign.  Signed base-2^w digits of that size are
    unique, so an entry is 0 exactly when its polynomial is, and each
    ``//`` is the exact polynomial quotient evaluated at 2^w.

    Step k of Bareiss sets each row below the pivot to
    (row * p_k - f * top) / p_(k-1), where f is the row's entry in the
    pivot column and p_k the k-th pivot (p_(-1) = 1).  A row with f = 0 is
    only scaled by p_k / p_(k-1), so it is skipped and keeps its level l,
    the step its entries are up to date with.  Its level-k entries are its
    level-l entries times p_(k-1) / p_(l-1), the product of the skipped
    scalings, and a nonzero factor keeps every zero, so the pivot search,
    swaps and signs are those of the full pass.  Its next real update
    folds the skipped scalings into the divisor: with f and row at level
    l, (row * p_k - f * top) / p_(l-1) is the level k + 1 row.  A row
    about to become the pivot, and the border row at the end, is brought
    up to date by * p_(k-1) // p_(l-1).  Each of these is a polynomial
    identity whose quotient is a minor, so every ``//`` stays exact.
    """
    bound = prod(max(1, sum(abs(c) for entry in row for c in entry)) for row in rows)
    w = bound.bit_length() + 2
    M = [[_pack(entry, w) for entry in row] for row in rows]
    m = len(M) - 1
    # pivots[k] is p_(k-1); level[r] is the step row r is up to date with.
    pivots = [1]
    level = [0] * (m + 1)
    for k in range(m):
        pivot = next((r for r in range(k, m) if M[r][k]), None)
        if pivot is None:
            raise ValueError("singular transient system")
        M[k], M[pivot] = M[pivot], M[k]
        level[k], level[pivot] = level[pivot], level[k]
        top = M[k]
        if level[k] < k:
            scale, divisor = pivots[k], pivots[level[k]]
            top[k:] = [entry * scale // divisor for entry in top[k:]]
        p = top[k]
        for r in range(k + 1, m + 1):
            row = M[r]
            f = row[k]
            if f:
                prev = pivots[level[r]]
                for j in range(k + 1, m + 1):
                    row[j] = (row[j] * p - f * top[j]) // prev
                level[r] = k + 1
        pivots.append(p)
    corner = M[m][m]
    if level[m] < m:
        corner = corner * pivots[m] // pivots[level[m]]
    return _unpack(corner, w), _unpack(pivots[m], w)


def _pack(coeffs: List[int], w: int) -> int:
    """The polynomial's value at eps = 2^w."""
    value = 0
    for c in reversed(coeffs):
        value = (value << w) + c
    return value


def _unpack(value: int, w: int) -> List[int]:
    """The signed w-bit slots of ``value``, lowest first, up to the last
    nonzero one (none for 0)."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    while value:
        c = ((value + half) & mask) - half
        out.append(c)
        value = (value - c) >> w
    return out


def _eps_row(entries: List[Poly], unit: Optional[int] = None) -> Tuple[List[List[int]], int]:
    """The row [u - e_0, ..., u - e_(n-2), e_(n-1)] of coefficient lists,
    lowest degree first, times the lcm s of its coefficient denominators,
    and s.  u is 1 at column ``unit`` and 0 elsewhere, so a transient row
    [I - Q | r] is its chain entries and the border row [-c | c0] the
    injected masses; each list is read off the entry's terms.
    """
    scale = lcm(*[c.denominator for entry in entries for c in entry.terms.values()])
    last = len(entries) - 1
    out = []
    for col, entry in enumerate(entries):
        coeffs = [0] * max([i + 1 for i, _ in entry.terms], default=1)
        sign = 1 if col == last else -1
        for (i, j), c in entry.terms.items():
            if j:
                raise ValueError("failure_rate needs a chain in eps alone; it has a delta term")
            coeffs[i] = sign * c.numerator * (scale // c.denominator)
        if col == unit:
            coeffs[0] += scale
        out.append(coeffs)
    return out, scale


def _horner(coeffs: List[int], p: int, q: int, degree: int) -> int:
    """q^degree * poly(p/q), from the top coefficient down.

    A power of two q, such as the grid denominators of
    ``concat_projection`` (up to 2^1100), scales each coefficient by a
    shift: multiplying the growing powers of a 1100-bit q by q costs about
    15 times more on a degree-107 rate.
    """
    acc, k = 0, degree + 1 - len(coeffs)
    if not q & (q - 1):
        shift = q.bit_length() - 1
        for c in reversed(coeffs):
            acc = acc * p + (c << shift * k)
            k += 1
        return acc
    qk = q**k
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


class FailureRate(NamedTuple):
    """The encoded failure rate as N(eps) / D(eps).

    N and D are integer coefficient lists, lowest degree first.  Calling
    the rate is ``at``.
    """

    N: List[int]
    D: List[int]

    def at(self, x: Fraction) -> Fraction:
        """N(x) / D(x), by homogeneous Horner on integers and one reduction."""
        x = Fraction(x)
        return Fraction(*self.point(x.numerator, x.denominator))

    __call__ = at

    def point(self, p: int, q: int) -> Tuple[int, int]:
        """N(p/q) / D(p/q) as ``(n, d)``, d > 0, both scaled by q^degree (q > 0)
        and unreduced; D(p/q) = 0 raises ``singular transient system``."""
        degree = max(len(self.N), len(self.D)) - 1
        num, den = _horner(self.N, p, q, degree), _horner(self.D, p, q, degree)
        if den == 0:
            raise ValueError("singular transient system")
        return (-num, -den) if den < 0 else (num, den)

    def nondecreasing(self) -> bool:
        """Whether N/D is certified nondecreasing on [0, 1]; False proves
        nothing.  D's Bernstein coefficients must share one strict sign, so
        D has no root there, and those of W = N'D - ND' be >= 0, so
        (N/D)' = W / D^2 >= 0.  W is one product of Kronecker-packed ints,
        sized as in ``_eliminate``.
        """
        N, D = self.N, self.D
        dN, dD = ([k * c for k, c in enumerate(p)][1:] for p in (N, D))
        n1, d1, dn1, dd1 = (sum(map(abs, c)) for c in (N, D, dN, dD))
        w = (dn1 * d1 + n1 * dd1).bit_length() + 2
        W = _unpack(_pack(dN, w) * _pack(D, w) - _pack(N, w) * _pack(dD, w), w)
        signs = bernstein_coefficients(D)
        root_free = min(signs, default=0) * max(signs, default=0) > 0
        return root_free and min(bernstein_coefficients(W), default=0) >= 0

    def series(self, order: int) -> Poly:
        """Taylor coefficients of N/D at eps = 0, up to eps^order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        N, D = self.N, self.D
        if not D[0]:
            raise ValueError("singular transient system at eps = 0")
        coeffs: List[Fraction] = []
        for k in range(order + 1):
            s = Fraction(N[k] if k < len(N) else 0)
            for i in range(1, min(k, len(D) - 1) + 1):
                s -= D[i] * coeffs[k - i]
            coeffs.append(s / D[0])
        return Poly({(k, 0): c for k, c in enumerate(coeffs)})


def failure_rate(chain: TransitionMatrix) -> FailureRate:
    """The exact encoded failure rate of a chain in eps alone, as N/D.

    The chain may be ideal, lossy on the delta = eps diagonal
    (``ModelParams.lossy_diagonal()``) or built at numeric rates; a delta
    term is a ValueError.
    """
    return FailureRate(*_solve(chain))


def encoded_failure_at(chain: TransitionMatrix) -> Fraction:
    """Exact absorption probability of a chain built at numeric rates.

    The rate at a point is the rate of the chain built at that point:
    ``failure_rate`` of a chain whose entries are constants, read at 0.
    A chain with a symbolic rate is a ValueError.
    """
    if not chain.params.is_numeric():
        raise ValueError("encoded_failure_at needs a chain built at numeric rates")
    return failure_rate(chain).at(Fraction(0))


class ChainResult(NamedTuple):
    encoded_failure: Fraction


def run_to_absorption(chain: TransitionMatrix) -> ChainResult:
    """Encoded failure probability of a chain built at numeric rates."""
    return ChainResult(encoded_failure_at(chain))
