"""Absorbing Markov chain over erasure-pattern classes.

One correction attempt defines a stochastic map on equivalence classes;
iterating it describes the whole recovery procedure.  Two absorbing states:
the clean pattern (recovery finished) and the failure sink (the block is
discarded and counts as an encoded failure: an encoded Z measurement under
ideal hardware, an encoded full erasure under lossy hardware).

The encoded failure rate is the probability of absorbing into the sink,
starting from the distribution injected by one encoded gate.  It is
computed two ways, both exact:

* at a numeric rate, by solving the absorbing-chain linear system with
  one fraction-free (integer Bareiss) elimination and a single reduction
  at the end (this is what threshold searches use; the truncated series
  is unreliable near the threshold);
* as a power series in eps, by iterating the transition map with all
  polynomials truncated at the requested order until the unabsorbed mass
  vanishes at that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from .exact_arith import Poly
from .erasure_model import (
    ClassTable,
    Model,
    ModelParams,
    build_classes,
    initial_distribution,
    verify_class_soundness,
)
from .correction_circuits import DEFAULT_FAULT_MODEL, FaultModel, attempt


@dataclass
class TransitionMatrix:
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

    def row_sums(self) -> List[Poly]:
        sums = []
        for row in self.P:
            total = Poly.zero()
            for entry in row:
                total = total + entry
            sums.append(total)
        return sums

    def to_json(self) -> dict:
        return {
            "model": self.params.model.value,
            "config_hash": self.config.config_hash(),
            "classes": self.table.to_json()["classes"],
            "absorbing": list(self.absorbing),
            "matrix": [[entry.to_json() for entry in row] for row in self.P],
        }


@dataclass
class ChainResult:
    encoded_failure: Poly | Fraction
    attempts_used: Optional[int]
    residual_mass: Poly | Fraction


def build_chain(
    params: ModelParams,
    table: Optional[ClassTable] = None,
    config: FaultModel = DEFAULT_FAULT_MODEL,
) -> TransitionMatrix:
    """Assemble the class-level transition matrix for one attempt.

    A table passed in is checked with ``verify_class_soundness`` (a
    mismatch raises ClassUnsound).  A table built here comes from
    ``build_classes``, whose refinement already proved it sound at symbolic
    rates, and so at every substitution of them.  Absorbing rows (clean,
    fail) are identity rows.  Every row must sum to exactly one and, at
    numeric rates, hold no negative entry; otherwise ValueError names the
    class.
    """
    if table is None:
        table = build_classes(params.model, config=config)
    elif table.model is not params.model:
        raise ValueError("class table and params disagree on the model")
    else:
        verify_class_soundness(table, params, config)

    n = len(table.classes)
    P: List[List[Poly]] = []
    for cls in table.classes:
        row = [Poly.zero() for _ in range(n)]
        if cls.id in (table.clean_id, table.fail_id):
            row[cls.id] = Poly.one()
        else:
            for q, prob in attempt(cls.representative, params, config).items():
                cid = table.index[q]
                row[cid] = row[cid] + prob
        P.append(row)
    chain = TransitionMatrix(table=table, P=P, params=params, config=config)
    numeric = _is_numeric(chain)
    for cls, row, total in zip(table.classes, P, chain.row_sums()):
        if total != Poly.one():
            raise ValueError(f"transition row of class {cls.label} sums to {total}, not 1")
        if numeric and any(entry.coefficient(0, 0) < 0 for entry in row):
            raise ValueError(f"transition row of class {cls.label} has a negative entry")
    return chain


def _apply(dist: Dict[int, Poly], P: List[List[Poly]]) -> Dict[int, Poly]:
    out: Dict[int, Poly] = {}
    for cid, mass in dist.items():
        if mass.is_zero():
            continue
        for j, entry in enumerate(P[cid]):
            if entry.is_zero():
                continue
            out[j] = out.get(j, Poly.zero()) + mass * entry
    return out


def run_to_absorption(
    chain: TransitionMatrix,
    initial: Optional[Dict[int, Poly]] = None,
    max_attempts: Optional[int] = None,
    series_order: Optional[int] = None,
) -> ChainResult:
    """Encoded failure probability from iterating or solving the chain.

    ``max_attempts`` iterates that many attempts exactly and reports the
    mass in the fail class and the unabsorbed residual.  Unbounded
    absorption requires either numeric parameters (solved by exact
    elimination) or ``series_order`` (solved by truncated iteration).
    """
    if initial is None:
        initial = initial_distribution(chain.params, chain.table, chain.config)

    clean_id, fail_id = chain.absorbing

    if max_attempts is not None:
        if max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        dist = dict(initial)
        for _ in range(max_attempts):
            dist = _apply(dist, chain.P)
        fail_mass = dist.get(fail_id, Poly.zero())
        clean_mass = dist.get(clean_id, Poly.zero())
        residual = Poly.one() - clean_mass - fail_mass
        return ChainResult(
            encoded_failure=fail_mass,
            attempts_used=max_attempts,
            residual_mass=residual,
        )

    if series_order is not None:
        series = _absorb_series(chain, initial, series_order)
        return ChainResult(
            encoded_failure=series, attempts_used=None, residual_mass=Poly.zero()
        )

    if _is_numeric(chain):
        value = _absorb_numeric(chain, initial)
        return ChainResult(
            encoded_failure=value, attempts_used=None, residual_mass=Fraction(0)
        )
    raise ValueError(
        "unbounded absorption with symbolic rates needs series_order"
    )


def _is_numeric(chain: TransitionMatrix) -> bool:
    eps_const = chain.params.eps.total_degree() <= 0
    delta_const = chain.params.delta.total_degree() <= 0
    return eps_const and delta_const


def _absorb_series(
    chain: TransitionMatrix, initial: Dict[int, Poly], order: int
) -> Poly:
    """Iterate with truncation until the unabsorbed mass vanishes at the order.

    Every zero-noise transition makes strict progress toward absorption, so
    mass that survives k extra rounds carries at least k powers of the
    noise rates; the truncated residual reaches exact zero in a bounded
    number of steps.
    """
    clean_id, fail_id = chain.absorbing
    dist = {cid: p.truncate(order) for cid, p in initial.items()}
    fail_mass = dist.pop(fail_id, Poly.zero())
    dist.pop(clean_id, None)

    limit = 40 * (order + 2)
    for _ in range(limit):
        if not any(not p.is_zero() for p in dist.values()):
            return fail_mass
        nxt: Dict[int, Poly] = {}
        for cid, mass in dist.items():
            if mass.is_zero():
                continue
            for j, entry in enumerate(chain.P[cid]):
                if entry.is_zero():
                    continue
                contrib = (mass * entry).truncate(order)
                if contrib.is_zero():
                    continue
                nxt[j] = nxt.get(j, Poly.zero()) + contrib
        fail_mass = (fail_mass + nxt.pop(fail_id, Poly.zero())).truncate(order)
        nxt.pop(clean_id, None)
        dist = nxt
    raise RuntimeError("series iteration did not absorb; chain may not progress")


def _absorb_numeric(chain: TransitionMatrix, initial: Dict[int, Poly]) -> Fraction:
    """Unbounded absorption for a chain built at numeric rates.

    The matrix entries are constant polynomials, so evaluating the symbolic
    solver at (0, 0) reads the constants off exactly.
    """
    return encoded_failure_at(chain, Fraction(0), Fraction(0), initial)


def encoded_failure_at(
    chain: TransitionMatrix,
    eps: Fraction,
    delta: Fraction,
    initial: Optional[Dict[int, Poly]] = None,
) -> Fraction:
    """Exact absorption probability of a symbolic chain at numeric rates.

    This is the workhorse behind threshold bisection (one symbolic build,
    many numeric solves), so it runs on integers and reduces once.  Write
    eps = ep/eq and delta = dp/dq.  Each transient row [I - Q | r] (r is
    the column into the fail class) and the border row [-c | c0] (the
    injected mass on the transient classes and on the fail class) are
    scaled to integers by ``_integer_row``.  One fraction-free Bareiss pass
    (Bareiss 1968) over the bordered matrix M, with pivot swaps among the
    transient rows only, leaves det(A) as its m-th pivot and det(M) as its
    last.  By the Schur complement det(M) / det(A) = s * (c0 + c^T A^-1 r),
    where s is the border row's scale; a swap flips the sign of both
    determinants, so the ratio needs no correction.
    """
    if initial is None:
        initial = initial_distribution(chain.params, chain.table, chain.config)
    eps, delta = Fraction(eps), Fraction(delta)
    clean_id, fail_id = chain.absorbing
    transient = [i for i in range(chain.size) if i not in (clean_id, fail_id)]
    columns = transient + [fail_id]
    m = len(transient)

    zero = Poly.zero()
    rows = [[chain.P[i][j] for j in columns] for i in transient]
    rows.append([initial.get(j, zero) for j in columns])
    eps_hom = _homogeneous_powers(eps)
    delta_hom = _homogeneous_powers(delta)
    M: List[List[int]] = []
    scales: List[int] = []
    for polys in rows:
        values, scale = _integer_row(polys, eps_hom, delta_hom)
        M.append([-x for x in values[:m]] + [values[m]])
        scales.append(scale)
    for k in range(m):
        M[k][k] += scales[k]

    prev = 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if M[r][k] != 0), None)
        if pivot is None:
            raise ValueError("singular transient system")
        M[k], M[pivot] = M[pivot], M[k]
        top = M[k]
        p = top[k]
        for r in range(k + 1, m + 1):
            row = M[r]
            f = row[k]
            for j in range(k + 1, m + 1):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return Fraction(M[m][m], prev * scales[m])


def _homogeneous_powers(x: Fraction):
    """``hom(i, d) = p^i * q^(d - i)`` for x = p/q, memoised per solve."""
    p, q = x.numerator, x.denominator
    cache: Dict[Tuple[int, int], int] = {}

    def hom(i: int, d: int) -> int:
        value = cache.get((i, d))
        if value is None:
            value = cache[(i, d)] = p**i * q ** (d - i)
        return value

    return hom


def _integer_row(row: List[Poly], eps_hom, delta_hom) -> Tuple[List[int], int]:
    """The row's entries at (eps, delta), times its scale, and that scale.

    The scale is L * eq^I * dq^J: L is the lcm of the row's coefficient
    denominators, I and J the row's own largest eps and delta degrees, so
    every term c * eps^i * delta^j becomes the integer
    c * L * ep^i * eq^(I-i) * dp^j * dq^(J-j).
    """
    terms = [t for entry in row for t in entry.terms.items()]
    I = max((i for (i, _), _ in terms), default=0)
    J = max((j for (_, j), _ in terms), default=0)
    L = lcm(*(c.denominator for _, c in terms))
    scaled = [
        sum(
            c.numerator * (L // c.denominator) * eps_hom(i, I) * delta_hom(j, J)
            for (i, j), c in entry.terms.items()
        )
        for entry in row
    ]
    return scaled, L * eps_hom(0, I) * delta_hom(0, J)


def recursion_series(
    params: ModelParams,
    order: int,
    config: FaultModel = DEFAULT_FAULT_MODEL,
) -> Poly:
    """Encoded failure rate as an exact series in eps, truncated at ``order``.

    The lossy model is evaluated on the delta = eps diagonal so the result
    is single-variable in both models.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if params.model is Model.LOSSY:
        params = ModelParams(Model.LOSSY, params.eps, params.eps)
    chain = build_chain(params, config=config)
    result = run_to_absorption(chain, series_order=order)
    return result.encoded_failure

