"""Qubit supports of the [[7,1,3]] code's stabilizers and logical operators.

Qubits are numbered 1..7; bit k-1 of a mask stands for qubit k.  The code
is the CSS code of the classical [7,4,3] Hamming code, whose parity-check
rows give both the X-type and the Z-type generators:

    M1 = X X X X I I I        M4 = Z Z Z Z I I I
    M2 = X X I I X X I        M5 = Z Z I I Z Z I
    M3 = X I X I X I X        M6 = Z I Z I Z I Z

Erasure correction needs only where operators act, not the operators
themselves.  The weight-4 stabilizer supports and weight-3 logical supports
form complementary families: the 7 logical-support triples are the lines
of the Fano plane, and the 7 stabilizer-support quadruples are their
complements.  Those two families drive everything downstream: a set of
erased qubits is unrecoverable exactly when it covers a logical operator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, List, Tuple

N_QUBITS = 7


def _mask(qubits: Iterable[int]) -> int:
    m = 0
    for q in qubits:
        m |= 1 << (q - 1)
    return m


def _support(mask: int) -> FrozenSet[int]:
    return frozenset(k + 1 for k in range(N_QUBITS) if mask >> k & 1)


def _span(masks: Iterable[int]) -> List[int]:
    vectors = [0]
    for m in masks:
        vectors += [v ^ m for v in vectors]
    return vectors


# Parity-check rows of the classical [7,4,3] Hamming code used by the
# X-type and Z-type generators alike (self-dual-containing CSS structure).
_H_ROWS = (
    _mask((1, 2, 3, 4)),
    _mask((1, 2, 5, 6)),
    _mask((1, 3, 5, 7)),
)

# Transversal logical representative: all-ones.
_LOGICAL_MASK = _mask(range(1, N_QUBITS + 1))


@lru_cache(maxsize=1)
def logical_supports() -> Tuple[FrozenSet[int], ...]:
    """Supports of the 8 nontrivial logical representatives (7 triples + full).

    They are the stabilizer span shifted by the all-ones logical, which
    leaves weights 3 (seven times) and 7.
    """
    sups = [_support(m ^ _LOGICAL_MASK) for m in _span(_H_ROWS)]
    return tuple(sorted(sups, key=sorted))


@lru_cache(maxsize=1)
def stabilizer_supports_weight4() -> Tuple[FrozenSet[int], ...]:
    """The 7 quadruples that are supports of weight-4 stabilizer elements."""
    quads = [_support(m) for m in _span(_H_ROWS) if m]
    return tuple(sorted(quads, key=sorted))


def supports_logical(support: Iterable[int]) -> bool:
    """True iff some logical operator acts entirely within the given qubits."""
    sup = frozenset(support)
    if not sup <= frozenset(range(1, N_QUBITS + 1)):
        raise ValueError("support must be a subset of qubits 1..7")
    return any(ls <= sup for ls in logical_supports())
