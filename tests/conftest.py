"""Shared test oracles built from first principles, not from the engine."""

from itertools import permutations

import pytest

from erasurechain.correction_circuits import fail_sink
from erasurechain.erasure_model import (
    CLEAN_PATTERN,
    ClassTable,
    EquivClass,
    Model,
    all_patterns,
    format_pattern,
)
from erasurechain.pauli_algebra import logical_supports


@pytest.fixture(scope="session")
def line_automorphisms():
    """Qubit permutations mapping the 7 Fano lines onto themselves.

    A permutation is a tuple p where p[k-1] is the image of qubit k, listed
    in lexicographic order.  They are the code automorphisms: the lines are
    the weight-3 logical supports and the stabilizer supports are their
    complements.
    """
    lines = {s for s in logical_supports() if len(s) == 3}
    return tuple(
        perm
        for perm in permutations(range(1, 8))
        if all(frozenset(perm[q - 1] for q in line) in lines for line in lines)
    )


@pytest.fixture(scope="session")
def ideal_singleton_table():
    """The unreduced ideal chain's table: one class per pattern (128)."""
    patterns = all_patterns(Model.IDEAL)
    classes = [
        EquivClass(id=i, label=format_pattern(p), representative=p, size=1, members=(p,))
        for i, p in enumerate(patterns)
    ]
    index = {p: i for i, p in enumerate(patterns)}
    return ClassTable(
        model=Model.IDEAL,
        classes=classes,
        index=index,
        clean_id=index[CLEAN_PATTERN],
        fail_id=index[fail_sink(Model.IDEAL)],
    )
