"""Shared test oracles built from first principles, not from the engine, and a
strategy for random fault models."""

from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from erasurechain.correction_circuits import Construction, FaultModel, fail_sink
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
    classes = tuple(
        EquivClass(id=i, label=format_pattern(p), representative=p, members=(p,))
        for i, p in enumerate(patterns)
    )
    return ClassTable(
        model=Model.IDEAL,
        classes=classes,
        clean_id=patterns.index(CLEAN_PATTERN),
        fail_id=patterns.index(fail_sink(Model.IDEAL)),
    )


def supports(size):
    """Every qubit subset of the given size, in sorted order."""
    return [frozenset(c) for c in combinations(range(1, 8), size)]


def pattern_support(pattern):
    """The qubits a pattern erases."""
    return frozenset(q for q, status in enumerate(pattern, 1) if status)


def members_index(table):
    """Pattern -> class id, read from the table's members."""
    return {p: c.id for c in table.classes for p in c.members}


@st.composite
def fault_models(draw):
    """Random valid FaultModels under both lossy constructions."""
    detections = st.integers(0, 4)
    construction = draw(st.sampled_from(Construction))
    fields = {
        "readout_detections": draw(detections),
        "ancilla_detections": draw(detections),
        "construction": construction,
    }
    if construction is Construction.PER_GATE:
        fields["helper_detections"] = draw(detections)
        fields["coupling_full_fraction"] = F(draw(st.integers(0, 8)), 8)
    return FaultModel(**fields)
