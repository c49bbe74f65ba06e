from itertools import combinations

import pytest

from erasurechain.pauli_algebra import (
    all_supports,
    logical_supports,
    stabilizer_supports_weight4,
    supports_logical,
)

# Supports of the generators M1..M3 (X-type) and M4..M6 (Z-type) alike.
GENERATOR_SUPPORTS = [
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 5, 6}),
    frozenset({1, 3, 5, 7}),
]


class TestSymplectic:
    def test_all_generator_pairs_commute(self):
        # An X-type and a Z-type operator commute iff their supports share
        # an even number of qubits.
        for a in GENERATOR_SUPPORTS:
            for b in GENERATOR_SUPPORTS:
                assert len(a & b) % 2 == 0


class TestStabilizerGroup:
    def test_generators(self):
        quads = stabilizer_supports_weight4()
        assert len(quads) == 7
        for s in GENERATOR_SUPPORTS:
            assert s in quads

    def test_group_order(self):
        # The quads and the empty set are closed under products (symmetric
        # difference): 8 X-type and 8 Z-type elements, 64 in all.
        family = set(stabilizer_supports_weight4()) | {frozenset()}
        assert len(family) == 8
        for a in family:
            for b in family:
                assert a ^ b in family

    def test_all_elements_commute_pairwise(self):
        quads = stabilizer_supports_weight4()
        for a, b in combinations(quads, 2):
            assert len(a & b) == 2


class TestLogicals:
    def test_coset_size_and_weights(self):
        # The nontrivial logical coset: 8 supports, seven triples and the
        # transversal all-qubit support.
        weights = sorted(len(s) for s in logical_supports())
        assert weights == [3] * 7 + [7]

    def test_seven_weight_three_logicals(self):
        triples = [s for s in logical_supports() if len(s) == 3]
        assert len(triples) == 7

    def test_transversal_logical_weight(self):
        assert frozenset(range(1, 8)) in logical_supports()

    def test_fano_intersections(self):
        triples = [s for s in logical_supports() if len(s) == 3]
        for a, b in combinations(triples, 2):
            assert len(a & b) == 1

    def test_lines_are_quad_complements(self):
        everything = frozenset(range(1, 8))
        triples = {s for s in logical_supports() if len(s) == 3}
        assert {everything - q for q in stabilizer_supports_weight4()} == triples


class TestSupportsLogical:
    def test_small_supports_never_cover(self):
        for size in (0, 1, 2):
            for s in all_supports(size):
                assert not supports_logical(s)

    def test_exactly_seven_triples_cover(self):
        covering = [s for s in all_supports(3) if supports_logical(s)]
        assert len(covering) == 7

    def test_full_support_covers(self):
        assert supports_logical(range(1, 8))

    def test_monotone_under_growth(self):
        # Adding qubits never flips a covering support back to non-covering.
        for s in all_supports(3):
            if supports_logical(s):
                for extra in range(1, 8):
                    assert supports_logical(s | {extra})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            supports_logical({0, 1, 2})


class TestCoveringStabilizer:
    def test_first_generator_pair(self):
        assert GENERATOR_SUPPORTS[0] in stabilizer_supports_weight4()

    def test_second_generator_pair(self):
        assert GENERATOR_SUPPORTS[1] in stabilizer_supports_weight4()

    def test_exactly_seven_supports_work(self):
        # Of the 35 four-qubit sets, exactly the 7 stabilizer supports cover
        # no logical operator.
        free = [s for s in all_supports(4) if not supports_logical(s)]
        assert sorted(free, key=sorted) == list(stabilizer_supports_weight4())


class TestAutomorphisms:
    def test_group_order(self, line_automorphisms):
        assert len(line_automorphisms) == 168

    def test_identity_present(self, line_automorphisms):
        assert tuple(range(1, 8)) in line_automorphisms

    def test_lines_permuted_to_lines(self, line_automorphisms):
        # The fixture keeps the permutations that map lines to lines; their
        # complements, the quads, then map to quads as well, so every one of
        # them preserves the stabilizer group.
        quads = set(stabilizer_supports_weight4())
        for perm in line_automorphisms:
            for quad in quads:
                assert frozenset(perm[q - 1] for q in quad) in quads


class TestCorrectableTriplesHaveRecoveryRoute:
    def test_each_correctable_triple_is_sequentially_recoverable(self):
        # The single-target circuits need, for the lowest qubit of every
        # correctable triple, a covering support avoiding the other two.
        quads = stabilizer_supports_weight4()
        for s in all_supports(3):
            if supports_logical(s):
                continue
            target = min(s)
            others = s - {target}
            assert any(
                target in quad and not (others & quad) for quad in quads
            )
