import hashlib
import json
import random
from fractions import Fraction as F
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erasurechain.correction_circuits as correction_circuits
import erasurechain.erasure_model as erasure_model
import erasurechain.markov_engine as markov_engine
from erasurechain.correction_circuits import (
    DEFAULT_FAULT_MODEL,
    Construction,
    FaultModel,
    attempt,
)
from erasurechain.exact_arith import Poly
from erasurechain.erasure_model import (
    ClassUnsound,
    EquivClass,
    Model,
    ModelParams,
    all_patterns,
    build_classes,
    initial_distribution,
    live_codes,
    pattern_weight,
)
from erasurechain.markov_engine import (
    FailureRate,
    build_chain,
    encoded_failure_at,
    failure_rate,
    run_to_absorption,
)
from erasurechain.threshold_solver import chain_recursion, concat_projection

from conftest import members_index


def ideal_chain():
    return build_chain(ModelParams.ideal())


def lossy_chain():
    return build_chain(ModelParams.lossy())


def per_teleportation_chain():
    config = FaultModel(construction=Construction.PER_TELEPORTATION)
    return build_chain(ModelParams.lossy(), config=config)


class TestBuildChain:
    def test_rows_sum_to_one_symbolically(self):
        for chain in (ideal_chain(), lossy_chain(), per_teleportation_chain()):
            for row in chain.P:
                total = Poly.zero()
                for entry in row:
                    total = total + entry
                assert total == Poly.one()

    def test_absorbing_rows_are_identity(self):
        chain = ideal_chain()
        for cid in chain.absorbing:
            row = chain.P[cid]
            for j, entry in enumerate(row):
                assert entry == (Poly.one() if j == cid else Poly.zero())

    def test_zero_noise_correctable_classes_progress(self):
        # At eps = 0 the ideal chain walks straight down in weight.
        chain = ideal_chain()
        table = chain.table
        for cls in table.classes:
            if cls.id in chain.absorbing:
                continue
            w = pattern_weight(cls.representative)
            row = chain.P[cls.id]
            for j, entry in enumerate(row):
                v = entry.evaluate(F(0), F(0))
                target_w = pattern_weight(table.classes[j].representative)
                if v == 1:
                    assert target_w == w - 1
                else:
                    assert v == 0

    def test_lossy_class_labels(self):
        chain = lossy_chain()
        labels = {c.label for c in chain.table.classes}
        assert "[1,1]" in labels and "[3,0]" in labels and "fail" in labels

    def test_unsound_table_rejected(self):
        table = build_classes(Model.IDEAL)
        w1, w2 = table.classes[1], table.classes[2]
        merged = EquivClass(1, "bogus", w1.representative, w1.members + w2.members)
        classes = [table.classes[0], merged, table.classes[3], table.classes[4]]
        classes = [
            EquivClass(i, c.label, c.representative, c.members)
            for i, c in enumerate(classes)
        ]
        bad = type(table)(model=table.model, classes=classes, clean_id=0, fail_id=3)
        with pytest.raises(ClassUnsound):
            build_chain(ModelParams.ideal(), table=bad)

    def test_negative_entry_at_numeric_rates_rejected(self, monkeypatch):
        # Moving unit mass onto the clean class keeps each row summing to
        # one but leaves a negative entry.
        real_rows = markov_engine.class_rows

        def move_mass(model, config=None):
            table = build_classes(model, config)
            clean_id = table.clean_id
            rows = [dict(row) for row in real_rows(model, config)]
            for i, row in enumerate(rows):
                if i in (clean_id, table.fail_id):
                    continue
                other = next(cid for cid in row if cid != clean_id)
                row[other] = row[other] + 1
                row[clean_id] = row.get(clean_id, Poly.zero()) - 1
            return tuple(rows)

        monkeypatch.setattr(markov_engine, "class_rows", move_mass)
        with pytest.raises(ValueError, match="has a negative entry"):
            build_chain(ModelParams.ideal(F(1, 10)))

    def test_matrix_entries_probability_valued_on_grid(self):
        grid = [F(k, 40) for k in range(0, 11, 2)]
        for chain in (ideal_chain(), lossy_chain(), per_teleportation_chain()):
            for row in chain.P:
                for entry in row:
                    for e in grid:
                        for d in (F(0), F(1, 8), F(1, 4)):
                            assert 0 <= entry.evaluate(e, d) <= 1


def _attempt_chain(params, table, config):
    """Reference assembly: each representative's ``attempt`` summed per
    class, with identity rows for the absorbing classes."""
    n = len(table.classes)
    index = members_index(table)
    P = []
    for cls in table.classes:
        row = [Poly.zero() for _ in range(n)]
        if cls.id in (table.clean_id, table.fail_id):
            row[cls.id] = Poly.one()
        else:
            for q, prob in attempt(cls.representative, params, config).items():
                cid = index[q]
                row[cid] = row[cid] + prob
        P.append(row)
    return P


def _config_file(path):
    root = Path(__file__).resolve().parents[1]
    return FaultModel.from_json(json.loads((root / path).read_text()))


class TestChainFromVerifiedRows:
    """``build_chain`` substitutes the rates into the verified symbolic rows;
    the result equals the rows ``attempt`` gives at those rates."""

    @pytest.mark.parametrize(
        "config_path", [None, "configs/per_teleportation.json", "perfbench/alt_config.json"]
    )
    def test_matches_attempt_rows(self, config_path):
        config = DEFAULT_FAULT_MODEL if config_path is None else _config_file(config_path)
        for params in (
            ModelParams.ideal(),
            ModelParams.ideal(F(0)),
            ModelParams.ideal(F(1, 50)),
            ModelParams.ideal(F(1, 10)),
            ModelParams.lossy(),
            ModelParams.lossy_diagonal(),
            ModelParams.lossy(eps=F(0)),
            ModelParams.lossy(delta=F(0)),
            ModelParams.lossy(F(1, 50), F(1, 30)),
            ModelParams.lossy(F(1, 10), F(1, 10)),
        ):
            chain = build_chain(params, config=config)
            assert chain.P == _attempt_chain(params, chain.table, config), params

    def test_given_table_matches_attempt_rows(self, ideal_singleton_table):
        for params in (ModelParams.ideal(), ModelParams.ideal(F(1, 10))):
            chain = build_chain(params, table=ideal_singleton_table)
            assert chain.P == _attempt_chain(params, ideal_singleton_table, DEFAULT_FAULT_MODEL)


class TestAbsorption:
    def test_zero_noise_never_fails(self):
        assert encoded_failure_at(build_chain(ModelParams.ideal(F(0)))) == 0
        assert encoded_failure_at(build_chain(ModelParams.lossy(F(0), F(0)))) == 0

    def test_symbolic_chain_rejected(self):
        for chain in (ideal_chain(), lossy_chain(), build_chain(ModelParams.lossy(F(1, 10)))):
            with pytest.raises(ValueError, match="numeric rates"):
                encoded_failure_at(chain)
            with pytest.raises(ValueError, match="numeric rates"):
                run_to_absorption(chain)

    def test_failure_rate_rejects_delta_terms(self):
        with pytest.raises(ValueError, match="delta"):
            failure_rate(lossy_chain())


def iterated_series(chain, order):
    """Encoded failure series by iterating the chain, truncated at ``order``.

    Every zero-noise transition makes strict progress toward absorption, so
    mass that survives k extra rounds carries at least k powers of eps and
    the truncated unabsorbed mass reaches exact zero in a bounded number of
    steps.
    """

    def truncate(p):
        return Poly({e: c for e, c in p.terms.items() if sum(e) <= order})

    clean_id, fail_id = chain.absorbing
    initial = initial_distribution(chain.params, chain.table, chain.config)
    dist = {cid: truncate(p) for cid, p in initial.items()}
    fail_mass = dist.pop(fail_id, Poly.zero())
    dist.pop(clean_id, None)
    for _ in range(40 * (order + 2)):
        if all(p.is_zero() for p in dist.values()):
            return fail_mass
        nxt = {}
        for cid, mass in dist.items():
            for j, entry in enumerate(chain.P[cid]):
                nxt[j] = nxt.get(j, Poly.zero()) + truncate(mass * entry)
        fail_mass = fail_mass + nxt.pop(fail_id, Poly.zero())
        nxt.pop(clean_id, None)
        dist = nxt
    raise AssertionError("series iteration did not absorb")


SERIES_CASES = {
    "ideal": ("ideal", FaultModel()),
    "lossy_per_gate": ("lossy", FaultModel()),
    "lossy_per_teleportation": (
        "lossy",
        FaultModel(construction=Construction.PER_TELEPORTATION),
    ),
    "lossy_helper_coupling": (
        "lossy",
        FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2)),
    ),
}

# The chain each model's series is read from: lossy on the delta = eps line.
SERIES_PARAMS = {"ideal": ModelParams.ideal(), "lossy": ModelParams.lossy_diagonal()}


class TestSeries:
    def test_low_order_coefficients_vanish(self):
        for model in ("ideal", "lossy"):
            series = chain_recursion(model).series(4)
            for k in (0, 1, 2):
                assert series.coefficient(k) == 0
            assert series.coefficient(3) >= 7

    def test_order_zero_is_zero(self):
        assert chain_recursion("ideal").series(0).is_zero()

    def test_ideal_series_regression(self):
        # Exact engine output, cross-validated in this suite against the
        # unreduced 128-state chain and the Monte Carlo sampler.
        series = chain_recursion("ideal").series(6)
        assert series.coefficient(3) == 49
        assert series.coefficient(4) == 441
        assert series.coefficient(5) == -2086
        assert series.coefficient(6) == -3801

    def test_lossy_series_regression(self):
        series = chain_recursion("lossy").series(6)
        assert series.coefficient(3) == F(203, 2)
        assert series.coefficient(4) == F(6041, 4)
        assert series.coefficient(5) == F(-9303, 2)
        assert series.coefficient(6) == F(-54887)

    def test_series_is_single_variable_for_lossy(self):
        series = chain_recursion("lossy").series(5)
        assert all(j == 0 for (_, j) in series.terms)

    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_taylor_series_matches_iterated_absorption(self, case):
        model, config = SERIES_CASES[case]
        expected = iterated_series(build_chain(SERIES_PARAMS[model], config=config), 20)
        assert chain_recursion(model, config).series(20) == expected

    def test_series_matches_numeric_solve_at_small_rate(self):
        # The truncated series and the exact absorbing solve agree up to
        # the order-8 remainder at a small rate.
        eps = F(1, 1000)
        series = chain_recursion("ideal").series(7)
        exact = encoded_failure_at(build_chain(ModelParams.ideal(eps)))
        series_value = series.evaluate(eps, eps)
        assert abs(exact - series_value) < 10**7 * eps**8


class TestReducedVersusUnreduced:
    def test_ideal_exact_equality(self, ideal_singleton_table):
        for eps in (F(1, 100), F(1, 10)):
            params = ModelParams.ideal(eps)
            reduced = build_chain(params)
            full = build_chain(params, table=ideal_singleton_table)
            assert encoded_failure_at(reduced) == encoded_failure_at(full)

    def test_series_sanity_full_solve_stays_probability(self):
        # Sampled over [0, 1/4], the absorbing-solve failure rate is a
        # probability even where the truncated series misbehaves.
        for k in range(0, 21, 2):
            value = encoded_failure_at(build_chain(ModelParams.ideal(F(k, 80))))
            assert 0 <= value <= 1

    def test_lossy_diagonal_probability_valued(self):
        for k in range(0, 21, 4):
            value = encoded_failure_at(build_chain(ModelParams.lossy_diagonal(F(k, 80))))
            assert 0 <= value <= 1


class TestChainExport:
    def test_json_structure(self):
        chain = ideal_chain()
        data = chain.to_json()
        assert data["model"] == "ideal"
        assert len(data["matrix"]) == len(data["classes"]) == 5
        assert data["absorbing"] == [chain.table.clean_id, chain.table.fail_id]
        restored = Poly.from_json(data["matrix"][1][0])
        assert restored == chain.P[1][0]


def fraction_oracle(chain, eps, delta):
    """Absorption probability by Fraction Gauss-Jordan elimination.

    An independent reference for ``encoded_failure_at``, which eliminates
    the chain built at the point: evaluate every entry of the symbolic
    chain as a Fraction and reduce [I - Q | r] to the absorption vector.
    """
    clean_id, fail_id = chain.absorbing
    transient = [i for i in range(chain.size) if i not in (clean_id, fail_id)]
    pos = {cid: k for k, cid in enumerate(transient)}
    n = len(transient)
    M = [[F(0)] * (n + 1) for _ in range(n)]
    for i in transient:
        for j in range(chain.size):
            v = chain.P[i][j].evaluate(eps, delta)
            if j == fail_id:
                M[pos[i]][n] += v
            elif j != clean_id:
                M[pos[i]][pos[j]] -= v
        M[pos[i]][pos[i]] += 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular transient system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    total = F(0)
    initial = initial_distribution(chain.params, chain.table, chain.config)
    for cid, mass in initial.items():
        v = mass.evaluate(eps, delta)
        if cid == fail_id:
            total += v
        elif cid != clean_id:
            total += v * M[pos[cid]][n]
    return total


def random_rate(rng):
    den = rng.choice((1, 2, 19, 1000, 10**6, rng.randint(1, 10**6)))
    return F(rng.randint(0, den), den)


CONFIGS = {
    "per_gate": FaultModel(),
    "per_teleportation": FaultModel(construction=Construction.PER_TELEPORTATION),
}


def at_point(model, eps, delta, config):
    """The rate at (eps, delta) from the chain built at that point."""
    params = ModelParams.ideal(eps) if model is Model.IDEAL else ModelParams.lossy(eps, delta)
    return encoded_failure_at(build_chain(params, config=config))


class TestFractionFreeSolve:
    """The Bareiss solve of the chain built at a point returns the Fraction
    elimination's rational of the symbolic chain evaluated there."""

    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_matches_oracle_at_random_rationals(self, construction):
        config = CONFIGS[construction]
        rng = random.Random(4)
        ideal = build_chain(ModelParams.ideal(), config=config)
        lossy = build_chain(ModelParams.lossy(), config=config)
        ideal_rate = chain_recursion("ideal", config)
        lossy_rate = chain_recursion("lossy", config)
        for _ in range(12):
            eps = random_rate(rng)
            expected = fraction_oracle(ideal, eps, F(0))
            assert at_point(Model.IDEAL, eps, F(0), config) == expected
            assert ideal_rate(eps) == expected
            assert lossy_rate(eps) == fraction_oracle(lossy, eps, eps)
            delta = random_rate(rng)
            while delta == eps:
                delta = random_rate(rng)
            assert at_point(Model.LOSSY, eps, delta, config) == fraction_oracle(
                lossy, eps, delta
            )

    def test_matches_oracle_on_numeric_rate_chain(self):
        for params in (ModelParams.ideal(F(3, 17)), ModelParams.lossy(F(1, 20), F(1, 7))):
            chain = build_chain(params)
            expected = fraction_oracle(chain, F(0), F(0))
            assert encoded_failure_at(chain) == expected
            assert run_to_absorption(chain).encoded_failure == expected
            assert failure_rate(chain).at(F(1, 2)) == expected

    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_matches_oracle_at_rate_endpoints(self, construction):
        config = CONFIGS[construction]
        ideal = build_chain(ModelParams.ideal(), config=config)
        lossy = build_chain(ModelParams.lossy(), config=config)
        for eps in (F(0), F(1)):
            assert at_point(Model.IDEAL, eps, F(0), config) == fraction_oracle(
                ideal, eps, F(0)
            )
            for delta in (F(0), F(1)):
                if (eps, delta) == (0, 1):
                    continue
                assert at_point(Model.LOSSY, eps, delta, config) == fraction_oracle(
                    lossy, eps, delta
                )

    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_lossless_gates_with_lost_detections_trap_a_class_no_mass_reaches(
        self, construction
    ):
        # eps = 0, delta = 1: a class holding a full erasure never leaves
        # itself, so the whole transient system is singular.  Lossless
        # gates inject only the clean pattern, so no mass reaches that
        # class and the chain built at the point fails with rate 0.
        config = CONFIGS[construction]
        lossy = build_chain(ModelParams.lossy(), config=config)
        with pytest.raises(ValueError, match="singular transient system"):
            fraction_oracle(lossy, F(0), F(1))
        assert at_point(Model.LOSSY, F(0), F(1), config) == 0

    def test_concat_to_level_three_matches_oracle(self):
        chain = build_chain(ModelParams.ideal())
        x = F(1, 19)
        expected = []
        for _ in range(3):
            x = fraction_oracle(chain, x, F(0))
            expected.append(x)
        assert concat_projection(chain_recursion("ideal"), F(1, 19), 3) == [
            float(x) for x in expected
        ]


def _mass_support(chain):
    """The transient classes some power of Q carries injected mass to:
    the supports of c, cQ, cQ^2, ... evaluated as Fractions."""
    clean_id, fail_id = chain.absorbing
    transient = [i for i in range(chain.size) if i not in (clean_id, fail_id)]
    initial = initial_distribution(chain.params, chain.table, chain.config)
    mass = {i: initial[i].evaluate(0, 0) for i in transient if i in initial}
    support = set()
    for _ in transient:
        support |= {i for i, v in mass.items() if v}
        mass = {
            j: sum(v * chain.P[i][j].evaluate(0, 0) for i, v in mass.items())
            for j in transient
        }
    return sorted(support)


class TestReachedClasses:
    @pytest.mark.parametrize("construction", sorted(CONFIGS))
    def test_numeric_solve_keeps_the_classes_injected_mass_reaches(
        self, construction, monkeypatch
    ):
        # The chain at a point is solved on the transient classes that
        # injected mass reaches, one row each plus the border row; the
        # rate is the full system's.  A symbolic chain keeps them all.
        config = CONFIGS[construction]
        sizes = []
        real = markov_engine._eliminate

        def spy(rows):
            sizes.append(len(rows))
            return real(rows)

        monkeypatch.setattr(markov_engine, "_eliminate", spy)
        lossy = build_chain(ModelParams.lossy(), config=config)
        for eps, delta in [(F(0), F(1)), (F(0), F(1, 10)), (F(1, 10), F(0)), (F(1, 10), F(1, 10))]:
            chain = build_chain(ModelParams.lossy(eps, delta), config=config)
            reached = _mass_support(chain)
            rate = encoded_failure_at(chain)
            assert sizes.pop() == len(reached) + 1
            if reached:
                assert rate == fraction_oracle(lossy, eps, delta)
            else:
                assert rate == 0
        diagonal = build_chain(ModelParams.lossy_diagonal(), config=config)
        failure_rate(diagonal)
        assert sizes.pop() == diagonal.size - 1
        # At (1/10, 1/10) mass reaches every transient class.
        assert _mass_support(chain) == [i for i in range(1, chain.size - 1)]


ALT_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "alt_config.json"

# (degree of N, degree of D, sha256 of N, sha256 of D) of each full-chain
# rate, a coefficient list hashed as its comma-joined decimal digits.
PINNED_RATES = {
    "ideal": (
        16, 9,
        "5067256a2eebfa438f3047a0f75c048966e3693f3b89c01369bf55c33ec2ce55",
        "acf3f6a6f1634cf4a5246db861d4fdc11cf2d9a2cee94fca18027245a7c8c54d",
    ),
    "per_gate": (
        61, 54,
        "19ea1e0a6124c132ba00013cfe42c497f7752ce45e2860be4188d06b7c7b0bdd",
        "784f49d87202b3b082841593b6f6a614cdb23a69de8ef47502b08ae1b5cbfe12",
    ),
    "alt_config": (
        70, 63,
        "4fd43356a30884ffb2e86c8a4640cdcd8361da6026396ca7a9a8e2c131a508aa",
        "7ff099684f4f14c1adc9ad2af77e65b655827d94cf3055b46f14072a6b172fb6",
    ),
    "per_teleportation": (
        107, 93,
        "f51052b5cb5762f1ce46b058296eb89c8b68be9c844e758c2b9eefa777e19218",
        "0d49f6eb360f9e566daba1ba936ef4f10e895bf870751795f00e7eeab45deb26",
    ),
}


def _pinned_rate(name):
    if name == "ideal":
        return chain_recursion("ideal")
    if name == "alt_config":
        return chain_recursion("lossy", FaultModel.from_json(json.loads(ALT_CONFIG.read_text())))
    return chain_recursion("lossy", CONFIGS[name])


class TestPinnedRates:
    @pytest.mark.parametrize("name", sorted(PINNED_RATES))
    def test_numerator_and_denominator_are_pinned(self, name):
        def digest(coeffs):
            return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()

        rate = _pinned_rate(name)
        assert (len(rate.N) - 1, len(rate.D) - 1, digest(rate.N), digest(rate.D)) == (
            PINNED_RATES[name]
        )


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    """Schoolbook product of coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_exact_div(a, b):
    """a / b from the top coefficient down, asserting the division is exact."""
    rest, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k], remainder = divmod(rest[k + len(b) - 1], b[-1])
        assert remainder == 0
        for i, y in enumerate(b):
            rest[k + i] -= q[k] * y
    assert not any(rest)
    return _trim(q)


def naive_bareiss(rows):
    """(det M, det A) by the same pivoting as the engine, on coefficient lists."""
    M = [[_trim(entry) for entry in row] for row in rows]
    m = len(M) - 1
    prev = [1]
    for k in range(m):
        pivot = next((r for r in range(k, m) if M[r][k]), None)
        if pivot is None:
            raise ValueError("singular transient system")
        M[k], M[pivot] = M[pivot], M[k]
        top, p = M[k], M[k][k]
        for r in range(k + 1, m + 1):
            row, f = M[r], M[r][k]
            for j in range(k + 1, m + 1):
                diff = [
                    x - y
                    for x, y in zip_longest(_poly_mul(row[j], p), _poly_mul(f, top[j]), fillvalue=0)
                ]
                row[j] = _poly_exact_div(_trim(diff), prev)
        prev = p
    return M[m][m], prev


_COEFFICIENT = st.integers(-(2**40), 2**40)
_POLY = st.lists(_COEFFICIENT, max_size=7)


@st.composite
def bordered_matrices(draw):
    """Square matrices of integer polynomials (degrees 0-6), sizes 1-6.

    Some rows repeat a polynomial multiple of another row on a leading
    run of columns, so pivots cancel mid-elimination and whole systems
    can be singular.
    """
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(_POLY, min_size=n, max_size=n)) for _ in range(n)]
    for r in range(n):
        if n > 1 and draw(st.integers(0, 3)) == 0:
            source = draw(st.integers(0, n - 1).filter(lambda s: s != r))
            factor = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2))
            width = draw(st.integers(1, n))
            rows[r][:width] = [_poly_mul(factor, entry) for entry in rows[source][:width]]
    return rows


_NONZERO_POLY = st.lists(_COEFFICIENT, min_size=1, max_size=7).filter(any)


@st.composite
def sparse_bordered_matrices(draw):
    """Square matrices of integer polynomials, sizes 2-7, each entry zero
    with probability 1/2, so rows skip Bareiss steps.

    The transient block may be block triangular: zeros left of a split in
    the rows below it make those rows skip the first steps, and zeros
    right of it in the rows above it, and optionally in the border row on
    the same columns, make the border skip the last steps.  Or the block
    is upper triangular with a nonzero diagonal, so row r skips r steps in
    a row and then becomes the pivot.
    """
    n = draw(st.integers(2, 7))
    m = n - 1
    entry = st.one_of(st.just([]), _NONZERO_POLY)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["sparse", "block", "triangular"]))
    if shape == "block" and m >= 2:
        split = draw(st.integers(1, m - 1))
        if draw(st.booleans()):
            for r in range(split, m):
                rows[r][:split] = [[]] * split
        else:
            for r in range(split):
                rows[r][split:m] = [[]] * (m - split)
            if draw(st.booleans()):
                rows[m][split:m] = [[]] * (m - split)
    elif shape == "triangular":
        for r in range(m):
            rows[r][:r] = [[]] * r
            rows[r][r] = draw(_NONZERO_POLY)
    return rows


def _check_elimination(rows):
    try:
        expected = naive_bareiss(rows)
    except ValueError:
        with pytest.raises(ValueError, match="singular transient system"):
            markov_engine._eliminate(rows)
    else:
        assert markov_engine._eliminate(rows) == expected


class TestIntegerElimination:
    """``_eliminate`` runs Bareiss on the matrix packed at eps = 2^w."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(rows=bordered_matrices())
    def test_matches_list_polynomial_bareiss(self, rows):
        _check_elimination(rows)

    # Row 2 skips step 0 and is updated from its first level at step 1,
    # row 3 skips steps 0-2 and becomes the last pivot, and the border row
    # skips steps 2 and 3 and is brought up to date at the end.
    @example(
        rows=[
            [[2], [1, 1], [], [], [1]],
            [[1, 1], [0, 2], [], [], [2, 1]],
            [[], [5], [1, -1], [4], [1]],
            [[], [], [], [0, 0, 3], [7]],
            [[1, 2], [3], [], [], [0, 1]],
        ]
    )
    # A zero leading entry swaps the pivot, and the swapped-out row, which
    # skipped step 0, is brought up to date before it pivots at step 1, as
    # row 2 is before it pivots at step 2.
    @example(
        rows=[
            [[], [1], [2, 1], [1]],
            [[3], [1, 1], [1], [0, 1]],
            [[], [], [1, 2], [5]],
            [[1], [2], [], [1]],
        ]
    )
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(rows=sparse_bordered_matrices())
    def test_sparse_rows_skip_steps_and_match_list_polynomial_bareiss(self, rows):
        _check_elimination(rows)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(w=st.integers(2, 200), data=st.data())
    def test_pack_unpack_round_trip_at_the_slot_limits(self, w, data):
        limit = 2 ** (w - 1) - 1
        coeffs = data.draw(st.lists(st.sampled_from([-limit, 0, limit]), max_size=12))
        coeffs = _trim(coeffs)
        assert markov_engine._unpack(markov_engine._pack(coeffs, w), w) == coeffs


class TestSharedClassTable:
    def test_verified_once_per_model_and_fault_model(self, monkeypatch):
        # The step of each live pattern is decided once per model, in code
        # order, and a build groups and verifies its table from those
        # steps; the other patterns are decided per erased mask, with no
        # call.
        select = correction_circuits.select_step
        calls = []

        def spy(pattern):
            calls.append(pattern)
            return select(pattern)

        monkeypatch.setattr(correction_circuits, "select_step", spy)
        erasure_model._class_table.cache_clear()
        correction_circuits.live_steps.cache_clear()
        try:
            tables = [
                build_chain(params, config=config).table
                for config in (None, DEFAULT_FAULT_MODEL, FaultModel())
                for params in (
                    ModelParams.ideal(),
                    ModelParams.ideal(F(1, 10)),
                    ModelParams.lossy(),
                    ModelParams.lossy(F(1, 20), F(1, 7)),
                )
            ]
        finally:
            erasure_model._class_table.cache_clear()
            correction_circuits.live_steps.cache_clear()
        # One decision per live code, and one table per (model,
        # FaultModel): None, the default and an equal FaultModel are one key.
        assert len(calls) == 56 + 322
        assert calls == [
            all_patterns(model)[code] for model in (Model.IDEAL, Model.LOSSY)
            for code in live_codes(model)
        ]
        assert len({id(t) for t in tables[0::4] + tables[1::4]}) == 1
        assert len({id(t) for t in tables[2::4] + tables[3::4]}) == 1

    def test_shared_table_is_read_only(self):
        table = build_classes(Model.LOSSY)
        with pytest.raises(AttributeError):
            table.fail_id = 0
        with pytest.raises(TypeError):
            table.classes[0] = table.classes[1]
        assert hash(table) == hash(build_classes(Model.LOSSY, DEFAULT_FAULT_MODEL))


class TestEnclose:
    """A certified nondecreasing rate is enclosed on an interval by its
    exact values at the two ends."""

    @pytest.mark.parametrize(
        "rate",
        [
            FailureRate([-1, 3], [1, 1]),  # negative numerator near 0
            FailureRate([1], [-2, -1]),  # negative denominator
            FailureRate([0, 0, 0, 35, -105, 126, -70, 15], [1]),
        ],
        ids=["negative-numerator", "negative-denominator", "measurement-tail"],
    )
    def test_bounds_hold_the_rate_on_the_interval(self, rate):
        def value(coeffs, x):
            return sum(c * x**i for i, c in enumerate(coeffs))

        assert rate.nondecreasing()
        rng = random.Random(5)
        for _ in range(40):
            q = rng.randint(1, 10**6)
            lo, hi = sorted(rng.randint(0, q) for _ in range(2))
            (a, b), (c, d) = rate.point(lo, q), rate.point(hi, q)
            assert b > 0 and d > 0
            assert F(a, b) == value(rate.N, F(lo, q)) / value(rate.D, F(lo, q))
            assert F(c, d) == value(rate.N, F(hi, q)) / value(rate.D, F(hi, q))
            for k in range(5):
                x = F(lo, q) + F(hi - lo, q) * F(k, 4)
                assert F(a, b) <= rate.at(x) <= F(c, d)

    def test_point_is_scaled_with_a_positive_denominator(self):
        # -1 / (2 + x) at 1/3, both parts scaled by 3^1 and negated.
        assert FailureRate([1], [-2, -1]).point(1, 3) == (-3, 7)
        assert FailureRate([0, 0, 1], [1]).point(1, 3) == (1, 9)

    @pytest.mark.parametrize(
        "rate, certified",
        [
            (FailureRate([0, 0, 1], [1]), True),
            (FailureRate([5], [7]), True),  # constant: W = 0
            (FailureRate([0, 1], [1, -1, 1]), True),  # W = 1 - x^2
            (FailureRate([1, -1], [1]), False),  # 1 - x decreases
            (FailureRate([0, 1, -1], [1]), False),  # x (1 - x) peaks at 1/2
            (FailureRate([0, 1], [1, -2]), False),  # pole at 1/2
        ],
        ids=["square", "constant", "flat-at-1", "decreasing", "peaked", "pole"],
    )
    def test_certificate(self, rate, certified):
        assert rate.nondecreasing() is certified

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12),
        extra=st.integers(0, 3),
        p=st.integers(0, 2**70),
        q=st.integers(0, 1200).map(lambda s: 1 << s) | st.integers(1, 10**9),
    )
    def test_horner_is_the_scaled_value(self, coeffs, extra, p, q):
        # A power of two q takes shifts, any other q products.
        degree = len(coeffs) - 1 + extra
        value = sum(c * F(p, q) ** i for i, c in enumerate(coeffs))
        assert markov_engine._horner(coeffs, p, q, degree) == value * q**degree

    def test_denominator_holding_zero(self):
        rate = FailureRate([1], [1, -2])
        assert not rate.nondecreasing()
        with pytest.raises(ValueError, match="singular transient system"):
            rate.point(1, 2)
