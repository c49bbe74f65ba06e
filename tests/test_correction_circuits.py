import json
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurechain import correction_circuits
from erasurechain.exact_arith import Poly
from erasurechain.correction_circuits import (
    ABORT,
    DONE,
    DEFAULT_FAULT_MODEL,
    Construction,
    CorrectionStep,
    FaultModel,
    StepKind,
    attempt,
    fail_sink,
    gate_tables,
    outcome_tables,
    select_step,
    teleported_gate,
)
from erasurechain.erasure_model import (
    Classification,
    Erasure,
    Model,
    ModelParams,
    all_patterns,
    build_classes,
    classify,
    parse_pattern,
    pattern_counts,
    pattern_weight,
    qubit_marginals,
)
from erasurechain.pauli_algebra import stabilizer_supports_weight4, supports_logical

from conftest import members_index

QUADS = [frozenset(s) for s in stabilizer_supports_weight4()]


def dist_total(dist):
    total = Poly.zero()
    for p in dist.values():
        total = total + p
    return total


class TestSelectStep:
    def test_clean_is_done(self):
        assert select_step(parse_pattern(".......")) is DONE

    def test_full_erasures_first(self):
        step = select_step(parse_pattern("E.Z...."))
        assert step.kind is StepKind.FULL_TO_Z
        assert step.target == 1

    def test_z_targets_when_no_fulls(self):
        step = select_step(parse_pattern(".M....."))
        assert step.kind is StepKind.Z_RECOVERY
        assert step.target == 2

    def test_procedure_fail_aborts(self):
        assert select_step(parse_pattern("EEEE...")) is ABORT
        assert select_step(parse_pattern("....MMM")) is ABORT

    def test_helpers_always_valid(self):
        # For every correctable non-clean pattern: target is the lowest
        # erased qubit (full erasures first), helpers are intact, the four
        # qubits form a stabilizer support, and the helper set is the
        # lexicographically smallest valid choice.
        for model in Model:
            for p in all_patterns(model):
                if pattern_weight(p) == 0:
                    continue
                if classify(p) is Classification.PROCEDURE_FAIL:
                    continue
                step = select_step(p)
                fulls = [q + 1 for q in range(7) if p[q] == Erasure.FULL]
                erased = [q + 1 for q in range(7) if p[q] != Erasure.NONE]
                assert step.target == (min(fulls) if fulls else min(erased))
                assert all(p[h - 1] == Erasure.NONE for h in step.helpers)
                quad = frozenset(step.helpers) | {step.target}
                assert quad in QUADS
                better = [
                    tuple(sorted(q - {step.target}))
                    for q in QUADS
                    if step.target in q
                    and all(p[h - 1] == Erasure.NONE for h in q - {step.target})
                ]
                assert step.helpers == min(better)


# Oracle definitions of the per-pattern helpers: generator sums over the
# qubits and helper sets filtered and sorted from the stabilizer quads.
def _oracle_weight(p):
    return sum(1 for s in p if s != Erasure.NONE)


def _oracle_counts(p):
    m = sum(1 for s in p if s == Erasure.FULL)
    n = sum(1 for s in p if s == Erasure.Z_ERASED)
    k = sum(1 for s in p if s == Erasure.Z_MEASURED)
    return m, n, k


def _oracle_classify(p):
    w = _oracle_weight(p)
    if w <= 2:
        return Classification.CORRECTABLE
    support = frozenset(q + 1 for q in range(7) if p[q] != Erasure.NONE)
    if w == 3 and not supports_logical(support):
        return Classification.CORRECTABLE
    return Classification.PROCEDURE_FAIL


def _oracle_select_step(p):
    if _oracle_weight(p) == 0:
        return DONE
    if _oracle_classify(p) is Classification.PROCEDURE_FAIL:
        return ABORT
    fulls = [q + 1 for q in range(7) if p[q] == Erasure.FULL]
    if fulls:
        kind, target = StepKind.FULL_TO_Z, fulls[0]
    else:
        zs = [q + 1 for q in range(7) if p[q] != Erasure.NONE]
        kind, target = StepKind.Z_RECOVERY, zs[0]
    intact = {q + 1 for q in range(7) if p[q] == Erasure.NONE}
    candidates = sorted(
        tuple(sorted(quad - {target}))
        for quad in QUADS
        if target in quad and (quad - {target}) <= intact
    )
    return CorrectionStep(kind=kind, target=target, helpers=candidates[0])


# The CLI's classify command also takes patterns that mix the two alphabets.
@pytest.mark.parametrize(
    "patterns",
    [
        all_patterns(Model.IDEAL),
        all_patterns(Model.LOSSY),
        list(product(Erasure, repeat=7)),
    ],
    ids=["ideal", "lossy", "mixed"],
)
def test_per_pattern_helpers_match_oracle(patterns):
    for p in patterns:
        assert pattern_weight(p) == _oracle_weight(p)
        assert pattern_counts(p) == _oracle_counts(p)
        assert classify(p) is _oracle_classify(p)
        step, want = select_step(p), _oracle_select_step(p)
        if want is DONE or want is ABORT:
            assert step is want
        else:
            assert step == want


class TestZRecoveryIdeal:
    def test_zero_noise_recovers(self):
        p = parse_pattern("M......")
        dist = attempt(p, ModelParams.ideal(F(0)))
        assert dist == {parse_pattern("......."): Poly.one()}

    def test_clean_path_probability(self):
        p = parse_pattern("M......")
        dist = attempt(p, ModelParams.ideal())
        one_minus = Poly.one() - Poly.eps()
        assert dist[parse_pattern(".......")] == one_minus * one_minus * one_minus

    def test_helper_faults_mark_z_measured_and_block_recovery(self):
        p = parse_pattern("M......")
        dist = attempt(p, ModelParams.ideal())
        for outcome, prob in dist.items():
            if outcome != parse_pattern("......."):
                # target still erased, new marks are Z measurements
                assert outcome[0] == Erasure.Z_MEASURED
                m, n, _ = pattern_counts(outcome)
                assert m == n == 0

    def test_normalization(self):
        p = parse_pattern(".M..M..")
        dist = attempt(p, ModelParams.ideal())
        assert dist_total(dist) == Poly.one()


class TestZRecoveryLossy:
    def test_readout_upgrade_probability_is_delta(self):
        # P(target becomes fully erased) = delta exactly.
        p = parse_pattern("Z......")
        dist = attempt(p, ModelParams.lossy())
        upgraded = parse_pattern("E......")
        assert dist[upgraded] == Poly.delta()

    def test_helper_fault_effects(self):
        p = parse_pattern("Z......")
        step = select_step(p)
        dist = attempt(p, ModelParams.lossy())
        for outcome in dist:
            if outcome in (parse_pattern("......."), parse_pattern("E......")):
                continue
            # any helper fault: target back to Z erased, helpers fully erased
            assert outcome[0] == Erasure.Z_ERASED
            for h in step.helpers:
                assert outcome[h - 1] in (Erasure.NONE, Erasure.FULL)

    def test_zero_noise_recovers(self):
        dist = attempt(parse_pattern("Z......"), ModelParams.lossy(F(0), F(0)))
        assert dist == {parse_pattern("......."): Poly.one()}


class TestFullToZ:
    def test_zero_noise_downgrades(self):
        dist = attempt(parse_pattern("E......"), ModelParams.lossy(F(0), F(0)))
        assert dist == {parse_pattern("Z......"): Poly.one()}

    def test_measurement_success_marginal(self):
        # P(all ancilla readouts survive) = (1-delta)^4: total mass on
        # outcomes where the target was downgraded.
        p = parse_pattern("E......")
        dist = attempt(p, ModelParams.lossy())
        downgraded = Poly.zero()
        for outcome, prob in dist.items():
            if outcome[0] == Erasure.Z_ERASED:
                downgraded = downgraded + prob
        survive = Poly.one() - Poly.delta()
        assert downgraded == survive * survive * survive * survive

    def test_coupling_faults_z_mark_helpers(self):
        p = parse_pattern("E......")
        step = select_step(p)
        dist = attempt(p, ModelParams.lossy())
        seen_helper_hit = False
        for outcome in dist:
            for h in step.helpers:
                if outcome[h - 1] != Erasure.NONE:
                    assert outcome[h - 1] == Erasure.Z_ERASED
                    seen_helper_hit = True
        assert seen_helper_hit

    def test_diagonal_substitution_is_single_variable(self):
        p = parse_pattern("E......")
        dist = attempt(p, ModelParams.lossy_diagonal())
        for prob in dist.values():
            assert all(j == 0 for (_, j) in prob.terms)


class TestAttempt:
    def test_clean_self_loop(self):
        p = parse_pattern(".......")
        assert attempt(p, ModelParams.ideal()) == {p: Poly.one()}

    @pytest.mark.parametrize(
        "text, params",
        [
            ("M......", ModelParams.lossy()),
            ("Z......", ModelParams.ideal()),
            ("E......", ModelParams.ideal()),
        ],
    )
    def test_pattern_outside_the_models_alphabet_rejected(self, text, params):
        with pytest.raises(ValueError, match="alphabet"):
            attempt(parse_pattern(text), params)

    def test_abort_maps_to_sink(self):
        p = parse_pattern("MMMM...")
        assert attempt(p, ModelParams.ideal()) == {
            fail_sink(Model.IDEAL): Poly.one()
        }

    def test_normalization_everywhere(self):
        for model, params in (
            (Model.IDEAL, ModelParams.ideal()),
            (Model.LOSSY, ModelParams.lossy()),
        ):
            for p in all_patterns(model):
                assert dist_total(attempt(p, params)) == Poly.one()

    def test_zero_noise_strict_progress(self):
        # At zero noise every correctable attempt strictly reduces the
        # potential (weight, full-erasure count): Z recoveries drop the
        # weight, full-erasure conversions trade a full for a Z erasure.
        for model, params in (
            (Model.IDEAL, ModelParams.ideal(F(0))),
            (Model.LOSSY, ModelParams.lossy(F(0), F(0))),
        ):
            for p in all_patterns(model):
                if pattern_weight(p) == 0:
                    continue
                if classify(p) is Classification.PROCEDURE_FAIL:
                    continue
                dist = attempt(p, params)
                assert len(dist) == 1
                (outcome,) = dist
                before = (pattern_weight(p), pattern_counts(p)[0])
                after = (pattern_weight(outcome), pattern_counts(outcome)[0])
                assert after < before

    def test_fault_monomial_valuation_bounded(self):
        # No outcome needs more than 4 simultaneous fault locations.
        for model, params in (
            (Model.IDEAL, ModelParams.ideal()),
            (Model.LOSSY, ModelParams.lossy()),
        ):
            for p in all_patterns(model):
                for prob in attempt(p, params).values():
                    assert 0 <= prob.valuation() <= 4

    def test_outcome_probabilities_lie_in_unit_interval(self):
        grid = [F(k, 20) for k in range(6)]
        for p in all_patterns(Model.LOSSY)[::97]:
            for prob in attempt(p, ModelParams.lossy()).values():
                for e in grid:
                    for d in (F(0), F(1, 8), F(1, 4)):
                        assert 0 <= prob.evaluate(e, d) <= 1


class TestPermutationEquivariance:
    def test_class_level_outcomes_invariant_under_automorphisms(self, line_automorphisms):
        # Relabeling by a code automorphism may change which helper set the
        # deterministic tie-break picks, but the class-level distribution
        # must be unchanged.
        for model, params in (
            (Model.IDEAL, ModelParams.ideal()),
            (Model.LOSSY, ModelParams.lossy()),
        ):
            index = members_index(build_classes(model))
            for p in all_patterns(model)[:: 53 if model is Model.LOSSY else 7]:
                base = _projected(attempt(p, params), index)
                for perm in line_automorphisms[::41]:
                    q = [Erasure.NONE] * 7
                    for k in range(7):
                        q[perm[k] - 1] = p[k]
                    assert _projected(attempt(tuple(q), params), index) == base


def _projected(dist, index):
    rows = {}
    for q, prob in dist.items():
        cid = index[q]
        rows[cid] = rows.get(cid, Poly.zero()) + prob
    return {cid: prob.key() for cid, prob in rows.items() if not prob.is_zero()}


class TestFaultModelConfig:
    def test_roundtrip(self):
        for cfg in (
            FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2)),
            FaultModel(ancilla_detections=2, construction=Construction.PER_TELEPORTATION),
        ):
            assert FaultModel.from_json(cfg.to_json()) == cfg

    def test_hash_tracks_values(self):
        assert FaultModel().config_hash() != FaultModel(helper_detections=2).config_hash()
        assert FaultModel().config_hash() == DEFAULT_FAULT_MODEL.config_hash()
        # per_gate configs hash as they did before the construction key existed.
        assert DEFAULT_FAULT_MODEL.config_hash() == "80d8c313afc4"
        alt = FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2))
        assert alt.config_hash() == "05383ce7d736"
        per_teleportation = FaultModel(construction=Construction.PER_TELEPORTATION)
        assert per_teleportation.config_hash() != DEFAULT_FAULT_MODEL.config_hash()

    @pytest.mark.parametrize("value", [0.5, 0.1, True, "1/2"])
    def test_inexact_coupling_full_fraction_rejected(self, value):
        # A float is recorded as written but would be computed as its
        # binary value; a bool is not a fraction.
        with pytest.raises(ValueError, match="coupling_full_fraction"):
            FaultModel(coupling_full_fraction=value)

    def test_equal_models_hash_equal(self):
        as_int = FaultModel(coupling_full_fraction=1)
        as_fraction = FaultModel(coupling_full_fraction=F(1))
        assert as_int == as_fraction
        assert as_int.config_hash() == as_fraction.config_hash()
        assert isinstance(as_int.coupling_full_fraction, F)
        parsed = FaultModel.from_json({"helper_detections": 2, "coupling_full_fraction": "1/2"})
        built = FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2))
        assert parsed == built
        assert parsed.config_hash() == built.config_hash() == "05383ce7d736"

    def test_detection_counts_shape_probabilities(self):
        p = parse_pattern("Z......")
        cfg = FaultModel(readout_detections=2)
        dist = attempt(p, ModelParams.lossy(), cfg)
        upgraded = parse_pattern("E......")
        two_detector_loss = Poly.one() - (Poly.one() - Poly.delta()) * (
            Poly.one() - Poly.delta()
        )
        assert dist[upgraded] == two_detector_loss

    def test_coupling_full_fraction_produces_full_marks(self):
        p = parse_pattern("E......")
        cfg = FaultModel(coupling_full_fraction=F(1, 2))
        step = select_step(p)
        dist = attempt(p, ModelParams.lossy(), cfg)
        statuses = {
            outcome[h - 1]
            for outcome in dist
            for h in step.helpers
            if outcome[h - 1] != Erasure.NONE
        }
        assert statuses == {Erasure.Z_ERASED, Erasure.FULL}
        assert dist_total(dist) == Poly.one()


PER_TELEPORTATION = FaultModel(construction=Construction.PER_TELEPORTATION)


class TestPerTeleportation:
    def test_gate_loses_either_qubit(self):
        eps, one = Poly.eps(), Poly.one()
        gate = teleported_gate(eps)
        assert gate[(Erasure.FULL, Erasure.Z_ERASED)] == eps * (one - eps)
        assert gate[(Erasure.Z_ERASED, Erasure.FULL)] == eps * (one - eps)
        assert gate[(Erasure.FULL, Erasure.FULL)] == eps * eps
        assert dist_total(gate) == one

    def test_zero_noise_matches_default(self):
        zero = ModelParams.lossy(F(0), F(0))
        for text in ("Z......", "E......", "EZ.....", ".Z..E.."):
            p = parse_pattern(text)
            assert attempt(p, zero, PER_TELEPORTATION) == attempt(p, zero)

    def test_z_recovery_fresh_side_loss_fully_erases_target(self):
        # Only the fresh side of the first helper gate is lost: the target
        # position is fully erased and that helper Z-erased.
        p = parse_pattern("Z......")
        step = select_step(p)
        dist = attempt(p, ModelParams.lossy(), PER_TELEPORTATION)
        out = list(p)
        out[0] = Erasure.FULL
        out[step.helpers[0] - 1] = Erasure.Z_ERASED
        eps, delta, one = Poly.eps(), Poly.delta(), Poly.one()
        expected = (one - delta) * eps  # readout survives, one loss
        for _ in range(5):  # the other five teleportations survive
            expected = expected * (one - eps)
        assert dist[tuple(out)] == expected
        assert dist[parse_pattern("E......")] == delta

    def test_full_to_z_needs_all_eight_teleportations(self):
        # The four couplings, the target's own included, teleport eight
        # qubits; with any of them lost the measurement is void.
        p = parse_pattern("E......")
        dist = attempt(p, ModelParams.lossy(), PER_TELEPORTATION)
        downgraded = Poly.zero()
        for outcome, prob in dist.items():
            if outcome[0] == Erasure.Z_ERASED:
                assert pattern_counts(outcome) == (0, 1, 0)
                downgraded = downgraded + prob
        keep_e = Poly.one() - Poly.eps()
        keep_d = Poly.one() - Poly.delta()
        expected = Poly.one()
        for _ in range(8):
            expected = expected * keep_e
        for _ in range(4):
            expected = expected * keep_d
        assert downgraded == expected

    def test_normalization_everywhere(self):
        for p in all_patterns(Model.LOSSY):
            assert dist_total(attempt(p, ModelParams.lossy(), PER_TELEPORTATION)) == Poly.one()


# Oracle for TestGateTables: every circuit written out as an enumeration
# over the subsets of its failed fault locations, in the form the per_gate
# and ideal circuits had before they became folds of gate tables.
N, M, Z, E = Erasure.NONE, Erasure.Z_MEASURED, Erasure.Z_ERASED, Erasure.FULL


def _subsets(items):
    for k in range(len(items) + 1):
        yield from combinations(items, k)


def _product(factors):
    prob = Poly.one()
    for factor in factors:
        prob = prob * factor
    return prob


def _add(dist, key, prob):
    if not prob.is_zero():
        dist[key] = dist.get(key, Poly.zero()) + prob


def _detection_loss(delta, detections):
    return Poly.one() - _product([Poly.one() - delta] * detections)


@lru_cache(maxsize=None)
def _enumerated_z_recovery(target_status, params, config):
    one, eps = Poly.one(), params.eps
    local = {}
    if params.model is Model.IDEAL:
        # Three teleportations, each failing with eps and Z-measuring its
        # helper; any failure leaves the target unfixed.
        for failed in _subsets(range(3)):
            prob = _product(eps if k in failed else one - eps for k in range(3))
            helpers = tuple(M if k in failed else N for k in range(3))
            _add(local, (target_status if failed else N,) + helpers, prob)
        return local
    proceed = one
    if target_status is Z:
        p_readout = _detection_loss(params.delta, config.readout_detections)
        _add(local, (E, N, N, N), p_readout)
        proceed = one - p_readout
    if config.construction is Construction.PER_TELEPORTATION:
        # Six teleportations: the helper side (even) and the fresh side
        # (odd) of each helper gate.
        for lost in _subsets(range(6)):
            prob = proceed * _product(eps if t in lost else one - eps for t in range(6))
            fresh, helpers = N, [N, N, N]
            for t in lost:
                k, fresh_side = divmod(t, 2)
                if fresh_side:
                    fresh, helpers[k] = E, max(helpers[k], Z)
                else:
                    fresh, helpers[k] = max(fresh, Z), E
            _add(local, (fresh,) + tuple(helpers), prob)
        return local
    p_helper = _detection_loss(params.delta, config.helper_detections)
    for failed in _subsets(range(3)):
        prob = proceed * _product(p_helper if k in failed else one - p_helper for k in range(3))
        helpers = tuple(E if k in failed else N for k in range(3))
        _add(local, (Z if failed else N,) + helpers, prob)
    return local


@lru_cache(maxsize=None)
def _enumerated_full_to_z(params, config):
    one, eps = Poly.one(), params.eps
    p_void = _detection_loss(params.delta, config.ancilla_detections)
    readout = ((Z, one - p_void), (E, p_void))
    local = {}
    if config.construction is Construction.PER_TELEPORTATION:
        # Eight teleportations: the data side (even) and the register side
        # (odd) of the four couplings, the target's own first.  Any loss
        # marks the register and voids the measurement.
        for lost in _subsets(range(8)):
            prob = _product(eps if t in lost else one - eps for t in range(8))
            helpers = [N, N, N]
            for t in lost:
                k, register_side = divmod(t, 2)
                if k:
                    helpers[k - 1] = max(helpers[k - 1], Z if register_side else E)
            for target, p in readout if not lost else ((E, one),):
                _add(local, (target,) + tuple(helpers), prob * p)
        return local
    frac_full = F(config.coupling_full_fraction)
    for target, meas_prob in readout:
        # Only the three helper couplings can change the outcome.
        for hit in _subsets(range(3)):
            for full in _subsets(hit) if frac_full else ((),):
                prob = meas_prob * _product(
                    one - eps if k not in hit
                    else eps * frac_full if k in full
                    else eps * (1 - frac_full)
                    for k in range(3)
                )
                helpers = tuple(E if k in full else Z if k in hit else N for k in range(3))
                _add(local, (target,) + helpers, prob)
    return local


def _enumerated_attempt(pattern, params, config):
    step = select_step(pattern)
    if step is DONE:
        return {pattern: Poly.one()}
    if step is ABORT:
        return {fail_sink(params.model): Poly.one()}
    if step.kind is StepKind.Z_RECOVERY:
        local = _enumerated_z_recovery(pattern[step.target - 1], params, config)
    else:
        local = _enumerated_full_to_z(params, config)
    dist = {}
    for statuses, prob in local.items():
        out = list(pattern)
        for q, status in zip((step.target,) + step.helpers, statuses):
            out[q - 1] = status
        _add(dist, tuple(out), prob)
    return dist


def _keys(dist):
    return {outcome: prob.key() for outcome, prob in dist.items()}


GATE_TABLE_CONFIGS = (
    DEFAULT_FAULT_MODEL,
    FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2)),
    PER_TELEPORTATION,
    FaultModel(coupling_full_fraction=F(1)),
    FaultModel(ancilla_detections=0, readout_detections=3),
)
GATE_TABLE_PARAMS = (
    ModelParams.ideal(),
    ModelParams.ideal(F(3, 17)),
    ModelParams.lossy(),
    ModelParams.lossy_diagonal(),
    ModelParams.lossy(F(1, 20), F(1, 7)),
)


class TestGateTables:
    def test_attempt_matches_enumerated_circuits(self):
        for params in GATE_TABLE_PARAMS:
            for config in GATE_TABLE_CONFIGS:
                for p in all_patterns(params.model):
                    assert _keys(attempt(p, params, config)) == _keys(
                        _enumerated_attempt(p, params, config)
                    ), (params, config, p)

    def test_per_gate_marginals_split_eps_evenly(self):
        eps, half = Poly.eps(), F(1, 2)
        for config in (DEFAULT_FAULT_MODEL, GATE_TABLE_CONFIGS[1]):
            assert qubit_marginals(ModelParams.lossy(), config) == {
                Erasure.NONE: Poly.one() - eps,
                Erasure.FULL: half * eps,
                Erasure.Z_ERASED: half * eps,
            }

    def test_every_table_sums_to_one(self):
        for params in GATE_TABLE_PARAMS:
            for config in GATE_TABLE_CONFIGS:
                tables = gate_tables(params, config)
                assert (tables.coupling is None) == (params.model is Model.IDEAL)
                for table in tables:
                    if table is not None:
                        assert dist_total(table) == Poly.one()


def _fraction_fold(pairs, sites, gate):
    """Reference fold: the gate table as given, Fraction coefficients and
    all, so its scale is 1."""
    dist = {(Erasure.NONE,) * sites: Poly.one()}
    for a, b in pairs:
        nxt = {}
        for state, prob in dist.items():
            for (sa, sb), p in gate.items():
                out = list(state)
                out[a] = max(out[a], sa)
                out[b] = max(out[b], sb)
                out = tuple(out)
                joint = prob * p
                if joint:
                    nxt[out] = nxt[out] + joint if out in nxt else joint
        dist = nxt
    return dist, 1


def _fraction_outcome_tables(params, config):
    """``outcome_tables`` built with the reference fold, past its cache."""
    saved = correction_circuits._fold_gates
    correction_circuits._fold_gates = _fraction_fold
    try:
        return outcome_tables.__wrapped__(params, config)
    finally:
        correction_circuits._fold_gates = saved


ALT_CONFIG_FILE = FaultModel.from_json(
    json.loads((Path(__file__).resolve().parents[1] / "perfbench/alt_config.json").read_text())
)
NUMERIC_LOSSY = ModelParams.lossy(F(1, 50), F(1, 30))


class TestIntegerFold:
    """The fold scales a gate table with non-integral coefficients to ints
    and each finished outcome is divided once; the tables, entry order
    included, are those of a fold over the Fractions."""

    @pytest.mark.parametrize(
        "params, config",
        [
            (ModelParams.symbolic(Model.LOSSY), ALT_CONFIG_FILE),
            (NUMERIC_LOSSY, DEFAULT_FAULT_MODEL),
            (NUMERIC_LOSSY, ALT_CONFIG_FILE),
            (ModelParams.ideal(F(1, 20)), DEFAULT_FAULT_MODEL),
        ],
        ids=["alt", "numeric", "numeric-alt", "numeric-ideal"],
    )
    def test_tables_match_the_fraction_fold(self, params, config):
        assert outcome_tables(params, config) == _fraction_outcome_tables(params, config)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        fraction=st.integers(1, 12).flatmap(
            lambda q: st.builds(F, st.integers(0, q), st.just(q))
        ),
        helper_detections=st.integers(0, 3),
    )
    def test_tables_match_the_fraction_fold_for_any_coupling_fraction(
        self, fraction, helper_detections
    ):
        config = FaultModel(helper_detections=helper_detections, coupling_full_fraction=fraction)
        params = ModelParams.symbolic(Model.LOSSY)
        assert outcome_tables(params, config) == _fraction_outcome_tables(params, config)

    @pytest.mark.parametrize(
        "params, config",
        [(ModelParams.symbolic(Model.LOSSY), ALT_CONFIG_FILE), (NUMERIC_LOSSY, ALT_CONFIG_FILE)],
        ids=["alt", "numeric-alt"],
    )
    def test_fold_multiplies_ints(self, params, config):
        coupling = gate_tables(params, config).coupling
        assert any(type(c) is F for p in coupling.values() for c in p.terms.values())
        dist, scale = correction_circuits._fold_gates(((0, 4), (1, 4), (2, 4), (3, 4)), 5, coupling)
        assert scale > 1
        assert all(type(c) is int for p in dist.values() for c in p.terms.values())
        reference, _ = _fraction_fold(((0, 4), (1, 4), (2, 4), (3, 4)), 5, coupling)
        assert {k: p * F(1, scale) for k, p in dist.items()} == reference


# Target and helpers, each joined to the register site.
COUPLINGS = ((0, 4), (1, 4), (2, 4), (3, 4))


def _per_state_full_to_z(params, config):
    """Reference register readout: every folded coupling state multiplied
    by the readout's pass and fail probabilities on its own, the products
    accumulated in state order."""
    p_meas_fail = correction_circuits._loss_probability(params.delta, config.ancilla_detections)
    p_meas_ok = Poly.one() - p_meas_fail
    coupling = gate_tables(params, config).coupling
    folded, scale = correction_circuits._fold_gates(COUPLINGS, 5, coupling)
    local = {}
    for state, prob in folded.items():
        helpers = state[1:4]
        if state[4] is Erasure.NONE:
            outcomes = ((Erasure.Z_ERASED, prob * p_meas_ok), (Erasure.FULL, prob * p_meas_fail))
        else:
            outcomes = ((Erasure.FULL, prob),)
        for status, joint in outcomes:
            if joint:
                key = (status,) + helpers
                local[key] = local[key] + joint if key in local else joint
    return correction_circuits._unscaled(local, scale)


def _terms(local):
    """Outcomes in order, each with its terms and their coefficient types."""
    return [
        (statuses, [(exp, c, type(c)) for exp, c in prob.terms.items()])
        for statuses, prob in local
    ]


def _readout_grid():
    for construction, fractions in (
        (Construction.PER_GATE, (F(0), F(1, 3), F(1))),
        (Construction.PER_TELEPORTATION, (F(0),)),
    ):
        for detections, fraction in product(range(4), fractions):
            kwargs = {"ancilla_detections": detections, "readout_detections": detections}
            if construction is Construction.PER_GATE:
                kwargs.update(helper_detections=detections, coupling_full_fraction=fraction)
            yield FaultModel(construction=construction, **kwargs)


READOUT_PARAMS = [
    ModelParams.symbolic(Model.LOSSY),
    ModelParams.lossy_diagonal(),
    NUMERIC_LOSSY,
    ModelParams.lossy(F(1, 3), F(1)),  # the register readout never passes
    ModelParams.lossy(F(0), F(0)),
]


class TestRegisterReadout:
    """The folded coupling states are summed per helper statuses before
    the register readout multiplies them; the outcomes, their order and
    every coefficient are those of multiplying state by state."""

    @pytest.mark.parametrize("config", list(_readout_grid()), ids=str)
    def test_matches_the_per_state_readout(self, config):
        for params in READOUT_PARAMS:
            got = correction_circuits._full_to_z_outcomes(params, config)
            assert _terms(got) == _terms(_per_state_full_to_z(params, config)), params

    @pytest.mark.parametrize(
        "config, products, per_state",
        [
            (DEFAULT_FAULT_MODEL, 16, 32),
            (ALT_CONFIG_FILE, 54, 162),
            (FaultModel(construction=Construction.PER_TELEPORTATION), 2, 2),
        ],
        ids=["default", "alt", "per_teleportation"],
    )
    def test_register_products(self, config, products, per_state, monkeypatch):
        # The products beyond the fold and the loss probability: one per
        # helper statuses and readout result, not one per folded state.
        params = ModelParams.symbolic(Model.LOSSY)
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        monkeypatch.setattr(Poly, "__rmul__", counting)

        def products_of(build):
            del calls[:]
            build()
            return len(calls)

        def setup():
            correction_circuits._loss_probability(params.delta, config.ancilla_detections)
            correction_circuits._fold_gates(COUPLINGS, 5, gate_tables(params, config).coupling)

        base = products_of(setup)
        assert products_of(
            lambda: correction_circuits._full_to_z_outcomes(params, config)
        ) - base == products
        assert products_of(lambda: _per_state_full_to_z(params, config)) - base == per_state
