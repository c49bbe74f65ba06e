from fractions import Fraction as F

import pytest

from erasurechain.exact_arith import Poly
from erasurechain.correction_circuits import (
    ABORT,
    DONE,
    DEFAULT_FAULT_MODEL,
    Construction,
    CorrectionStep,
    FaultModel,
    StepKind,
    apply_full_to_z,
    apply_z_recovery,
    attempt,
    fail_sink,
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
)
from erasurechain.pauli_algebra import stabilizer_supports_weight4

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
        step = select_step(p)
        dist = apply_z_recovery(p, step, ModelParams.ideal())
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
        dist = apply_z_recovery(p, step, ModelParams.lossy())
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

    def test_wrong_target_rejected(self):
        p = parse_pattern("E......")
        step = CorrectionStep(StepKind.Z_RECOVERY, 1, (2, 3, 4))
        with pytest.raises(ValueError):
            apply_z_recovery(p, step, ModelParams.lossy())


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
        dist = apply_full_to_z(p, step, ModelParams.lossy())
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

    def test_ideal_model_rejected(self):
        p = parse_pattern("E......")
        step = CorrectionStep(StepKind.FULL_TO_Z, 1, (2, 3, 4))
        with pytest.raises(ValueError):
            apply_full_to_z(p, step, ModelParams.ideal())


class TestAttempt:
    def test_clean_self_loop(self):
        p = parse_pattern(".......")
        assert attempt(p, ModelParams.ideal()) == {p: Poly.one()}

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
            table = build_classes(model)
            for p in all_patterns(model)[:: 53 if model is Model.LOSSY else 7]:
                base = _projected(attempt(p, params), table)
                for perm in line_automorphisms[::41]:
                    q = [Erasure.NONE] * 7
                    for k in range(7):
                        q[perm[k] - 1] = p[k]
                    assert _projected(attempt(tuple(q), params), table) == base


def _projected(dist, table):
    rows = {}
    for q, prob in dist.items():
        cid = table.index[q]
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
        dist = apply_full_to_z(p, step, ModelParams.lossy(), cfg)
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
        dist = apply_z_recovery(p, step, ModelParams.lossy(), PER_TELEPORTATION)
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
