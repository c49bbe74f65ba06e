import json
import pickle
import re
from collections import Counter
from fractions import Fraction as F
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings

from erasurechain import correction_circuits, erasure_model
from erasurechain.correction_circuits import (
    ABORT,
    DEFAULT_FAULT_MODEL,
    DONE,
    Construction,
    CorrectionStep,
    FaultModel,
    attempt,
    fail_sink,
    local_attempt,
    outcome_tables,
    select_step,
)
from erasurechain.exact_arith import Poly
from erasurechain.erasure_model import (
    CLEAN_PATTERN,
    ClassTable,
    ClassUnsound,
    Classification,
    EquivClass,
    Erasure,
    MODEL_ALPHABET,
    Model,
    ModelParams,
    all_patterns,
    build_classes,
    class_rows,
    classify,
    format_pattern,
    infer_model,
    initial_distribution,
    live_codes,
    parse_pattern,
    pattern_counts,
    pattern_probability,
    pattern_support,
    pattern_weight,
    verify_class_soundness,
    _decided,
    _projector,
)
from erasurechain.pauli_algebra import all_supports, supports_logical

from conftest import fault_models, members_index


class TestPatternText:
    def test_roundtrip(self):
        for text in (".......", "M......", "..Z..E.", "EEEEEEE"):
            assert format_pattern(parse_pattern(text)) == text

    def test_bad_length(self):
        with pytest.raises(ValueError):
            parse_pattern("...")

    def test_bad_character(self):
        with pytest.raises(ValueError):
            parse_pattern("..Q....")

    def test_weight_and_support(self):
        p = parse_pattern(".M...E.")
        assert pattern_weight(p) == 2
        assert pattern_support(p) == frozenset({2, 6})
        assert pattern_counts(p) == (1, 0, 1)

    def test_model_inference(self):
        assert infer_model(parse_pattern("M.M....")) is Model.IDEAL
        assert infer_model(parse_pattern("Z.E....")) is Model.LOSSY
        assert infer_model(parse_pattern(".......")) is None
        with pytest.raises(ValueError):
            infer_model(parse_pattern("M.E...."))


class TestClassify:
    def test_all_weight_two_correctable(self):
        for p in all_patterns(Model.LOSSY):
            if pattern_weight(p) == 2:
                assert classify(p) is Classification.CORRECTABLE

    def test_weight_three_split_28_7(self):
        counts = {Classification.CORRECTABLE: set(), Classification.PROCEDURE_FAIL: set()}
        for p in all_patterns(Model.IDEAL):
            if pattern_weight(p) == 3:
                counts[classify(p)].add(pattern_support(p))
        assert len(counts[Classification.CORRECTABLE]) == 28
        assert len(counts[Classification.PROCEDURE_FAIL]) == 7

    def test_classification_matches_logical_cover_on_triples(self):
        for s in all_supports(3):
            p = tuple(
                Erasure.Z_MEASURED if q + 1 in s else Erasure.NONE for q in range(7)
            )
            expected = (
                Classification.PROCEDURE_FAIL
                if supports_logical(s)
                else Classification.CORRECTABLE
            )
            assert classify(p) is expected

    def test_weight_four_fails_even_on_harmless_support(self):
        # {1,2,3,4} covers no logical operator, yet the single-target
        # procedure does not apply to weight-4 patterns.
        assert not supports_logical({1, 2, 3, 4})
        p = parse_pattern("MMMM...")
        assert classify(p) is Classification.PROCEDURE_FAIL

    def test_permutation_invariance(self, line_automorphisms):
        for p in all_patterns(Model.IDEAL):
            c = classify(p)
            for perm in line_automorphisms[::17]:
                q = [Erasure.NONE] * 7
                for k in range(7):
                    q[perm[k] - 1] = p[k]
                assert classify(tuple(q)) is c


class TestCensus:
    def test_ideal_totals(self):
        patterns = all_patterns(Model.IDEAL)
        assert len(patterns) == 128
        by_weight = Counter(map(pattern_weight, patterns))
        assert by_weight[3] == 35
        assert by_weight == {k: v for k, v in zip(range(8), (1, 7, 21, 35, 35, 21, 7, 1))}

    def test_lossy_totals(self):
        patterns = all_patterns(Model.LOSSY)
        assert len(patterns) == 3**7
        # weight w splits over full/Z assignments
        assert Counter(map(pattern_weight, patterns))[3] == 35 * 8
        assert Counter(map(pattern_counts, patterns))[(1, 1, 0)] == 42

    def test_correctable_counts(self):
        def correctable(model):
            return sum(classify(p) is Classification.CORRECTABLE for p in all_patterns(model))

        assert correctable(Model.IDEAL) == 1 + 7 + 21 + 28
        assert correctable(Model.LOSSY) == 1 + 7 * 2 + 21 * 4 + 28 * 8


class TestBuildClasses:
    def test_ideal_reduces_to_five(self):
        table = build_classes(Model.IDEAL)
        assert [c.label for c in table.classes] == ["clean", "w1", "w2", "w3", "fail"]
        assert [c.size for c in table.classes] == [1, 7, 21, 28, 71]

    def test_lossy_reduces_to_eleven(self):
        table = build_classes(Model.LOSSY)
        labels = [c.label for c in table.classes]
        assert labels == [
            "clean",
            "[0,1]",
            "[1,0]",
            "[0,2]",
            "[1,1]",
            "[2,0]",
            "[0,3]",
            "[1,2]",
            "[2,1]",
            "[3,0]",
            "fail",
        ]
        assert sum(c.size for c in table.classes) == 3**7

    def test_lossy_labels_bounded_composition(self):
        table = build_classes(Model.LOSSY)
        for c in table.classes:
            if c.label.startswith("["):
                m, n, _ = pattern_counts(c.representative)
                assert c.label.startswith(f"[{m},{n}]")
                assert m + n <= 3

    def test_classes_partition_pattern_space(self):
        for model in Model:
            table = build_classes(model)
            assert sorted(p for c in table.classes for p in c.members) == sorted(
                all_patterns(model)
            )

    def test_soundness_verifier_accepts_reduced_tables(self):
        # Tables are verified at symbolic rates, which proves them sound on
        # the delta = eps diagonal and at numeric rates.
        per_teleportation = FaultModel(construction=Construction.PER_TELEPORTATION)
        for model, config in (
            (Model.IDEAL, None),
            (Model.LOSSY, None),
            (Model.LOSSY, per_teleportation),
        ):
            table = build_classes(model, config=config)
            verify_class_soundness(table, config)
            if model is Model.LOSSY:
                assert len(table.classes) == 11

    @pytest.mark.parametrize(
        "model, labels",
        [(Model.IDEAL, ("w1", "w2")), (Model.LOSSY, ("[1,1]", "[2,0]"))],
        ids=["ideal", "lossy"],
    )
    def test_soundness_verifier_rejects_bad_merge(self, model, labels):
        table = build_classes(model)
        first, second = (c for c in table.classes if c.label in labels)
        merged = EquivClass(
            id=first.id,
            label="bogus",
            representative=first.representative,
            members=first.members + second.members,
        )
        bad_classes = [merged if c is first else c for c in table.classes if c is not second]
        bad_classes = [
            EquivClass(new_id, c.label, c.representative, c.members)
            for new_id, c in enumerate(bad_classes)
        ]
        labels = [c.label for c in bad_classes]
        bad = type(table)(
            model=table.model,
            classes=bad_classes,
            clean_id=labels.index("clean"),
            fail_id=labels.index("fail"),
        )
        index = members_index(bad)
        assert index[CLEAN_PATTERN] == bad.clean_id
        assert index[fail_sink(model)] == bad.fail_id
        with pytest.raises(ClassUnsound):
            verify_class_soundness(bad)

    @pytest.mark.parametrize(
        "model, text, label",
        [
            (Model.IDEAL, "....MMM", "w1"),
            (Model.IDEAL, "M......", "fail"),
            (Model.LOSSY, "....ZZZ", "[0,1]"),
            (Model.LOSSY, "EE.....", "fail"),
        ],
        ids=[
            "ideal-failure-into-w1",
            "ideal-live-into-fail",
            "lossy-failure-into-[0,1]",
            "lossy-live-into-fail",
        ],
    )
    def test_soundness_verifier_names_a_moved_pattern(self, model, text, label):
        # A procedure failure moved into a live class projects to the sink
        # row, and a live pattern moved into the fail class takes a step:
        # either disagrees with its new class's representative, and the
        # report names it.
        table = build_classes(model)
        moved = parse_pattern(text)
        target = next(c.id for c in table.classes if c.label == label)
        assert members_index(table)[moved] != target
        classes = []
        for c in table.classes:
            members = tuple(p for p in c.members if p != moved)
            classes.append(c._replace(members=members + ((moved,) if c.id == target else ())))
        bad = ClassTable(model, classes, table.clean_id, table.fail_id)
        assert members_index(bad)[moved] == target
        with pytest.raises(ClassUnsound, match=re.escape(f"class {label!r}: {text} disagrees")):
            verify_class_soundness(bad)

    @pytest.mark.parametrize(
        "defect", ["in-two-classes", "missing", "duplicated-and-missing", "off-alphabet"]
    )
    def test_soundness_verifier_rejects_members_that_do_not_partition(self, defect):
        # The verifier reads each pattern's class from the members alone:
        # a pattern in two classes, in none, or outside the model's
        # alphabet leaves no single class to read.
        table = build_classes(Model.IDEAL)
        fail = table.classes[table.fail_id]
        w1 = next(c for c in table.classes if c.label == "w1")
        changed = {
            "in-two-classes": {w1.id: w1.members + fail.members[:1]},
            "missing": {fail.id: fail.members[1:]},
            "duplicated-and-missing": {
                w1.id: w1.members + fail.members[:1],
                fail.id: fail.members[1:] + w1.members[:1],
            },
            "off-alphabet": {w1.id: w1.members + (parse_pattern("Z......"),)},
        }[defect]
        bad = table._replace(
            classes=tuple(c._replace(members=changed.get(c.id, c.members)) for c in table.classes)
        )
        with pytest.raises(
            ValueError,
            match=re.escape("the classes' members do not partition the model's pattern space"),
        ):
            verify_class_soundness(bad)

    def test_signature_grouping_lumps_every_helper_symmetric_table(self):
        # A circuit applies one gate table to each of its three helpers, so
        # every local table gives a written tuple (target, h1, h2, h3) the
        # probability of each helper permutation of it.  A group then lumps
        # under any such table when its members share a step key and, for
        # every orbit of written tuples, send the same multiset of them to
        # each signature group.  Entry by entry the members of a weight-2
        # group differ; orbit by orbit they agree.
        for params, config in (
            (ModelParams.ideal(), DEFAULT_FAULT_MODEL),
            (ModelParams.lossy(), DEFAULT_FAULT_MODEL),
            (ModelParams.lossy(), ALT_CONFIG),
            (ModelParams.lossy(), FaultModel(construction=Construction.PER_TELEPORTATION)),
        ):
            for outcomes in outcome_tables(params, config).values():
                probs = dict(outcomes)
                for written, prob in outcomes:
                    for helpers in permutations(written[1:]):
                        assert probs.get(written[:1] + helpers) == prob
        for model in Model:
            signature = {p: _signature(p) for p in all_patterns(model)}
            orbits: dict = {}
            for written in product(MODEL_ALPHABET[model], repeat=4):
                orbits.setdefault(written[:1] + tuple(sorted(written[1:])), []).append(written)
            groups: dict = {}
            for p in all_patterns(model):
                step = select_step(p)
                sends = {}
                if step is not DONE and step is not ABORT:
                    out = list(p)
                    for orbit, tuples in orbits.items():
                        counts = Counter()
                        for written in tuples:
                            for q, status in zip(step.positions, written):
                                out[q - 1] = status
                            counts[signature[tuple(out)]] += 1
                        sends[orbit] = counts
                    step = (step.kind, p[step.target - 1])
                groups.setdefault(signature[p], []).append((p, step, sends))
            assert len(groups) == len(build_classes(model).classes)
            for members in groups.values():
                _, step, sends = members[0]
                for p, other_step, other_sends in members[1:]:
                    assert (other_step, other_sends) == (step, sends), format_pattern(p)

    def test_helper_asymmetric_table_is_unsound(self, monkeypatch):
        # A recovery whose failure marks only the first helper breaks the
        # symmetry the signature grouping rests on: the build refuses it.
        def first_helper_only(target_status, params, config):
            none, measured = Erasure.NONE, Erasure.Z_MEASURED
            return (
                ((none,) * 4, Poly.one() - params.eps),
                ((measured, measured, none, none), params.eps),
            )

        monkeypatch.setattr(correction_circuits, "_z_recovery_outcomes", first_helper_only)
        correction_circuits.outcome_tables.cache_clear()
        erasure_model._class_table.cache_clear()
        try:
            with pytest.raises(ClassUnsound, match="class 'w2'"):
                build_classes(Model.IDEAL)
        finally:
            correction_circuits.outcome_tables.cache_clear()
            erasure_model._class_table.cache_clear()


def _signature(pattern):
    """A pattern's signature group, from first principles: clean, fail, or
    the erasure composition of a correctable pattern."""
    if pattern_weight(pattern) == 0:
        return "clean"
    if classify(pattern) is Classification.PROCEDURE_FAIL:
        return "fail"
    return pattern_counts(pattern)


def _attempt_row(pattern, index, params, config):
    """Reference projection: ``attempt``'s placed distribution summed per class."""
    projected = {}
    for q, prob in attempt(pattern, params, config).items():
        cid = index[q]
        projected[cid] = projected.get(cid, Poly.zero()) + prob
    return tuple((cid, projected[cid]) for cid in sorted(projected))


def _signature_table(model):
    """The table of the first-principles signature groups, in order of
    their first code, built without the class build or its check."""
    groups = {}
    for p in all_patterns(model):
        groups.setdefault(_signature(p), []).append(p)
    classes = [
        EquivClass(cid, str(signature), members[0], tuple(members))
        for cid, (signature, members) in enumerate(groups.items())
    ]
    signatures = list(groups)
    return ClassTable(
        model=model,
        classes=classes,
        clean_id=signatures.index("clean"),
        fail_id=signatures.index("fail"),
    )


def _assert_rows_are_attempt_sums(model, config):
    # The verifier reads each code's row from its live step's local table at
    # symbolic rates, and sends every other nonzero code to the sink; a row
    # at other rates is the symbolic row substituted
    # (``TestChainFromVerifiedRows``).  The table is grouped before any row
    # is checked, so a wrong row fails here and not in the build's own check.
    params = ModelParams.symbolic(model)
    patterns, attempts = _decided(model, config)
    table = _signature_table(model)
    index = members_index(table)
    project = _projector(table, [index[p] for p in patterns], attempts)
    for code, p in enumerate(patterns):
        assert project(code) == _attempt_row(p, index, params, config), format_pattern(p)


class TestLiveCodes:
    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_live_and_failing_codes_match_a_select_step_scan(self, model):
        # The per-mask live codes, and the fail class every other nonzero
        # code goes to, against one select_step per pattern: DONE only at
        # code 0, ABORT exactly on the failing codes and a step on each
        # live code.
        patterns = all_patterns(model)
        live = live_codes(model)
        failing = [code for code in range(1, len(patterns)) if code not in live]
        steps = [select_step(p) for p in patterns]
        assert [code for code, step in enumerate(steps) if step is DONE] == [0]
        assert [code for code, step in enumerate(steps) if step is ABORT] == failing
        stepped = [code for code, step in enumerate(steps) if isinstance(step, CorrectionStep)]
        assert stepped == list(live)
        assert (len(live), len(failing)) == ((56, 71) if model is Model.IDEAL else (322, 1864))
        table = build_classes(model)
        assert table.classes[table.fail_id].members == tuple(patterns[code] for code in failing)


# The README's alternative circuit config.
ALT_CONFIG = FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2))
REPO_ROOT = Path(__file__).resolve().parents[1]


def _config_file(path):
    return FaultModel.from_json(json.loads((REPO_ROOT / path).read_text()))


class TestVerifiedRows:
    """``verify_class_soundness`` proves each symbolic row sums to one."""

    @pytest.mark.parametrize(
        "model, config_path",
        [
            (Model.IDEAL, None),
            (Model.LOSSY, None),
            (Model.LOSSY, "configs/per_teleportation.json"),
            (Model.LOSSY, "perfbench/alt_config.json"),
        ],
        ids=["ideal", "lossy", "lossy-per_teleportation", "lossy-alt"],
    )
    def test_absorbing_rows_are_unit_mass(self, model, config_path):
        config = None if config_path is None else _config_file(config_path)
        table = build_classes(model, config=config)
        rows = verify_class_soundness(table, config)
        for cid in (table.clean_id, table.fail_id):
            assert dict(rows[cid]) == {cid: Poly.one()}

    def test_absorbing_rows_of_the_singleton_table_are_unit_mass(self, ideal_singleton_table):
        rows = verify_class_soundness(ideal_singleton_table)
        for cid in (ideal_singleton_table.clean_id, ideal_singleton_table.fail_id):
            assert dict(rows[cid]) == {cid: Poly.one()}

    def test_row_missing_an_outcome_rejected(self, monkeypatch):
        # Without the target-readout loss a Z-erasure recovery's outcomes
        # sum to one minus that loss; every member still agrees, so only
        # the sum check can catch it.
        real = correction_circuits._z_recovery_outcomes
        readout_loss = (Erasure.FULL,) + (Erasure.NONE,) * 3

        def without_readout_loss(target_status, params, config):
            outcomes = real(target_status, params, config)
            return tuple(o for o in outcomes if o[0] != readout_loss)

        monkeypatch.setattr(correction_circuits, "_z_recovery_outcomes", without_readout_loss)
        correction_circuits.outcome_tables.cache_clear()
        erasure_model._class_table.cache_clear()
        try:
            with pytest.raises(ValueError, match=re.escape("class [0,1] sums to")):
                build_classes(Model.LOSSY)
        finally:
            correction_circuits.outcome_tables.cache_clear()
            erasure_model._class_table.cache_clear()


def _lossy_coefficients(config_path):
    """Every coefficient of the symbolic lossy outcome tables and class rows."""
    config = DEFAULT_FAULT_MODEL if config_path is None else _config_file(config_path)
    tables = outcome_tables(ModelParams.symbolic(Model.LOSSY), config)
    rows = class_rows(Model.LOSSY, config)
    polys = [p for local in tables.values() for _, p in local]
    polys += [p for row in rows for p in row.values()]
    return [c for p in polys for c in p.terms.values()]


class TestCoefficientForm:
    """Integral coefficients are stored as ints, so the shipped configs
    build their class tables on int arithmetic."""

    @pytest.mark.parametrize(
        "config_path",
        [None, "configs/per_teleportation.json"],
        ids=["default", "per_teleportation"],
    )
    def test_integral_configs_hold_only_ints(self, config_path):
        coefficients = _lossy_coefficients(config_path)
        assert coefficients
        assert all(type(c) is int for c in coefficients)

    def test_alt_config_fractions_are_not_integral(self):
        # coupling_full_fraction 1/2 leaves halves in the tables.
        coefficients = _lossy_coefficients("perfbench/alt_config.json")
        fractions = [c for c in coefficients if type(c) is not int]
        assert fractions
        assert all(type(c) is F and c.denominator > 1 for c in fractions)


class TestProjection:
    @pytest.mark.parametrize(
        "model, config",
        [
            (Model.IDEAL, DEFAULT_FAULT_MODEL),
            (Model.LOSSY, DEFAULT_FAULT_MODEL),
            (Model.LOSSY, ALT_CONFIG),
            (Model.LOSSY, FaultModel(construction=Construction.PER_TELEPORTATION)),
        ],
        ids=["ideal", "lossy", "lossy-alt", "lossy-per_teleportation"],
    )
    def test_rows_are_attempt_sums(self, model, config):
        _assert_rows_are_attempt_sums(model, config)

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(config=fault_models())
    def test_rows_are_attempt_sums_for_random_fault_models(self, config):
        _assert_rows_are_attempt_sums(Model.LOSSY, config)


class TestInitialDistribution:
    def test_sums_to_one_symbolically(self):
        for model, params in (
            (Model.IDEAL, ModelParams.ideal()),
            (Model.LOSSY, ModelParams.lossy()),
        ):
            table = build_classes(model)
            dist = initial_distribution(params, table)
            total = Poly.zero()
            for p in dist.values():
                total = total + p
            assert total == Poly.one()

    def test_class_mass_matches_pattern_oracle(self):
        # Each class's mass, summed over compositions, equals the sum of
        # the per-pattern probabilities of its members.
        per_teleportation = FaultModel(construction=Construction.PER_TELEPORTATION)
        for model, params, config in (
            (Model.IDEAL, ModelParams.ideal(), None),
            (Model.LOSSY, ModelParams.lossy(), None),
            (Model.LOSSY, ModelParams.lossy(), per_teleportation),
            (Model.LOSSY, ModelParams.lossy_diagonal(), None),
            (Model.LOSSY, ModelParams.lossy(F(1, 50), F(1, 30)), None),
            (
                Model.LOSSY,
                ModelParams.lossy(),
                FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2)),
            ),
        ):
            table = build_classes(model, config=config)
            dist = initial_distribution(params, table, config)
            assert sorted(dist) == [c.id for c in table.classes]
            for cls in table.classes:
                expected = Poly.zero()
                for p in cls.members:
                    expected = expected + pattern_probability(p, params, config)
                assert dist[cls.id] == expected, cls.label

    def test_fail_mass_is_the_complement_on_a_singleton_table(self, ideal_singleton_table):
        params = ModelParams.ideal()
        dist = initial_distribution(params, ideal_singleton_table)
        sink = ideal_singleton_table.fail_id
        assert dist[sink] == pattern_probability(fail_sink(Model.IDEAL), params)
        assert list(dist) == [c.id for c in ideal_singleton_table.classes]

    def test_marginals_not_summing_to_one_rejected(self, monkeypatch):
        real_marginals = erasure_model.qubit_marginals

        def leaky(params, config=None):
            marginals = dict(real_marginals(params, config))
            marginals[Erasure.NONE] = marginals[Erasure.NONE] - Poly.monomial(2, 0)
            return marginals

        monkeypatch.setattr(erasure_model, "qubit_marginals", leaky)
        with pytest.raises(ValueError, match="qubit marginals sum to"):
            initial_distribution(ModelParams.lossy(), build_classes(Model.LOSSY))

    @pytest.mark.parametrize("defect", ["missing", "overlapping"])
    def test_classes_not_partitioning_the_pattern_space_rejected(self, defect):
        table = build_classes(Model.LOSSY)
        fail = table.classes[table.fail_id]
        if defect == "missing":
            members = fail.members[1:]
        else:
            members = fail.members + (table.classes[table.clean_id].representative,)
        classes = [
            EquivClass(c.id, c.label, c.representative, members) if c is fail else c
            for c in table.classes
        ]
        bad = type(table)(
            model=table.model, classes=classes, clean_id=table.clean_id, fail_id=table.fail_id
        )
        with pytest.raises(ValueError, match="do not partition the model's pattern space"):
            initial_distribution(ModelParams.lossy(), bad)

    def test_ideal_clean_mass(self):
        params = ModelParams.ideal()
        table = build_classes(Model.IDEAL)
        dist = initial_distribution(params, table)
        one_minus_eps = Poly.one() - Poly.eps()
        expected = Poly.one()
        for _ in range(7):
            expected = expected * one_minus_eps
        assert dist[table.clean_id] == expected

    def test_ideal_weight_three_mass(self):
        # Oracle: binomial count over the 35 supports.
        params = ModelParams.ideal()
        eps, one = Poly.eps(), Poly.one()
        expected = Poly.constant(35) * eps * eps * eps
        for _ in range(4):
            expected = expected * (one - eps)
        w3_mass = Poly.zero()
        for p in all_patterns(Model.IDEAL):
            if pattern_weight(p) == 3:
                w3_mass = w3_mass + pattern_probability(p, params)
        assert w3_mass == expected

    def test_lossy_full_erasure_marginal_is_half_eps(self):
        # P(a given qubit fully erased) = eps/2 under the default per_gate
        # construction, and eps when every teleportation is lost with
        # probability eps.
        params = ModelParams.lossy()
        target = parse_pattern("E......")
        for config, share in (
            (None, F(1, 2)),
            (FaultModel(construction=Construction.PER_TELEPORTATION), F(1)),
        ):
            marginal = Poly.zero()
            for p in all_patterns(Model.LOSSY):
                if p[0] == Erasure.FULL:
                    marginal = marginal + pattern_probability(p, params, config)
            assert marginal == Poly.monomial(1, 0, share)
            assert pattern_probability(target, params, config).coefficient(1, 0) == share

    def test_probability_valued_on_grid(self):
        # Evaluations on a [0, 1/4]^2 grid stay inside [0, 1].
        grid = [F(k, 40) for k in range(0, 11, 2)]
        for model, params in (
            (Model.IDEAL, ModelParams.ideal()),
            (Model.LOSSY, ModelParams.lossy()),
        ):
            table = build_classes(model)
            dist = initial_distribution(params, table)
            for mass in dist.values():
                for e in grid:
                    for d in grid[:2]:
                        v = mass.evaluate(e, d)
                        assert 0 <= v <= 1


class TestModelParams:
    def test_ideal_forces_delta_zero(self):
        assert ModelParams.ideal().delta.is_zero()

    def test_lossy_diagonal_shares_variable(self):
        params = ModelParams.lossy_diagonal()
        assert params.eps == params.delta == Poly.eps()

    def test_is_numeric(self):
        assert ModelParams.ideal(F(1, 10)).is_numeric()
        assert ModelParams.lossy(F(0), F(1, 30)).is_numeric()
        assert not ModelParams.ideal().is_numeric()
        assert not ModelParams.lossy(F(1, 10)).is_numeric()
        assert not ModelParams.lossy(delta=F(1, 10)).is_numeric()
        assert not ModelParams.lossy_diagonal().is_numeric()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ModelParams.ideal(0.1),
            lambda: ModelParams.lossy(eps=0.1),
            lambda: ModelParams.lossy(delta=True),
            lambda: ModelParams.lossy_diagonal("1/3"),
        ],
        ids=["ideal-float", "lossy-eps-float", "lossy-delta-bool", "lossy_diagonal-str"],
    )
    def test_rates_must_be_exact(self, build):
        with pytest.raises(TypeError, match="ints or Fractions"):
            build()


class TestSharedAttempts:
    """A build decides each live pattern's step once and shares one
    LocalAttempt among the codes of one (target status, positions)."""

    @pytest.mark.parametrize(
        "model, config, distinct",
        [
            (Model.IDEAL, DEFAULT_FAULT_MODEL, 16),
            (Model.LOSSY, DEFAULT_FAULT_MODEL, 44),
            (Model.LOSSY, ALT_CONFIG, 44),
            (Model.LOSSY, FaultModel(construction=Construction.PER_TELEPORTATION), 44),
        ],
        ids=["ideal", "lossy", "lossy-alt", "lossy-per_teleportation"],
    )
    def test_one_attempt_per_status_and_positions(self, model, config, distinct):
        patterns, attempts = _decided(model, config)
        assert list(attempts) == list(live_codes(model))
        assert len({id(local) for local in attempts.values()}) == distinct
        tables = outcome_tables(ModelParams.symbolic(model), config)
        shared = {}
        for code, local in attempts.items():
            # Each is the pattern's own attempt, and the tables' own entry.
            assert local == local_attempt(patterns[code], tables)
            assert local.outcomes is tables[local.key]
            assert shared.setdefault((local.key, local.positions), local) is local


class TestPatternIndex:
    """A pattern's class is read from its table's members: every pattern of
    the model lies in exactly one class, and the table stating it is
    read-only, pickles whole and is built once per (model, FaultModel)."""

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_is_the_members_mapping(self, model):
        table = build_classes(model)
        fresh = ClassTable(table.model, table.classes, table.clean_id, table.fail_id)
        index = members_index(fresh)
        assert sum(c.size for c in fresh.classes) == len(index) == len(MODEL_ALPHABET[model]) ** 7
        assert set(index) == set(all_patterns(model))
        assert [c.id for c in fresh.classes] == list(range(len(fresh.classes)))
        assert all(index[c.representative] == c.id for c in fresh.classes)
        assert index[CLEAN_PATTERN] == table.clean_id
        assert index[fail_sink(model)] == table.fail_id
        assert fresh == table and hash(fresh) == hash(table)
        # The verifier reads the classes from the members alone and finds
        # the rows the build kept from its own grouping.
        assert verify_class_soundness(fresh) == class_rows(model)

    def test_read_only(self):
        table = build_classes(Model.LOSSY)
        with pytest.raises(AttributeError):
            table.classes = ()
        with pytest.raises(TypeError):
            table.classes[0] = table.classes[1]
        with pytest.raises(AttributeError):
            table.classes[0].members = ()
        with pytest.raises(TypeError):
            table.classes[table.fail_id].members[0] = CLEAN_PATTERN
        assert members_index(table)[CLEAN_PATTERN] == 0

    @pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
    def test_pickles_with_its_table(self, built):
        # "unbuilt": a table assembled from its fields; "built": the table
        # build_classes shares.
        shared = build_classes(Model.LOSSY)
        table = shared if built else ClassTable(
            shared.model, shared.classes, shared.clean_id, shared.fail_id
        )
        copy = pickle.loads(pickle.dumps(table))
        assert type(copy) is ClassTable
        assert copy == shared
        assert hash(copy) == hash(shared)
        assert members_index(copy) == members_index(shared)

    def test_built_once_on_first_lookup(self, monkeypatch):
        erasure_model._class_table.cache_clear()
        builds = []
        real = erasure_model._decided

        def spy(model, fault_model):
            builds.append(model)
            return real(model, fault_model)

        monkeypatch.setattr(erasure_model, "_decided", spy)
        try:
            assert builds == []
            table = build_classes(Model.IDEAL)
            assert builds == [Model.IDEAL]
            assert build_classes(Model.IDEAL) is table
            assert build_classes(Model.IDEAL, DEFAULT_FAULT_MODEL) is table
            assert class_rows(Model.IDEAL) is class_rows(Model.IDEAL)
            assert members_index(table)[CLEAN_PATTERN] == table.clean_id
            assert len(members_index(table)) == 128
            assert builds == [Model.IDEAL]
        finally:
            erasure_model._class_table.cache_clear()


# Marginal denominators' lcm: 1 (ideal symbolic), 2 (per_gate eps/2),
# 3 (ideal at 1/3), 6 (per_gate at 1/3), 50 and 9.
INTEGER_MASS_CASES = [
    (Model.IDEAL, ModelParams.ideal(), None),
    (Model.IDEAL, ModelParams.ideal(F(1, 3)), None),
    (Model.LOSSY, ModelParams.lossy(), None),
    (Model.LOSSY, ModelParams.lossy_diagonal(), None),
    (Model.LOSSY, ModelParams.lossy(F(1, 3), F(1, 7)), None),
    (Model.LOSSY, ModelParams.lossy(F(1, 25), F(1, 30)), None),
    (Model.LOSSY, ModelParams.lossy(), FaultModel(coupling_full_fraction=F(1, 3))),
    (Model.LOSSY, ModelParams.lossy_diagonal(), FaultModel(coupling_full_fraction=F(1, 3))),
    (
        Model.LOSSY,
        ModelParams.lossy_diagonal(F(1, 3)),
        FaultModel(construction=Construction.PER_TELEPORTATION),
    ),
]


class TestIntegerMasses:
    """The marginals are scaled to integer polynomials and each class mass
    divided once; the masses are the per-pattern sums, coefficient types
    included."""

    @pytest.mark.parametrize(
        "model, params, config",
        INTEGER_MASS_CASES,
        ids=[
            "ideal", "ideal-third", "lossy", "diagonal", "numeric-third", "numeric",
            "lossy-frac-third", "diagonal-frac-third", "per_teleportation-third",
        ],
    )
    def test_masses_are_the_pattern_sums(self, model, params, config):
        table = build_classes(model, config=config)
        dist = initial_distribution(params, table, config)
        assert list(dist) == [c.id for c in table.classes]
        for cls in table.classes:
            expected = Poly.sum([pattern_probability(p, params, config) for p in cls.members])
            got = dist[cls.id]
            assert got == expected, cls.label
            assert [type(c) for c in got.terms.values()] == [
                type(expected.terms[exp]) for exp in got.terms
            ]

    def test_one_pattern_duplicated_and_another_missing_rejected(self):
        # The class sizes still add up to the pattern count.
        table = build_classes(Model.LOSSY)
        fail = table.classes[table.fail_id]
        members = fail.members[1:] + (table.classes[table.clean_id].representative,)
        assert len(members) == fail.size
        classes = [
            EquivClass(c.id, c.label, c.representative, members) if c is fail else c
            for c in table.classes
        ]
        bad = ClassTable(table.model, classes, table.clean_id, table.fail_id)
        assert sum(c.size for c in bad.classes) == 3**7
        with pytest.raises(ValueError, match="do not partition the model's pattern space"):
            initial_distribution(ModelParams.lossy(), bad)
