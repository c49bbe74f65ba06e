"""The parameter and result records are immutable values.

Each record is a NamedTuple: no field can be assigned and no attribute
added, records built alike are equal and, where every field is hashable,
hash alike, and a pickle round trip gives an equal record.
"""

import pickle
import re
from fractions import Fraction as F

import pytest

from erasurechain.correction_circuits import (
    Construction,
    CorrectionStep,
    FaultModel,
    MAX_DETECTIONS,
    StepKind,
    select_step,
)
from erasurechain.erasure_model import (
    ClassTable,
    EquivClass,
    Model,
    ModelParams,
    build_classes,
    parse_pattern,
)
from erasurechain.markov_engine import (
    ChainResult,
    FailureRate,
    TransitionMatrix,
    build_chain,
    run_to_absorption,
)
from erasurechain.montecarlo import CompareReport, McEstimate, compare, simulate
from erasurechain.threshold_solver import BreakEvenCondition, ThresholdResult


def _class_table():
    shared = build_classes(Model.LOSSY)
    return ClassTable(shared.model, tuple(shared.classes), shared.clean_id, shared.fail_id)


def _estimate():
    return simulate(ModelParams.ideal(F(1, 10)), 200, seed=3)


# Each builder makes a new, equal record at every call.  A record holding a
# list (a chain's matrix, a rate's coefficients) is unhashable.
BUILDERS = {
    ModelParams: (lambda: ModelParams.lossy(F(1, 50), F(1, 30)), True),
    EquivClass: (
        lambda: EquivClass(1, "[0,1]", parse_pattern("Z......"), (parse_pattern("Z......"),)),
        True,
    ),
    ClassTable: (_class_table, True),
    CorrectionStep: (
        lambda: CorrectionStep(kind=StepKind.FULL_TO_Z, target=1, helpers=(2, 3, 5)),
        True,
    ),
    FaultModel: (lambda: FaultModel(helper_detections=2, coupling_full_fraction=F(1, 2)), True),
    TransitionMatrix: (lambda: build_chain(ModelParams.ideal(F(1, 10))), False),
    FailureRate: (lambda: FailureRate([0, 0, 0, 7], [1, -1]), False),
    ChainResult: (lambda: run_to_absorption(build_chain(ModelParams.ideal(F(1, 10)))), True),
    McEstimate: (_estimate, True),
    CompareReport: (lambda: compare(F(1, 10), _estimate()), True),
    ThresholdResult: (
        lambda: ThresholdResult(F(1, 19), (F(1, 20), F(1, 18)), 4, BreakEvenCondition.IDEAL_GATE),
        True,
    ),
}


@pytest.mark.parametrize("record_type", BUILDERS, ids=lambda t: t.__name__)
class TestRecord:
    def test_built_alike_are_equal(self, record_type):
        build, hashable = BUILDERS[record_type]
        first, second = build(), build()
        assert type(first) is record_type
        assert first is not second
        assert first == second
        if hashable:
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError):
                hash(first)

    def test_read_only(self, record_type):
        record = BUILDERS[record_type][0]()
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = None

    def test_pickle_round_trip(self, record_type):
        record = BUILDERS[record_type][0]()
        assert pickle.loads(pickle.dumps(record)) == record


def test_derived_fields():
    step = select_step(parse_pattern("E..Z..."))
    assert step.positions == (step.target,) + step.helpers


def test_fault_model_defaults():
    default = FaultModel()
    assert (
        default.readout_detections,
        default.helper_detections,
        default.ancilla_detections,
        default.coupling_full_fraction,
        default.construction,
    ) == (1, 1, 4, F(0), Construction.PER_GATE)
    assert type(default.coupling_full_fraction) is F


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"readout_detections": -1}, "readout_detections must be a nonnegative integer, got -1"),
        ({"helper_detections": True}, "helper_detections must be a nonnegative integer, got True"),
        ({"ancilla_detections": 2.0}, "ancilla_detections must be a nonnegative integer, got 2.0"),
        (
            {"ancilla_detections": MAX_DETECTIONS + 1},
            f"ancilla_detections must be at most {MAX_DETECTIONS}, got {MAX_DETECTIONS + 1}",
        ),
        (
            {"coupling_full_fraction": 0.5},
            "coupling_full_fraction must be an int or a Fraction, got 0.5",
        ),
        ({"coupling_full_fraction": F(3, 2)}, "coupling_full_fraction must lie in [0, 1], got 3/2"),
        ({"construction": "per_gate"}, "unknown construction 'per_gate'"),
        (
            {"helper_detections": 2, "construction": Construction.PER_TELEPORTATION},
            "helper_detections not applicable to the per_teleportation construction",
        ),
        (
            {"coupling_full_fraction": F(1, 3), "construction": Construction.PER_TELEPORTATION},
            "coupling_full_fraction not applicable to the per_teleportation construction",
        ),
    ],
)
def test_fault_model_rejects(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FaultModel(**kwargs)


def test_fault_model_replace_is_checked():
    with pytest.raises(ValueError, match="readout_detections must be a nonnegative integer"):
        FaultModel()._replace(readout_detections=-1)
    replaced = FaultModel()._replace(coupling_full_fraction=1)
    assert replaced == FaultModel(coupling_full_fraction=F(1))
