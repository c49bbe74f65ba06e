"""One error-correction attempt as an exact stochastic map on erasure patterns.

The recovery strategy corrects full erasures first; once none remain it
corrects Z erasures and Z measurements.  One attempt is one circuit
application on a single target qubit and three intact helper qubits,
chosen so that the four together support both an X-type and a Z-type
stabilizer element.  A circuit is a few two-qubit gates and some bare
photon detections.  A gate is a table from the statuses it leaves on its
two qubits to their probability; a qubit keeps the worst status any gate
leaves on it, so a full erasure absorbs a Z mark.

ZRecovery (teleported single-qubit recovery)
    * target readout, only when the target is a Z erasure (its outcome is
      unknown and must be read out first): ``readout_detections``
      detections, each losing its photon with probability delta.  A loss
      fully erases the target and the attempt is abandoned;
    * three ``helper`` gates, each joining a helper to the fresh |+> qubit
      that replaces the target.  The fresh qubit's status is the target's
      new status, so the target is recovered only when no gate leaves a
      mark.

FullErasureToZ (ancilla-register stabilizer measurement)
    Measures the Z-type stabilizer covering the target and three intact
    helpers, converting a full erasure into a Z erasure when it succeeds.

    * four ``coupling`` gates, each joining one of the target and its
      helpers to its qubit of a four-qubit register.  Marks on the helpers
      stay; the register's four qubits count as one, since the measurement
      needs every one of them intact;
    * the register readout, ``ancilla_detections`` detections, each losing
      its photon with probability delta.

    The target becomes a Z erasure when the register is unmarked and no
    detection is lost, and otherwise stays fully erased.

Ancilla preparation (Bell pairs, |+>, the four-qubit register) is taken as
error-free: offline preparation can be repeated until it succeeds.  All
location counts live in ``FaultModel`` so alternative accountings can be
explored; outputs record the configuration hash.

Constructions of the entangling gates
-------------------------------------
A construction is its three gate tables, which ``gate_tables`` returns:
``encoded`` (two data qubits), ``helper`` (helper, fresh qubit) and
``coupling`` (data qubit, register).  Each data qubit passes through one
encoded gate, so the injected per-qubit marginals are one side of
``encoded``, and the lossy break-even target is that side's FULL marginal.
Ideal hardware has a description of its own; under lossy hardware
``FaultModel.construction`` picks one of two.

ideal hardware
    ``encoded`` and ``helper`` fail with probability eps and measure both
    qubits in Z with a known outcome: a qubit is injected Z-measured with
    probability eps, and a failed helper gate leaves its helper measured
    and the target unfixed.  There is no ``coupling`` gate, since full
    erasures do not occur.

per_gate (the default)
    * ``encoded`` fails with probability eps and then loses one of its two
      teleportations, each side with eps/2; the lost side is fully erased
      and its partner Z-erased.  A qubit is injected fully erased with
      probability eps/2 and Z-erased with eps/2;
    * ``helper`` loses the helper's teleportation photon with probability
      1-(1-delta)^helper_detections, fully erasing the helper and leaving
      an unknown Z correction (a Z erasure) on the fresh qubit;
    * ``coupling`` fails with probability eps on its data side only
      (register-side loss is counted by the register detections).  The
      data qubit is Z-erased, or fully erased for the fraction
      ``coupling_full_fraction`` of failures.  The register is never
      marked, so the target's own coupling does not change the outcome.

per_teleportation
    Every two-qubit gate, encoded or inside a recovery circuit, is built
    by teleporting both of its qubits, so all three gates are
    ``teleported_gate(eps)``: each qubit is lost independently with
    probability eps, and a loss fully erases that qubit and Z-erases its
    partner.  A qubit is injected fully erased with probability eps and
    Z-erased with eps(1-eps), and the break-even target is eps.  Only the
    bare detections (target readout, register readout) use delta;
    ``helper_detections`` and ``coupling_full_fraction`` do not apply.

    Two modelling calls are fixed here, not configurable:

    1. A Z-erased register qubit voids the stabilizer measurement, as a
       fully erased one does.  The register is a cat state whose parity
       is read in the X basis, and an unknown Z measurement of one of its
       qubits randomises that parity.
    2. The target's own coupling counts.  The fully erased target is
       replaced by a fresh qubit that must be coupled for the stabilizer
       to be measured, so either loss in that gate voids the measurement
       (register side: a fully erased register qubit; data side: the
       replacement is lost and its register qubit Z-erased).  The target
       then stays fully erased.

Every operation returns an OutcomeDistribution whose probabilities are
exact polynomials summing to one.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact_arith import Poly
from .erasure_model import (
    ABORT,
    DONE,
    Classification,
    Erasure,
    Model,
    ModelParams,
    Pattern,
    all_patterns,
    classify_erased,
    erased_mask,
    format_pattern,
    live_codes,
)
from .pauli_algebra import N_QUBITS, stabilizer_supports_weight4

OutcomeDistribution = Dict[Pattern, Poly]


class StepKind(Enum):
    FULL_TO_Z = "full_to_z"
    Z_RECOVERY = "z_recovery"


class CorrectionStep(NamedTuple):
    kind: StepKind
    target: int
    helpers: Tuple[int, int, int]

    @property
    def positions(self) -> Tuple[int, ...]:
        """The qubits the step writes: the target, then the helpers."""
        return (self.target,) + self.helpers


class Construction(Enum):
    """How the two-qubit gates are built (see the module docstring)."""

    PER_GATE = "per_gate"
    PER_TELEPORTATION = "per_teleportation"


_DETECTION_KEYS = ("readout_detections", "helper_detections", "ancilla_detections")
# Largest detection count a FaultModel accepts.  Each loss probability
# 1-(1-delta)^n is expanded exactly, and the exact build's cost grows
# steeply with n: on a 2-CPU host lossy ``threshold`` takes 1-2 s with all
# three counts at 16 and about 10 s with 100 ancilla detections.  Every
# shipped config uses at most 4.
MAX_DETECTIONS = 16
_CONFIG_KEYS = frozenset(_DETECTION_KEYS) | {"coupling_full_fraction", "construction"}
# Fields that describe a per_gate detail and mean nothing elsewhere.
_PER_GATE_ONLY = ("helper_detections", "coupling_full_fraction")


class _FaultModelFields(NamedTuple):
    readout_detections: int = 1
    helper_detections: int = 1
    ancilla_detections: int = 4
    coupling_full_fraction: Fraction = Fraction(0)
    construction: Construction = Construction.PER_GATE


class FaultModel(_FaultModelFields):
    """Configurable fault-location counts for the two correction circuits.

    readout_detections: photon detections in the target readout of a
        Z-erasure recovery (loss probability 1-(1-delta)^n).
    helper_detections: detections per helper teleportation measurement
        (per_gate only).
    ancilla_detections: detections in the stabilizer-measurement register.
    coupling_full_fraction: fraction of coupling-gate back-action that
        fully erases the data qubit instead of Z-erasing it (0 keeps the
        pure Z back-action of the control side; per_gate only).  An int
        or Fraction, stored as a Fraction; a float or bool is rejected.
    construction: how the entangling gates are built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FaultModel":
        fields = _FaultModelFields(*args, **kwargs)
        for key in _DETECTION_KEYS:
            value = getattr(fields, key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{key} must be a nonnegative integer, got {value!r}")
            if value > MAX_DETECTIONS:
                raise ValueError(f"{key} must be at most {MAX_DETECTIONS}, got {value}")
        frac = fields.coupling_full_fraction
        # A float would be hashed as written but computed as its binary value.
        if isinstance(frac, bool) or not isinstance(frac, (int, Fraction)):
            raise ValueError(f"coupling_full_fraction must be an int or a Fraction, got {frac!r}")
        if not 0 <= frac <= 1:
            raise ValueError(f"coupling_full_fraction must lie in [0, 1], got {frac}")
        if not isinstance(fields.construction, Construction):
            raise ValueError(f"unknown construction {fields.construction!r}")
        if fields.construction is not Construction.PER_GATE:
            for key in _PER_GATE_ONLY:
                if getattr(fields, key) != cls._field_defaults[key]:
                    raise ValueError(
                        f"{key} not applicable to the "
                        f"{fields.construction.value} construction"
                    )
        return super().__new__(cls, *fields[:3], Fraction(frac), fields.construction)

    @classmethod
    def _make(cls, iterable) -> "FaultModel":
        # So that ``_replace`` checks its fields too.
        return cls(*iterable)

    def to_json(self) -> dict:
        data = {
            "readout_detections": self.readout_detections,
            "helper_detections": self.helper_detections,
            "ancilla_detections": self.ancilla_detections,
            "coupling_full_fraction": str(self.coupling_full_fraction),
        }
        # per_gate configs omit the key, so their hashes predate it.
        if self.construction is not Construction.PER_GATE:
            for key in _PER_GATE_ONLY:
                del data[key]
            data["construction"] = self.construction.value
        return data

    @staticmethod
    def from_json(data: dict) -> "FaultModel":
        """Parse a circuit config, rejecting anything not read as written.

        Unknown keys, non-integer, negative or over ``MAX_DETECTIONS``
        detection counts, a ``coupling_full_fraction`` outside [0, 1] or not
        an exact rational (an integer or a string such as "1/2"), unknown
        constructions and keys that do not apply to the chosen construction
        all raise ValueError.
        """
        if not isinstance(data, dict):
            raise ValueError("circuit config must be a JSON object")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(
                f"unknown circuit-config key(s) {unknown}; "
                f"expected some of {sorted(_CONFIG_KEYS)}"
            )
        kwargs = {key: data[key] for key in _DETECTION_KEYS if key in data}
        if "coupling_full_fraction" in data:
            value = data["coupling_full_fraction"]
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError(
                    "coupling_full_fraction must be an integer or a rational "
                    f"string such as \"1/2\", got {value!r}"
                )
            try:
                kwargs["coupling_full_fraction"] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"invalid coupling_full_fraction {value!r}") from None
        if "construction" in data:
            try:
                kwargs["construction"] = Construction(data["construction"])
            except ValueError:
                raise ValueError(
                    f"unknown construction {data['construction']!r}; expected one of "
                    f"{[c.value for c in Construction]}"
                ) from None
        construction = kwargs.get("construction", Construction.PER_GATE)
        if construction is not Construction.PER_GATE:
            stray = [key for key in _PER_GATE_ONLY if key in data]
            if stray:
                raise ValueError(
                    f"{', '.join(stray)} not applicable to the "
                    f"{construction.value} construction"
                )
        return FaultModel(**kwargs)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


DEFAULT_FAULT_MODEL = FaultModel()

def select_step(pattern: Pattern):
    """Choose the next correction action for a pattern.

    Returns DONE for a clean pattern, ABORT for a procedure failure, and
    otherwise a CorrectionStep targeting the lowest-indexed full erasure
    (or, when none remain, the lowest-indexed Z erasure / Z measurement)
    with the lexicographically smallest valid helper set.
    """
    erased = erased_mask(pattern)
    if not erased:
        return DONE
    if classify_erased(erased) is Classification.PROCEDURE_FAIL:
        return ABORT
    if Erasure.FULL in pattern:
        return _step(StepKind.FULL_TO_Z, pattern.index(Erasure.FULL) + 1, erased)
    lowest_erased = (erased & -erased).bit_length()
    return _step(StepKind.Z_RECOVERY, lowest_erased, erased)


def _helper_sets(target: int):
    """The target's helper sets in lexicographic order, each with its
    qubit mask: the other three qubits of each weight-4 stabilizer support
    holding the target."""
    sets = sorted(
        tuple(sorted(quad - {target}))
        for quad in stabilizer_supports_weight4()
        if target in quad
    )
    return [(helpers, sum(1 << (q - 1) for q in helpers)) for helpers in sets]


_HELPER_SETS = {target: _helper_sets(target) for target in range(1, N_QUBITS + 1)}


# Keyed by (kind, target, erased mask): at most 2 * 7 * 128 shared steps.
@lru_cache(maxsize=None)
def _step(kind: StepKind, target: int, erased: int) -> CorrectionStep:
    """The step on ``target`` with the first helper set of intact qubits."""
    for helpers, mask in _HELPER_SETS[target]:
        if not mask & erased:
            return CorrectionStep(kind=kind, target=target, helpers=helpers)
    # Cannot happen for correctable patterns: any <=2 other erased qubits
    # leave at least one covering stabilizer support free.
    raise RuntimeError(f"no valid helper set for target {target}, erased mask {erased:07b}")


def _loss_probability(delta: Poly, detections: int) -> Poly:
    """1 - (1-delta)^detections, exactly."""
    keep = Poly.one()
    survive = Poly.one() - delta
    for _ in range(detections):
        keep = keep * survive
    return Poly.one() - keep


def _accumulate(dist: OutcomeDistribution, pattern: Pattern, prob: Poly) -> None:
    if prob.is_zero():
        return
    if pattern in dist:
        dist[pattern] = dist[pattern] + prob
    else:
        dist[pattern] = prob


GateTable = Dict[Tuple[Erasure, Erasure], Poly]


def teleported_gate(loss: Poly) -> GateTable:
    """Statuses one teleported two-qubit gate leaves on its qubits (a, b).

    The per_teleportation gate-level description: each of the two
    teleported qubits is lost independently with probability ``loss``; a
    loss fully erases that qubit and Z-erases its partner, and a full
    erasure absorbs a Z mark.
    """
    keep = Poly.one() - loss
    return {
        (Erasure.NONE, Erasure.NONE): keep * keep,
        (Erasure.FULL, Erasure.Z_ERASED): loss * keep,
        (Erasure.Z_ERASED, Erasure.FULL): keep * loss,
        (Erasure.FULL, Erasure.FULL): loss * loss,
    }


class GateTables(NamedTuple):
    """The two-qubit gates a construction is made of (see the module docstring).

    encoded: (data qubit, data qubit); helper: (helper, fresh qubit);
    coupling: (data qubit, register), None under ideal hardware.
    """

    encoded: GateTable
    helper: GateTable
    coupling: Optional[GateTable]


def gate_tables(params: ModelParams, config: FaultModel = DEFAULT_FAULT_MODEL) -> GateTables:
    """The gate tables of the model and construction; every table sums to one."""
    none, full, z = Erasure.NONE, Erasure.FULL, Erasure.Z_ERASED
    eps = params.eps
    if params.model is Model.IDEAL:
        measured = Erasure.Z_MEASURED
        z_measuring = {(none, none): Poly.one() - eps, (measured, measured): eps}
        return GateTables(z_measuring, z_measuring, None)
    if config.construction is Construction.PER_TELEPORTATION:
        gate = teleported_gate(eps)
        return GateTables(gate, gate, gate)
    half = eps * Fraction(1, 2)
    p_helper = _loss_probability(params.delta, config.helper_detections)
    frac_full = config.coupling_full_fraction
    return GateTables(
        encoded={(none, none): Poly.one() - eps, (full, z): half, (z, full): half},
        helper={(none, none): Poly.one() - p_helper, (full, z): p_helper},
        coupling={
            (none, none): Poly.one() - eps,
            (z, none): eps * (1 - frac_full),
            (full, none): eps * frac_full,
        },
    )


def _fold_gates(pairs, sites: int, gate: GateTable) -> Tuple[Dict[Tuple[Erasure, ...], Poly], int]:
    """Joint site statuses after independent gates on the given site pairs,
    scaled by the returned integer.

    Every site starts intact and keeps the worst status any gate leaves.
    A gate table with non-integral coefficients (a fractional
    ``coupling_full_fraction``, or any numeric rate) is first multiplied by
    the lcm of their denominators, so the fold multiplies ints; each
    probability is then that lcm to the number of gates times its own.  The
    caller divides each finished local outcome once (``_unscaled``).
    """
    scale = lcm(*[c.denominator for prob in gate.values() for c in prob.terms.values()])
    if scale > 1:
        gate = {statuses: prob * scale for statuses, prob in gate.items()}
    dist = {(Erasure.NONE,) * sites: Poly.one()}
    for a, b in pairs:
        nxt: Dict[Tuple[Erasure, ...], Poly] = {}
        for state, prob in dist.items():
            for (sa, sb), p in gate.items():
                out = list(state)
                out[a] = max(out[a], sa)
                out[b] = max(out[b], sb)
                _accumulate(nxt, tuple(out), prob * p)
        dist = nxt
    return dist, scale ** len(pairs)


def _unscaled(local: Dict[Tuple[Erasure, ...], Poly], scale: int) -> LocalOutcomes:
    """The local outcomes, each divided in place by the fold's ``scale``."""
    if scale > 1:
        for statuses, prob in local.items():
            local[statuses] = prob / scale
    return tuple(local.items())


# Local outcomes of one circuit: ((target, helper, helper, helper), prob)
# with the helpers in step order.  They depend only on the target's status
# (which fixes the step kind), the rates and the config, never on the rest
# of the pattern, so each is computed once and written into every pattern.
LocalOutcomes = Tuple[Tuple[Tuple[Erasure, ...], Poly], ...]


def _z_recovery_outcomes(
    target_status: Erasure, params: ModelParams, config: FaultModel
) -> LocalOutcomes:
    # Site 0 is the fresh qubit, which takes the target's place; sites 1-3
    # are the helpers, each joined to it by one helper gate.  Every outcome
    # is held at the fold's scale until the end.
    helper = gate_tables(params, config).helper
    folded, scale = _fold_gates(((1, 0), (2, 0), (3, 0)), 4, helper)
    local: Dict[Tuple[Erasure, ...], Poly] = {}
    proceed = Poly.one()
    if target_status is Erasure.Z_ERASED:
        # The unknown outcome must be read out first; loss destroys the
        # qubit and the attempt is abandoned before the helper gates.
        p_readout = _loss_probability(params.delta, config.readout_detections)
        _accumulate(local, (Erasure.FULL,) + (Erasure.NONE,) * 3, p_readout * scale)
        proceed = proceed - p_readout
    for state, prob in folded.items():
        _accumulate(local, state, proceed * prob)
    return _unscaled(local, scale)


def _full_to_z_outcomes(params: ModelParams, config: FaultModel) -> LocalOutcomes:
    p_meas_fail = _loss_probability(params.delta, config.ancilla_detections)
    p_meas_ok = Poly.one() - p_meas_fail

    # Site 0 is the target, 1-3 the helpers, 4 the register: its four
    # qubits share one site, since the measurement needs every one of them
    # intact and only their worst status matters (per_teleportation's
    # modelling calls 1 and 2).  Only the register's site decides the
    # readout and the target's folded status reaches no outcome, so the
    # unmarked states are summed per helper statuses and each sum is
    # multiplied by the readout's pass and fail probabilities once: by
    # distributivity, each state's products summed.  An outcome takes its
    # place in ``local`` from the first state giving it a nonzero
    # probability, and a readout product comes before the marked states'
    # probabilities, as when every state was multiplied on its own (the
    # first state, all intact, leaves the register unmarked).
    coupling = gate_tables(params, config).coupling
    couplings = ((0, 4), (1, 4), (2, 4), (3, 4))
    folded, scale = _fold_gates(couplings, 5, coupling)
    read = [(Erasure.Z_ERASED, p_meas_ok), (Erasure.FULL, p_meas_fail)]
    read = [(status, p) for status, p in read if not p.is_zero()]
    local: Dict[Tuple[Erasure, ...], List[Poly]] = {}
    unmarked: Dict[Tuple[Erasure, ...], List[Poly]] = {}
    for state, prob in folded.items():
        helpers = state[1:4]
        if state[4] is Erasure.NONE:
            unmarked.setdefault(helpers, []).append(prob)
            for status, _ in read:
                local.setdefault((status,) + helpers, [])
        else:
            local.setdefault((Erasure.FULL,) + helpers, []).append(prob)
    for helpers, probs in unmarked.items():
        total = Poly.sum(probs)
        for status, p in read:
            local[(status,) + helpers].insert(0, total * p)
    return _unscaled({outcome: Poly.sum(parts) for outcome, parts in local.items()}, scale)


def _place(pattern: Pattern, positions: Tuple[int, ...], local: LocalOutcomes) -> OutcomeDistribution:
    """Write local outcomes into the pattern at the given 1-based positions."""
    dist: OutcomeDistribution = {}
    for statuses, prob in local:
        out = list(pattern)
        for q, status in zip(positions, statuses):
            out[q - 1] = status
        _accumulate(dist, tuple(out), prob)
    return dist


# The local tables of one (params, config), keyed by the target's status:
# a fully erased target is converted (FULL_TO_Z), any other is recovered
# (Z_RECOVERY), as ``select_step`` decides.
OutcomeTables = Dict[Erasure, LocalOutcomes]


@lru_cache(maxsize=1024)
def outcome_tables(
    params: ModelParams, config: FaultModel = DEFAULT_FAULT_MODEL
) -> OutcomeTables:
    """Every local outcome table the model's patterns can use.

    Ideal patterns only ever recover a Z-measured target; lossy patterns
    recover a Z-erased target or convert a fully erased one.  The returned
    mapping is shared between callers and must not be modified.
    """
    if params.model is Model.IDEAL:
        measured = Erasure.Z_MEASURED
        return {measured: _z_recovery_outcomes(measured, params, config)}
    return {
        Erasure.Z_ERASED: _z_recovery_outcomes(Erasure.Z_ERASED, params, config),
        Erasure.FULL: _full_to_z_outcomes(params, config),
    }


class LocalAttempt(NamedTuple):
    """One attempt before it is written into the pattern.

    positions: the qubits it writes, target first, then the helpers;
    key: the target's status, which keys its local table and fixes the
    step kind;
    outcomes: that table, the statuses written at ``positions`` with their
    probabilities.
    """

    positions: Tuple[int, ...]
    key: Erasure
    outcomes: LocalOutcomes


@lru_cache(maxsize=None)
def live_steps(model: Model) -> Tuple[Tuple[Erasure, Tuple[int, ...], Tuple[int, ...]], ...]:
    """The live codes (``live_codes``) grouped by their ``select_step``, as
    (target status, positions, codes in code order) in order of first code:
    16 groups ideal, 44 lossy.  A step depends on the pattern alone."""
    patterns = all_patterns(model)
    groups: Dict[Tuple[Erasure, Tuple[int, ...]], List[int]] = {}
    for code in live_codes(model):
        pattern = patterns[code]
        step = select_step(pattern)
        groups.setdefault((pattern[step.target - 1], step.positions), []).append(code)
    return tuple((key, positions, tuple(codes)) for (key, positions), codes in groups.items())


def attempt(
    pattern: Pattern,
    params: ModelParams,
    config: FaultModel = DEFAULT_FAULT_MODEL,
) -> OutcomeDistribution:
    """One correction attempt: select a step and apply its fault model.

    Clean patterns map to themselves; procedure failures map to the
    designated absorbing failure pattern (every qubit erased).  ValueError
    for a pattern off the alphabet of the params' model.
    """
    step = select_step(pattern)
    if step is DONE:
        return {pattern: Poly.one()}
    if step is ABORT:
        return {fail_sink(params.model): Poly.one()}
    local = outcome_tables(params, config).get(pattern[step.target - 1])
    if local is None:
        raise ValueError(f"pattern {format_pattern(pattern)} is not over the model's alphabet")
    return _place(pattern, step.positions, local)


def fail_sink(model: Model) -> Pattern:
    """The absorbing failure pattern: every qubit carries the worst erasure."""
    status = Erasure.Z_MEASURED if model is Model.IDEAL else Erasure.FULL
    return (status,) * N_QUBITS
