"""Erasure patterns, the two noise models, correctability, and class reduction.

A pattern records the erasure status of each of the 7 qubits in a code
block.  Text form uses one character per qubit:

    .   intact
    M   measured in the Z basis, outcome known (ideal-hardware failures)
    Z   Z erasure: unintentional Z measurement of unknown outcome
    E   full erasure: all information lost at a known location

The two models use disjoint alphabets: ideal patterns contain only '.' and
'M'; lossy patterns only '.', 'Z' and 'E'.

Correctability is purely combinatorial: a pattern with support S is
recoverable by the sequential single-qubit procedure iff |S| <= 2, or
|S| == 3 and S covers no logical operator.  Weight-4 supports that avoid
logical operators exist but the single-target recovery circuits do not
apply to them, so all weight >= 4 patterns are counted as procedure
failures.

``build_classes`` works per erased mask first: the 56 nonzero correctable
masks give the live codes (56 ideal, 322 lossy; ``live_codes``), and every
other nonzero code goes to the fail class in one pass, with no step.  Only
a live pattern takes a step (``correction_circuits.select_step``) and is
grouped by the correction signature read from it (weight for the ideal
model, full/Z-erasure counts for the lossy model); the live codes of one
(target status, positions) share one attempt, 44 lossy and 16 ideal.  The same attempts
check, exactly as polynomials, that every member of every class has the
identical class-level outcome distribution under one correction attempt.
An outcome moves a code by an offset fixed by the step (``code_offsets``),
so a row is built once per target status and the classes the outcomes land
in, and a per-class sum once per local table and grouping of its entries
(15 rows and 29 sums for the lossy model).  Every failing code projects
to the sink row, so the check projects only code 0 and the live codes
one by one, and the failing codes once per class that holds them.
Each circuit applies one gate table to every helper, so a local outcome's
probability depends only on its orbit under permuting the helpers, and the
signature grouping lumps every construction the gate tables can express.
The check still runs at every build, so the grouping is a verified lumping
of the Markov chain (Kemeny and Snell, *Finite Markov Chains*, 1960), not an
assumed one: a table that breaks the symmetry raises ClassUnsound.  The
check yields each class's row, one exact polynomial per target class, and
proves that each row sums to one.  The build keeps those symbolic rows
beside the table (``class_rows``): every chain substitutes its rates into
them, so the attempt tables are expanded, and the rows checked, once per
(model, FaultModel).

The partition is stated once, as each class's members: they are the only
map from a pattern to its class, and a class's size and the census (every
pattern; the fail class holds exactly the procedure failures) are read
from them.  ``verify_class_soundness`` and ``initial_distribution`` raise
ValueError unless the members partition the pattern space.  Because they
do and the injected marginals sum to one, the fail class's initial mass is
one minus the other classes'.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum, IntEnum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, product
from math import lcm
from types import MappingProxyType
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact_arith import Poly, coerce
from .pauli_algebra import N_QUBITS, supports_logical


class Erasure(IntEnum):
    NONE = 0
    Z_MEASURED = 1
    Z_ERASED = 2
    FULL = 3


_STATUS_CHARS = {
    Erasure.NONE: ".",
    Erasure.Z_MEASURED: "M",
    Erasure.Z_ERASED: "Z",
    Erasure.FULL: "E",
}
_CHAR_STATUS = {v: k for k, v in _STATUS_CHARS.items()}

# A pattern is a 7-tuple of Erasure values; tuples keep it hashable and cheap.
Pattern = Tuple[Erasure, ...]

CLEAN_PATTERN: Pattern = (Erasure.NONE,) * N_QUBITS


class Model(Enum):
    IDEAL = "ideal"
    LOSSY = "lossy"


MODEL_ALPHABET = {
    Model.IDEAL: (Erasure.NONE, Erasure.Z_MEASURED),
    Model.LOSSY: (Erasure.NONE, Erasure.Z_ERASED, Erasure.FULL),
}


class Classification(Enum):
    CORRECTABLE = "correctable"
    PROCEDURE_FAIL = "procedure_fail"


class ClassUnsound(Exception):
    """Two members of one equivalence class disagree on outgoing distributions."""


class Done:
    """Sentinel: nothing left to correct."""

    def __repr__(self) -> str:
        return "Done"


class Abort:
    """Sentinel: the pattern is a procedure failure."""

    def __repr__(self) -> str:
        return "Abort"


# What ``correction_circuits.select_step`` returns in place of a step.
DONE = Done()
ABORT = Abort()


def parse_pattern(text: str) -> Pattern:
    if len(text) != N_QUBITS:
        raise ValueError(f"pattern must have {N_QUBITS} characters, got {text!r}")
    try:
        return tuple(_CHAR_STATUS[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"invalid pattern character {exc.args[0]!r}") from None


def format_pattern(pattern: Pattern) -> str:
    return "".join(_STATUS_CHARS[s] for s in pattern)


def pattern_support(pattern: Pattern) -> frozenset:
    return frozenset(q + 1 for q in range(N_QUBITS) if pattern[q] != Erasure.NONE)


def pattern_weight(pattern: Pattern) -> int:
    return N_QUBITS - pattern.count(Erasure.NONE)


def pattern_counts(pattern: Pattern) -> Tuple[int, int, int]:
    """(full erasures, Z erasures, Z measurements)."""
    return (
        pattern.count(Erasure.FULL),
        pattern.count(Erasure.Z_ERASED),
        pattern.count(Erasure.Z_MEASURED),
    )


def infer_model(pattern: Pattern) -> Optional[Model]:
    """Model implied by the pattern alphabet; None when all qubits are intact."""
    has_m = any(s == Erasure.Z_MEASURED for s in pattern)
    has_loss = any(s in (Erasure.Z_ERASED, Erasure.FULL) for s in pattern)
    if has_m and has_loss:
        raise ValueError("pattern mixes the ideal and lossy alphabets")
    if has_m:
        return Model.IDEAL
    if has_loss:
        return Model.LOSSY
    return None


# Bit q-1 of an erased mask stands for qubit q.
_BITS = tuple(1 << q for q in range(N_QUBITS))


def erased_mask(pattern: Pattern) -> int:
    """The mask of the pattern's erased qubits (``Erasure.NONE`` is 0)."""
    return sum(compress(_BITS, pattern))


def _classification(mask: int) -> Classification:
    support = frozenset(q + 1 for q in range(N_QUBITS) if mask >> q & 1)
    weight = len(support)
    if weight <= 2 or (weight == 3 and not supports_logical(support)):
        return Classification.CORRECTABLE
    return Classification.PROCEDURE_FAIL


# Correctability depends only on which qubits are erased.
_CLASSIFICATION = tuple(map(_classification, range(1 << N_QUBITS)))


def classify_erased(mask: int) -> Classification:
    """``classify`` of the patterns whose erased mask is ``mask``."""
    return _CLASSIFICATION[mask]


def classify(pattern: Pattern) -> Classification:
    """Correctable iff weight <= 2, or weight 3 with no covered logical."""
    return _CLASSIFICATION[erased_mask(pattern)]


class ModelParams(NamedTuple):
    """Noise model with its symbolic (or numeric) rates.

    The ideal model has only the gate teleportation failure rate eps; the
    lossy model has the gate loss rate eps and the per-detector loss rate
    delta.  Rates are polynomials so the same engine serves symbolic series
    extraction, the delta = eps diagonal, and numeric evaluation.
    """

    model: Model
    eps: Poly
    delta: Poly

    @staticmethod
    def ideal(eps: Poly | Fraction | int | None = None) -> "ModelParams":
        p = Poly.eps() if eps is None else coerce(eps)
        return ModelParams(Model.IDEAL, p, Poly.zero())

    @staticmethod
    def lossy(
        eps: Poly | Fraction | int | None = None,
        delta: Poly | Fraction | int | None = None,
    ) -> "ModelParams":
        e = Poly.eps() if eps is None else coerce(eps)
        d = Poly.delta() if delta is None else coerce(delta)
        return ModelParams(Model.LOSSY, e, d)

    @staticmethod
    def symbolic(model: Model) -> "ModelParams":
        """The model at its symbolic rates: eps, and delta for lossy."""
        return ModelParams.ideal() if model is Model.IDEAL else ModelParams.lossy()

    def is_numeric(self) -> bool:
        """Whether both rates are constants, with no eps or delta term."""
        return self.eps.total_degree() <= 0 and self.delta.total_degree() <= 0

    @staticmethod
    def lossy_diagonal(value: Poly | Fraction | int | None = None) -> "ModelParams":
        """Lossy model on the delta = eps line."""
        e = Poly.eps() if value is None else coerce(value)
        return ModelParams(Model.LOSSY, e, e)


def all_patterns(model: Model) -> List[Pattern]:
    """Every pattern over the model's alphabet (128 ideal, 2187 lossy)."""
    alphabet = MODEL_ALPHABET[model]
    return list(product(alphabet, repeat=N_QUBITS))


@lru_cache(maxsize=None)
def code_layout(model: Model) -> Tuple[Mapping[Erasure, int], Tuple[int, ...]]:
    """A pattern's code, its index in ``all_patterns``, is the sum over
    qubits of the digit of its status (the status's place in the model's
    alphabet) times the qubit's place value, qubit 1 most significant.
    Returns the digits, read-only and shared per model, and the place
    values of qubits 1 to 7."""
    alphabet = MODEL_ALPHABET[model]
    digit = MappingProxyType({status: d for d, status in enumerate(alphabet)})
    return digit, tuple(len(alphabet) ** (N_QUBITS - q) for q in range(1, N_QUBITS + 1))


def code_offsets(model: Model, local) -> List[int]:
    """How far each outcome of a step moves a pattern's code, in outcome order.

    ``local`` is a ``correction_circuits.LocalAttempt``: each outcome writes
    statuses at its positions, the target, whose status is its key, then
    three intact helpers, whose digit is 0.  So the offsets are fixed by
    the step, whatever else the pattern holds.
    """
    positions, key, outcomes = local
    digit, places = code_layout(model)
    target, first, second, third = (places[q - 1] for q in positions)
    start = digit[key] * target
    return [
        digit[t] * target + digit[a] * first + digit[b] * second + digit[c] * third - start
        for (t, a, b, c), _ in outcomes
    ]


@lru_cache(maxsize=None)
def live_codes(model: Model) -> Tuple[int, ...]:
    """The codes ``select_step`` gives a step, in code order; every other
    nonzero code is a procedure failure (ABORT) and code 0 is DONE.
    Correctability depends only on the erased mask (``classify_erased``):
    a nonzero correctable mask's codes put any nonzero digit at each of its
    qubits' place values and 0 elsewhere.
    """
    _, places = code_layout(model)
    digits = range(1, len(MODEL_ALPHABET[model]))
    live = []
    for mask in range(1, 1 << N_QUBITS):
        if classify_erased(mask) is Classification.CORRECTABLE:
            erased = [[d * places[q] for d in digits] for q in range(N_QUBITS) if mask >> q & 1]
            live.extend(map(sum, product(*erased)))
    return tuple(sorted(live))


# ----------------------------------------------------------------------
# Equivalence classes
# ----------------------------------------------------------------------

class EquivClass(NamedTuple):
    id: int
    label: str
    representative: Pattern
    members: Tuple[Pattern, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class ClassTable(NamedTuple):
    """Classes in id order; their members are the partition of the pattern
    space.  Read-only, since ``build_classes`` shares one table among all
    its callers."""

    model: Model
    classes: Tuple[EquivClass, ...]
    clean_id: int
    fail_id: int

    def to_json(self) -> dict:
        return {
            "model": self.model.value,
            "clean_id": self.clean_id,
            "fail_id": self.fail_id,
            "classes": [
                {
                    "id": c.id,
                    "label": c.label,
                    "representative": format_pattern(c.representative),
                    "size": c.size,
                }
                for c in self.classes
            ],
        }


# One attempt from each class, in class-id order, as {target class id: Poly}.
ClassRows = Tuple[Mapping[int, Poly], ...]


def _signature(pattern: Pattern, step) -> tuple:
    """The pattern's correction signature, read from its ``select_step``
    (or a live pattern's LocalAttempt), which is also its class's sort key:
    (0,) clean first, then (1, weight, counts) by weight and composition,
    then (2,) for every procedure failure."""
    if step is DONE:
        return (0,)
    if step is ABORT:
        return (2,)
    counts = pattern_counts(pattern)
    return (1, sum(counts), counts)


def _label(signature: tuple, model: Model) -> str:
    if signature == (0,):
        return "clean"
    if signature == (2,):
        return "fail"
    m, n, k = signature[2]
    return f"w{k}" if model is Model.IDEAL else f"[{m},{n}]"


def build_classes(model: Model, config=None) -> ClassTable:
    """Group the pattern space into verified equivalence classes.

    Only the live patterns (``live_codes``) take a step, decided once each
    (``correction_circuits.select_step``); every other nonzero code is a
    procedure failure.  Live patterns are grouped by the correction
    signature read from their steps (weight / erasure composition), and the
    same attempts check that one attempt's class-level outcome
    distribution is literally identical, as exact polynomials, for every
    member of every class; a disagreement raises ClassUnsound.  The table
    is built once per (model, FaultModel), ``None`` meaning the default,
    and shared.
    """
    return _class_table(model, _fault_model(config))[0]


def class_rows(model: Model, config=None) -> ClassRows:
    """The rows ``build_classes`` verified its table with, at symbolic rates.

    Row ``c`` is one attempt from class ``c`` as ``{class id: Poly}``, the
    row every member of the class shares.  Built with the table, once per
    (model, FaultModel), and shared read-only.
    """
    return _class_table(model, _fault_model(config))[1]


def _fault_model(config):
    from .correction_circuits import DEFAULT_FAULT_MODEL

    return config if config is not None else DEFAULT_FAULT_MODEL


@lru_cache(maxsize=8)
def _class_table(model: Model, fault_model) -> Tuple[ClassTable, ClassRows]:
    from .correction_circuits import fail_sink

    patterns, attempts = _decided(model, fault_model)
    groups: Dict[tuple, List[int]] = {}
    for code, local in attempts.items():
        groups.setdefault(_signature(patterns[code], local), []).append(code)
    # Signatures sort clean first and fail last, and each group is in code
    # order.  Every procedure failure moves to the sink in one attempt.
    fail_id = len(groups) + 1
    cls = [0] + [fail_id] * (len(patterns) - 1)
    classes = [EquivClass(0, "clean", patterns[0], (patterns[0],))]
    for cid, signature in enumerate(sorted(groups), 1):
        members = tuple([patterns[code] for code in groups[signature]])
        classes.append(EquivClass(cid, _label(signature, model), members[0], members))
        for code in groups[signature]:
            cls[code] = cid
    members = tuple([p for p, cid in zip(patterns, cls) if cid == fail_id])
    classes.append(EquivClass(fail_id, "fail", fail_sink(model), members))
    table = ClassTable(model=model, classes=tuple(classes), clean_id=0, fail_id=fail_id)
    return table, _verified_rows(table, cls, attempts)


def _decided(model: Model, fault_model) -> Tuple[List[Pattern], Dict[int, object]]:
    """``all_patterns``, and code -> ``correction_circuits.local_attempt`` at
    symbolic rates for the live codes only, in code order.

    ``select_step`` decides each live pattern once; the codes of one
    (target status, positions) share one LocalAttempt (44 lossy, 16 ideal).
    """
    from . import correction_circuits as circuits

    patterns = all_patterns(model)
    tables = circuits.outcome_tables(ModelParams.symbolic(model), fault_model)
    shared: Dict[tuple, object] = {}
    attempts = {}
    for code in live_codes(model):
        pattern = patterns[code]
        step = circuits.select_step(pattern)
        key = pattern[step.target - 1]
        local = shared.get((key, step.positions))
        if local is None:
            local = circuits.LocalAttempt(step.positions, key, tables[key])
            shared[key, step.positions] = local
        attempts[code] = local
    return patterns, attempts


def _code(pattern: Pattern, model: Model) -> int:
    digit, places = code_layout(model)
    return sum([digit[status] * place for status, place in zip(pattern, places)])


def _projector(table: ClassTable, cls: Sequence[int], attempts) -> Callable[[int], tuple]:
    """code -> one attempt's outcome distribution, summed per class of
    ``cls``, the class id of every code, as a tuple of (class id, exact sum).

    Code 0 stays and a code with no attempt moves to the fail sink.  A live
    row is shared by the codes of one (target status, classes the outcomes
    land in), and each sum by those of one (status, entries of the local
    table).  Members of one class may group their entries differently and
    still have equal sums, so rows compare sums, never groupings.
    """
    unit = Poly.one()
    clean_row = ((cls[0], unit),)
    # The fail sink, every qubit at the alphabet's last status, is the last code.
    sink_row = ((cls[-1], unit),)
    offsets: Dict[tuple, List[int]] = {}
    rows: Dict[tuple, tuple] = {}
    sums: Dict[tuple, Poly] = {}

    def project(code: int) -> tuple:
        local = attempts.get(code)
        if local is None:
            return sink_row if code else clean_row
        positions, key, outcomes = local
        shifts = offsets.get((key, positions))
        if shifts is None:
            shifts = offsets[key, positions] = code_offsets(table.model, local)
        classes = tuple([cls[code + shift] for shift in shifts])
        row = rows.get((key, classes))
        if row is None:
            entries: Dict[int, List[int]] = {}
            for i, cid in enumerate(classes):
                entries.setdefault(cid, []).append(i)
            row = []
            for cid in sorted(entries):
                memo = (key, tuple(entries[cid]))
                total = sums.get(memo)
                if total is None:
                    total = sums[memo] = Poly.sum([outcomes[i][1] for i in entries[cid]])
                row.append((cid, total))
            row = rows[key, classes] = tuple(row)
        return row

    return project


def verify_class_soundness(table: ClassTable, config=None) -> ClassRows:
    """Exact check, at the table's model's symbolic rates, that every
    member of every class shares its representative's projected row, and
    that the row sums to one; returns those rows.

    Row ``c`` is a read-only ``{class id: Poly}``, one attempt from class
    ``c`` summed per target class.  Classes are checked in id order and
    members in table order; the first disagreement raises ClassUnsound and
    a row whose sum is not exactly ``Poly.one()`` raises ValueError naming
    its class.  Members that do not partition the model's pattern space (a
    pattern in two classes, in none, or off the model's alphabet) raise
    ValueError before any row is checked.  ``build_classes`` runs the same
    check on the attempts it grouped its table with and keeps the rows
    (``class_rows``); ``build_chain`` runs this on tables it is given.
    ``attempt`` uses only ring operations on eps and delta, and
    substituting values for them commutes with the per-class sums, so a
    row at any ``ModelParams`` (numeric rates or the delta = eps diagonal)
    is the symbolic row with the rates substituted: members that agree,
    and rows that sum to one, as polynomials do so at every substitution.
    An attempt leaves the clean pattern as it is and sends a procedure
    failure to the fail sink, so the clean and fail rows are identity
    rows.
    """
    model = table.model
    alphabet = frozenset(MODEL_ALPHABET[model])
    # The class of every code, read from the members; None marks a code no
    # member has landed on yet.
    cls: List[Optional[int]] = [None] * len(alphabet) ** N_QUBITS
    for c in table.classes:
        for p in c.members:
            code = _code(p, model) if len(p) == N_QUBITS and alphabet.issuperset(p) else None
            if code is None or cls[code] is not None:
                raise ValueError(_NOT_A_PARTITION)
            cls[code] = c.id
    if None in cls:
        raise ValueError(_NOT_A_PARTITION)
    _, attempts = _decided(model, _fault_model(config))
    return _verified_rows(table, cls, attempts)


_NOT_A_PARTITION = "the classes' members do not partition the model's pattern space"


def _verified_rows(table: ClassTable, cls: Sequence[int], attempts) -> ClassRows:
    """``verify_class_soundness`` on the class id of every code and
    ``_decided``'s attempts, keyed by the live codes.  Only code 0 and the
    live codes are projected one by one; the failing codes, the nonzero
    codes with no attempt, are checked through the classes that hold them."""
    project = _projector(table, cls, attempts)
    references = [project(_code(c.representative, table.model)) for c in table.classes]
    bad = {code for code in (0, *attempts) if project(code) != references[cls[code]]}
    # Every failing code projects to the sink row, so one code per class
    # holding any checks them all; only a class that disagrees lists them.
    failing = [code for code in range(1, len(cls)) if code not in attempts]
    for cid, code in dict(zip(map(cls.__getitem__, failing), failing)).items():
        if project(code) != references[cid]:
            bad.update([other for other in failing if cls[other] == cid])
    verified = []
    for c, reference in zip(table.classes, references):
        for p in c.members if bad else ():
            if _code(p, table.model) in bad:
                raise ClassUnsound(
                    f"class {c.label!r}: {format_pattern(p)} disagrees with "
                    f"{format_pattern(c.representative)}"
                )
        total = Poly.sum([prob for _, prob in reference])
        if total != Poly.one():
            raise ValueError(f"transition row of class {c.label} sums to {total}, not 1")
        verified.append(MappingProxyType(dict(reference)))
    return tuple(verified)


# ----------------------------------------------------------------------
# Initial distribution
# ----------------------------------------------------------------------

def qubit_marginals(params: ModelParams, config=None) -> Dict[Erasure, Poly]:
    """Per-qubit erasure probabilities injected by one encoded gate.

    Every data qubit passes through one encoded gate, so this is the
    marginal of one side of the construction's ``encoded`` gate table
    (``correction_circuits.gate_tables``).
    """
    from .correction_circuits import DEFAULT_FAULT_MODEL, gate_tables

    encoded = gate_tables(params, config if config is not None else DEFAULT_FAULT_MODEL).encoded
    marginals: Dict[Erasure, Poly] = {}
    for (own, _partner), prob in encoded.items():
        marginals[own] = marginals.get(own, Poly.zero()) + prob
    return marginals


def pattern_probability(pattern: Pattern, params: ModelParams, config=None) -> Poly:
    """Probability of one injected pattern (independent qubits)."""
    marginals = qubit_marginals(params, config)
    prob = Poly.one()
    for status in pattern:
        prob = prob * marginals[status]
    return prob


def initial_distribution(
    params: ModelParams, table: ClassTable, config=None
) -> Dict[int, Poly]:
    """Class-level distribution of the injected erasure pattern.

    A pattern's probability depends only on how many of its qubits carry
    each status, so a class's mass is a sum over the distinct compositions
    among its members, each weighted by how many members share it.  The
    powers of each status's marginal are built once and shared by every
    class, so a composition's product is one product of those powers;
    ``pattern_probability`` is the per-pattern form.  The marginals are
    first scaled to integer polynomials by the lcm s of their coefficient
    denominators, so the products multiply ints, and each class's mass is
    divided by s^7 once.  The fail class's mass is one minus the others':
    the pattern probabilities sum to (sum of the marginals)^7, which is
    one, and the classes partition the pattern space.  ValueError if
    either of those does not hold.
    """
    if table.model is not params.model:
        raise ValueError("class table and params disagree on the model")
    marginals = qubit_marginals(params, config)
    total = Poly.sum(marginals.values())
    if total != Poly.one():
        raise ValueError(f"the qubit marginals sum to {total}, not 1")
    alphabet = MODEL_ALPHABET[params.model]
    # Distinct members, counted in one pass, against the class sizes: a
    # pattern in two classes, or in none, fails one of the two equalities.
    members = [c.members for c in table.classes]
    distinct = len(set(chain.from_iterable(members)))
    if not distinct == sum(map(len, members)) == len(alphabet) ** N_QUBITS:
        raise ValueError(_NOT_A_PARTITION)

    scale = lcm(*[c.denominator for m in marginals.values() for c in m.terms.values()])
    powers: Dict[Erasure, List[Poly]] = {}
    for status in alphabet:
        base = marginals[status] * scale
        powers[status] = [Poly.one()]
        for _ in range(N_QUBITS):
            powers[status].append(powers[status][-1] * base)
    dist: Dict[int, Poly] = {}
    rest = Poly.one()
    for cls in table.classes:
        mass = Poly.zero()
        if cls.id != table.fail_id:
            multiplicity: Dict[Tuple[int, ...], int] = {}
            for p in cls.members:
                comp = tuple(map(p.count, alphabet))
                multiplicity[comp] = multiplicity.get(comp, 0) + 1
            terms = []
            for comp, count in multiplicity.items():
                product = Poly.constant(count)
                for status, k in zip(alphabet, comp):
                    if k:
                        product = product * powers[status][k]
                terms.append(product)
            mass = Poly.sum(terms) / scale**N_QUBITS
            rest = rest - mass
        dist[cls.id] = mass
    dist[table.fail_id] = rest
    return dist
