"""JSON / JSON-lines / CSV persistence shared by every module.

Complex matrices serialize as row-major arrays of [re, im] pairs together with
a labels header of {lab, role, dim} records. Floats go through repr, so a
parse -> serialize round trip is bit-identical.

A probe family is stored as one header line: its provenance, element count and
generator's recipe. Reading regenerates the family and checks it against that
count. A hand-built family has no recipe and cannot be stored. Experiment
records are one object of parallel lists in record order, with shots once.
"""

import collections
import csv
import io
import json

import numpy as np

from .errors import InvalidSetting, ParseError, ProctomoError
from .probe_factory import GENERATORS, ProbeFamily, Provenance
from .process_sim import NEGATIVITY_TOL, ExperimentRecord
from .tensor_core import LabeledOperator, Role, SpaceLabel


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, dtype=complex)]


def pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def labels_to_json(labels) -> list:
    return [{"lab": l.lab, "role": l.role.value, "dim": l.dim} for l in labels]


def labels_from_json(items) -> tuple[SpaceLabel, ...]:
    labels = tuple(SpaceLabel(d["lab"], Role(d["role"]), d["dim"]) for d in items)
    for l in labels:
        if type(l.lab) is not int or type(l.dim) is not int:
            raise TypeError(f"label {l!r}: lab and dim must be ints")
    return labels


def operator_to_json(op: LabeledOperator) -> dict:
    return {"labels": labels_to_json(op.labels), "matrix": matrix_to_pairs(op.mat)}


def operator_from_json(data) -> LabeledOperator:
    try:
        return LabeledOperator(labels_from_json(data["labels"]), pairs_to_matrix(data["matrix"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad operator: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Probe families (JSON lines)
# ---------------------------------------------------------------------------

def family_to_jsonl(family: ProbeFamily) -> str:
    """The header line alone: provenance, element count and the generator's recipe.
    A family without a recipe (hand-built) raises InvalidSetting."""
    if family.recipe is None:
        raise InvalidSetting("only a generated family can be saved; this one has no recipe")
    return json.dumps({"type": "probe_family", "provenance": family.provenance.value,
                       "count": len(family), "recipe": family.recipe}) + "\n"


def family_from_jsonl(text: str) -> ProbeFamily:
    """Inverse of family_to_jsonl: the family is rebuilt by the generator of its
    recipe, whose own size checks run before anything is built."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty probe family file", line=1)
    if len(lines) > 1:
        raise ParseError("a probe family file is one header line", line=2)
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ParseError("family header must be a JSON object", line=1)
        provenance = Provenance(header.get("provenance", "Custom"))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ParseError(f"bad family header: {exc}", line=1) from exc
    count, recipe = header.get("count"), header.get("recipe")
    if type(count) is not int or count < 0:
        raise ParseError(f"count is {count!r}, not a non-negative int", line=1)
    generator = GENERATORS.get(provenance)
    if generator is None or not isinstance(recipe, dict) or not all(
            v is None or type(v) is int for v in recipe.values()):
        raise ParseError(f"bad recipe {recipe!r} for provenance {provenance.value}", line=1)
    try:
        family = generator(**recipe)
    except (TypeError, ValueError, ProctomoError) as exc:
        raise ParseError(f"bad recipe {recipe!r}: {exc}", line=1) from exc
    if len(family) != count:
        raise ParseError(f"recipe gives {len(family)} elements, not {count}", line=1)
    return family


def save_family(family: ProbeFamily, path) -> None:
    text = family_to_jsonl(family)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text)


def load_family(path) -> ProbeFamily:
    with open(path) as fh:
        return family_from_jsonl(fh.read())


# ---------------------------------------------------------------------------
# Experiment records and process specs
# ---------------------------------------------------------------------------

def records_to_json(records) -> str:
    """One JSON object in record order: shots once, then the parallel lists
    setting_id, outcome and count (or, with shots 0, the exact probability)."""
    shots = {r.shots_total for r in records}
    if len(shots) > 1:
        raise InvalidSetting(f"records mix shots_total values {sorted(shots)}")
    shots = shots.pop() if shots else 0
    name = "count" if shots else "probability"
    return json.dumps({"shots": shots, "setting_id": [r.setting_id for r in records],
                       "outcome": [r.outcome for r in records],
                       name: [getattr(r, name) for r in records]}) + "\n"


def records_from_json(text: str) -> list[ExperimentRecord]:
    """Inverse of records_to_json. Counts lie in 0..shots and sum to shots per
    setting; exact probabilities lie in [0, 1] and sum to 1."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int beyond 4300 digits
        raise ParseError(f"bad records file: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("records file must hold a JSON object")
    shots = data.get("shots")
    if type(shots) is not int or shots < 0:
        raise ParseError(f"shots is {shots!r}, not a non-negative int")
    name = "count" if shots else "probability"
    ids, outcomes, values = columns = [data.get(k) for k in ("setting_id", "outcome", name)]
    if not all(isinstance(c, list) for c in columns) or len(set(map(len, columns))) > 1:
        raise ParseError(f"setting_id, outcome and {name} must be lists of one length")
    if not all(isinstance(x, str) for x in ids + outcomes):
        raise ParseError("setting ids and outcomes must be strings")
    totals = {}
    for sid, outcome, v in zip(ids, outcomes, values):
        if not (type(v) is int and 0 <= v <= shots if shots else
                type(v) in (int, float) and 0 <= v <= 1 + NEGATIVITY_TOL):
            raise ParseError(f"record {sid}/{outcome}: {name} {v!r} is not "
                             + (f"an int in 0..{shots}" if shots else "a real in [0, 1]"))
        totals[sid] = totals.get(sid, 0) + v
    if len(set(zip(ids, outcomes))) < len(ids):
        dup = collections.Counter(zip(ids, outcomes)).most_common(1)[0][0]
        raise ParseError(f"duplicate record {dup[0]}/{dup[1]}")
    for sid, total in totals.items():
        if abs(total - (shots or 1)) > (0 if shots else NEGATIVITY_TOL):
            raise ParseError(f"setting {sid}: outcomes sum to {total!r}, not {shots or 1}")
    if shots:
        return [ExperimentRecord(s, o, count=c, shots_total=shots)
                for s, o, c in zip(ids, outcomes, values)]
    return [ExperimentRecord(s, o, probability=p) for s, o, p in zip(ids, outcomes, values)]


def records_to_csv(records) -> str:
    """Columns (setting_id, outcome, count, shots); exact-mode rows carry the
    probability in the count column with shots = 0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setting_id", "outcome", "count", "shots"])
    for r in records:
        value = r.probability if r.shots_total == 0 else r.count
        writer.writerow([r.setting_id, r.outcome, repr(value) if isinstance(value, float) else value,
                         r.shots_total])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Circuit manifests
# ---------------------------------------------------------------------------

def family_manifests(family: ProbeFamily) -> list[dict]:
    """One manifest per setting, whose elements must be the ancilla outcomes 0, 1, ...
    of one circuit: ancilla state, joint system (x) ancilla lab unitaries, the phase
    gate angles between labs, and the final Z measurement of the ancilla, whose
    outcome m is the setting's m-th outcome. Native-gate decomposition is not done."""
    manifests = []
    for sid, elems in family.settings().items():
        e0 = elems[0]
        if not all(e.batch is e0.batch and e.row == e0.row and e.m == m
                   for m, e in enumerate(elems)):
            raise InvalidSetting(f"setting {sid!r} is not the outcomes 0, 1, ... of one "
                                 f"qubit-ancilla circuit")
        circuit = e0.circuit
        manifests.append({"setting": sid, "outcomes": [e.outcome for e in elems],
                          "ancilla_prep": [[float(x.real), float(x.imag)] for x in circuit.psi],
                          "labs": [matrix_to_pairs(u) for u in circuit.lab_unitaries],
                          "phase_gates": list(circuit.thetas), "measure": "Z on ancilla"})
    return manifests
