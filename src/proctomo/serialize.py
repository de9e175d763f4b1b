"""JSON / JSON-lines / CSV persistence shared by every module.

Complex matrices serialize as row-major arrays of [re, im] pairs together with
a labels header of {lab, role, dim} records. Floats go through repr, so a
parse -> serialize round trip is bit-identical.

A probe family is stored as its generator's recipe in a header line, then one
{setting, outcome} line per element; reading regenerates the family and checks
each line. A hand-built family has no recipe and cannot be stored.
"""

import csv
import inspect
import io
import json
from dataclasses import replace

import numpy as np

from .errors import InvalidSetting, OutOfBudget, ParseError, ProctomoError
from .probe_factory import (GENERATORS, ProbeElement, ProbeFamily, Provenance,
                            ancilla_superinstrument)
from .process_sim import NEGATIVITY_TOL, ExperimentRecord
from .tensor_core import LabeledOperator, Role, SpaceLabel


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, dtype=complex)]


def pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def labels_to_json(labels) -> list:
    return [{"lab": l.lab, "role": l.role.value, "dim": l.dim} for l in labels]


def labels_from_json(items) -> tuple[SpaceLabel, ...]:
    return tuple(SpaceLabel(int(d["lab"]), Role(d["role"]), int(d["dim"])) for d in items)


def operator_to_json(op: LabeledOperator) -> dict:
    return {"labels": labels_to_json(op.labels), "matrix": matrix_to_pairs(op.mat)}


def operator_from_json(data) -> LabeledOperator:
    try:
        return LabeledOperator(labels_from_json(data["labels"]), pairs_to_matrix(data["matrix"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad operator: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Probe families (JSON lines)
# ---------------------------------------------------------------------------

def element_id_json(e: ProbeElement) -> dict:
    return {"setting": e.setting_id, "outcome": e.outcome}


def family_to_jsonl(family: ProbeFamily) -> str:
    """Header line with the generator's recipe, then one line per element.
    A family without a recipe (hand-built) raises InvalidSetting."""
    if family.recipe is None:
        raise InvalidSetting("only a generated family can be saved; this one has no recipe")
    header = {"type": "probe_family", "provenance": family.provenance.value,
              "count": len(family), "recipe": family.recipe}
    return "\n".join(json.dumps(x) for x in [header, *map(element_id_json, family)]) + "\n"


def family_from_jsonl(text: str) -> ProbeFamily:
    """Inverse of family_to_jsonl: the family is rebuilt by the generator of
    its recipe, at most as long as the file, and each line must match it."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty probe family file", line=1)
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ParseError("family header must be a JSON object", line=1)
        provenance = Provenance(header.get("provenance", "Custom"))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ParseError(f"bad family header: {exc}", line=1) from exc
    recipe = header.get("recipe")
    items = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            items.append((i, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad probe element: {exc}", line=i) from exc
    if "count" in header and header["count"] != len(items):
        raise ParseError(f"expected {header['count']} elements, found {len(items)}",
                         line=len(lines))
    generator = GENERATORS.get(provenance)
    if generator is None or not isinstance(recipe, dict) or not all(
            v is None or type(v) is int for v in recipe.values()):
        raise ParseError(f"bad recipe {recipe!r} for provenance {provenance.value}", line=1)
    # cap the generator at the listed count, so an oversized recipe builds nothing
    bounded = ("element_cap" in inspect.signature(generator).parameters
               and (recipe.get("element_cap") is None or recipe["element_cap"] > len(items)))
    kwargs = {**recipe, "element_cap": len(items)} if bounded else recipe
    try:
        family = replace(generator(**kwargs), recipe=recipe)
    except (TypeError, ValueError, ProctomoError) as exc:
        line = len(lines) if bounded and isinstance(exc, OutOfBudget) else 1  # count mismatch
        raise ParseError(f"bad recipe {recipe!r}: {exc}", line=line) from exc
    if len(family) != len(items):
        raise ParseError(f"recipe gives {len(family)} elements", line=len(lines))
    for (i, data), e in zip(items, family):
        if data != element_id_json(e):
            raise ParseError(f"element {data!r} is not {element_id_json(e)!r}, "
                             f"which the recipe gives", line=i)
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

def record_to_json(r: ExperimentRecord) -> dict:
    return {"setting_id": r.setting_id, "outcome": r.outcome,
            "probability": r.probability, "count": r.count,
            "shots_total": r.shots_total}


def record_from_json(d) -> ExperimentRecord:
    """Shot records need an integer count, exact records a real probability."""
    r = ExperimentRecord(str(d["setting_id"]), str(d["outcome"]),
                         probability=d.get("probability"),
                         count=d.get("count"),
                         shots_total=int(d.get("shots_total", 0)))
    name, kind = ("count", int) if r.shots_total else ("probability", (int, float))
    value = getattr(r, name)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"record {r.setting_id}/{r.outcome}: {name} is {value!r}")
    if r.shots_total and not 0 <= r.count <= r.shots_total:
        raise ParseError(f"record {r.setting_id}/{r.outcome}: count {r.count} "
                         f"outside 0..{r.shots_total}")
    if not r.shots_total and not 0 <= r.probability <= 1 + NEGATIVITY_TOL:
        raise ParseError(f"record {r.setting_id}/{r.outcome}: probability "
                         f"{r.probability!r} outside [0, 1]")
    return r


def records_to_json(records) -> str:
    return json.dumps([record_to_json(r) for r in records], indent=2) + "\n"


def records_from_json(text: str):
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad records file: {exc}") from exc
    if not isinstance(items, list):
        raise ParseError("records file must hold a JSON list")
    try:
        records = [record_from_json(d) for d in items]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad record: {exc!r}") from exc
    seen, settings = set(), {}
    for r in records:
        key = (r.setting_id, r.outcome)
        if key in seen:
            raise ParseError(f"duplicate record {r.setting_id}/{r.outcome}")
        seen.add(key)
        settings.setdefault(r.setting_id, []).append(r)
    for sid, rs in settings.items():
        if len({r.shots_total for r in rs}) > 1:
            raise ParseError(f"setting {sid}: records disagree on shots_total")
        shots = rs[0].shots_total
        total = sum(r.count if shots else r.probability for r in rs)
        if abs(total - (shots or 1)) > (0 if shots else NEGATIVITY_TOL):
            raise ParseError(f"setting {sid}: outcomes sum to {total!r}, not {shots or 1}")
    return records


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
    """One manifest per setting, read from the one circuit its elements hold:
    ancilla state, joint system (x) ancilla lab unitaries, the phase gate
    angles between labs, and the final Z measurement of the ancilla, whose
    outcome m is the setting's m-th outcome, as rebuilding the setting's Chois
    from the circuit confirms. Native-gate decomposition is not done."""
    manifests = []
    for sid, elems in family.settings().items():
        circuit, first_lab = elems[0].circuit, elems[0].choi.labels[0].lab
        chois = () if circuit is None else ancilla_superinstrument(circuit, first_lab)
        if len(elems) > len(chois) or not all(
                e.circuit is circuit and e.choi.labels == c.labels
                and np.array_equal(e.choi.mat, c.mat) for e, c in zip(elems, chois)):
            raise InvalidSetting(f"setting {sid!r} is not the outcomes 0, 1, ... of one "
                                 f"qubit-ancilla circuit")
        manifests.append({"setting": sid, "outcomes": [e.outcome for e in elems],
                          "ancilla_prep": [[float(x.real), float(x.imag)] for x in circuit.psi],
                          "labs": [matrix_to_pairs(u) for u in circuit.lab_unitaries],
                          "phase_gates": list(circuit.thetas), "measure": "Z on ancilla"})
    return manifests
