import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctomo import probe_factory, serialize
from proctomo.errors import InvalidSetting, ParseError
from proctomo.probe_factory import (
    KET0,
    AncillaProbeSetting,
    ProbeFamily,
    ancilla_superinstrument,
    qubit16_family,
    unitary_only_family,
    weyl_ancilla_family,
)
from proctomo.process_sim import (
    build_process,
    interior_only,
    preset_process,
    sample_shots,
)
from proctomo.tensor_core import LabeledOperator, Role, SpaceLabel


def test_operator_roundtrip_bit_identical(rng):
    labels = (SpaceLabel(1, Role.INPUT, 2), SpaceLabel(1, Role.OUTPUT, 2))
    op = LabeledOperator(labels, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    data = json.loads(json.dumps(serialize.operator_to_json(op)))
    back = serialize.operator_from_json(data)
    assert back.labels == op.labels
    assert np.array_equal(back.mat, op.mat)


def test_family_roundtrip_qubit16(tmp_path, qubit16):
    path = tmp_path / "family.jsonl"
    serialize.save_family(qubit16, path)
    back = serialize.load_family(path)
    assert back.provenance == qubit16.provenance
    assert len(back) == len(qubit16)
    for a, b in zip(qubit16, back):
        assert a.setting_id == b.setting_id and a.outcome == b.outcome
        assert np.array_equal(a.choi.mat, b.choi.mat)


def test_family_roundtrip_weyl_n2(tmp_path, weyl_n2):
    path = tmp_path / "family.jsonl"
    serialize.save_family(weyl_n2, path)
    with open(path) as fh:
        n_lines = sum(1 for _ in fh)
    assert n_lines == 1  # the header alone
    back = serialize.load_family(path)
    assert len(back) == 2048
    for a, b in zip(list(weyl_n2)[::97], list(back)[::97]):
        assert np.array_equal(a.choi.mat, b.choi.mat)


def test_family_truncated_file_reports_line(qubit16):
    text = serialize.family_to_jsonl(qubit16)
    with pytest.raises(ParseError) as err:
        serialize.family_from_jsonl(text[: len(text) // 2])  # cut the header in half
    assert err.value.line == 1


GENERATOR_ARGS = {
    "qubit16": (qubit16_family, st.fixed_dictionaries({"lab": st.integers(1, 3)})),
    "unitary_only": (unitary_only_family, st.fixed_dictionaries({"lab": st.integers(1, 3)})),
    "weyl_n1": (weyl_ancilla_family, st.fixed_dictionaries(
        {"n_labs": st.just(1), "d": st.integers(2, 3)})),
    "weyl_n2": (weyl_ancilla_family, st.fixed_dictionaries(
        {"n_labs": st.just(2), "d": st.just(2)},
        optional={"subsample_settings": st.integers(1, 40), "seed": st.integers(0, 2**32 - 1)})),
    "weyl_n3": (weyl_ancilla_family, st.fixed_dictionaries(
        {"n_labs": st.just(3), "d": st.just(2), "subsample_settings": st.integers(1, 3),
         "seed": st.integers(0, 2**32 - 1)})),
}


@pytest.mark.parametrize("kind", sorted(GENERATOR_ARGS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_generated_family_roundtrips_as_recipe(tmp_path_factory, kind, data):
    generator, args = GENERATOR_ARGS[kind]
    family = generator(**data.draw(args))
    path = tmp_path_factory.mktemp("family") / "family.jsonl"
    serialize.save_family(family, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(set(line) == {"setting", "outcome"} for line in lines[1:])
    back = serialize.load_family(path)
    assert (back.provenance, back.recipe) == (family.provenance, family.recipe)
    assert len(back) == len(family)
    for a, b in zip(family, back):
        assert (a.setting_id, a.outcome) == (b.setting_id, b.outcome)
        assert a.choi.labels == b.choi.labels
        assert np.array_equal(a.choi.mat, b.choi.mat)


def test_hand_built_family_is_not_saved(tmp_path, qubit16):
    path = tmp_path / "family.jsonl"
    with pytest.raises(InvalidSetting):
        serialize.save_family(ProbeFamily(qubit16.elements[3:9], qubit16.provenance), path)
    assert not path.exists()


def _tampered(edit):
    """family.jsonl of a small N=2 family after edit(lines); the header is line 1."""
    family = weyl_ancilla_family(2, 2, subsample_settings=3, seed=1)
    lines = serialize.family_to_jsonl(family).splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _edit_line(index, change):
    def edit(lines):
        data = json.loads(lines[index])
        change(data)
        lines[index] = json.dumps(data)
    return edit


@pytest.mark.parametrize("edit, line", [
    (_edit_line(0, lambda h: h["recipe"].update(bogus=1)), 1),
    (_edit_line(0, lambda h: h["recipe"].update(d="2")), 1),
    (_edit_line(0, lambda h: h["recipe"].update(n_labs=0)), 1),
    (_edit_line(0, lambda h: h["recipe"].update(subsample_settings=10**6)), 1),
    (_edit_line(0, lambda h: h.update(recipe=[2, 2])), 1),
    (_edit_line(0, lambda h: h.update(provenance="Custom")), 1),
    (_edit_line(0, lambda h: h.update(provenance="Qubit16")), 1),
    (_edit_line(0, lambda h: h.update(recipe=None)), 1),
    (_edit_line(0, lambda h: h.update(provenance="MeasurePrepare",
                                      recipe={"d": 2, "lab": 1, "element_cap": 20000})), 1),
    (_edit_line(0, lambda h: h["recipe"].update(subsample_settings=4)), 1),
    (lambda lines: lines.append(lines[-1]), 2),  # any second line
    (_edit_line(0, lambda h: h.update(count=23)), 1),  # the cap stops the generator
    (_edit_line(0, lambda h: h.update(count=25)), 1),
    (_edit_line(0, lambda h: h.update(count=True)), 1),
    (_edit_line(0, lambda h: h.update(count=-1)), 1),
    (_edit_line(0, lambda h: h.pop("count")), 1),
    # recipes far beyond their count, which the cap rejects before building anything
    (_edit_line(0, lambda h: h.update(count=1, recipe={"n_labs": 1, "d": 40})), 1),
    (_edit_line(0, lambda h: h.update(count=1, recipe={"n_labs": 1, "d": 7,
                                                       "element_cap": 10 ** 9})), 1),
])
def test_tampered_recipe_family_reports_line(edit, line):
    with pytest.raises(ParseError) as err:
        serialize.family_from_jsonl(_tampered(edit))
    assert err.value.line == line


def test_header_beyond_the_side_bound_reports_line_1_quickly():
    # 24 = 3 settings x 4 phases x 2 outcomes passes the count cap; the taus would take 2.6 GB
    header = {"type": "probe_family", "provenance": "WeylAncilla", "count": 24,
              "recipe": {"n_labs": 2, "d": 51, "subsample_settings": 3}}
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds 4096") as err:
        serialize.family_from_jsonl(json.dumps(header) + "\n")
    assert err.value.line == 1
    assert time.perf_counter() - start < 1.0


def test_records_roundtrip(qubit16):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=1)))
    for shots in (0, 500):
        records = sample_shots(w, qubit16, shots, seed=2)
        back = serialize.records_from_json(serialize.records_to_json(records))
        assert back == records


def test_records_json_is_one_object_in_record_order(qubit16):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=1)))
    records = sample_shots(w, qubit16, 100, seed=2)
    text = serialize.records_to_json(records)
    assert text.count("\n") == 1
    assert json.loads(text) == {"shots": 100, "setting_id": [r.setting_id for r in records],
                                "outcome": [r.outcome for r in records],
                                "count": [r.count for r in records]}
    with pytest.raises(InvalidSetting):  # shots is stored once
        serialize.records_to_json(records[:2] + [replace(records[2], shots_total=50)])


def test_records_csv_columns(qubit16):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=1)))
    records = sample_shots(w, qubit16, 100, seed=2)
    csv_text = serialize.records_to_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "setting_id,outcome,count,shots"
    assert len(lines) == len(records) + 1


def test_manifests_qubit16(qubit16):
    manifests = serialize.family_manifests(qubit16)
    assert len(manifests) == 13
    by_setting = {m["setting"]: m for m in manifests}
    u_manifest = by_setting["U:H"]
    assert u_manifest["measure"] == "Z on ancilla" and len(u_manifest["labs"]) == 1
    mp_manifest = by_setting["MP:X"]
    assert mp_manifest["measure"] == "Z on ancilla"
    assert mp_manifest["ancilla_prep"] == [[1.0, 0.0], [0.0, 0.0]]
    assert mp_manifest["outcomes"] == ["+", "-"]


def test_manifests_weyl_ancilla():
    fam = weyl_ancilla_family(2, 2, subsample_settings=None)
    manifests = serialize.family_manifests(fam)
    assert len(manifests) == 1024
    m = manifests[0]
    assert m["ancilla_prep"] == [[1.0, 0.0], [0.0, 0.0]] and m["measure"] == "Z on ancilla"
    assert len(m["labs"]) == 2 and len(m["phase_gates"]) == 1
    mat = serialize.pairs_to_matrix(m["labs"][0])
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-10


MANIFEST_FAMILIES = {
    "qubit16": qubit16_family,
    "unitary_only": unitary_only_family,
    "weyl_n1_d2": lambda: weyl_ancilla_family(1, 2),
    "weyl_n1_d3": lambda: weyl_ancilla_family(1, 3),
    "weyl_n2_full": lambda: weyl_ancilla_family(2, 2),
    "weyl_n3_sub20": lambda: weyl_ancilla_family(3, 2, subsample_settings=20, seed=7),
}


@pytest.mark.parametrize("kind", sorted(MANIFEST_FAMILIES))
def test_manifests_rebuild_every_element(kind):
    """The exported circuits, read back from JSON, give every element's Choi."""
    family = MANIFEST_FAMILIES[kind]()
    manifests = json.loads(json.dumps(serialize.family_manifests(family)))
    assert len(manifests) == len(family.settings())
    elements = {e.record_key: e for e in family}
    rebuilt = 0
    for m in manifests:
        psi = np.array([complex(re, im) for re, im in m["ancilla_prep"]])
        us = tuple(serialize.pairs_to_matrix(u) for u in m["labs"])
        n, side = len(us), us[0].shape[0]
        # the paper's shape: |0>, N joint 2d x 2d labs, N - 1 phase gates, one Z readout
        assert np.array_equal(psi, KET0) and m["measure"] == "Z on ancilla"
        assert len(m["phase_gates"]) == n - 1 and side % 2 == 0
        assert all(u.shape == (side, side) and
                   np.max(np.abs(u.conj().T @ u - np.eye(side))) <= 1e-12 for u in us)
        chois = ancilla_superinstrument(AncillaProbeSetting(psi, us, tuple(m["phase_gates"])))
        assert len(m["outcomes"]) <= len(chois)
        for choi, label in zip(chois, m["outcomes"]):
            element = elements[(m["setting"], label)]
            assert choi.labels == element.choi.labels
            assert np.max(np.abs(choi.mat - element.choi.mat)) <= 1e-12
            rebuilt += 1
    assert rebuilt == len(family)


def test_manifests_of_a_generated_family_build_no_choi(monkeypatch):
    family = weyl_ancilla_family(2, 2)
    monkeypatch.setattr(probe_factory, "ancilla_superinstrument",
                        lambda *args: pytest.fail("a probe Choi was built"))
    assert len(serialize.family_manifests(family)) == 1024


def test_manifests_reject_family_without_circuits():
    e0, e1, _, y1 = qubit16_family().elements[10:14]  # MP:X "+", "-"; MP:Y "+", "-"
    with pytest.raises(InvalidSetting) as err:  # outcome labels out of circuit order
        serialize.family_manifests(ProbeFamily((e1, e0)))
    assert "MP:X" in str(err.value)
    with pytest.raises(InvalidSetting):  # one setting, two different circuits
        serialize.family_manifests(ProbeFamily((e0, replace(y1, setting_id="MP:X"))))
    with pytest.raises(InvalidSetting):  # one circuit, but both elements are ancilla outcome 0
        serialize.family_manifests(ProbeFamily((e0, replace(e0, outcome="-"))))
