import filecmp
import json
import time

import pytest

from proctomo import probe_factory
from proctomo.cli import CHECKS, load_config, main, run_check
from proctomo.errors import ConfigError

ARTIFACTS = ("meta.json", "w_true.json", "family.jsonl", "records.json", "records.csv")


def run(args):
    return main([str(a) for a in args])


def test_config_rejects_unknown_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dim": 2, "bogus_field": 1}))
    with pytest.raises(ConfigError) as err:
        load_config(str(path), {})
    assert "bogus_field" in str(err.value)


def test_config_flag_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dim": 2, "labs": 1, "shots": 50}))
    cfg = load_config(str(path), {"shots": 200})
    assert cfg.shots == 200 and cfg.labs == 1


def test_config_field_validation():
    with pytest.raises(ConfigError) as err:
        load_config(None, {"preset": "Nope"})
    assert "preset" in str(err.value)


def test_span_command(tmp_path, capsys):
    out = tmp_path / "span"
    assert run(["span", "--dim", 2, "--out", out]) == 0
    data = json.loads((out / "span.json").read_text())
    measured = {r["family"]: r["measured"] for r in data["rows"]}
    assert measured == {"unitary": 10, "cptp": 13, "measure_prepare": 16}


def test_simulate_reconstruct_exact(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--preset", "HaarEnv", "--labs", 1, "--shots", 0,
                "--seed", 3, "--out", out]) == 0
    for name in ARTIFACTS:
        assert (out / name).exists()
    assert run(["reconstruct", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frame_rank"] == 16
    assert report["metrics"]["frobenius_error"] <= 1e-7


def test_simulate_reconstruct_two_labs(tmp_path):
    out = tmp_path / "run2"
    assert run(["simulate", "--preset", "HaarEnv", "--labs", 2, "--shots", 0,
                "--seed", 5, "--out", out]) == 0
    assert run(["reconstruct", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frame_rank"] == 256
    assert report["metrics"]["frobenius_error"] <= 1e-7


def test_reconstruct_requires_artifacts(tmp_path):
    assert run(["reconstruct", "--out", tmp_path / "empty"]) == 2


def test_reconstruct_truncated_records_exits_2(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    text = (out / "records.json").read_text()
    (out / "records.json").write_text(text[: len(text) // 2])
    assert run(["reconstruct", "--out", out]) == 2


def test_reconstruct_null_count_exits_2(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--shots", 100, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    records[0]["count"] = None
    (out / "records.json").write_text(json.dumps(records))
    assert run(["reconstruct", "--out", out]) == 2


@pytest.mark.parametrize("count", [999, -1])
def test_reconstruct_count_outside_shots_exits_2(tmp_path, count):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--shots", 50, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    records[0]["count"] = count
    (out / "records.json").write_text(json.dumps(records))
    assert run(["reconstruct", "--out", out]) == 2


def test_reconstruct_tampered_family_exits_2(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 2, "--dim", 2, "--subsample", 3, "--out", out]) == 0
    lines = (out / "family.jsonl").read_text().splitlines()
    element = json.loads(lines[3])
    element["meta"]["thetas"][0] = 0.5
    lines[3] = json.dumps(element)
    (out / "family.jsonl").write_text("\n".join(lines) + "\n")
    assert run(["reconstruct", "--out", out]) == 2


def test_config_wrong_type_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dim": "2"}))
    assert run(["reconstruct", "--config", path, "--out", tmp_path / "run"]) == 2
    with pytest.raises(ConfigError) as err:
        load_config(str(path), {})
    assert "dim" in str(err.value)


def test_pipeline_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["simulate", "--preset", "ClassicalMemory", "--labs", 1,
                    "--shots", 500, "--seed", 11, "--out", out]) == 0
        assert run(["reconstruct", "--out", out]) == 0
    for name in ARTIFACTS + ("report.json",):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_export_circuits(tmp_path):
    out = tmp_path / "circ"
    assert run(["export-circuits", "--labs", 1, "--dim", 2, "--out", out]) == 0
    manifests = json.loads((out / "circuits.json").read_text())
    assert len(manifests) == 13
    unitary = [m for m in manifests if m["setting"].startswith("U:")]
    assert len(unitary) == 10 and all(m["outcomes"] == ["0"] for m in unitary)
    mp = {m["setting"]: m for m in manifests if m["setting"].startswith("MP:")}
    assert set(mp) == {"MP:X", "MP:Y", "MP:Z"}
    assert {m["measure"] for m in manifests} == {"Z on ancilla"}


def test_export_circuits_weyl_ancilla(tmp_path):
    out = tmp_path / "circ2"
    assert run(["export-circuits", "--labs", 2, "--dim", 2, "--family", "weyl_ancilla",
                "--out", out]) == 0
    manifests = json.loads((out / "circuits.json").read_text())
    assert len(manifests) == 1024
    assert manifests[0]["ancilla_prep"] == [[1.0, 0.0], [0.0, 0.0]]
    assert len(manifests[0]["labs"]) == 2


def test_export_circuits_without_circuit_exits_2(tmp_path):
    out = tmp_path / "circ"
    assert run(["export-circuits", "--family", "measure_prepare", "--out", out]) == 2
    assert not (out / "circuits.json").exists()


@pytest.mark.parametrize("provenance, recipe", [
    ("WeylAncilla", {"n_labs": 1, "d": 40}),
    ("MeasurePrepare", {"d": 40}),
])
def test_reconstruct_oversized_recipe_exits_2_quickly(tmp_path, provenance, recipe):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    header = {"type": "probe_family", "provenance": provenance, "count": 1, "recipe": recipe}
    (out / "family.jsonl").write_text(json.dumps(header) + "\n"
                                      + json.dumps({"setting": "x", "outcome": "0"}) + "\n")
    start = time.perf_counter()
    assert run(["reconstruct", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0


def _edit_exact_records(out, edit):
    assert run(["simulate", "--labs", 1, "--shots", 0, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    edit(records)
    (out / "records.json").write_text(json.dumps(records))


def test_reconstruct_duplicate_record_exits_2(tmp_path):
    out = tmp_path / "run"
    _edit_exact_records(out, lambda rs: rs.append({**rs[0], "probability": 0.9}))
    assert run(["reconstruct", "--out", out]) == 2


def test_reconstruct_probability_outside_unit_interval_exits_2(tmp_path):
    out = tmp_path / "run"
    _edit_exact_records(out, lambda rs: rs[0].update(probability=7.5))
    assert run(["reconstruct", "--out", out]) == 2


def test_verify_passes(tmp_path):
    out = tmp_path / "verify"
    assert run(["verify", "--labs", 2, "--out", out]) == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["passed"]
    assert [c["check"] for c in data["checks"]] == [
        "span_formulas", "clifford_twirl", "measure_prepare_choi",
        "phase_filter_isolation", "preset_comb", "schmidt_bound", "qubit16_frame"]


def test_verify_checks_do_not_depend_on_order():
    cfg = load_config(None, {"labs": 2})
    first = {name: run_check(name, cfg) for name in CHECKS}
    for name in reversed(CHECKS):
        assert run_check(name, cfg) == run_check(name, cfg) == first[name], name


def test_reconstruct_recipe_cap_above_file_builds_nothing(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    header = {"type": "probe_family", "provenance": "WeylAncilla", "count": 1,
              "recipe": {"n_labs": 1, "d": 7, "element_cap": 10 ** 9}}
    (out / "family.jsonl").write_text(json.dumps(header) + "\n"
                                      + json.dumps({"setting": "x", "outcome": "0"}) + "\n")
    monkeypatch.setattr(probe_factory, "ancilla_superinstrument",
                        lambda *args: pytest.fail("a probe was built"))
    start = time.perf_counter()
    assert run(["reconstruct", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("shots, change", [
    (50, {"shots_total": 10, "count": 0}), (50, {"count": 0}), (0, {"probability": 0.0}),
], ids=["shots_total", "count_sum", "probability_sum"])
def test_reconstruct_inconsistent_setting_exits_2(tmp_path, capsys, shots, change):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--shots", shots, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    next(r for r in records if r["setting_id"] == "MP:X").update(change)
    (out / "records.json").write_text(json.dumps(records))
    assert run(["reconstruct", "--out", out]) == 2
    assert "setting MP:X" in capsys.readouterr().err
