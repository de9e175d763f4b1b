import filecmp
import json
import time

import pytest

from proctomo import probe_factory, process_sim
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


@pytest.mark.parametrize("field", ["tol", "span_tol"])
def test_config_tolerances_are_not_fields(tmp_path, capsys, field):
    # the tolerances are the defaults of the functions the commands call
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: 1e-6}))
    assert run(["simulate", "--config", path, "--out", tmp_path / "run"]) == 2
    assert f"unknown config field {field!r}" in capsys.readouterr().err


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
    assert report["complete"] is True
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
    records["count"][0] = None
    (out / "records.json").write_text(json.dumps(records))
    assert run(["reconstruct", "--out", out]) == 2


@pytest.mark.parametrize("count", [999, -1])
def test_reconstruct_count_outside_shots_exits_2(tmp_path, count):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--shots", 50, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    records["count"][0] = count
    (out / "records.json").write_text(json.dumps(records))
    assert run(["reconstruct", "--out", out]) == 2


def test_reconstruct_tampered_family_exits_2(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 2, "--dim", 2, "--subsample", 3, "--out", out]) == 0
    header = json.loads((out / "family.jsonl").read_text())
    header["count"] += 1
    (out / "family.jsonl").write_text(json.dumps(header) + "\n")
    assert run(["reconstruct", "--out", out]) == 2


def test_reconstruct_family_of_another_subsample_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 2, "--dim", 2, "--subsample", 3, "--seed", 1,
                "--out", out]) == 0
    header = json.loads((out / "family.jsonl").read_text())
    header["recipe"]["seed"] = 2  # a valid header whose settings are not the records'
    (out / "family.jsonl").write_text(json.dumps(header) + "\n")
    assert run(["reconstruct", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "records.json does not fit" in err and "family.jsonl" in err


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


@pytest.mark.parametrize("labs, dim, shots", [(1, 3, 1000), (2, 2, 0)])
def test_weyl_pipeline_determinism(tmp_path, labs, dim, shots):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--preset", "HaarEnv", "--family", "weyl_ancilla", "--labs", labs, "--dim", dim,
            "--shots", shots, "--seed", 7]
    for out in (out_a, out_b):
        assert run(["simulate", "--out", out] + args) == 0
        assert run(["reconstruct", "--out", out] + args) == 0
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


def test_measure_prepare_family_is_not_recognised(tmp_path, capsys):
    out = tmp_path / "run"
    for command in ("simulate", "export-circuits"):
        assert run([command, "--family", "measure_prepare", "--out", out]) == 2
        assert "family 'measure_prepare' is not recognised" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("provenance, recipe", [
    ("WeylAncilla", {"n_labs": 1, "d": 40}),
    ("WeylAncilla", {"n_labs": 3, "d": 2}),
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


@pytest.mark.parametrize("edit, line", [
    (lambda lines: lines[0].update(recipe=None), 1),  # a hand-built family
    # an element line, which every element had before the file was its header alone
    (lambda lines: lines.append({"setting": "wa:s0", "outcome": "0",
                                 "meta": {"effect": 0, "prep": 0}}), 2),
], ids=["no_recipe", "element_meta"])
def test_reconstruct_family_file_outside_the_format_exits_2(tmp_path, capsys, edit, line):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--family", "weyl_ancilla", "--out", out]) == 0
    lines = [json.loads(text) for text in (out / "family.jsonl").read_text().splitlines()]
    edit(lines)
    (out / "family.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    assert run(["reconstruct", "--out", out]) == 2
    assert f"(line {line})" in capsys.readouterr().err


def _edit_exact_records(out, edit):
    assert run(["simulate", "--labs", 1, "--shots", 0, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    edit(records)
    (out / "records.json").write_text(json.dumps(records))


def _append_record(records, setting_id, outcome, probability):
    for key, value in zip(("setting_id", "outcome", "probability"),
                          (setting_id, outcome, probability)):
        records[key].append(value)


def test_reconstruct_duplicate_record_exits_2(tmp_path):
    out = tmp_path / "run"
    _edit_exact_records(out, lambda rs: _append_record(
        rs, rs["setting_id"][0], rs["outcome"][0], 0.9))
    assert run(["reconstruct", "--out", out]) == 2


def test_reconstruct_record_outside_family_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    _edit_exact_records(out, lambda rs: _append_record(rs, "ZZZ", "0", 1.0))
    assert run(["reconstruct", "--out", out]) == 2
    assert "('ZZZ', '0')" in capsys.readouterr().err


def test_reconstruct_incomplete_frame_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 2, "--dim", 2, "--subsample", 3, "--seed", 3,
                "--out", out]) == 0
    assert run(["reconstruct", "--out", out]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["complete"] is False and report["frame_rank"] < 256
    assert f"rank {report['frame_rank']} / 256" in capsys.readouterr().out


def test_reconstruct_probability_outside_unit_interval_exits_2(tmp_path):
    out = tmp_path / "run"
    _edit_exact_records(out, lambda rs: rs["probability"].__setitem__(0, 7.5))
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


@pytest.mark.parametrize("shots, column, value, message", [
    (50, "shots", [50, 10], "shots is [50, 10]"),  # shots is stored once, for every setting
    (50, "count", 0, "setting MP:X"), (0, "probability", 0.0, "setting MP:X"),
], ids=["shots_total", "count_sum", "probability_sum"])
def test_reconstruct_inconsistent_setting_exits_2(tmp_path, capsys, shots, column, value,
                                                  message):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--shots", shots, "--out", out]) == 0
    records = json.loads((out / "records.json").read_text())
    if column == "shots":
        records["shots"] = value
    else:
        records[column][records["setting_id"].index("MP:X")] = value
    (out / "records.json").write_text(json.dumps(records))
    assert run(["reconstruct", "--out", out]) == 2
    assert message in capsys.readouterr().err


def _edit_truth(change):
    def corrupt(text):
        w = json.loads(text)
        change(w)
        return json.dumps(w)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda text: text[: len(text) // 2],
    _edit_truth(lambda w: w.pop("labels")),
    _edit_truth(lambda w: w["matrix"].pop()),
    _edit_truth(lambda w: w["labels"][0].update(dim=3)),
    _edit_truth(lambda w: w["labels"][0].update(role="Bogus")),
    _edit_truth(lambda w: w["matrix"][0][0].__setitem__(0, float("nan"))),
], ids=["truncated", "no_labels", "wrong_shape", "dim_3", "bogus_role", "nan_entry"])
def test_reconstruct_malformed_truth_exits_2(tmp_path, capsys, corrupt):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    truth = out / "w_true.json"
    truth.write_text(corrupt(truth.read_text()))
    assert run(["reconstruct", "--out", out]) == 2
    assert "error: bad" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    _edit_truth(lambda w: w["labels"][0].update(lab=float("inf"))),
    _edit_truth(lambda w: w["labels"][0].update(dim=float("inf"))),
    _edit_truth(lambda w: w["labels"][0].update(lab=1.5)),
    _edit_truth(lambda w: w["matrix"][0][0].__setitem__(0, 10 ** 400)),
], ids=["lab_infinity", "dim_infinity", "lab_float", "huge_entry"])
def test_reconstruct_truth_number_outside_its_type_exits_2(tmp_path, capsys, corrupt):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    truth = out / "w_true.json"
    truth.write_text(corrupt(truth.read_text()))
    assert run(["reconstruct", "--out", out]) == 2
    assert f"error: bad {truth}: bad operator" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    _edit_truth(lambda w: w.update(matrix=[[[0.0, 0.0]] * len(w["matrix"])] * len(w["matrix"]))),
    _edit_truth(lambda w: w["matrix"][0][0].__setitem__(0, 1.7e308)),
], ids=["all_zero", "entry_1.7e308"])
def test_reconstruct_truth_with_metrics_not_finite_exits_2(tmp_path, capsys, corrupt):
    # filterwarnings = error makes any RuntimeWarning on the way fail this test
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    truth = out / "w_true.json"
    truth.write_text(corrupt(truth.read_text()))
    assert run(["reconstruct", "--out", out]) == 2
    assert f"error: bad {truth}: metrics are not finite" in capsys.readouterr().err


def test_sizes_beyond_the_side_bound_exit_2_quickly(tmp_path, capsys):
    out = tmp_path / "run"
    start = time.perf_counter()
    assert run(["simulate", "--labs", 2, "--dim", 51, "--subsample", 3, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    assert "d_sys^(2N+2) = 17596287801 exceeds 4096" in capsys.readouterr().err
    assert not out.exists()
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    header = {"type": "probe_family", "provenance": "WeylAncilla", "count": 24,
              "recipe": {"n_labs": 2, "d": 51, "subsample_settings": 3}}
    (out / "family.jsonl").write_text(json.dumps(header) + "\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["reconstruct", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    assert "D = d^(4N) = 45767944570401, so 8 D (M + 3D) exceeds 2147483648 bytes at any " \
           "element count M (line 1)" in capsys.readouterr().err


@pytest.mark.parametrize("labs, dim, frame_dim", [(4, 2, 65536), (2, 4, 65536), (5, 2, 1048576)])
def test_simulate_beyond_the_frame_guard_exits_2_before_w_is_built(tmp_path, capsys, monkeypatch,
                                                                   labs, dim, frame_dim):
    monkeypatch.setattr(process_sim, "build_process", lambda spec: pytest.fail("W built"))
    out = tmp_path / "run"
    start = time.perf_counter()
    assert run(["simulate", "--labs", labs, "--dim", dim, "--subsample", 1, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"D = d^(4N) = {frame_dim}, so 8 D (M + 3D) exceeds 2147483648 bytes" \
           in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_header_beyond_the_frame_guard_exits_2_quickly(tmp_path, capsys):
    # the full N=4 d=2 grid: a 32 GiB frame, and 1 GiB of lab unitaries before any frame
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    header = {"type": "probe_family", "provenance": "WeylAncilla", "count": 8388608,
              "recipe": {"n_labs": 4, "d": 2}}
    (out / "family.jsonl").write_text(json.dumps(header) + "\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["reconstruct", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "D = d^(4N) = 65536, so 8 D (M + 3D) exceeds 2147483648 bytes" in err
    assert "(line 1)" in err


@pytest.mark.parametrize("labs", [20000, 200000, 1000000])
@pytest.mark.parametrize("command", ["simulate", "export-circuits"])
def test_sizes_beyond_int64_exit_2_quickly(tmp_path, capsys, monkeypatch, command, labs):
    monkeypatch.setattr(process_sim, "haar_unitary", lambda *args: pytest.fail("unitary drawn"))
    start = time.perf_counter()
    assert run([command, "--labs", labs, "--out", tmp_path / "run"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert ">= 2^63" in err and len(err) < 300
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("shots, code", [(2 ** 63, 2), (10 ** 20, 2), (2 ** 63 - 1, 0)])
def test_shots_beyond_int64_exit_2(tmp_path, capsys, shots, code):
    assert run(["simulate", "--labs", 1, "--shots", shots, "--out", tmp_path / "run"]) == code
    if code == 2:
        assert f"shots must lie in 0..2^63 - 1 (got {shots})" in capsys.readouterr().err


def test_config_family_cap_is_unknown(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family_cap": 20000}))
    assert run(["simulate", "--config", path, "--out", tmp_path / "run"]) == 2
    assert "unknown config field 'family_cap'" in capsys.readouterr().err


@pytest.mark.parametrize("name, old", [
    ("cfg.json", None), ("records.json", '"shots": 0'), ("w_true.json", '"dim": 2'),
    ("family.jsonl", '"seed": 0')], ids=["config", "records", "truth", "family"])
def test_int_beyond_the_digit_limit_exits_2(tmp_path, capsys, name, old):
    # json reads an int of more than 4300 digits as a ValueError, not a JSONDecodeError
    huge = "9" * 5000
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--family", "weyl_ancilla", "--out", out]) == 0
    if old is None:
        (tmp_path / name).write_text(f'{{"shots": {huge}}}')
        assert run(["simulate", "--config", tmp_path / name, "--out", out]) == 2
    else:
        path = out / name
        path.write_text(path.read_text().replace(old, old.split(":")[0] + ": " + huge, 1))
        capsys.readouterr()
        assert run(["reconstruct", "--out", out]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--subsample", -1], ["--subsample", 0], ["--subsample", 3, "--seed", -1],
], ids=["negative", "zero", "negative_seed"])
def test_simulate_invalid_subsample_exits_2(tmp_path, capsys, flags):
    assert run(["simulate", "--labs", 2, *flags, "--out", tmp_path / "run"]) == 2
    assert "error: subsample" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_seed_without_subsample(tmp_path):
    assert run(["simulate", "--family", "weyl_ancilla", "--seed", -5,
                "--out", tmp_path / "run"]) == 0


@pytest.mark.parametrize("labs, dim, shots", [(2, 2, 0), (1, 3, 100)])
def test_pipeline_builds_no_element_choi_or_circuit(tmp_path, monkeypatch, labs, dim, shots):
    def fail(*args, **kwargs):
        raise AssertionError("the pipeline built a per-element circuit or Choi")

    monkeypatch.setattr(probe_factory, "ancilla_superinstrument", fail)
    monkeypatch.setattr(probe_factory, "AncillaProbeSetting", fail)
    out = tmp_path / "run"
    args = ["--labs", labs, "--dim", dim, "--shots", shots, "--out", out]
    assert run(["simulate"] + args) == 0
    assert run(["reconstruct"] + args) == 0


def test_reconstruct_family_header_not_an_object_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--labs", 1, "--out", out]) == 0
    lines = (out / "family.jsonl").read_text().splitlines()
    (out / "family.jsonl").write_text("\n".join(["[1, 2]"] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 2
    assert "family header must be a JSON object (line 1)" in capsys.readouterr().err


def test_config_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[]")
    assert run(["span", "--config", path, "--out", tmp_path / "span"]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        load_config(str(path), {})
