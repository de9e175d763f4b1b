"""Property tests of the readers behind `reconstruct`: whatever a persisted file
holds, the command exits 0, 1 or 2, and exit 2 names the file."""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from proctomo.cli import main

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                   max_size=3),
    max_leaves=8)
ODD_VALUES = st.sampled_from([True, False, None, -1, 0, 1, 51, 0.5, 1.0, 1 + 1e-7, 50.0,
                              float("nan"), float("inf"), "0", "MP:X", [], {}]) | JSON
MUTATIONS = ["any", "drop", "value", "shorten", "entry", "duplicate", "old"]
NUMBERS = st.sampled_from([10 ** 400, -10 ** 400, 1.7e308, float("inf"), float("-inf"),
                          float("nan")])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Valid single-lab runs with exact data and with 50 shots per setting."""
    dirs = {}
    for shots in (0, 50):
        out = tmp_path_factory.mktemp(f"shots{shots}") / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--labs", "1", "--shots", str(shots), "--out", str(out)]) == 0
        dirs[shots] = (out, json.loads((out / "records.json").read_text()))
    return dirs


@st.composite
def records_texts(draw, valid):
    """Any JSON value, or one mutation of a valid columnar records file."""
    data = json.loads(json.dumps(valid))
    kind = draw(st.sampled_from(MUTATIONS))
    columns = [k for k in data if k != "shots"]
    key = draw(st.sampled_from(sorted(data)))
    column = draw(st.sampled_from(columns))
    i, j = (draw(st.integers(0, len(data[column]) - 1)) for _ in range(2))
    if kind == "any":
        data = draw(JSON)
    elif kind == "drop":
        del data[key]
    elif kind == "value":  # also swaps the type of a whole list or of shots
        data[key] = draw(ODD_VALUES)
    elif kind == "shorten":
        del data[column][i]
    elif kind == "entry":  # bool, float, out-of-range or NaN counts, ids of other types
        data[column][i] = draw(ODD_VALUES)
    elif kind == "duplicate":
        for k in ("setting_id", "outcome"):
            data[k][j] = data[k][i]
    else:  # the per-record list written before records were columnar
        data = [{"setting_id": s, "outcome": o, columns[-1]: v, "shots_total": data["shots"]}
                for s, o, v in zip(*(data[k] for k in columns))]
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reconstruct_any_records_file_exits_0_1_or_2(runs, data):
    out, valid = runs[data.draw(st.sampled_from([0, 50]))]
    (out / "records.json").write_text(data.draw(records_texts(valid)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["reconstruct", "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert "records.json" in err.getvalue()


@pytest.fixture(scope="module")
def truth_run(tmp_path_factory):
    """A valid single-lab run with exact data, whose w_true.json each example rewrites."""
    out = tmp_path_factory.mktemp("truth") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--labs", "1", "--out", str(out)]) == 0
    return out, json.loads((out / "w_true.json").read_text())


@st.composite
def truth_texts(draw, valid):
    """Any JSON value, or one mutation of a valid w_true.json: a dropped key, an odd
    value, a shortened matrix or row, an odd entry, an all-zero matrix, or a huge or
    infinite number."""
    data = json.loads(json.dumps(valid))
    kind = draw(st.sampled_from(["any", "drop", "value", "shorten", "entry", "zero", "number"]))
    holder = draw(st.sampled_from([data, *data["labels"]]))  # the top level or one label
    key = draw(st.sampled_from(sorted(holder)))
    i, j = (draw(st.integers(0, len(data["matrix"]) - 1)) for _ in range(2))
    if kind == "any":
        data = draw(JSON)
    elif kind == "drop":
        del holder[key]
    elif kind == "value":
        holder[key] = draw(ODD_VALUES)
    elif kind == "shorten":
        del (data["matrix"] if draw(st.booleans()) else data["matrix"][i])[j]
    elif kind == "entry":
        data["matrix"][i][j] = draw(ODD_VALUES)
    elif kind == "zero":
        data["matrix"] = [[[0.0, 0.0] for _ in row] for row in data["matrix"]]
    elif draw(st.booleans()):
        data["matrix"][i][j][draw(st.integers(0, 1))] = draw(NUMBERS)
    else:
        draw(st.sampled_from(data["labels"]))[draw(st.sampled_from(["lab", "dim"]))] = \
            draw(NUMBERS)
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reconstruct_any_truth_file_exits_0_1_or_2(truth_run, data):
    out, valid = truth_run
    (out / "w_true.json").write_text(data.draw(truth_texts(valid)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["reconstruct", "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert "w_true.json" in err.getvalue()
