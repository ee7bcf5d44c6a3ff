"""JSONL feature-record IO: round-trips, layout, and loud failure modes."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semshot.records import (
    REG_DIM,
    FeatureSet,
    batch_features,
    concat,
    load_records,
    save_records,
)


def _sample(reg=True):
    return FeatureSet(
        ids=["a", "b"], labels=["cat", "dog"],
        feat=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).T,
        reg=np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]]).T if reg else None,
    )


def test_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    save_records(path, _sample())
    back = load_records(path)
    assert back.ids.tolist() == ["a", "b"]
    assert back.labels.tolist() == ["cat", "dog"]
    np.testing.assert_array_equal(back.feat[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(back.reg[:, 0], [0.1, 0.2, 0.3, 0.4])
    save_records(path, _sample(reg=False))
    assert load_records(path).reg is None


def test_batch_features_stacks_columns():
    x = batch_features(_sample())
    assert x.shape == (3, 2)
    np.testing.assert_array_equal(x[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x[:, 1], [4.0, 5.0, 6.0])
    assert x.flags["C_CONTIGUOUS"]
    assert batch_features(_sample(), [1, 1, 0]).flags["C_CONTIGUOUS"]


def test_empty_file_rejected_naming_the_path(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no records")):
        load_records(path)


@pytest.mark.parametrize("lines,lineno,verb", [
    (['"reg": [0, 0, 0, 0]', ""], 2, "lacks"),
    (["", '"reg": [0, 0, 0, 0]'], 2, "has"),
    (["", "", '"reg": [0, 0, 0, 0]'], 3, "has"),
])
def test_reg_on_some_records_only_rejected(tmp_path, lines, lineno, verb):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(
        f'{{"id": "r{i}", "label": "x", "feat": [1.0]{", " + extra if extra else ""}}}\n'
        for i, extra in enumerate(lines)
    ))
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {verb} 'reg' unlike")):
        load_records(path)


@pytest.mark.parametrize("line", ["[1.0]", "5", "null"])
def test_non_object_line_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"id": "a", "label": "x", "feat": [1.0]}}\n{line}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: missing fields ['feat', 'id'")):
        load_records(path)


def test_concat_keeps_order_and_rejects_mixed_reg():
    both = concat(_sample(), _sample().take([1]))
    assert both.ids.tolist() == ["a", "b", "b"]
    np.testing.assert_array_equal(both.reg[:, 2], [0.5, 0.6, 0.7, 0.8])
    with pytest.raises(ValueError, match="with and without 'reg'"):
        concat(_sample(), _sample(reg=False))


def test_feature_set_rejects_mismatched_columns():
    with pytest.raises(ValueError, match="do not describe one record set"):
        FeatureSet(ids=["a", "b"], labels=["x"], feat=np.zeros((3, 2)))
    with pytest.raises(ValueError, match=re.escape("reg of shape (3, 1) do not describe")):
        FeatureSet(ids=["a"], labels=["x"], feat=np.zeros((3, 1)), reg=np.zeros((3, 1)))


def test_invalid_json_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "label": "x", "feat": [1.0]}\n{nope\n')
    with pytest.raises(ValueError, match=":2"):
        load_records(path)


def test_non_numeric_feature_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "label": "x", "feat": [1.0]}\n'
        '{"id": "b", "label": "x", "feat": ["x"]}\n'
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-numeric feat or reg")):
        load_records(path)


def test_missing_fields_reports_them(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "feat": [1.0]}\n')
    with pytest.raises(ValueError, match="label"):
        load_records(path)


def test_inconsistent_feature_dim_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "label": "x", "feat": [1.0, 2.0]}\n'
        '{"id": "b", "label": "x", "feat": [1.0]}\n'
    )
    with pytest.raises(ValueError, match="dim"):
        load_records(path)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('\n{"id": "a", "label": "x", "feat": [1.0]}\n\n')
    assert len(load_records(path)) == 1


def test_non_finite_feature_rejected_with_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "label": "x", "feat": [1.0, 2.0]}\n'
        '{"id": "b", "label": "x", "feat": [NaN, 2.0]}\n'
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-finite value in 'feat'")):
        load_records(path)


def test_non_finite_regression_target_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "label": "x", "feat": [1.0], "reg": [0, 0, Infinity, 0]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: non-finite value in 'reg'")):
        load_records(path)


def test_wrong_regression_length_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "label": "x", "feat": [1.0], "reg": [0.5]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: reg has 1 values, expected 4")):
        load_records(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "label": "x", "feat": [1.0]}\n'
        '\n'
        '{"id": "a", "label": "y", "feat": [2.0]}\n'
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: duplicate id 'a' (first on line 1)")):
        load_records(path)


# ---------------------------------------------------------------------------
# property-based: save_records -> load_records, take -> batch_features

_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _feature_sets(draw):
    dim = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(max_size=8), min_size=1, max_size=6, unique=True))
    n = len(ids)
    feat = draw(st.lists(_finite, min_size=dim * n, max_size=dim * n))
    reg = draw(st.none() | st.lists(_finite, min_size=REG_DIM * n, max_size=REG_DIM * n))
    return FeatureSet(
        ids=ids,
        labels=[draw(st.text(max_size=8)) for _ in ids],
        feat=np.array(feat).reshape(dim, n),
        reg=None if reg is None else np.array(reg).reshape(REG_DIM, n),
    )


def _save_and_load(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        save_records(path, data)
        return load_records(path)


@settings(max_examples=60, deadline=None)
@given(_feature_sets())
def test_save_load_round_trips_bit_for_bit(data):
    back = _save_and_load(data)
    assert back.ids.tolist() == data.ids.tolist()
    assert back.labels.tolist() == data.labels.tolist()
    assert back.feat.tobytes() == data.feat.tobytes()
    assert (back.reg is None) == (data.reg is None)
    if data.reg is not None:
        assert back.reg.tobytes() == data.reg.tobytes()


@settings(max_examples=60, deadline=None)
@given(_feature_sets(), st.data())
def test_any_non_finite_value_is_rejected(data, draw):
    i = draw.draw(st.integers(0, len(data) - 1))
    key = draw.draw(st.sampled_from(["feat"] + (["reg"] if data.reg is not None else [])))
    values = getattr(data, key)
    values[draw.draw(st.integers(0, values.shape[0] - 1)), i] = draw.draw(
        st.sampled_from([math.nan, math.inf, -math.inf])
    )
    with pytest.raises(ValueError, match=rf":{i + 1}: non-finite value in '{key}'"):
        _save_and_load(data)


@settings(max_examples=60, deadline=None)
@given(_feature_sets(), st.data())
def test_take_then_gather_equals_columns_one_at_a_time(data, draw):
    cols = draw.draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=8))
    got = data.take(cols)
    one_at_a_time = np.stack([data.feat[:, j] for j in cols], axis=1)
    assert batch_features(got).tobytes() == one_at_a_time.tobytes()
    assert batch_features(data, cols).tobytes() == one_at_a_time.tobytes()
    assert batch_features(data, cols).flags["C_CONTIGUOUS"]
    assert got.ids.tolist() == [data.ids[j] for j in cols]
    assert got.labels.tolist() == [data.labels[j] for j in cols]
    if data.reg is not None:
        assert got.reg.tobytes() == np.stack([data.reg[:, j] for j in cols], axis=1).tobytes()
