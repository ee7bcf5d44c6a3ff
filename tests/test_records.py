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
    FeatureRecord,
    batch_features,
    feature_dim,
    load_records,
    save_records,
)


def _sample():
    return [
        FeatureRecord(id="a", label="cat", feat=[1.0, 2.0, 3.0], reg=[0.1, 0.2, 0.3, 0.4]),
        FeatureRecord(id="b", label="dog", feat=[4.0, 5.0, 6.0]),
    ]


def test_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    save_records(path, _sample())
    back = load_records(path)
    assert [r.id for r in back] == ["a", "b"]
    assert [r.label for r in back] == ["cat", "dog"]
    np.testing.assert_array_equal(back[0].feat, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(back[0].reg, [0.1, 0.2, 0.3, 0.4])
    assert back[1].reg is None


def test_batch_features_stacks_columns():
    x = batch_features(_sample())
    assert x.shape == (3, 2)
    np.testing.assert_array_equal(x[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x[:, 1], [4.0, 5.0, 6.0])
    assert x.flags["C_CONTIGUOUS"]


def test_feature_dim_and_empty_error():
    assert feature_dim(_sample()) == 3
    with pytest.raises(ValueError):
        feature_dim([])


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
# property-based: save_records -> load_records

_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _record_lists(draw):
    dim = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(max_size=8), min_size=1, max_size=6, unique=True))
    return [
        FeatureRecord(
            id=rid,
            label=draw(st.text(max_size=8)),
            feat=draw(st.lists(_finite, min_size=dim, max_size=dim)),
            reg=draw(st.none() | st.lists(_finite, min_size=REG_DIM, max_size=REG_DIM)),
        )
        for rid in ids
    ]


def _save_and_load(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        save_records(path, records)
        return load_records(path)


@settings(max_examples=60, deadline=None)
@given(_record_lists())
def test_save_load_round_trips_bit_for_bit(records):
    back = _save_and_load(records)
    assert [(r.id, r.label) for r in back] == [(r.id, r.label) for r in records]
    for got, want in zip(back, records):
        assert got.feat.tobytes() == want.feat.tobytes()
        assert (got.reg is None) == (want.reg is None)
        if want.reg is not None:
            assert got.reg.tobytes() == want.reg.tobytes()


@settings(max_examples=60, deadline=None)
@given(_record_lists(), st.data())
def test_any_non_finite_value_is_rejected(records, data):
    i = data.draw(st.integers(0, len(records) - 1))
    rec = records[i]
    fields = ["feat"] + (["reg"] if rec.reg is not None else [])
    key = data.draw(st.sampled_from(fields))
    values = getattr(rec, key)
    values[data.draw(st.integers(0, values.size - 1))] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf])
    )
    with pytest.raises(ValueError, match=rf":{i + 1}: non-finite value in '{key}'"):
        _save_and_load(records)
