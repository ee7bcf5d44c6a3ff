"""Metrics, paired tests, and sweep bookkeeping."""

import numpy as np
import pytest
from scipy import stats

from semshot import evaluation
from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.evaluation import (
    MetricsReport,
    SweepResult,
    SweepRow,
    evaluate,
    paired_onesided_pvalue,
    predict,
    save_sweep_csv,
)
from semshot.records import FeatureRecord

from conftest import make_head


def rigged_head(registry, d_in=6):
    """Baseline head whose logits equal the first n_classes feature entries.

    Trunk collapses to identity on the leading coordinates: w1 = I (relu kills
    negatives, so tests use non-negative features), w2 = I, W = [I 0].
    """
    head = make_head("baseline", registry, d_in=d_in, d=d_in)
    head.params["trunk_w1"].value[:] = np.eye(d_in)
    head.params["trunk_b1"].value[:] = 0.0
    head.params["trunk_w2"].value[:] = np.eye(d_in)
    head.params["trunk_b2"].value[:] = 0.0
    head.params["W"].value[:] = np.eye(registry.n, d_in)
    head.params["b"].value[:] = 0.0
    return head


def one_hot_record(idx, label, d_in=6, rid="r"):
    feat = np.zeros(d_in)
    feat[idx] = 1.0
    return FeatureRecord(id=rid, label=label, feat=feat)


@pytest.mark.parametrize("mode", ["baseline", "ssp", "srr"])
def test_record_logits_do_not_depend_on_its_batch(mode):
    # evaluate() and predict() score through _logits_only; a record must get
    # the same logit bits alone as in the middle of a batch
    registry = ClassRegistry(base=("cat", "dog", "cow", "pig"), novel=("fox", "owl"))
    we = random_embeddings(registry, dim=40, seed=2)
    head = make_head(mode, registry, we, d_in=24, d=16, r=4)
    rng = np.random.default_rng(3)
    labels = registry.base + registry.novel
    records = [FeatureRecord(id=f"r{i}", label=labels[i % len(labels)],
                             feat=rng.standard_normal(24)) for i in range(9)]
    batched = evaluation._logits_only(head, records)
    for j, rec in enumerate(records):
        alone = evaluation._logits_only(head, [rec])
        assert np.array_equal(alone[:, 0], batched[:, j]), f"record {rec.id} scored differently alone"


def test_predict_argmax_with_lowest_index_ties():
    registry = ClassRegistry(base=("cat", "dog"))
    head = rigged_head(registry)
    tie = FeatureRecord(id="t", label="cat", feat=np.ones(6))  # all logits equal
    clear = one_hot_record(1, "dog", rid="c")
    preds = predict(head, [tie, clear])
    np.testing.assert_array_equal(preds, [0, 1])
    with pytest.raises(ValueError, match="nothing to predict"):
        predict(head, [])


def test_evaluate_matches_hand_confusion():
    registry = ClassRegistry(base=("cat", "dog"), novel=("fox",))
    head = rigged_head(registry)
    records = [
        one_hot_record(0, "cat", rid="a"),   # correct
        one_hot_record(0, "cat", rid="b"),   # correct
        one_hot_record(1, "cat", rid="c"),   # cat -> dog miss
        one_hot_record(1, "dog", rid="d"),   # correct
        one_hot_record(2, "fox", rid="e"),   # correct
        one_hot_record(0, "fox", rid="f"),   # fox -> cat miss
    ]
    rep = evaluate(head, records)
    assert rep.record_count == 6
    want_conf = np.zeros((4, 4), dtype=np.int64)
    want_conf[0, 0] = 2
    want_conf[0, 1] = 1
    want_conf[1, 1] = 1
    want_conf[2, 2] = 1
    want_conf[2, 0] = 1
    np.testing.assert_array_equal(rep.confusion, want_conf)
    assert rep.per_class_accuracy == {"cat": 2 / 3, "dog": 1.0, "fox": 0.5}
    assert rep.base_accuracy == pytest.approx((2 / 3 + 1.0) / 2)
    assert rep.novel_accuracy == pytest.approx(0.5)
    assert rep.overall_accuracy == pytest.approx(4 / 6)
    # absent classes do not appear and do not drag group means
    rep2 = evaluate(head, records[:4])
    assert "fox" not in rep2.per_class_accuracy
    assert np.isnan(rep2.novel_accuracy)
    round_trip = rep.to_json()
    assert round_trip["confusion"] == want_conf.tolist()


def test_paired_pvalue_agrees_with_scipy():
    rng = np.random.default_rng(0)
    a = rng.normal(0.6, 0.1, 20)
    b = a - rng.normal(0.05, 0.02, 20)
    want = stats.ttest_rel(a, b, alternative="greater").pvalue
    assert paired_onesided_pvalue(a, b) == pytest.approx(want, rel=1e-12)
    assert paired_onesided_pvalue(a, b) < 0.05
    assert paired_onesided_pvalue(b, a) > 0.95


def test_paired_pvalue_zero_variance_shortcuts():
    a = np.full(5, 0.8)
    assert paired_onesided_pvalue(a, a - 0.1) == 0.0
    assert paired_onesided_pvalue(a, a) == 1.0
    assert paired_onesided_pvalue(a - 0.1, a) == 1.0


def test_paired_pvalue_validates_inputs():
    with pytest.raises(ValueError, match="equal-length"):
        paired_onesided_pvalue([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="equal-length"):
        paired_onesided_pvalue(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="two pairs"):
        paired_onesided_pvalue([1.0], [0.5])


def test_sweep_result_summary_and_errors(tmp_path):
    rows = [
        SweepRow(k=1, seed=0, base_accuracy=0.9, novel_accuracy=0.4, base_accuracy_before=0.92),
        SweepRow(k=1, seed=1, base_accuracy=0.8, novel_accuracy=0.6, base_accuracy_before=0.91),
        SweepRow(k=3, seed=0, base_accuracy=0.85, novel_accuracy=0.7, base_accuracy_before=0.92),
    ]
    res = SweepResult(rows=rows)
    assert res.mean_novel(1) == pytest.approx(0.5)
    assert res.mean_base(1) == pytest.approx(0.85)
    assert res.mean_novel(3) == pytest.approx(0.7)
    with pytest.raises(ValueError, match="k=5"):
        res.mean_novel(5)
    summary = res.summary()
    assert summary["shots"] == [1, 3]
    assert summary["runs"] == 3
    assert summary["mean_novel_accuracy"]["1"] == pytest.approx(0.5)

    path = tmp_path / "sweep.csv"
    save_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,seed,base_accuracy_before,base_accuracy,novel_accuracy"
    assert lines[1] == "1,0,0.92,0.9,0.4"
    assert len(lines) == 4
