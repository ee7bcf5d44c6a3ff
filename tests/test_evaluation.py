"""Metrics, paired tests, and sweep bookkeeping."""

import numpy as np
import pytest
from scipy import stats

from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.evaluation import (
    MetricsReport,
    SweepResult,
    SweepRow,
    evaluate,
    paired_onesided_pvalue,
    save_sweep_csv,
)
from semshot.head import forward_pass
from semshot.records import FeatureSet, batch_features

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


def one_hot_records(rows, d_in=6):
    """A FeatureSet of (rid, label, hot index) rows."""
    feat = np.zeros((d_in, len(rows)))
    for j, (_, _, idx) in enumerate(rows):
        feat[idx, j] = 1.0
    return FeatureSet([r[0] for r in rows], [r[1] for r in rows], feat)


@pytest.mark.parametrize("mode", ["baseline", "ssp", "srr"])
def test_record_logits_do_not_depend_on_its_batch(mode):
    # evaluate() scores a whole record list in one forward pass; a record
    # must get the same logit bits alone as in the middle of a batch
    registry = ClassRegistry(base=("cat", "dog", "cow", "pig"), novel=("fox", "owl"))
    we = random_embeddings(registry, dim=40, seed=2)
    head = make_head(mode, registry, we, d_in=24, d=16, r=4)
    rng = np.random.default_rng(3)
    labels = registry.base + registry.novel
    records = FeatureSet([f"r{i}" for i in range(9)],
                         [labels[i % len(labels)] for i in range(9)],
                         np.array([rng.standard_normal(24) for _ in range(9)]).T)
    batched = forward_pass(head, batch_features(records)).logits.value
    for j in range(len(records)):
        alone = forward_pass(head, batch_features(records, [j])).logits.value
        assert np.array_equal(alone[:, 0], batched[:, j]), f"record r{j} scored differently alone"


def test_evaluate_argmax_with_lowest_index_ties():
    registry = ClassRegistry(base=("cat", "dog"))
    head = rigged_head(registry)
    records = one_hot_records([("t", "cat", 0), ("c", "dog", 1)])
    records.feat[:, 0] = 1.0  # the tie: all logits equal
    confusion = evaluate(head, records).confusion
    np.testing.assert_array_equal(confusion[0], [1, 0, 0])  # the tie goes to index 0
    np.testing.assert_array_equal(confusion[1], [0, 1, 0])
    with pytest.raises(ValueError, match="at least one record"):
        evaluate(head, records.take([]))


def test_evaluate_matches_hand_confusion():
    registry = ClassRegistry(base=("cat", "dog"), novel=("fox",))
    head = rigged_head(registry)
    records = one_hot_records([
        ("a", "cat", 0),   # correct
        ("b", "cat", 0),   # correct
        ("c", "cat", 1),   # cat -> dog miss
        ("d", "dog", 1),   # correct
        ("e", "fox", 2),   # correct
        ("f", "fox", 0),   # fox -> cat miss
    ])
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
    rep2 = evaluate(head, records.take(range(4)))
    assert "fox" not in rep2.per_class_accuracy
    assert np.isnan(rep2.novel_accuracy)
    assert rep2.to_json()["novel_accuracy"] is None  # JSON has no NaN
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
    # gaps of +-5.6e-17 are rounding, not a constant gap: the t-test decides
    x, y = 0.1 + 0.2, 0.3
    p = paired_onesided_pvalue([x, y, x], [y, x, y])
    assert p == pytest.approx(stats.ttest_rel([x, y, x], [y, x, y], alternative="greater").pvalue)
    assert 0.0 < p < 1.0


def test_paired_pvalue_validates_inputs():
    with pytest.raises(ValueError, match="equal-length"):
        paired_onesided_pvalue([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="equal-length"):
        paired_onesided_pvalue(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="two pairs"):
        paired_onesided_pvalue([1.0], [0.5])
    with pytest.raises(ValueError, match="sample 'greater' holds a non-finite value"):
        paired_onesided_pvalue([0.5, np.nan], [0.5, 0.4])
    with pytest.raises(ValueError, match="sample 'lesser' holds a non-finite value"):
        paired_onesided_pvalue([0.5, 0.6], [0.5, np.inf])
    # finite samples whose differences overflow float64
    for greater, lesser in (([1e308, 1e308, 0.5], [-1e308, -1e308, 0.2]),
                            ([1e308, 1.5e308], [-1e308, -1e308])):  # two equal inf gaps
        with pytest.raises(ValueError, match="paired test overflows float64: overflow"):
            paired_onesided_pvalue(greater, lesser)


@pytest.mark.parametrize("scale", [2.0 ** -1070, 2.0 ** -600, 1.0, 2.0 ** 600, 2.0 ** 1021])
def test_paired_pvalue_does_not_depend_on_the_scale_of_the_samples(scale):
    # exact powers of two keep every difference exact, down to subnormals
    greater, lesser = np.array([1.0, 2.0, 3.0, 5.0]), np.array([0.0, 1.0, 0.0, 1.0])
    want = stats.ttest_rel(greater, lesser, alternative="greater").pvalue
    assert paired_onesided_pvalue(greater * scale, lesser * scale) == want


@pytest.mark.parametrize("greater,lesser,unit", [
    ([1e-320, 2e-320, 3e-320], [0.0, 0.0, 0.0], 1e-320),  # the variance underflowed: p was 0
    ([1e308, 9e307], [0.0, 0.0], 1e307),  # the t-test's mean overflowed
    ([1e200, 2e200], [0.0, 0.0], 1e200),  # its variance overflowed
])
def test_paired_pvalue_of_tiny_or_huge_differences_is_the_t_test_of_their_ratios(
        greater, lesser, unit):
    want = stats.ttest_rel(np.divide(greater, unit), np.divide(lesser, unit),
                           alternative="greater").pvalue
    assert paired_onesided_pvalue(greater, lesser) == pytest.approx(want, rel=1e-3)
    assert 0.0 < want < 1.0


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
    with pytest.raises(ValueError, match="k=5"):
        res.mean_base(5)
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
