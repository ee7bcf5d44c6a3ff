"""The kernels honor their ordering guarantees: sorted reductions that make
results row-order independent, and a matmul whose cells do not depend on the
shape of the batch they sit in."""

import numpy as np
import pytest

from semshot import kernels


def _inputs(seed=0, n=9, b=6):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, n)) * 3
    soft = kernels.row_softmax(scores)
    logits = rng.standard_normal((n, b)) * 2
    labels = rng.integers(0, n, size=b).astype(np.int64)
    _, probs = kernels.ce_cols(logits, labels)
    pre = rng.standard_normal((5, b))
    graph = np.abs(rng.standard_normal((n, n)))
    graph /= graph.sum(axis=1, keepdims=True)
    rows = rng.standard_normal((n, 7))
    return dict(scores=scores, soft=soft, logits=logits, labels=labels,
                probs=probs, pre=pre, graph=graph, rows=rows, rng=rng)


def test_row_softmax_rows_sum_to_one():
    d = _inputs()
    s = kernels.row_softmax(d["scores"])
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert (s > 0).all()


def test_row_softmax_denominator_is_column_order_independent():
    d = _inputs()
    m = d["scores"]
    perm = np.random.default_rng(1).permutation(m.shape[1])
    s = kernels.row_softmax(m)
    s_perm = kernels.row_softmax(m[:, perm])
    assert np.array_equal(s[:, perm], s_perm)


def test_matmul_rows_score_independent_of_other_rows():
    # inserting extra rows into the left operand must not change existing rows
    d = _inputs()
    a, b = d["graph"], d["rows"]
    bigger = np.vstack([a, a[:2] * 1.7])
    assert np.array_equal(kernels.matmul(a, b), kernels.matmul(bigger, b)[: a.shape[0]])


@pytest.mark.parametrize("n,k,m", [
    (1, 1, 1), (3, 5, 1), (7, 64, 1), (21, 300, 1), (5, 300, 16),
    (16, 64, 16), (21, 300, 64), (4, 9, 3), (2, 1000, 2),
])
def test_matmul_cells_independent_of_batch_shape(n, k, m):
    # Each output cell must come out bit-identical however many rows and
    # columns surround it: rows inserted into ``a`` and a column computed on
    # its own (m=1, a single record) leave every cell unchanged.
    rng = np.random.default_rng([n, k, m])
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((k, m))
    full = kernels.matmul(a, b)
    extra = rng.standard_normal((3, k))
    bigger = kernels.matmul(np.vstack([extra[:1], a, extra[1:]]), b)
    assert np.array_equal(full, bigger[1:n + 1])
    for j in range(m):
        alone = kernels.matmul(a, np.ascontiguousarray(b[:, j:j + 1]))
        assert np.array_equal(full[:, j:j + 1], alone), f"column {j} changed when computed alone"
    for i in range(n):
        assert np.array_equal(full[i:i + 1], kernels.matmul(a[i:i + 1], b))
    # reference: every cell is the plain left-to-right sum over k
    ref = a[:, :1] * b[:1]
    for t in range(1, k):
        ref = ref + a[:, t:t + 1] * b[t:t + 1]
    assert np.array_equal(full, ref)


def test_mix_matmul_contraction_is_permutation_invariant():
    d = _inputs()
    a, b = d["graph"], d["rows"]
    perm = np.random.default_rng(2).permutation(a.shape[1])
    assert np.array_equal(kernels.mix_matmul(a, b), kernels.mix_matmul(a[:, perm], b[perm]))


def test_matmul_matches_blas_numerically():
    d = _inputs()
    np.testing.assert_allclose(kernels.matmul(d["graph"], d["rows"]),
                               d["graph"] @ d["rows"], atol=1e-12)


def test_ce_cols_grad_sums_to_zero_per_column():
    d = _inputs()
    g = kernels.ce_cols_grad(d["probs"], d["labels"], 1.0)
    np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-12)


def test_sgd_update_matches_momentum_weight_decay_recurrence():
    rng = np.random.default_rng(5)
    p = rng.standard_normal((4, 3))
    g = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))
    lr, mom, wd = 0.05, 0.9, 1e-3
    v_ref = mom * v + g + wd * p
    p_ref = p - lr * v_ref
    p2, v2 = p.copy(), v.copy()
    kernels.sgd_update(p2, g, v2, lr, mom, wd)
    np.testing.assert_allclose(v2, v_ref, atol=1e-14)
    np.testing.assert_allclose(p2, p_ref, atol=1e-14)
