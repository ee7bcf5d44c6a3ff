"""Reverse-mode tape correctness: values against high-precision mpmath
oracles, gradients against hand derivations and central finite differences."""

import mpmath as mp
import numpy as np
import pytest

from semshot import diffmath as dm

mp.mp.dps = 50


def _tape_params(rng, *shapes):
    tape = dm.Tape()
    params = [dm.Param(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]
    return tape, params, [tape.param(p) for p in params]


# ---------------------------------------------------------------------------
# value oracles


def test_row_softmax_matches_mpmath():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 6)) * 5
    tape = dm.Tape()
    got = dm.row_softmax(tape.leaf(m)).value
    for i in range(m.shape[0]):
        ex = [mp.e ** mp.mpf(x) for x in m[i]]
        total = mp.fsum(ex)
        for j in range(m.shape[1]):
            assert got[i, j] == pytest.approx(float(ex[j] / total), abs=1e-15)


def test_cross_entropy_matches_mpmath():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((5, 3)) * 4
    labels = [2, 0, 4]
    tape = dm.Tape()
    got = dm.cross_entropy_cols(tape.leaf(logits), labels).item()
    per_col = []
    for c, lab in enumerate(labels):
        ex = [mp.e ** mp.mpf(x) for x in logits[:, c]]
        per_col.append(mp.log(mp.fsum(ex)) - mp.mpf(logits[lab, c]))
    want = float(mp.fsum(per_col) / len(labels))
    assert got == pytest.approx(want, abs=1e-14)


def test_squared_error_matches_mpmath():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 3))
    tape = dm.Tape()
    got = dm.squared_error_cols(tape.leaf(pred), target).item()
    diffs = [(mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(pred.ravel(), target.ravel())]
    want = float(mp.fsum(diffs) / pred.shape[1])
    assert got == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# gradient correctness


def test_matmul_gradients_are_the_transport_rule():
    # pick the target so the upstream gradient at S is exactly (2/batch) * g,
    # then dL/dA must be that @ B^T and dL/dB must be A^T @ that
    rng = np.random.default_rng(3)
    tape, (pa, pb), (a, b) = _tape_params(rng, (3, 4), (4, 2))
    s = dm.matmul(a, b)
    g = rng.standard_normal(s.value.shape)
    loss = dm.squared_error_cols(s, s.value - g)
    loss.backward()
    scale = 2.0 / s.value.shape[1]
    np.testing.assert_allclose(pa.grad, scale * (g @ pb.value.T), atol=1e-12)
    np.testing.assert_allclose(pb.grad, scale * (pa.value.T @ g), atol=1e-12)


def test_add_bias_broadcasts_and_accumulates_gradient():
    rng = np.random.default_rng(4)
    tape, (pm, pb), (m, b) = _tape_params(rng, (3, 5), (3, 1))
    out = dm.add_bias(m, b)
    np.testing.assert_allclose(out.value, pm.value + pb.value, atol=0)
    target = out.value - 1.0
    loss = dm.squared_error_cols(out, target)
    loss.backward()
    scale = 2.0 / 5
    np.testing.assert_allclose(pm.grad, np.full((3, 5), scale), atol=1e-13)
    np.testing.assert_allclose(pb.grad, np.full((3, 1), 5 * scale), atol=1e-13)


def test_relu_gradient_masks_negative_preactivations():
    rng = np.random.default_rng(5)
    tape, (p,), (x,) = _tape_params(rng, (4, 4))
    out = dm.relu(x)
    loss = dm.squared_error_cols(out, out.value - 1.0)
    loss.backward()
    mask = (p.value > 0).astype(float)
    np.testing.assert_allclose(p.grad, (2.0 / 4) * mask, atol=1e-13)


def test_grad_check_passes_on_composite_graph():
    rng = np.random.default_rng(6)
    params = [
        dm.Param("w", rng.standard_normal((4, 5))),
        dm.Param("u", rng.standard_normal((5, 3))),
        dm.Param("bias", rng.standard_normal((4, 1))),
    ]
    x = rng.standard_normal((3, 2))
    labels = [1, 3]

    def loss_fn():
        tape = dm.Tape()
        w, u, bias = (tape.param(p) for p in params)
        h = dm.relu(dm.add_bias(dm.matmul(w, dm.matmul(u, tape.leaf(x))), bias))
        soft = dm.row_softmax(dm.transpose(h))
        ce = dm.cross_entropy_cols(dm.transpose(soft), labels)
        se = dm.squared_error_cols(h, np.ones_like(h.value))
        return dm.weighted_sum([(ce, 1.0), (se, 0.25)])

    report = dm.grad_check(loss_fn, params)
    assert report.passed(1e-5), report.format_table()


def test_grad_check_skips_frozen_params():
    rng = np.random.default_rng(7)
    live = dm.Param("live", rng.standard_normal((2, 2)))
    frozen = dm.Param("frozen", rng.standard_normal((2, 2)), trainable=False)

    def loss_fn():
        tape = dm.Tape()
        out = dm.add(tape.param(live), tape.param(frozen))
        return dm.squared_error_cols(out, np.zeros((2, 2)))

    report = dm.grad_check(loss_fn, [live, frozen])
    assert [e.name for e in report.entries] == ["live"]
    assert report.passed(1e-5)


def test_mixing_tapes_is_rejected():
    t1, t2 = dm.Tape(), dm.Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        dm.add(a, b)


def test_weighted_sum_requires_scalar_terms():
    tape = dm.Tape()
    m = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        dm.weighted_sum([(m, 1.0)])


def test_l2_normalize_rows_unit_norm_and_zero_row_error():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 7))
    out = dm.l2_normalize_rows(m)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    m[2] = 0.0
    with pytest.raises(ValueError, match=r"\[2\]"):
        dm.l2_normalize_rows(m)


def test_backward_accumulates_over_param_reuse():
    p = dm.Param("w", np.array([[2.0]]))
    buffer = p.grad
    tape = dm.Tape()
    w = tape.param(p)
    out = dm.add(w, w)  # f = 2w
    loss = dm.squared_error_cols(out, np.zeros((1, 1)))  # loss = (2w)^2, d/dw = 8w
    loss.backward()
    assert p.grad[0, 0] == pytest.approx(8 * p.value[0, 0], abs=1e-12)
    # two wraps of one param on a tape share the param's own buffer, which
    # the first wrap zeroes: f = w1 + w2 gives (2w)^2 again, not 8w + 8w
    tape = dm.Tape()
    w1, w2 = tape.param(p), tape.param(p)
    assert w1.grad is buffer and w2.grad is buffer and not buffer.any()
    dm.squared_error_cols(dm.add(w1, w2), np.zeros((1, 1))).backward()
    assert p.grad is buffer
    assert p.grad[0, 0] == pytest.approx(8 * p.value[0, 0], abs=1e-12)


def test_frozen_params_and_leaves_get_no_gradient(rng):
    live = dm.Param("live", rng.standard_normal((2, 2)))
    frozen = dm.Param("frozen", rng.standard_normal((2, 2)), trainable=False)
    frozen.grad[:] = 5.0
    tape = dm.Tape()
    a, f, x = tape.param(live), tape.param(frozen), tape.leaf(np.ones((2, 2)))
    assert a.grad is live.grad and f.grad is None and x.grad is None
    dm.squared_error_cols(dm.matmul(dm.add(a, f), x), np.zeros((2, 2))).backward()
    assert live.grad.any()
    np.testing.assert_array_equal(frozen.grad, 5.0)  # neither zeroed nor accumulated


def test_cross_entropy_gradient_sums_to_zero_per_column():
    rng = np.random.default_rng(9)
    logits = dm.Param("logits", rng.standard_normal((9, 6)) * 2)
    labels = rng.integers(0, 9, size=6)
    dm.cross_entropy_cols(dm.Tape().param(logits), labels).backward()
    np.testing.assert_allclose(logits.grad.sum(axis=0), 0.0, atol=1e-12)


def test_a_replayed_tape_refuses_more_work(rng):
    tape, params, (w,) = _tape_params(rng, (2, 2))
    loss = dm.squared_error_cols(w, np.zeros((2, 2)))
    loss.backward()
    grad = params[0].grad.copy()
    for again in (loss.backward, lambda: tape.param(params[0]), lambda: dm.scale(w, 2.0)):
        with pytest.raises(RuntimeError, match="backward|already replayed"):
            again()
    np.testing.assert_array_equal(params[0].grad, grad)


def test_a_forward_only_tape_records_nothing_and_refuses_backward(rng):
    p = dm.Param("w", rng.standard_normal((2, 2)))
    grad = p.grad
    tape = dm.Tape(backward=False)
    w, x = tape.param(p), tape.leaf(np.ones((2, 2)))
    loss = dm.squared_error_cols(dm.matmul(w, x), np.zeros((2, 2)))
    assert w.grad is None and x.grad is None and loss.grad is None
    assert tape._ops == [] and tape.param(p) is not w  # no node memo either
    with pytest.raises(RuntimeError, match="cannot run backward"):
        loss.backward()
    assert p.grad is grad  # the grad buffer is left alone, not zeroed
