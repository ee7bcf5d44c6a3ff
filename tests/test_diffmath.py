"""Reverse-mode tape correctness: values against high-precision mpmath
oracles, gradients against hand derivations and central finite differences."""

import mpmath as mp
import numpy as np
import pytest

from semshot import diffmath as dm
from semshot import kernels
from semshot import relation as rel

mp.mp.dps = 50


def _tape_params(rng, *shapes):
    tape = dm.Tape()
    params = [dm.Param(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]
    return tape, params, [tape.param(p) for p in params]


def _relation(we, t_f, t_g, t_h, t_l):
    return rel.relation_forward_t(we, {"t_f": t_f, "t_g": t_g, "t_h": t_h, "t_l": t_l})


# ---------------------------------------------------------------------------
# value oracles


def test_row_softmax_matches_mpmath():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 6)) * 5
    got = kernels.row_softmax(m)
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
    got = dm.cross_entropy_cols(tape.leaf(logits), labels)[0].item()
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


def test_matmul_with_a_bias_adds_it_to_every_column_and_splits_the_gradient():
    # as above, the upstream gradient at the output is exactly (2/batch) * g:
    # the bias gets its column sums, w and x the transport rule
    rng = np.random.default_rng(4)
    tape, (pw, px, pb), (w, x, b) = _tape_params(rng, (3, 4), (4, 5), (3, 1))
    with pytest.raises(ValueError, match=r"bias shape \(1, 3\) is not \(3, 1\)"):
        dm.matmul(w, x, tape.leaf(np.ones((1, 3))))
    out = dm.matmul(w, x, b)
    np.testing.assert_array_equal(out.value, kernels.matmul(pw.value, px.value) + pb.value)
    assert len(tape._ops) == 1  # one affine layer, one recorded op
    g = rng.standard_normal(out.value.shape)
    dm.squared_error_cols(out, out.value - g).backward()
    scale = 2.0 / 5
    np.testing.assert_allclose(pb.grad, scale * g.sum(axis=1, keepdims=True), atol=1e-12)
    np.testing.assert_allclose(pw.grad, scale * (g @ px.value.T), atol=1e-12)
    np.testing.assert_allclose(px.grad, scale * (pw.value.T @ g), atol=1e-12)


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
        pre = dm.matmul(w, dm.matmul(u, tape.leaf(x)), bias)
        h = dm.relu(pre)
        ce, _ = dm.cross_entropy_cols(dm.add(h, pre), labels)  # pre feeds two ops
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


# one small case per op: (operand shapes, the op applied to their tensors);
# a matrix output is scored by its squared error to a fixed target
_OP_CASES = {
    "matmul": ([(3, 4), (4, 2)], dm.matmul),
    "matmul_with_bias": ([(3, 4), (4, 2), (3, 1)], dm.matmul),
    "add": ([(2, 3), (2, 3)], dm.add),
    "relu": ([(3, 3)], dm.relu),
    # We, Tf, Tg, Th, Tl
    "relation": ([(3, 4), (4, 2), (4, 2), (4, 2), (2, 4)], _relation),
    "cross_entropy_cols": ([(4, 3)], lambda a: dm.cross_entropy_cols(a, [0, 3, 1])[0]),
    "cross_entropy_cols_with_reg": ([(4, 3), (2, 3)], lambda a, p: dm.cross_entropy_cols(
        a, [0, 3, 1], p, np.ones((2, 3)), 0.4)[0]),
    "squared_error_cols": ([(2, 3)], lambda a: dm.squared_error_cols(a, np.ones((2, 3)))),
    # a term that repeats must get both of its weights
    "weighted_sum": ([(1, 1), (1, 1)], lambda a, b: dm.weighted_sum([(a, 0.7), (b, -0.3),
                                                                     (a, 2.0)])),
}


@pytest.mark.parametrize("name", list(_OP_CASES))
def test_grad_check_passes_on_every_op(name):
    shapes, op = _OP_CASES[name]
    rng = np.random.default_rng(10)
    params = [dm.Param(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]

    def loss_fn():
        tape = dm.Tape()
        out = op(*(tape.param(p) for p in params))
        if out.value.shape == (1, 1):
            return out
        target = np.linspace(-1.0, 1.0, out.value.size).reshape(out.value.shape)
        return dm.squared_error_cols(out, target)

    report = dm.grad_check(loss_fn, params)
    assert [e.name for e in report.entries] == [p.name for p in params]
    assert report.passed(1e-6), report.format_table()


@pytest.mark.parametrize("op, shapes", [
    pytest.param(dm.matmul, [(2, 2), (2, 2)], id="matmul"),
    pytest.param(_relation, [(2, 2), (2, 1), (2, 1), (2, 1), (1, 2)], id="relation"),
    pytest.param(dm.add, [(2, 2), (2, 2)], id="add"),
    pytest.param(dm.matmul, [(2, 2), (2, 2), (2, 1)], id="matmul_with_bias"),
    pytest.param(lambda *ts: dm.weighted_sum((t, 1.0) for t in ts), [(1, 1), (1, 1)],
                 id="weighted_sum"),
])
def test_mixing_tapes_is_rejected(op, shapes):
    # each operand in turn comes from a second tape
    home, other = dm.Tape(), dm.Tape()
    for odd in range(len(shapes)):
        ts = [(other if i == odd else home).leaf(np.ones(s)) for i, s in enumerate(shapes)]
        with pytest.raises(ValueError, match="different tapes"):
            op(*ts)


@pytest.mark.parametrize("reg_weight", [1.0, 0.37, 0.0])
def test_the_fused_loss_end_matches_its_terms_bit_for_bit(rng, reg_weight):
    # cross-entropy, squared error and their weighted sum as three ops give
    # the same loss and gradients as the one fused op
    logits, pred = rng.standard_normal((5, 4)) * 3, rng.standard_normal((2, 4))
    labels, target = [4, 0, 2, 2], rng.standard_normal((2, 4))
    outputs = []
    for fused in (True, False):
        tape, params, (lt, pt) = _tape_params(np.random.default_rng(0), (5, 4), (2, 4))
        params[0].value[:], params[1].value[:] = logits, pred
        if fused:
            loss, (ce, reg) = dm.cross_entropy_cols(lt, labels, pt, target, reg_weight)
        else:
            ce_t = dm.cross_entropy_cols(lt, labels)[0]
            reg_t = dm.squared_error_cols(pt, target)
            loss = dm.weighted_sum([(ce_t, 1.0), (reg_t, reg_weight)])
            ce, reg = ce_t.item(), reg_t.item()
        loss.backward()
        outputs.append((loss.item(), ce, reg, params[0].grad.copy(), params[1].grad.copy()))
    (*values, g_logits, g_pred), (*want, w_logits, w_pred) = outputs
    assert values == want
    np.testing.assert_array_equal(g_logits, w_logits)
    np.testing.assert_array_equal(g_pred, w_pred)


def _leaves(*shapes):
    tape = dm.Tape()
    return [tape.leaf(np.ones(s)) for s in shapes]


# one call per guard: the call, and the message of the ValueError it raises
_GUARD_CASES = {
    "as_matrix_ndim_3": (lambda: dm.as_matrix(np.zeros((2, 2, 2))),
                         "expected a 1-D or 2-D array, got ndim=3"),
    "item_of_a_matrix": (lambda: _leaves((2, 1))[0].item(),
                         r"item\(\) needs a 1x1 tensor, got shape \(2, 1\)"),
    "backward_of_a_matrix": (lambda: _leaves((1, 2))[0].backward(),
                             r"backward needs a 1x1 loss, got shape \(1, 2\)"),
    "backward_of_another_tapes_loss": (lambda: dm.Tape().backward(_leaves((1, 1))[0]),
                                       "loss tensor belongs to a different tape"),
    "matmul_shapes": (lambda: dm.matmul(*_leaves((2, 3), (2, 3))),
                      r"matmul shape mismatch: \(2, 3\) @ \(2, 3\)"),
    "add_shapes": (lambda: dm.add(*_leaves((2, 3), (3, 2))),
                   r"add shape mismatch: \(2, 3\) vs \(3, 2\)"),
    "cross_entropy_label_count": (lambda: dm.cross_entropy_cols(_leaves((4, 3))[0], [0, 1]),
                                  "2 labels for batch of 3"),
    "cross_entropy_label_range": (lambda: dm.cross_entropy_cols(_leaves((4, 3))[0], [0, 4, 1]),
                                  r"label out of range \[0, 4\): \[0, 4, 1\]"),
    "squared_error_target_shape": (lambda: dm.squared_error_cols(_leaves((2, 3))[0],
                                                                 np.ones((3, 2))),
                                   r"target shape \(3, 2\) vs prediction \(2, 3\)"),
    "weighted_sum_of_nothing": (lambda: dm.weighted_sum([]),
                                "weighted_sum needs at least one term"),
}


@pytest.mark.parametrize("name", list(_GUARD_CASES))
def test_a_bad_operand_raises_naming_what_is_wrong(name):
    call, message = _GUARD_CASES[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_grad_check_reports_a_non_finite_loss_and_fails():
    w = dm.Param("w", [[1.0], [2.0]])

    def loss_fn():
        # the loss turns NaN once w[0] moves above 1
        target = np.zeros((2, 1)) if w.value[0, 0] <= 1.0 else np.full((2, 1), np.nan)
        return dm.squared_error_cols(dm.Tape().param(w), target)

    report = dm.grad_check(loss_fn, [w])
    (entry,) = report.entries
    assert entry.nonfinite == [(0, 0)] and entry.checked == 1
    assert report.max_rel_err < 1e-8
    assert not report.passed(1.0)
    assert report.format_table().splitlines()[-1].split() == [
        "non-finite", "loss", "at", "coords", "[(0,", "0)]"]


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


def test_a_param_names_its_shape_and_whether_it_is_frozen():
    assert repr(dm.Param("w", np.zeros((2, 3)))) == "Param('w', shape=(2, 3))"
    assert repr(dm.Param("b", [1.0], trainable=False)) == "Param('b', shape=(1, 1), frozen)"


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
    dm.cross_entropy_cols(dm.Tape().param(logits), labels)[0].backward()
    np.testing.assert_allclose(logits.grad.sum(axis=0), 0.0, atol=1e-12)


def test_a_replayed_tape_refuses_more_work(rng):
    tape, params, (w,) = _tape_params(rng, (2, 2))
    loss = dm.squared_error_cols(w, np.zeros((2, 2)))
    loss.backward()
    grad = params[0].grad.copy()
    for again in (loss.backward, lambda: tape.param(params[0]), lambda: dm.relu(w)):
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
