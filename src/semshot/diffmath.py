"""Reverse-mode differentiation over dense float64 matrices.

Everything is a 2-D C-contiguous float64 array ("matrix" below).  A ``Tape``
records operations as they execute; ``Tape.backward`` replays the recorded
closures in exact reverse order, accumulating into preallocated gradient
buffers.  Gradients therefore come out bit-identical across repeated runs on
the same inputs.  Every op records through ``_op``, which takes the op's
value and one vector-Jacobian product per operand; an affine layer is the
single op ``linear``.

A ``Param`` owns its one gradient buffer for life: a recording tape zeroes a
trainable param's buffer in place and accumulates into it, so after
``backward`` the caller reads ``param.grad``.  Every param has that buffer,
frozen or not; the tape node of a frozen param, a leaf and every node on a
forward-only ``Tape(backward=False)`` get no gradient (their ``grad is
None``), and such a tape records no closures.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels

Matrix = np.ndarray


def as_matrix(x) -> Matrix:
    """Coerce to a 2-D C-contiguous float64 array. 1-D input becomes a column."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got ndim={a.ndim}")
    return a


class Param:
    """A named matrix and the one gradient buffer it keeps for life."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value, trainable: bool = True):
        self.name = name
        self.value = as_matrix(value)
        self.grad = np.zeros_like(self.value)
        self.trainable = trainable

    def __repr__(self):
        flag = "" if self.trainable else ", frozen"
        return f"Param({self.name!r}, shape={self.value.shape}{flag})"


class Tensor:
    """A node in the recorded computation. Do not construct directly; use Tape."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value: Matrix, grad: Matrix | None, tape: "Tape"):
        self.value = value
        self.grad = grad  # None: nothing upstream needs this node's gradient
        self.tape = tape

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() needs a 1x1 tensor, got shape {self.value.shape}")
        return float(self.value[0, 0])

    def backward(self):
        self.tape.backward(self)


class Tape:
    """Ordered record of operations for one forward pass.

    With ``backward=False`` the tape records nothing: its leaves, params and
    results need no gradient, and ``backward`` raises.
    """

    def __init__(self, backward: bool = True):
        self._ops = []
        self._finished = False
        self._backward = backward

    def leaf(self, value) -> Tensor:
        return Tensor(as_matrix(value), None, self)

    def param(self, p: Param) -> Tensor:
        """Wrap a Param.  On a recording tape a trainable param's own grad
        buffer is zeroed in place and shared with the node, so every wrap of
        it accumulates there; any other node gets no gradient."""
        self._check_open()
        if not (self._backward and p.trainable):
            return Tensor(p.value, None, self)
        p.grad.fill(0.0)
        return Tensor(p.value, p.grad, self)

    def _check_open(self):
        if self._finished:
            raise RuntimeError("tape already replayed; build a new Tape per forward pass")

    def backward(self, loss: Tensor):
        """Seed d(loss)/d(loss)=1 and replay recorded ops in reverse."""
        if not self._backward:
            raise RuntimeError("a Tape(backward=False) records no ops and cannot run backward()")
        if self._finished:
            raise RuntimeError("backward() may run once per tape")
        if loss.tape is not self:
            raise ValueError("loss tensor belongs to a different tape")
        if loss.value.size != 1:
            raise ValueError(f"backward needs a 1x1 loss, got shape {loss.value.shape}")
        self._finished = True
        if loss.grad is not None:
            loss.grad[0, 0] = 1.0
        for fn in reversed(self._ops):
            fn()
        # the closures hold tensors, which hold this tape; dropping them lets
        # reference counting free the step's arrays
        self._ops = []


# ---------------------------------------------------------------------------
# primitive ops


def _op(value: Matrix, *operands) -> Tensor:
    """Put an op's forward ``value`` on its operands' one tape.

    Each operand comes as an ``(operand, vjp)`` pair; the vjp maps the
    output's gradient to that operand's share.  The node gets a gradient
    buffer when an operand has one, and then one backward closure that adds
    ``vjp(out.grad)`` into each such operand's gradient, in the order given.
    """
    tape = operands[0][0].tape
    needs = False
    for t, _ in operands:
        if t.tape is not tape:
            raise ValueError("operands were created on different tapes")
        needs = needs or t.grad is not None
    # on a forward-only tape no operand has a gradient, so neither does this
    if not needs:
        return Tensor(value, None, tape)
    out = Tensor(value, np.zeros(value.shape), tape)

    def bw():
        for t, vjp in operands:
            if t.grad is not None:
                t.grad += vjp(out.grad)

    tape._check_open()
    tape._ops.append(bw)
    return out


def _product(a: Tensor, b: Tensor, kernel, name: str, bias: Tensor | None = None) -> Tensor:
    """``kernel(a, b)`` on the tape, plus an (n,1) ``bias`` column added to
    every column when given.  The vjps of a product are the transport rule."""
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"{name} shape mismatch: {av.shape} @ {bv.shape}")
    if bias is not None and bias.value.shape != (av.shape[0], 1):
        raise ValueError(f"bias shape {bias.value.shape} is not ({av.shape[0]}, 1)")
    value = kernel(av, bv)
    operands = [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)]
    if bias is not None:
        value += bias.value
        operands.append((bias, lambda g: g.sum(axis=1, keepdims=True)))
    return _op(value, *operands)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _product(a, b, kernels.matmul, "matmul")


def mix_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product whose contraction sums in sorted order (see kernels)."""
    return _product(a, b, kernels.mix_matmul, "mix_matmul")


def linear(w: Tensor, x: Tensor, bias: Tensor) -> Tensor:
    """One affine layer as one op: ``w @ x`` plus the (n,1) ``bias`` column
    added to every column."""
    return _product(w, x, kernels.matmul, "linear", bias)


def transpose(a: Tensor) -> Tensor:
    return _op(np.ascontiguousarray(a.value.T), (a, lambda g: g.T))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return _op(a.value + b.value, (a, lambda g: g), (b, lambda g: g))


def scale(a: Tensor, c: float) -> Tensor:
    return _op(a.value * c, (a, lambda g: g * c))


def relu(a: Tensor) -> Tensor:
    ov = kernels.relu(a.value)
    return _op(ov, (a, lambda g: g * (ov > 0.0)))


def row_softmax(a: Tensor) -> Tensor:
    """Row-wise softmax; the denominator uses sorted summation."""
    soft = kernels.row_softmax(a.value)
    return _op(soft, (a, lambda g: soft * (g - (soft * g).sum(axis=1, keepdims=True))))


def cross_entropy_cols(logits: Tensor, labels, pred: Tensor | None = None, target=None,
                       reg_weight: float = 1.0) -> tuple:
    """Mean cross-entropy over columns of an (n_classes, batch) logit matrix,
    plus, with ``pred``, ``reg_weight`` times the regression loss of
    ``squared_error_cols(pred, target)``, as one op.

    Returns the 1x1 loss tensor, the cross-entropy and the regression loss
    (None without ``pred``) as floats.  The cross-entropy's backward pass is
    the fused (softmax - onehot) / batch form, which keeps the check against
    finite differences tight even for confident logits.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, b = logits.value.shape
    if labels.shape[0] != b:
        raise ValueError(f"{labels.shape[0]} labels for batch of {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"label out of range [0, {n}): {labels.tolist()}")
    ce, probs = kernels.ce_cols(logits.value, labels)

    def vjp(g):
        share = float(g[0, 0]) / b
        d = probs * share
        d[labels, np.arange(b)] -= share
        return d

    if pred is None:
        return _op(np.array([[ce]]), (logits, vjp)), ce, None
    reg, diff = _squared_error(pred, target)
    b_reg = pred.value.shape[1]
    loss = _op(np.array([[ce + reg * reg_weight]]), (logits, vjp),
               (pred, lambda g: (2.0 / b_reg) * (float(g[0, 0]) * reg_weight) * diff))
    return loss, ce, reg


def _squared_error(pred: Tensor, target):
    """Mean over columns of the squared L2 distance of ``pred`` to a fixed
    target matrix, and the difference matrix."""
    tv = as_matrix(target)
    if tv.shape != pred.value.shape:
        raise ValueError(f"target shape {tv.shape} vs prediction {pred.value.shape}")
    diff = pred.value - tv
    return float((diff * diff).sum()) / pred.value.shape[1], diff


def squared_error_cols(pred: Tensor, target) -> Tensor:
    """Mean over columns of the squared L2 distance to a fixed target matrix."""
    loss, diff = _squared_error(pred, target)
    b = pred.value.shape[1]
    return _op(np.array([[loss]]), (pred, lambda g: (2.0 / b) * float(g[0, 0]) * diff))


def weighted_sum(terms) -> Tensor:
    """Combine 1x1 tensors: sum(w_i * t_i) for (t_i, w_i) pairs."""
    terms = list(terms)
    if not terms:
        raise ValueError("weighted_sum needs at least one term")
    for t, _ in terms:
        if t.value.shape != (1, 1):
            raise ValueError(f"weighted_sum combines 1x1 loss tensors, got {t.value.shape}")
    total = sum(float(t.value[0, 0]) * w for t, w in terms)
    return _op(np.array([[total]]), *((t, lambda g, w=w: g * w) for t, w in terms))


# ---------------------------------------------------------------------------
# array-level helpers


def l2_normalize_rows(m) -> Matrix:
    """Scale every row to unit L2 norm. Rows of ~zero norm are an error."""
    a = as_matrix(m)
    norms = np.sqrt((a * a).sum(axis=1))
    bad = np.nonzero(norms < 1e-12)[0]
    if bad.size:
        raise ValueError(f"cannot normalize zero rows at indices {bad.tolist()}")
    return a / norms[:, None]


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class ParamCheck:
    name: str
    shape: tuple
    checked: int
    max_rel_err: float
    worst_coord: tuple = ()
    nonfinite: list = field(default_factory=list)


@dataclass
class GradCheckReport:
    entries: list

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def passed(self, threshold: float = 1e-5) -> bool:
        return not any(e.nonfinite for e in self.entries) and self.max_rel_err < threshold

    def format_table(self) -> str:
        lines = [f"{'param':<14} {'shape':<12} {'coords':>6} {'max rel err':>12}  worst coord"]
        for e in self.entries:
            shape = "x".join(str(s) for s in e.shape)
            worst = ",".join(str(c) for c in e.worst_coord) if e.worst_coord else "-"
            lines.append(
                f"{e.name:<14} {shape:<12} {e.checked:>6} {e.max_rel_err:>12.3e}  ({worst})"
            )
            if e.nonfinite:
                lines.append(f"{'':<14} non-finite loss at coords {e.nonfinite}")
        return "\n".join(lines)


def grad_check(loss_fn, params, eps: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn`` takes no arguments, builds a fresh tape from the current
    ``Param`` values and returns the 1x1 loss tensor.  Every coordinate of
    every trainable param is perturbed by +/-eps; the relative error uses
    max(|analytic|, |fd|, 1e-8) as denominator.  Frozen params are skipped.
    """
    loss = loss_fn()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params if p.trainable}

    entries = []
    for p in params:
        if not p.trainable:
            continue
        flat = p.value.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        worst = (0.0, ())
        nonfinite = []
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn().item()
            flat[i] = orig - eps
            f_minus = loss_fn().item()
            flat[i] = orig
            coord = tuple(int(c) for c in np.unravel_index(i, p.value.shape))
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                nonfinite.append(coord)
                continue
            fd = (f_plus - f_minus) / (2.0 * eps)
            rel = float(abs(ana[i] - fd) / max(abs(ana[i]), abs(fd), 1e-8))
            if rel > worst[0]:
                worst = (rel, coord)
        entries.append(
            ParamCheck(
                name=p.name,
                shape=p.value.shape,
                checked=flat.size - len(nonfinite),
                max_rel_err=worst[0],
                worst_coord=worst[1],
                nonfinite=nonfinite,
            )
        )
    return GradCheckReport(entries=entries)
