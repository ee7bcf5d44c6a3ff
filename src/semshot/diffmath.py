"""Reverse-mode differentiation over dense float64 matrices.

Everything is a 2-D C-contiguous float64 array ("matrix" below).  A ``Tape``
records operations as they execute; ``Tape.backward`` runs the recorded nodes
in exact reverse order, accumulating into preallocated gradient buffers.
Gradients therefore come out bit-identical across repeated runs on the same
inputs.  Every op records through ``_op``, which takes the op's forward as a
function of its operands' current values and one vector-Jacobian product per
operand, read at backward time; ``transport`` is that of every product.  An
affine layer (``matmul`` with a bias) and the relation stage
(``relation_forward_t`` in ``relation``) are one op each.  A training phase
records its step once: each later step rebinds the leaves and ``Tape.rerun``
recomputes every node.

A ``Param`` owns its one gradient buffer for life: a recording tape zeroes a
trainable param's buffer in place and accumulates into it, so after
``backward`` the caller reads ``param.grad``.  Every param has that buffer,
frozen or not; the tape node of a frozen param, a leaf and every node on a
forward-only ``Tape(backward=False)`` get no gradient (their ``grad is
None``), and such a tape records nothing.
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
    results need no gradient, and ``backward`` raises.  With ``keep=True`` it
    keeps its record after ``backward`` for ``rerun`` until ``release``.
    """

    def __init__(self, backward: bool = True, keep: bool = False):
        self._ops, self._param_grads = [], []  # (node, forward, operands) in order; p.grads
        self._finished = False
        self._backward = backward
        self._keep = keep

    def leaf(self, value) -> Tensor:
        return Tensor(as_matrix(value), None, self)

    def labels(self, values) -> Tensor:  # class indices, a 1-D int64 vector
        return Tensor(np.asarray(values, dtype=np.int64).reshape(-1), None, self)

    def param(self, p: Param) -> Tensor:
        """Wrap a Param.  On a recording tape a trainable param's own grad
        buffer is zeroed in place and shared with the node, so every wrap of
        it accumulates there; any other node gets no gradient."""
        self._check_open()
        if not (self._backward and p.trainable):
            return Tensor(p.value, None, self)
        p.grad.fill(0.0)
        self._param_grads.append(p.grad)  # a rerun zeroes it again
        return Tensor(p.value, p.grad, self)

    def _check_open(self):
        if self._finished:
            raise RuntimeError("tape already replayed; build a new Tape per forward pass")

    def backward(self, loss: Tensor):
        """Seed d(loss)/d(loss)=1 and run the recorded vjps in reverse."""
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
        for out, _, operands in reversed(self._ops):
            for t, vjp in operands:  # a node whose operands have no gradient has none
                if t.grad is not None:
                    t.grad += vjp(out.grad, out.value)
        if not self._keep:
            self.release()

    def rerun(self):
        """Recompute every node in order and zero its gradient; reopen for ``backward``."""
        if not self._keep:
            raise RuntimeError("only a Tape(keep=True) that is not released can rerun()")
        for out, forward, _ in self._ops:
            out.value = forward()
            if out.grad is not None:
                out.grad.fill(0.0)
        for grad in self._param_grads:
            grad.fill(0.0)
        self._finished = False

    def release(self):  # drop the record, whose nodes hold this tape in cycles
        self._ops, self._param_grads, self._keep = [], [], False


# ---------------------------------------------------------------------------
# primitive ops


def _op(forward, *operands) -> Tensor:
    """Put the op whose value is ``forward()`` on its operands' one tape.

    ``forward`` reads its operands' current values, so a rerun recomputes it.
    Each ``(operand, vjp)`` pair's ``vjp(g, value)`` maps the output's
    gradient and value to that operand's share.  The node gets a gradient
    buffer when an operand has one; backward adds each vjp into it, in order.
    """
    tape = operands[0][0].tape
    if any(t.tape is not tape for t, _ in operands):
        raise ValueError("operands were created on different tapes")
    if not tape._backward:  # it records nothing, so no operand has a gradient
        return Tensor(forward(), None, tape)
    tape._check_open()
    value = forward()
    needs = any(t.grad is not None for t, _ in operands)
    out = Tensor(value, np.zeros(value.shape) if needs else None, tape)
    tape._ops.append((out, forward, operands))
    return out


def transport(a: Matrix, b: Matrix, g: Matrix, side: int) -> Matrix:
    """The vjp of every matrix product ``a b``: operand ``side``'s share of
    its gradient ``g``, g bᵀ for ``a`` (0) and aᵀ g for ``b`` (1)."""
    return a.T @ g if side else g @ b.T


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b`` on the tape, plus an (n,1) ``bias`` column added to every
    column when given."""
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    if bias is not None and bias.value.shape != (av.shape[0], 1):
        raise ValueError(f"bias shape {bias.value.shape} is not ({av.shape[0]}, 1)")
    operands = [(t, lambda g, _, s=s: transport(a.value, b.value, g, s))
                for s, t in enumerate((a, b))]
    if bias is None:
        return _op(lambda: kernels.matmul(a.value, b.value), *operands)
    return _op(lambda: kernels.matmul(a.value, b.value) + bias.value, *operands,
               (bias, lambda g, _: g.sum(axis=1, keepdims=True)))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return _op(lambda: a.value + b.value, (a, lambda g, _: g), (b, lambda g, _: g))


def relu(a: Tensor) -> Tensor:
    return _op(lambda: kernels.relu(a.value), (a, lambda g, ov: g * (ov > 0.0)))


def cross_entropy_cols(logits: Tensor, labels, pred: Tensor | None = None, target=None,
                       reg_weight: float = 1.0) -> tuple:
    """Mean cross-entropy over columns of an (n_classes, batch) logit matrix,
    plus, with ``pred``, ``reg_weight`` times the regression loss of
    ``squared_error_cols(pred, target)``, as one op.

    Returns the 1x1 loss tensor and the list ``[ce, reg]`` (reg None without
    ``pred``), which every forward refreshes; ``labels`` and ``target`` may be
    leaves that a rerun reads.  The backward pass is the fused (softmax -
    onehot) / batch form, which keeps the finite-difference check tight.
    """
    labels = labels if isinstance(labels, Tensor) else logits.tape.labels(labels)
    (n, b), lv = logits.value.shape, labels.value
    if lv.shape[0] != b:
        raise ValueError(f"{lv.shape[0]} labels for batch of {b}")
    if lv.size and (lv.min() < 0 or lv.max() >= n):
        raise ValueError(f"label out of range [0, {n}): {lv.tolist()}")
    saved, terms = [None, None], [None, None]  # probs and diff; ce and reg

    def forward():
        terms[0], saved[0] = kernels.ce_cols(logits.value, labels.value)
        if pred is None:
            return np.array([[terms[0]]])
        terms[1], saved[1] = _squared_error(pred.value, target.value)
        return np.array([[terms[0] + terms[1] * reg_weight]])

    def vjp(g, _):
        share = float(g[0, 0]) / b
        d = saved[0] * share
        d[labels.value, np.arange(b)] -= share
        return d

    if pred is None:
        return _op(forward, (logits, vjp)), terms
    target = target if isinstance(target, Tensor) else logits.tape.leaf(target)
    scale_reg = 2.0 / pred.value.shape[1]
    return _op(forward, (logits, vjp),
               (pred, lambda g, _: scale_reg * (float(g[0, 0]) * reg_weight) * saved[1])), terms


def _squared_error(pred: Matrix, target: Matrix):
    """Mean over columns of the squared L2 distance of ``pred`` to
    ``target``, and the difference matrix."""
    if target.shape != pred.shape:
        raise ValueError(f"target shape {target.shape} vs prediction {pred.shape}")
    diff = pred - target
    return float((diff * diff).sum()) / pred.shape[1], diff


def squared_error_cols(pred: Tensor, target) -> Tensor:
    """Mean over columns of the squared L2 distance to a fixed target matrix."""
    target = pred.tape.leaf(target)
    b = pred.value.shape[1]
    return _op(lambda: np.array([[_squared_error(pred.value, target.value)[0]]]),
               (pred, lambda g, _: (2.0 / b) * float(g[0, 0]) * (pred.value - target.value)))


def weighted_sum(terms) -> Tensor:
    """Combine 1x1 tensors: sum(w_i * t_i) for (t_i, w_i) pairs."""
    terms = list(terms)
    if not terms:
        raise ValueError("weighted_sum needs at least one term")
    for t, _ in terms:
        if t.value.shape != (1, 1):
            raise ValueError(f"weighted_sum combines 1x1 loss tensors, got {t.value.shape}")
    return _op(lambda: np.array([[sum(float(t.value[0, 0]) * w for t, w in terms)]]),
               *((t, lambda g, _, w=w: g * w) for t, w in terms))


# ---------------------------------------------------------------------------
# array-level helpers


def l2_normalize_rows(m, names=None) -> Matrix:
    """Scale every row to unit L2 norm. Rows of ~zero norm are an error naming them."""
    a = as_matrix(m)
    norms = np.sqrt((a * a).sum(axis=1))
    bad = np.nonzero(norms < 1e-12)[0]
    if bad.size:
        which = bad.tolist() if names is None else [names[i] for i in bad]
        raise ValueError(f"cannot normalize zero rows {which}")
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
