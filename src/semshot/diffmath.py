"""Reverse-mode differentiation over dense float64 matrices.

Everything is a 2-D C-contiguous float64 array ("matrix" below).  A ``Tape``
records operations as they execute; ``Tape.backward`` replays the recorded
closures in exact reverse order, accumulating into preallocated gradient
buffers.  Gradients therefore come out bit-identical across repeated runs on
the same inputs.

A ``Param`` owns its one gradient buffer for life: a recording tape zeroes a
trainable param's buffer in place and accumulates into it, so after
``backward`` the caller reads ``param.grad``.  Frozen params, leaves and
everything on a forward-only ``Tape(backward=False)`` get no gradient
(``grad is None``); such a tape records no closures.
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

    def _record(self, fn):
        self._check_open()
        self._ops.append(fn)

    def _result(self, value: Matrix, *inputs: Tensor) -> Tensor:
        # on a forward-only tape no input has a gradient, so neither does this
        needs = any(t.grad is not None for t in inputs)
        return Tensor(value, np.zeros(value.shape) if needs else None, self)

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


def _check_same_tape(*tensors: Tensor):
    tapes = {t.tape for t in tensors}
    if len(tapes) != 1:
        raise ValueError("operands were created on different tapes")


# ---------------------------------------------------------------------------
# primitive ops


def _product(a: Tensor, b: Tensor, kernel, name: str) -> Tensor:
    """``kernel(a, b)`` on the tape, with the backward of a plain matrix product."""
    _check_same_tape(a, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"{name} shape mismatch: {a.value.shape} @ {b.value.shape}")
    out = a.tape._result(kernel(a.value, b.value), a, b)
    if out.grad is not None:
        av, bv = a.value, b.value

        def bw():
            if a.grad is not None:
                a.grad += out.grad @ bv.T
            if b.grad is not None:
                b.grad += av.T @ out.grad

        a.tape._record(bw)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _product(a, b, kernels.matmul, "matmul")


def mix_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product whose contraction sums in sorted order (see kernels)."""
    return _product(a, b, kernels.mix_matmul, "mix_matmul")


def transpose(a: Tensor) -> Tensor:
    out = a.tape._result(np.ascontiguousarray(a.value.T), a)
    if out.grad is not None:

        def bw():
            a.grad += out.grad.T

        a.tape._record(bw)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_tape(a, b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    out = a.tape._result(a.value + b.value, a, b)
    if out.grad is not None:

        def bw():
            if a.grad is not None:
                a.grad += out.grad
            if b.grad is not None:
                b.grad += out.grad

        a.tape._record(bw)
    return out


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Add an (n,1) bias column to every column of an (n,b) matrix."""
    _check_same_tape(m, bias)
    if bias.value.shape != (m.value.shape[0], 1):
        raise ValueError(
            f"bias shape {bias.value.shape} does not broadcast over {m.value.shape}"
        )
    out = m.tape._result(m.value + bias.value, m, bias)
    if out.grad is not None:

        def bw():
            if m.grad is not None:
                m.grad += out.grad
            if bias.grad is not None:
                bias.grad += out.grad.sum(axis=1, keepdims=True)

        m.tape._record(bw)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = a.tape._result(a.value * c, a)
    if out.grad is not None:

        def bw():
            a.grad += out.grad * c

        a.tape._record(bw)
    return out


def relu(a: Tensor) -> Tensor:
    out = a.tape._result(kernels.relu(a.value), a)
    if out.grad is not None:
        ov = out.value

        def bw():
            a.grad += out.grad * (ov > 0.0)

        a.tape._record(bw)
    return out


def row_softmax(a: Tensor) -> Tensor:
    """Row-wise softmax; the denominator uses sorted summation."""
    out = a.tape._result(kernels.row_softmax(a.value), a)
    if out.grad is not None:
        soft = out.value

        def bw():
            g = out.grad
            a.grad += soft * (g - (soft * g).sum(axis=1, keepdims=True))

        a.tape._record(bw)
    return out


def cross_entropy_cols(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy over columns of an (n_classes, batch) logit matrix.

    The backward pass is the fused (softmax - onehot) / batch form, which keeps
    the check against finite differences tight even for confident logits.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, b = logits.value.shape
    if labels.shape[0] != b:
        raise ValueError(f"{labels.shape[0]} labels for batch of {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"label out of range [0, {n}): {labels.tolist()}")
    loss, probs = kernels.ce_cols(logits.value, labels)
    out = logits.tape._result(np.array([[loss]]), logits)
    if out.grad is not None:

        def bw():
            g = float(out.grad[0, 0])
            d = probs * (g / b)
            d[labels, np.arange(b)] -= g / b
            logits.grad += d

        logits.tape._record(bw)
    return out


def squared_error_cols(pred: Tensor, target) -> Tensor:
    """Mean over columns of the squared L2 distance to a fixed target matrix."""
    tv = as_matrix(target)
    if tv.shape != pred.value.shape:
        raise ValueError(f"target shape {tv.shape} vs prediction {pred.value.shape}")
    b = pred.value.shape[1]
    diff = pred.value - tv
    out = pred.tape._result(np.array([[float((diff * diff).sum()) / b]]), pred)
    if out.grad is not None:

        def bw():
            pred.grad += (2.0 / b) * float(out.grad[0, 0]) * diff

        pred.tape._record(bw)
    return out


def weighted_sum(terms) -> Tensor:
    """Combine 1x1 tensors: sum(w_i * t_i) for (t_i, w_i) pairs."""
    terms = list(terms)
    if not terms:
        raise ValueError("weighted_sum needs at least one term")
    tensors = [t for t, _ in terms]
    for t in tensors:
        if t.value.shape != (1, 1):
            raise ValueError(f"weighted_sum combines 1x1 loss tensors, got {t.value.shape}")
    _check_same_tape(*tensors)
    tape = tensors[0].tape
    total = sum(float(t.value[0, 0]) * w for t, w in terms)
    out = tape._result(np.array([[total]]), *tensors)
    if out.grad is not None:

        def bw():
            g = float(out.grad[0, 0])
            for t, w in terms:
                if t.grad is not None:
                    t.grad[0, 0] += g * w

        tape._record(bw)
    return out


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
