"""Only the hot kernels the benchmark times, one numpy implementation each.

Callers reach every kernel through the module (``kernels.matmul(...)``), so a
profiler can wrap the module-level names from outside.

Reductions that feed permutation-equivariance guarantees must not depend on
row ordering. The softmax denominator sums its terms in sorted order, so it is
a function of the value multiset; the mixing matmul sums its contraction in a
caller-given order, which the relation stage keys on the embedding rows'
content, so the order moves with the classes.
"""

import numpy as np

# Reported in benchmark environment blocks; numpy is the only backend.
BACKEND = "numpy"


def row_softmax(m):
    shifted = m - m.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    # Sorted summation: the denominator must not depend on column order.
    denom = np.sort(ex, axis=1).sum(axis=1, keepdims=True)
    return ex / denom


def ce_cols(logits, labels):
    n, b = logits.shape
    shifted = logits - logits.max(axis=0, keepdims=True)
    ex = np.exp(shifted)
    total = ex.sum(axis=0)
    probs = ex / total
    picked = shifted[labels, np.arange(b)]
    loss = float((np.log(total) - picked).sum() / b)
    return loss, probs


def relu(m):
    return np.maximum(m, 0.0)


def _einsum(a, b):
    # Matrix product whose per-cell reduction order depends only on the
    # contraction length, never on the output position, the row count or the
    # column count. BLAS gemm lacks that guarantee, and the heads rely on it:
    # class rows must score identically before and after unrelated rows are
    # inserted, and a record must score the same alone as inside a batch.
    # No ``optimize=``: that would hand the product to BLAS. With two or more
    # columns einsum sums each cell in plain k order; a lone column would take
    # a vectorised, reordered dot loop instead, so it is widened to two.
    if b.shape[1] == 1:
        return np.einsum("ik,kj->ij", a, np.repeat(b, 2, axis=1))[:, :1].copy()
    return np.einsum("ik,kj->ij", a, b)


def matmul(a, b):
    return _einsum(a, b)


def mix_matmul(a, b, order):
    # The product with its contraction summed left to right in ``order``, a
    # permutation of that axis. Permuting the axis together with ``order``
    # leaves every output entry bit-identical.
    return _einsum(a[:, order], b[order])


def sgd_update(param, grad, vel, lr, momentum, weight_decay):
    vel *= momentum
    vel += grad
    vel += weight_decay * param
    param -= lr * vel
