"""Relation reasoning over class embedding rows.

The dynamic variant runs one head of scaled dot-product self-attention across
the embedding rows: row-softmax(We Tf (We Tg)^T / sqrt(r)) gives an
n_classes x n_classes mixing graph G, and the refined embedding is
G (We Th Tl) + We.  With Tl = 0 the refinement is exactly the identity, which
is also the training-friendly initialization.  The whole stage is one tape op,
whose forward the array-level ``attention`` starts.

Two ablation variants share the interface: a fixed heuristic graph applied as
G_h We, and a per-row transform We Th Tl + We that mixes nothing across rows.
``STAGES`` holds each graph mode's record, and no other module tells them apart.
"""

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from . import kernels
from .diffmath import Param
from .embeddings import ClassRegistry

DEFAULT_REDUCED_DIM = 32
DEFAULT_ATTENTION_GAIN = 16.0


class GraphMode(enum.Enum):
    NONE = "none"
    DYNAMIC = "dynamic"
    HEURISTIC = "heuristic"
    TRAINABLE_TRANSFORM = "tt"


# the frozen param of the heuristic stage: the (n, n) class graph it mixes rows by
GRAPH = "g_heur"


def init_maps(mode: GraphMode, d_e: int, r: int = DEFAULT_REDUCED_DIM, seed: int = 0,
              gain: float = DEFAULT_ATTENTION_GAIN) -> dict:
    """Identity-module init with a semantic warm start: name -> Param for
    the maps the stage ``mode`` trains, in its record's order.

    t_l = 0 makes the refinement an exact identity.  The attention maps
    start tied (t_f = t_g), so initial scores are the PSD kernel
    We t_f t_fᵀ Weᵀ / √r ≈ gain · cos(e_i, e_j): the graph opens as a soft
    similarity neighborhood over classes instead of uniform mixing, which
    would cancel in the softmax.  ``gain`` sets the initial sharpness.
    """
    if not (names := STAGES[mode].maps):
        return {}
    rng = np.random.default_rng([seed, 0x5E])
    # tied maps with entry variance s^2 give scores ~ s^2 r cos(e_i, e_j)
    # before the sqrt(r) division; solve for the requested gain
    s = math.sqrt(gain / math.sqrt(r))
    # every mode draws the tied maps first, so t_h holds the same bits in each
    tied = rng.standard_normal((d_e, r)) * s
    values = {
        "t_f": tied.copy(),
        "t_g": tied,
        "t_h": rng.normal(0.0, 1.0 / math.sqrt(d_e), (d_e, r)),
        "t_l": np.zeros((r, d_e)),
    }
    return {name: Param(name, values[name]) for name in names}


def attention(we, maps) -> tuple:
    """The class graph row-softmax(We Tf (We Tg)ᵀ / √r) and the product
    We [Tf Tg ...] of ``maps`` = [Tf, Tg, ...], whose column blocks equal the
    separate products bit for bit (see kernels)."""
    r = maps[0].shape[1]
    prods = kernels.matmul(we, np.concatenate(maps, axis=1))
    scores = kernels.matmul(prods[:, :r], np.ascontiguousarray(prods[:, r:2 * r].T))
    return kernels.row_softmax(scores * (1.0 / math.sqrt(r))), prods


def relation_forward_t(we_t, maps_t):
    """Refined embeddings G (We Th Tl) + We as one op over ``we_t`` and ``maps_t``.

    The mixing matmul sums over classes in one order keyed on the content of
    We's rows: a stable argsort of each row's bytes viewed as one item.  The
    order moves with the rows, and rows with equal bytes give bit-identical G
    columns and (We Th Tl) rows, so their ties cannot change the sum.  That
    makes the whole refinement exactly equivariant to row permutations of We.
    """
    keys = we_t.value.view(np.dtype((np.void, we_t.value[0].nbytes))).ravel()  # a row an item
    order = np.argsort(keys, kind="stable")
    ts = [maps_t[name] for name in STAGES[GraphMode.DYNAMIC].maps]
    r, saved = ts[0].value.shape[1], []

    def forward():
        graph, prods = attention(we_t.value, [t.value for t in ts[:3]])
        saved[:] = graph, prods, kernels.matmul(prods[:, 2 * r:], ts[3].value), None
        return kernels.mix_matmul(graph, saved[2], order) + we_t.value

    def share(g, i):  # operand i's share of g, in the order [We, Tf, Tg, Th, Tl]
        if saved[-1] is None:  # the first call of a backward applies the chain rule for all
            (graph, prods, transformed, _), tp = saved, dm.transport
            we, (t_f, t_g, t_h, t_l) = we_t.value, (t.value for t in ts)
            # contiguous copies: BLAS can sum a strided operand in another order
            q, k, h = (np.ascontiguousarray(prods[:, j * r:(j + 1) * r]) for j in range(3))
            g_graph, g_tr = tp(graph, transformed, g, 0), tp(graph, transformed, g, 1)
            g_s = graph * (g_graph - (graph * g_graph).sum(axis=1, keepdims=True))
            g_s, k_t = g_s * (1.0 / math.sqrt(r)), np.ascontiguousarray(k.T)
            g_q, g_k = tp(q, k_t, g_s, 0), np.ascontiguousarray(tp(q, k_t, g_s, 1).T)
            g_h = tp(h, t_l, g_tr, 0)
            g_we = None if we_t.grad is None else (
                g + tp(we, t_h, g_h, 0) + tp(we, t_g, g_k, 0) + tp(we, t_f, g_q, 0))
            saved[-1] = [g_we, tp(we, t_f, g_q, 1), tp(we, t_g, g_k, 1), tp(we, t_h, g_h, 1),
                         tp(h, t_l, g_tr, 1)]
        return saved[-1][i]

    return dm._op(forward, *((t, lambda g, _, i=i: share(g, i))
                             for i, t in enumerate([we_t, *ts])))


# a relation stage: the names of the maps it trains, in checkpoint order; the
# (n, n) class graphs it reads as frozen params; its rows op on the tape,
# rows(we_t, name -> leaf of those params); its class graph on arrays,
# graph(we, name -> value), or None when it has none
Stage = namedtuple("Stage", "maps frozen rows graph",
                   defaults=((), (), lambda we_t, ins: we_t, None))
STAGES = {
    GraphMode.NONE: Stage(),
    # looked up at call time, so a wrapper of relation_forward_t sees every call
    GraphMode.DYNAMIC: Stage(
        ("t_f", "t_g", "t_h", "t_l"), rows=lambda we_t, ins: relation_forward_t(we_t, ins),
        graph=lambda we, values: attention(we, [values["t_f"], values["t_g"]])[0]),
    GraphMode.HEURISTIC: Stage(
        frozen=(GRAPH,), rows=lambda we_t, ins: dm.matmul(ins[GRAPH], we_t),
        graph=lambda we, values: values[GRAPH]),
    GraphMode.TRAINABLE_TRANSFORM: Stage(("t_h", "t_l"), rows=lambda we_t, ins: dm.add(
        dm.matmul(dm.matmul(we_t, ins["t_h"]), ins["t_l"]), we_t)),
}


def cooccurrence_graph(label_sets, registry: ClassRegistry) -> np.ndarray:
    """Row-normalized co-occurrence counts over the registry's classes.

    ``label_sets`` is an iterable of label collections (one per image or
    record).  Diagonal entries count occurrences of the class itself.  Rows
    with no counts fall back to the identity row so the graph stays
    row-stochastic.
    """
    n, label_sets = registry.n, list(label_sets)
    index, sets = {}, np.zeros((len(label_sets), n))  # each distinct name resolves once
    for k, labels in enumerate(label_sets):
        for name in labels:
            if name not in index:
                try:
                    index[name] = registry.index(name)
                except KeyError as exc:
                    raise ValueError(f"label set {k}: {exc.args[0]}") from None
            sets[k, index[name]] = 1.0
    # counts[i, j]: the sets holding both i and j, summed exactly from 0/1 products
    counts = kernels.matmul(sets.T, sets)
    sums = counts.sum(axis=1)
    graph = np.eye(n)
    nonzero = sums > 0
    graph[nonzero] = counts[nonzero] / sums[nonzero, None]
    return graph


@dataclass
class CorrelationMaps:
    """Cosine similarity of novel rows against base rows, before vs after."""

    novel_names: tuple
    base_names: tuple
    before: np.ndarray
    after: np.ndarray

    @property
    def difference(self) -> np.ndarray:
        return self.after - self.before


def _cosine_block(rows, registry: ClassRegistry) -> np.ndarray:
    """Cosines of the novel rows of ``rows`` against its base rows."""
    novel = dm.l2_normalize_rows(rows[registry.novel_indices()], registry.novel)
    base = dm.l2_normalize_rows(rows[registry.base_indices()], registry.base)
    return novel @ base.T


def correlation_map(we_before, we_after, registry: ClassRegistry) -> CorrelationMaps:
    """How the relation stage moved each novel row relative to the base rows."""
    before = dm.as_matrix(we_before)
    after = dm.as_matrix(we_after)
    if before.shape != after.shape:
        raise ValueError(f"shape mismatch: {before.shape} vs {after.shape}")
    if before.shape[0] != registry.n:
        raise ValueError(
            f"embedding rows ({before.shape[0]}) do not match registry size ({registry.n})"
        )
    return CorrelationMaps(
        novel_names=tuple(registry.novel),
        base_names=tuple(registry.base),
        before=_cosine_block(before, registry),
        after=_cosine_block(after, registry),
    )
