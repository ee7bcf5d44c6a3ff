"""Relation stage: identity at init, attention graph structure, ablation
transforms, co-occurrence graphs, and correlation maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semshot import diffmath as dm
from semshot import kernels
from semshot import relation as rel
from semshot.embeddings import ClassRegistry, EmbeddingMatrix, random_embeddings
from semshot.head import HeadConfig, build_head, class_rows, forward_pass, relation_graph


@pytest.fixture
def we():
    reg = ClassRegistry(base=("a", "b", "c"), novel=("d",))
    return random_embeddings(reg, dim=10, seed=1)


def _srr(we, graph_mode="dynamic", seed=0, **kw):
    """An srr head over ``we``; the relation stage is what the tests probe."""
    reg = ClassRegistry(base=("a", "b", "c"), novel=("d",))
    cfg = HeadConfig(mode="srr", graph_mode=graph_mode, d_in=6, d=4, r=4, seed=seed, **kw)
    return build_head(cfg, reg, we)


def test_initialize_shapes_and_warm_start(we):
    maps = rel.init_maps(rel.GraphMode.DYNAMIC, d_e=10, r=4, seed=0)
    assert list(maps) == ["t_f", "t_g", "t_h", "t_l"]
    assert maps["t_f"].value.shape == (10, 4)
    assert maps["t_g"].value.shape == (10, 4)
    assert maps["t_h"].value.shape == (10, 4)
    assert maps["t_l"].value.shape == (4, 10)
    # attention maps start tied, the low-rank output map starts at zero
    np.testing.assert_array_equal(maps["t_f"].value, maps["t_g"].value)
    assert not np.shares_memory(maps["t_f"].value, maps["t_g"].value)
    np.testing.assert_array_equal(maps["t_l"].value, 0.0)
    # the per-row ablation owns only t_h and t_l, drawn with the same bits
    tt = rel.init_maps(rel.GraphMode.TRAINABLE_TRANSFORM, d_e=10, r=4, seed=0)
    assert list(tt) == ["t_h", "t_l"]
    np.testing.assert_array_equal(tt["t_h"].value, maps["t_h"].value)
    for mode in (rel.GraphMode.NONE, rel.GraphMode.HEURISTIC):
        assert rel.init_maps(mode, d_e=10, r=4) == {}


def test_refinement_is_identity_while_t_l_is_zero(we):
    np.testing.assert_array_equal(class_rows(_srr(we, seed=3)), we.matrix)


def test_tied_init_scores_are_gain_times_cosine(we):
    gain = 16.0
    maps = rel.init_maps(rel.GraphMode.DYNAMIC, d_e=300, r=32, seed=0, gain=gain)
    # with tied maps of entry variance s^2, the scaled score for a row against
    # itself concentrates at gain * |e|^2 = gain; check the expectation holds
    reg = ClassRegistry(base=tuple(f"c{i}" for i in range(40)))
    big = random_embeddings(reg, dim=300, seed=5)
    scores = (big.matrix @ maps["t_f"].value) @ (big.matrix @ maps["t_g"].value).T / np.sqrt(32)
    diag = np.diag(scores)[:-1]  # real classes only
    assert abs(diag.mean() - gain) / gain < 0.25


def test_extract_graph_rows_sum_to_one(we):
    head = _srr(we, seed=2)
    rng = np.random.default_rng(0)
    for name in ("t_f", "t_g"):
        p = head.params[name]
        p.value[:] = rng.standard_normal(p.value.shape)
    g = relation_graph(head)
    assert g.shape == (we.n, we.n)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
    assert (g > 0).all()


def test_scaled_flag_divides_scores_by_sqrt_r(we):
    rng = np.random.default_rng(4)
    head = _srr(we)
    for name in ("t_f", "t_g", "t_h"):
        head.params[name].value[:] = rng.standard_normal((10, 4))
    # the graph must not depend on the return map
    head.params["t_l"].value[:] = rng.standard_normal((4, 10))
    q = we.matrix @ head.params["t_f"].value
    k = we.matrix @ head.params["t_g"].value
    want = np.exp((q @ k.T) / 2.0)  # sqrt(r) = 2
    want /= want.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(relation_graph(head), want, atol=1e-12)


def test_relation_forward_matches_manual_composition(we):
    head = _srr(we, seed=6)
    rng = np.random.default_rng(6)
    for name in ("t_f", "t_g", "t_h", "t_l"):
        p = head.params[name]
        p.value[:] = rng.standard_normal(p.value.shape)
    got = class_rows(head)
    g = relation_graph(head)
    want = g @ (we.matrix @ head.params["t_h"].value @ head.params["t_l"].value) + we.matrix
    np.testing.assert_allclose(got, want, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), dupes=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_relation_stage_commutes_bitwise_with_row_permutations_and_duplicates(n, dupes, seed):
    # at the paper's 300-d word vectors; duplicated rows tie in the class order
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 300))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    for _ in range(dupes):
        rows[rng.integers(n)] = rows[rng.integers(n)]
    registry = ClassRegistry(base=tuple(f"c{j}" for j in range(n - 1)))
    head = build_head(HeadConfig(mode="srr", d_in=6, d=4, r=4, seed=seed % 97), registry,
                      EmbeddingMatrix(rows))
    for name in ("t_f", "t_g", "t_h", "t_l"):
        p = head.params[name]
        p.value[:] = rng.normal(0.0, 0.3 if name in ("t_f", "t_g") else 1.0, p.value.shape)
    refined = class_rows(head)
    for i in range(n):
        for j in range(i):
            if np.array_equal(rows[i], rows[j]):
                assert np.array_equal(refined[i], refined[j])
    for _ in range(3):
        perm = rng.permutation(n)
        head.we = EmbeddingMatrix(rows[perm])
        assert np.array_equal(class_rows(head), refined[perm])


def _product(a, b, kernel=kernels.matmul):
    return dm._op(lambda: kernel(a.value, b.value),
                  (a, lambda g, _: g @ b.value.T), (b, lambda g, _: a.value.T @ g))


def _chain(we, t_f, t_g, t_h, t_l):
    """The relation stage as the op-by-op chain it was recorded as before it
    became one op: ten nodes."""
    rows = we.value
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                       kind="stable")
    q, k = _product(we, t_f), _product(we, t_g)
    k_t = dm._op(lambda: np.ascontiguousarray(k.value.T), (k, lambda g, _: g.T))
    raw, c = _product(q, k_t), 1.0 / math.sqrt(t_f.value.shape[1])
    scores = dm._op(lambda: raw.value * c, (raw, lambda g, _: g * c))
    graph = dm._op(lambda: kernels.row_softmax(scores.value), (scores, lambda g, soft: soft * (
        g - (soft * g).sum(axis=1, keepdims=True))))
    transformed = _product(_product(we, t_h), t_l)
    mixed = _product(graph, transformed, lambda a, b: kernels.mix_matmul(a, b, order))
    return dm._op(lambda: mixed.value + we.value, (mixed, lambda g, _: g), (we, lambda g, _: g))


def _stage(we, t_f, t_g, t_h, t_l):
    return rel.relation_forward_t(we, {"t_f": t_f, "t_g": t_g, "t_h": t_h, "t_l": t_l})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), d_e=st.one_of(st.integers(1, 12), st.just(300)),
       r=st.one_of(st.integers(1, 5), st.just(32)), dupes=st.integers(0, 3),
       we_trains=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_one_op_stage_equals_the_op_by_op_chain_bit_for_bit(n, d_e, r, dupes, we_trains,
                                                                seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d_e))
    for _ in range(dupes):  # repeated rows tie in the class order
        rows[rng.integers(n)] = rows[rng.integers(n)]
    maps = [rng.standard_normal(shape) for shape in ((d_e, r),) * 3 + ((r, d_e),)]
    target = rng.standard_normal((n, d_e))
    got = []
    for build in (_stage, _chain):
        tape = dm.Tape()
        we_p = dm.Param("we", rows)
        params = [dm.Param(name, m) for name, m in zip(("t_f", "t_g", "t_h", "t_l"), maps)]
        we_t = tape.param(we_p) if we_trains else tape.leaf(rows)
        out = build(we_t, *map(tape.param, params))
        dm.squared_error_cols(out, target).backward()
        got.append([a.tobytes() for a in [out.value, we_p.grad, *(p.grad for p in params)]])
    assert got[0] == got[1]


def test_trainable_transform_has_no_cross_row_mixing(we):
    head = _srr(we, graph_mode="tt", seed=7)
    rng = np.random.default_rng(7)
    th, tl = head.params["t_h"].value, head.params["t_l"].value
    th[:] = rng.standard_normal(th.shape)
    tl[:] = rng.standard_normal(tl.shape)
    got = class_rows(head)
    want = we.matrix @ th @ tl + we.matrix
    np.testing.assert_allclose(got, want, atol=1e-12)
    # changing one input row must not move any other output row
    bumped = we.matrix.copy()
    bumped[2] += 0.5
    head.we = EmbeddingMatrix(bumped)
    got2 = class_rows(head)
    others = [i for i in range(we.n) if i != 2]
    np.testing.assert_array_equal(got[others], got2[others])


def test_every_graph_mode_has_one_stage_record():
    assert set(rel.STAGES) == set(rel.GraphMode)
    for mode, stage in rel.STAGES.items():
        # the record's maps are the ones its init draws, in checkpoint order
        assert list(rel.init_maps(mode, d_e=10, r=4)) == list(stage.maps)
        # a stage that reads a frozen graph has a class graph to export
        assert not stage.frozen or stage.graph is not None
    assert [m for m, s in rel.STAGES.items() if rel.GRAPH in s.frozen] == [rel.GraphMode.HEURISTIC]


@pytest.mark.parametrize("graph_mode, calls", [("dynamic", 1), ("tt", 0)])
def test_the_dynamic_stage_calls_relation_forward_t_through_the_module(
        we, monkeypatch, graph_mode, calls):
    # a wrapper bound to the module attribute, as the benchmark's tracer binds
    # one, must see every dynamic forward: the record looks the op up per call
    seen, real = [], rel.relation_forward_t
    monkeypatch.setattr(rel, "relation_forward_t", lambda *a: seen.append(1) or real(*a))
    head = _srr(we, graph_mode=graph_mode, seed=2)
    forward_pass(head, np.random.default_rng(2).standard_normal((6, 3)))
    assert len(seen) == calls


def test_cooccurrence_graph_counts_and_identity_fallback():
    reg = ClassRegistry(base=("a", "b"), novel=("c",))
    g = rel.cooccurrence_graph([["a", "b"], ["a", "b"], ["a"]], reg)
    # a: 3 self + 2 with b -> row [3/5, 2/5, 0, 0]
    np.testing.assert_allclose(g[0], [0.6, 0.4, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g[1], [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    # classes never seen keep an identity row
    np.testing.assert_array_equal(g[2], [0.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(g[3], [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-15)
    with pytest.raises(ValueError, match="label set 0"):
        rel.cooccurrence_graph([["zebra"]], reg)


def _pairwise_counts(label_sets, registry) -> np.ndarray:
    """Co-occurrence counts by a loop over each set's pairs of distinct classes."""
    counts = np.zeros((registry.n, registry.n))
    for labels in label_sets:
        idx = sorted({registry.index(name) for name in labels})
        for i in idx:
            counts[i, i] += 1.0
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                counts[idx[a], idx[b]] += 1.0
                counts[idx[b], idx[a]] += 1.0
    return counts


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cooccurrence_graph_matches_the_pairwise_loop_bit_for_bit(data):
    n_base, n_novel = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
    reg = ClassRegistry.numbered(n_base, n_novel)
    # any spelling of a name resolves to its class, repeats included
    spellings = [s for name in reg.names for s in (name, name.upper())]
    label_sets = data.draw(st.lists(st.lists(st.sampled_from(spellings), max_size=6),
                                    max_size=8))
    counts = _pairwise_counts(label_sets, reg)
    sums = counts.sum(axis=1)
    want = np.eye(reg.n)
    want[sums > 0] = counts[sums > 0] / sums[sums > 0, None]
    np.testing.assert_array_equal(rel.cooccurrence_graph(label_sets, reg), want)


def test_correlation_map_cosines_and_difference(we):
    reg = ClassRegistry(base=("a", "b", "c"), novel=("d",))
    after = we.matrix.copy()
    after[3] = we.matrix[0]  # move the novel row onto base row 0
    cm = rel.correlation_map(we.matrix, after, reg)
    assert cm.base_names == ("a", "b", "c")
    assert cm.novel_names == ("d",)
    assert cm.after[0, 0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        cm.difference, cm.after - cm.before, atol=0
    )


@pytest.mark.parametrize("edit, base, message", [
    pytest.param(lambda m: m[:2], ("a", "b", "c"), r"shape mismatch: \(5, 10\) vs \(2, 10\)",
                 id="shape"),
    pytest.param(lambda m: m, ("a", "b"),
                 r"embedding rows \(5\) do not match registry size \(4\)", id="registry"),
    pytest.param(lambda m: m * [[1.0], [0.0], [1.0], [1.0], [1.0]], ("a", "b", "c"),
                 r"cannot normalize zero rows \['b'\]", id="zero_norm_row"),
])
def test_correlation_map_rejects_rows_it_cannot_compare(we, edit, base, message):
    reg = ClassRegistry(base=base, novel=("d",))
    with pytest.raises(ValueError, match=message):
        rel.correlation_map(we.matrix, edit(we.matrix), reg)
