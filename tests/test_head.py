"""Head construction, class-score formulas, class expansion, and checkpoints."""

import copy
import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semshot import relation as rel
from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.evaluation import evaluate
from semshot.head import (
    HeadConfig,
    HeadMode,
    attach_heuristic_graph,
    batch_forward,
    build_head,
    class_rows,
    class_scores,
    decouple_trunks,
    expand_classes,
    forward_pass,
    head_from_state,
    head_state,
    load_head,
    relation_graph,
    save_head,
    switch_graph_mode,
    trunk_features,
)
from semshot.pipeline import bundled_benchmark
from semshot.records import FeatureSet

from conftest import make_head


@pytest.fixture
def base_reg():
    return ClassRegistry(base=("cat", "dog", "cow"))


@pytest.fixture
def full_reg():
    return ClassRegistry(base=("cat", "dog", "cow"), novel=("fox", "owl"))


def test_build_head_validation(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=0)
    with pytest.raises(ValueError, match="needs an embedding matrix"):
        build_head(HeadConfig(mode="ssp"), base_reg, None)
    small = ClassRegistry(base=("cat",))
    with pytest.raises(ValueError, match="do not match"):
        build_head(HeadConfig(mode="ssp"), small, we)
    with pytest.raises(ValueError, match="requires mode"):
        HeadConfig(mode="ssp", graph_mode="dynamic")
    with pytest.raises(ValueError, match="graph mode 'none' conflicts with mode 'srr'"):
        HeadConfig(mode="srr", graph_mode="none")
    for gain in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=re.escape(
                f"attention_gain must be finite and in [0, inf), got {gain}")):
            HeadConfig(mode="srr", attention_gain=gain)
    # srr defaults its graph stage to dynamic
    assert HeadConfig(mode="srr").graph_mode is rel.GraphMode.DYNAMIC
    assert HeadConfig(mode="ssp").graph_mode is rel.GraphMode.NONE


@pytest.mark.parametrize("field,value", [("d_in", 0), ("d", 0), ("r", 0), ("r", -3)])
def test_head_config_rejects_dimensions_below_one(field, value):
    with pytest.raises(ValueError, match=re.escape(
            f"head dimension {field} must be finite and in [1, inf), got {value}")):
        HeadConfig(mode="srr", **{field: value})


@pytest.mark.parametrize("field,value,message", [
    ("d", True, "head dimension d must be finite and in [1, inf), got True"),
    ("seed", -1, "seed must be finite and in [0, inf), got -1"),
    ("seed", 2.0, "seed must be finite and in [0, inf), got 2.0"),
])
def test_head_config_rejects_a_bool_dimension_and_a_seed_that_is_no_count(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        HeadConfig(mode="srr", **{field: value})


def test_baseline_logits_are_linear_scores(base_reg):
    head = make_head("baseline", base_reg, d=8)
    v = np.random.default_rng(0).standard_normal((8, 1))
    got = class_scores(head, v)
    want = (head.params["W"].value @ v + head.params["b"].value).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_array_equal(class_scores(head, v.reshape(-1)), got)
    with pytest.raises(ValueError, match=r"expected a \(8,\) feature vector, got shape \(7, 1\)"):
        class_scores(head, v[:7])


def test_ssp_logits_project_into_embedding_space(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=1)
    head = make_head("ssp", base_reg, we, d=8)
    v = np.random.default_rng(1).standard_normal((8, 1))
    got = class_scores(head, v)
    want = (we.matrix @ head.params["P"].value @ v + head.params["b"].value).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_array_equal(class_rows(head), we.matrix)


def test_srr_logits_use_refined_rows(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=2)
    head = make_head("srr", base_reg, we, d=8, r=4)
    rng = np.random.default_rng(2)
    for name in ("t_f", "t_g", "t_h", "t_l"):
        head.params[name].value[:] = rng.standard_normal(head.params[name].value.shape)
    v = rng.standard_normal((8, 1))
    got = class_scores(head, v)
    w = we.matrix
    tf, tg, th, tl = (head.params[n].value for n in ("t_f", "t_g", "t_h", "t_l"))
    scores = (w @ tf) @ (w @ tg).T / 2.0  # sqrt(r) = 2
    g = np.exp(scores - scores.max(axis=1, keepdims=True))
    g /= g.sum(axis=1, keepdims=True)
    refined = g @ (w @ th @ tl) + w
    np.testing.assert_allclose(class_rows(head), refined, atol=1e-10)
    want = (refined @ head.params["P"].value @ v + head.params["b"].value).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_heuristic_graph_mode_mixes_rows_with_fixed_graph(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=3)
    head = make_head("srr", base_reg, we, graph_mode="heuristic", d=8)
    v = np.random.default_rng(3).standard_normal((8, 1))
    with pytest.raises(ValueError, match="without an attached"):
        class_scores(head, v)
    with pytest.raises(ValueError, match="no relation graph"):
        relation_graph(head)
    g = np.full((4, 4), 0.25)
    attach_heuristic_graph(head, g)
    assert relation_graph(head) is head.g_heur
    got = class_scores(head, v)
    want = (g @ we.matrix @ head.params["P"].value @ v + head.params["b"].value).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError, match="does not match"):
        attach_heuristic_graph(head, np.eye(3))


def test_tt_mode_registers_only_the_per_row_maps(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=4)
    head = make_head("srr", base_reg, we, graph_mode="tt", d=8, r=4)
    assert "t_h" in head.params and "t_l" in head.params
    assert "t_f" not in head.params and "t_g" not in head.params


def test_ssp_expansion_keeps_base_scores_bit_identical(base_reg, full_reg):
    we_full = random_embeddings(full_reg, dim=6, seed=5)
    base_rows = list(range(3)) + [full_reg.background_index]
    head = make_head("ssp", base_reg, we_full.select_rows(base_rows), d=8)
    rng = np.random.default_rng(5)
    vs = rng.standard_normal((8, 20))
    before = np.stack([class_scores(head, vs[:, [i]]) for i in range(20)])
    expand_classes(head, full_reg, we_full)
    after = np.stack([class_scores(head, vs[:, [i]]) for i in range(20)])
    assert head.n_classes == 6
    assert np.array_equal(before[:, :3], after[:, :3])
    # the background score is also untouched, it just moved to the last slot
    assert np.array_equal(before[:, 3], after[:, 5])


def test_expansion_validates_registry_shape(base_reg, full_reg):
    we_full = random_embeddings(full_reg, dim=6, seed=6)
    base_rows = list(range(3)) + [full_reg.background_index]
    head = make_head("ssp", base_reg, we_full.select_rows(base_rows), d=8)
    with pytest.raises(ValueError, match="shape"):
        expand_classes(head, full_reg, we_full.select_rows([0]))
    with pytest.raises(ValueError, match="needs an embedding matrix"):
        expand_classes(head, full_reg)
    other = ClassRegistry(base=("cat", "dog", "pig"), novel=("fox", "owl"))
    with pytest.raises(ValueError, match="same base"):
        expand_classes(head, other, we_full)
    expand_classes(head, ClassRegistry(base=base_reg.base, novel=("fox",)),
                   we_full.select_rows([0, 1, 2, 3, 5]))
    reordered = ClassRegistry(base=base_reg.base, novel=("owl", "fox"))
    with pytest.raises(ValueError, match="in order"):
        expand_classes(head, reordered, we_full)
    # a registry that adds nothing leaves the head as it is
    before = head_state(head)
    assert expand_classes(head, head.registry) is head
    assert head_state(head) == before


def test_baseline_expansion_matches_trained_row_scale(base_reg, full_reg):
    head = make_head("baseline", base_reg, d=8)
    rng = np.random.default_rng(7)
    head.params["W"].value[:3] *= 5.0  # pretend training grew the real rows
    head.params["b"].value[:3, 0] = rng.normal(0.0, 0.1, 3)
    w_before = head.params["W"].value.copy()
    b_before = head.params["b"].value.copy()
    rms = float(np.sqrt((w_before[:3] ** 2).mean()))
    expand_classes(head, full_reg, seed=1)
    w = head.params["W"].value
    b = head.params["b"].value
    assert w.shape == (6, 8)
    np.testing.assert_array_equal(w[:3], w_before[:3])
    np.testing.assert_array_equal(w[5], w_before[3])  # background row moved last
    new_rms = float(np.sqrt((w[3:5] ** 2).mean()))
    assert abs(new_rms - rms) / rms < 0.5  # fresh rows drawn at the trained scale
    # fresh biases start at the mean of the existing class biases
    np.testing.assert_allclose(b[3:5, 0], b_before[:3, 0].mean(), atol=1e-12)


def test_expansion_drops_stale_heuristic_graph(base_reg, full_reg):
    we_full = random_embeddings(full_reg, dim=6, seed=8)
    base_rows = list(range(3)) + [full_reg.background_index]
    head = make_head("srr", base_reg, we_full.select_rows(base_rows),
                     graph_mode="heuristic", d=8)
    attach_heuristic_graph(head, np.full((4, 4), 0.25))
    expand_classes(head, full_reg, we_full)
    assert head.g_heur is None  # must be re-attached at the new class count


@pytest.mark.parametrize("graph", ["dynamic", "tt"])
def test_switch_graph_mode_upgrades_ssp_to_identity_relation_stage(base_reg, graph):
    we = random_embeddings(base_reg, dim=6, seed=12)
    head = make_head("ssp", base_reg, we, d=8, r=4, attention_gain=4.0)
    v = np.random.default_rng(12).standard_normal((8, 1))
    before = class_scores(head, v)
    old = {n: p.value.copy() for n, p in head.params.items()}
    switch_graph_mode(head, graph, seed=3)
    assert (head.mode, head.cfg.graph_mode) == (HeadMode.SRR, rel.GraphMode(graph))
    maps = rel.init_maps(head.cfg.graph_mode, 6, 4, seed=3, gain=4.0)
    assert list(head.params) == list(old) + list(maps)  # appended after the old ones
    for name, p in maps.items():
        np.testing.assert_array_equal(head.params[name].value, p.value)
    for name, value in old.items():
        np.testing.assert_array_equal(head.params[name].value, value)
    # t_l = 0: the new stage starts as the identity
    np.testing.assert_allclose(class_scores(head, v), before, atol=1e-12)
    assert switch_graph_mode(head, graph, seed=3) is head  # same stage: no change
    with pytest.raises(ValueError, match="already has relation stage"):
        switch_graph_mode(head, "heuristic")
    ssp = make_head("ssp", base_reg, we, d=8)
    switch_graph_mode(ssp, "none")
    assert ssp.mode is HeadMode.SSP
    with pytest.raises(ValueError, match="baseline heads have no relation stage"):
        switch_graph_mode(make_head("baseline", base_reg, d=8), graph)


def test_decouple_splits_trunks_and_group_names(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=9)
    head = make_head("ssp", base_reg, we, d=8)
    shared = {n: head.params["trunk_" + n].value.copy() for n in ("w1", "b1", "w2", "b2")}
    decouple_trunks(head)
    assert head.cfg.decoupled
    for branch in ("cls", "reg"):
        for n, val in shared.items():
            np.testing.assert_array_equal(head.params[f"{branch}_trunk_{n}"].value, val)
    groups = head.param_groups()
    assert set(groups) >= {"cls_trunk", "reg_trunk", "trunk"}
    with pytest.raises(ValueError, match="already decoupled"):
        decouple_trunks(head)


def test_forward_pass_rejects_wrong_feature_dim(base_reg):
    head = make_head("baseline", base_reg, d_in=10)
    with pytest.raises(ValueError, match="d_in"):
        forward_pass(head, np.zeros((7, 2)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda head: head.set_trainable(["W", "bogus"]),
                 "unknown parameter names: ['bogus']", id="set_trainable_unknown_name"),
    pytest.param(lambda head: batch_forward(head, _episode_data(head, 4, False, 0),
                                            np.zeros(4, dtype=np.intp), []),
                 "empty batch", id="batch_forward_empty_batch"),
])
def test_a_head_rejects_a_bad_request_unchanged(base_reg, call, message):
    head = make_head("baseline", base_reg)
    trainable = head.trainable_names()
    with pytest.raises(ValueError, match=re.escape(message)):
        call(head)
    assert head.trainable_names() == trainable


@pytest.mark.parametrize("mode,graph", [("baseline", "none"), ("ssp", "none"), ("srr", "dynamic")])
def test_forward_backward_leaves_nothing_for_the_cyclic_collector(base_reg, mode, graph):
    # a replayed tape drops its closures, so a step's arrays are freed by
    # reference counting as soon as the step's result goes
    we = random_embeddings(base_reg, dim=6, seed=15)
    head = make_head(mode, base_reg, we, graph_mode=graph, d_in=10, d=8, r=4)
    rng = np.random.default_rng(15)
    x, y, reg = rng.standard_normal((10, 5)), rng.integers(0, 4, 5), rng.standard_normal((4, 5))

    def step():
        forward_pass(head, x, labels=y, reg_targets=reg).loss.backward()
        return {name: p.grad.copy() for name, p in head.params.items()}

    first = step()
    gc.collect()
    gc.disable()
    try:
        again = step()
        assert gc.collect() == 0
    finally:
        gc.enable()
    for name, grad in first.items():
        np.testing.assert_array_equal(again[name], grad)


@pytest.mark.parametrize("question", [
    lambda head, x: forward_pass(head, x).logits.value,
    lambda head, x: class_scores(head, x[:head.cfg.d, :1]),
    lambda head, x: class_rows(head),
    lambda head, x: relation_graph(head),
], ids=["forward_pass", "class_scores", "class_rows", "relation_graph"])
def test_forward_only_passes_leave_nothing_for_the_cyclic_collector(question):
    # a pass without targets runs on a tape that records nothing, so nothing
    # it builds waits for the cyclic collector
    cfg = bundled_benchmark()
    registry = cfg.registry()
    head = make_head("srr", registry, random_embeddings(registry, dim=cfg.d_e, seed=17),
                     d_in=cfg.d_in, d=cfg.d, r=cfg.r)
    x = np.random.default_rng(17).standard_normal((cfg.d_in, 25))
    first = question(head, x)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            again = question(head, x)
        assert gc.collect() == 0
    finally:
        gc.enable()
    np.testing.assert_array_equal(again, first)


def _episode_data(head, n, with_reg, seed):
    rng = np.random.default_rng(seed)
    names = head.registry.names
    return FeatureSet([f"r{i}" for i in range(n)], [names[i % len(names)] for i in range(n)],
                      rng.standard_normal((head.cfg.d_in, n)),
                      rng.standard_normal((4, n)) if with_reg else None)


def _step_outputs(head, data, y, cols, trunk):
    result = batch_forward(head, data, y, cols, reg_weight=0.5, trunk=trunk)
    losses = [result.loss.item(), result.loss_cls, result.loss_reg]
    result.loss.backward()
    grads = {name: p.grad.copy() for name, p in head.params.items() if p.trainable}
    return result.logits.value, losses, grads


@pytest.mark.parametrize("mode,graph,decoupled", [
    ("baseline", "none", False), ("ssp", "none", False), ("srr", "dynamic", False),
    ("srr", "tt", False), ("srr", "heuristic", False), ("srr", "dynamic", True),
])
@pytest.mark.parametrize("n,cols,with_reg", [
    (9, [4, 0, 4, 8, 2], True), (9, [3], True), (9, [1, 5], False), (1, [0], True),
    (1, [0, 0, 0], True),
])
def test_batch_forward_from_the_trunk_cache_is_bit_exact(
        full_reg, mode, graph, decoupled, n, cols, with_reg):
    we = random_embeddings(full_reg, dim=6, seed=18)
    head = make_head(mode, full_reg, we, graph_mode=graph, d_in=10, d=8, r=4,
                     decoupled=decoupled)
    if graph == "heuristic":
        attach_heuristic_graph(head, np.full((6, 6), 1.0 / 6))
    rng = np.random.default_rng(18)
    for p in head.params.values():
        p.value[:] = rng.normal(0.0, 0.5, p.value.shape)
    head.set_trainable(head.resolve_groups([g for g in ("W", "P", "relation", "b")
                                            if g in head.param_groups()]))
    data = _episode_data(head, n, with_reg, seed=n)
    y = data.label_indices(head.registry)
    cols = np.array(cols)
    logits, losses, grads = _step_outputs(head, data, y, cols, None)
    trunk = trunk_features(head, data)
    assert trunk.v.shape == (8, n) and (trunk.pred is None) is (not with_reg)
    c_logits, c_losses, c_grads = _step_outputs(head, data, y, cols, trunk)
    np.testing.assert_array_equal(c_logits, logits)
    assert c_losses == losses
    assert grads.keys() == c_grads.keys() and grads
    for name, grad in grads.items():
        np.testing.assert_array_equal(c_grads[name], grad)


@pytest.mark.parametrize("mode,graph", [
    ("baseline", "none"), ("ssp", "none"), ("srr", "dynamic"), ("srr", "tt"),
])
def test_checkpoint_round_trip_is_bit_exact(base_reg, tmp_path, mode, graph):
    we = random_embeddings(base_reg, dim=6, seed=10)
    head = make_head(mode, base_reg, we, graph_mode=graph, d_in=10, d=8, r=4)
    rng = np.random.default_rng(10)
    for p in head.params.values():
        p.value[:] = rng.standard_normal(p.value.shape)
    path = tmp_path / "head.json"
    save_head(head, path)
    back = load_head(path)
    assert back.cfg == head.cfg
    assert back.registry == head.registry
    assert back.param_hash() == head.param_hash()
    assert back.we_hash() == head.we_hash()
    if mode == "srr" and graph == "dynamic":
        np.testing.assert_array_equal(relation_graph(back), relation_graph(head))
        x = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(
            forward_pass(back, x).logits.value, forward_pass(head, x).logits.value
        )


def test_checkpoint_keeps_heuristic_graph(base_reg, tmp_path):
    we = random_embeddings(base_reg, dim=6, seed=11)
    head = make_head("srr", base_reg, we, graph_mode="heuristic", d=8)
    attach_heuristic_graph(head, np.full((4, 4), 0.25))
    path = tmp_path / "head.json"
    save_head(head, path)
    back = load_head(path)
    np.testing.assert_array_equal(back.g_heur, head.g_heur)


def test_state_dict_rejects_unknown_format(base_reg):
    head = make_head("baseline", base_reg)
    state = head_state(head)
    state["format"] = "something-else"
    with pytest.raises(ValueError, match="format"):
        head_from_state(state)


def test_checkpoint_rejects_truncated_projection(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=12)
    state = head_state(make_head("ssp", base_reg, we, d=8))
    state["params"]["P"] = state["params"]["P"][:3]
    with pytest.raises(ValueError, match=r"'P': expected shape \(6, 8\), found shape \(3, 8\)"):
        head_from_state(state)


def test_checkpoint_rejects_extra_and_missing_parameters(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=13)
    state = head_state(make_head("srr", base_reg, we, d=8, r=4))
    state["params"]["bogus"] = [[0.0, 1.0]]
    state["trainable"]["bogus"] = True
    with pytest.raises(ValueError, match=r"'bogus': expected no such parameter, found shape \(1, 2\)"):
        head_from_state(state)
    del state["params"]["bogus"], state["params"]["t_l"]
    with pytest.raises(ValueError, match=r"'t_l': expected shape \(4, 6\), found no such parameter"):
        head_from_state(state)


def test_checkpoint_rejects_heuristic_graph_of_wrong_size(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=14)
    head = make_head("srr", base_reg, we, graph_mode="heuristic", d=8)
    attach_heuristic_graph(head, np.full((4, 4), 0.25))
    state = head_state(head)
    state["g_heur"] = [row[:3] for row in state["g_heur"][:3]]
    with pytest.raises(ValueError, match=r"expected shape \(4, 4\), found shape \(3, 3\)"):
        head_from_state(state)


def test_checkpoint_carries_a_graph_exactly_for_heuristic_heads(base_reg):
    we = random_embeddings(base_reg, dim=6, seed=14)
    head = make_head("srr", base_reg, we, graph_mode="heuristic", d=8)
    attach_heuristic_graph(head, np.full((4, 4), 0.25))
    state = head_state(head)
    del state["g_heur"]
    with pytest.raises(ValueError, match="checkpoint field 'g_heur' is missing"):
        head_from_state(state)
    state["g_heur"] = None
    with pytest.raises(ValueError, match="'g_heur' must be a matrix for graph mode 'heuristic'"):
        head_from_state(state)
    ssp = head_state(make_head("ssp", base_reg, we, d=8))
    ssp["g_heur"] = np.full((4, 4), 0.25).tolist()
    with pytest.raises(ValueError, match="'g_heur' must be null for graph mode 'none'"):
        head_from_state(ssp)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("question,name", [
    (lambda head: class_scores(head, np.ones(head.cfg.d)), "P"),
    (class_rows, "t_l"),
    (relation_graph, "t_f"),
    (lambda head: evaluate(head, _episode_data(head, 6, False, 18)), "P"),
], ids=["class_scores", "class_rows", "relation_graph", "evaluate"])
def test_non_finite_scores_raise_naming_the_largest_parameter(base_reg, question, name):
    # every value finite, but large enough that the scores overflow
    head = make_head("srr", base_reg, random_embeddings(base_reg, dim=6, seed=18),
                     graph_mode="dynamic", d=8, r=4)
    head.params[name].value[:] = np.finfo(np.float64).max
    with pytest.raises(FloatingPointError, match=f"non-finite value; all head parameters are "
                                                 f"finite; the largest is '{name}'"):
        question(head)


@pytest.mark.parametrize("edit,message", [
    (lambda s: s.pop("seed"), "checkpoint field 'seed' is missing"),
    (lambda s: s["dims"].pop("r"), "checkpoint field 'dims.r' is missing"),
    (lambda s: s.update(dims=[8, 8, 4]), "checkpoint field 'dims' must be an object, got a list"),
    (lambda s: s.update(seed=True), "'seed' must be an integer, got true or false"),
    (lambda s: s.update(attention_gain="16"), "'attention_gain' must be an integer or a number"),
    (lambda s: s["trainable"].update(P=1), "'trainable.P' must be true or false, got an integer"),
    (lambda s: s["we"].pop("hash"), "checkpoint field 'we.hash' is missing"),
    (lambda s: s.update(we=[]), "'we' must be an object or null, got a list"),
    (lambda s: s.update(we=None), "checkpoint field 'we' must be an object for mode 'ssp'"),
    (lambda s: s["we"]["matrix"].pop(), r"checkpoint field 'we\.matrix': expected 4 rows, found 3"),
    (lambda s: s["we"].update(hash="0" * 64),
     r"checkpoint field 'we\.hash' does not match 'we\.matrix'"),
    (lambda s: s.pop("param_hash"), "checkpoint field 'param_hash' is missing"),
    (lambda s: s.update(param_hash="0" * 64),
     "checkpoint field 'param_hash' does not match 'params'"),
    (lambda s: s.update(mode="bogus"),
     "checkpoint field 'mode' must be one of baseline, ssp, srr, got 'bogus'"),
    (lambda s: s.update(graph_mode=3), "'graph_mode' must be a string, got an integer"),
    (lambda s: s.update(graph_mode="graph"),
     "checkpoint field 'graph_mode' must be one of none, dynamic, heuristic, tt, got 'graph'"),
])
def test_checkpoint_names_a_missing_or_mistyped_field(base_reg, edit, message):
    state = head_state(make_head("ssp", base_reg, random_embeddings(base_reg, dim=6, seed=16)))
    edit(state)
    with pytest.raises(ValueError, match=message):
        head_from_state(state)


def _checkpoint_states() -> list:
    """head_state of small heads: every mode and graph mode, a decoupled one
    and a heuristic one with its graph, over a registry with a token override."""
    registry = ClassRegistry(base=("cat", "dog"), novel=("red fox",),
                             tokens={"red fox": ["fox"]})
    we = random_embeddings(registry, dim=5, seed=19)
    heads = [make_head("baseline", registry, d=4),
             make_head("ssp", registry, we, d=4, decoupled=True),
             make_head("srr", registry, we, graph_mode="dynamic", d=4, r=2),
             make_head("srr", registry, we, graph_mode="tt", d=4, r=2),
             make_head("srr", registry, we, graph_mode="heuristic", d=4)]
    attach_heuristic_graph(heads[-1], np.full((4, 4), 0.25))
    return [head_state(h) for h in heads]


_STATES = _checkpoint_states()
_STATE_HASHES = [head_from_state(copy.deepcopy(s)).param_hash() for s in _STATES]
_OTHER_TYPES = ["text", 7, 2.5, True, None, {}, ["text"]]


def _field_paths(state) -> list:
    """Every top-level field and every field of an object-valued one."""
    return [(key,) for key in state] + [(key, sub) for key, value in state.items()
                                        if isinstance(value, dict) for sub in value]


def _is_matrix(path, value) -> bool:
    matrix_field = path[0] in ("params", "g_heur") or path == ("we", "matrix")
    return matrix_field and isinstance(value, list)


def _reshaped(m) -> list:
    """``m`` with one row or column fewer, a row more, a ragged row, one more
    nesting level, and flattened."""
    return [m[:-1], [r[:-1] for r in m], m + [m[-1]], [m[0][:-1]] + m[1:], [m],
            [x for r in m for x in r]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_corrupted_checkpoint_names_the_field_or_loads_unchanged(data):
    # one field of a valid checkpoint deleted, given another JSON type,
    # reshaped or made non-finite: the load either fails naming that field
    # or yields the same parameters
    which = data.draw(st.integers(0, len(_STATES) - 1))
    state = copy.deepcopy(_STATES[which])
    path = data.draw(st.sampled_from(_field_paths(state)))
    holder = state if len(path) == 1 else state[path[0]]
    key, value = path[-1], holder[path[-1]]
    matrix = _is_matrix(path, value)
    kinds = ["delete", "retype"]
    if matrix or type(value) in (int, float):
        kinds.append("non-finite")
    if matrix:
        kinds.append("reshape")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "delete":
        del holder[key]
    elif kind == "retype":
        others = [v for v in _OTHER_TYPES if type(v) is not type(value)]
        holder[key] = copy.deepcopy(data.draw(st.sampled_from(others)))
    elif kind == "reshape":
        holder[key] = data.draw(st.sampled_from(_reshaped(value)))
    else:
        bad = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        if matrix:
            row = value[data.draw(st.integers(0, len(value) - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] = bad
        else:
            holder[key] = bad
    name = ".".join(path)
    try:
        head = head_from_state(state)
    except ValueError as exc:
        assert name in str(exc) or f"'{key}'" in str(exc), (kind, name, str(exc))
    else:
        assert head.param_hash() == _STATE_HASHES[which], (kind, name)
        # a heuristic head keeps its graph, and no other head gains one
        assert (head.g_heur is not None) == (head.cfg.graph_mode is rel.GraphMode.HEURISTIC)
