"""Hypernym graph parsing and hyponym closures."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from semshot.wordnet import (
    RemovalManifest,
    bundled_voc_manifest,
    emit_removal_list,
    hyponym_closure,
    load_hypernym_edges,
    manifest_from_graph,
    parse_hypernym_edges,
)


def graph_of(text):
    return parse_hypernym_edges(io.StringIO(text))


CHAIN = "n00000001\tn00000002\nn00000002\tn00000003\n"
DIAMOND = (
    "n00000001\tn00000002\n"
    "n00000001\tn00000003\n"
    "n00000002\tn00000004\n"
    "n00000003\tn00000004\n"
)


def test_parse_basic_graph():
    g = graph_of("# comment\n\n" + CHAIN)
    assert g.nodes == {"n00000001", "n00000002", "n00000003"}
    assert g.children_of("n00000001") == ("n00000002",)
    assert g.children_of("n00000003") == ()
    assert not g.cyclic


def test_parse_collapses_duplicate_edges():
    g = graph_of(CHAIN + "n00000001\tn00000002\n")
    assert g.children_of("n00000001") == ("n00000002",)


@pytest.mark.parametrize("bad,msg", [
    ("n00000001 n00000002\n", "line 1: expected"),
    ("n00000001\tn00000002\tn00000003\n", "line 1: expected"),
    ("n00000001\tx2\n", "malformed synset id 'x2'"),
    ("n123\tn00000002\n", "malformed synset id 'n123'"),
    ("n00000001\tn00000001\n", "self-edge"),
])
def test_parse_rejects_malformed_lines(bad, msg):
    with pytest.raises(ValueError, match=msg):
        graph_of(bad)


def test_parse_reports_correct_line_number():
    with pytest.raises(ValueError, match="line 4"):
        graph_of("# header\n\n" + CHAIN.splitlines()[0] + "\nnope\n")


def test_cycle_is_flagged_and_closure_still_terminates():
    g = graph_of(CHAIN + "n00000003\tn00000001\n")
    assert g.cyclic
    closure = hyponym_closure(g, ["n00000002"])
    assert closure == ["n00000001", "n00000002", "n00000003"]
    assert not graph_of(DIAMOND).cyclic  # shared descendant is not a cycle


def test_closure_on_chain_and_diamond():
    chain = graph_of(CHAIN)
    assert hyponym_closure(chain, ["n00000001"]) == [
        "n00000001", "n00000002", "n00000003"
    ]
    assert hyponym_closure(chain, ["n00000003"]) == ["n00000003"]
    diamond = graph_of(DIAMOND)
    assert hyponym_closure(diamond, ["n00000002"]) == ["n00000002", "n00000004"]
    assert hyponym_closure(diamond, ["n00000002", "n00000003"]) == [
        "n00000002", "n00000003", "n00000004"
    ]


def test_closure_rejects_unknown_roots():
    with pytest.raises(ValueError, match="'n99999999' is not a node"):
        hyponym_closure(graph_of(CHAIN), ["n99999999"])


def test_load_from_file(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text(CHAIN, encoding="utf-8")
    g = load_hypernym_edges(path)
    assert g.nodes == {"n00000001", "n00000002", "n00000003"}


def test_manifest_sorts_and_dedups():
    m = RemovalManifest(classes={"cat": ("n00000002", "n00000001", "n00000002")})
    assert m.classes["cat"] == ("n00000001", "n00000002")


def test_manifest_from_graph_and_text_output():
    g = graph_of(DIAMOND)
    m = manifest_from_graph(g, {"b": ["n00000002"], "a": ["n00000003"]})
    text = emit_removal_list(m, fmt="text")
    assert text == (
        "a: n00000003, n00000004\n"
        "b: n00000002, n00000004\n"
    )
    blob = json.loads(emit_removal_list(m, fmt="json"))
    assert blob["classes"]["a"] == ["n00000003", "n00000004"]
    assert blob["provenance"] == "computed"
    with pytest.raises(ValueError, match="unknown format"):
        emit_removal_list(m, fmt="yaml")
    assert emit_removal_list(RemovalManifest(classes={}), fmt="text") == ""


def test_bundled_manifest_covers_the_standard_holdout():
    m = bundled_voc_manifest()
    assert len(m.classes) == 11
    assert m.provenance == "bundled-golden"
    assert m.classes["horse"] == ("n02389026", "n02391049")
    text = emit_removal_list(m, fmt="text")
    assert "cow: n02403003, n02408429, n02410509\n" in text
    assert text.endswith("sofa: n04344873\n")


_synsets = st.integers(0, 12).map(lambda i: f"n{i:08d}")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_synsets, _synsets).filter(lambda e: e[0] != e[1]), max_size=30),
       st.data())
def test_parse_returns_exactly_the_deduplicated_edges(edges, data):
    lines = []
    for parent, child in edges:
        # comments and blank lines may sit anywhere and carry no edges
        lines.append(data.draw(st.sampled_from(["", "# note", "   "])))
        lines.append(f"{parent}\t{child}")
    g = graph_of("\n".join(lines) + "\n")
    want = {}
    for parent, child in dict.fromkeys(edges):
        want.setdefault(parent, []).append(child)
    assert g.children == {p: tuple(c) for p, c in want.items()}
    assert g.nodes == {n for e in edges for n in e}
