"""Class registry ordering rules and word2vec-text embedding parsing."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from semshot.embeddings import (
    BACKGROUND,
    NONNEG,
    NONNEG_INT,
    POSITIVE,
    POSITIVE_INT,
    UNIT,
    UNIT_BELOW_1,
    ClassRegistry,
    EmbeddingMatrix,
    compose_background_row,
    load_registry,
    parse_embedding_file,
    random_embeddings,
    save_embedding_file,
    load_embedding_file,
    save_json,
    save_registry,
)
from semshot.diffmath import l2_normalize_rows


def test_registry_order_is_base_novel_background():
    reg = ClassRegistry(base=("a", "b"), novel=("c",))
    assert reg.names == ("a", "b", "c", BACKGROUND)
    assert reg.n == 4
    assert reg.background_index == 3
    assert reg.base_indices() == [0, 1]
    assert reg.novel_indices() == [2]
    assert reg.index("C") == 2  # case-insensitive lookup


def test_registry_rejects_duplicates_and_reserved_name():
    with pytest.raises(ValueError, match="duplicate"):
        ClassRegistry(base=("a", "A"))
    with pytest.raises(ValueError, match="reserved"):
        ClassRegistry(base=(BACKGROUND,))
    with pytest.raises(ValueError, match="empty"):
        ClassRegistry(base=("",))
    with pytest.raises(KeyError):
        ClassRegistry(base=("a",)).index("zebra")


def test_numbered_registry_names_its_classes_and_rejects_a_negative_count():
    reg = ClassRegistry.numbered(2, 1)
    assert reg.base == ("base00", "base01") and reg.novel == ("novel00",)
    assert ClassRegistry.numbered(0, 0).n == 1  # the background alone
    with pytest.raises(ValueError, match=re.escape("n_base must be finite and in [0, inf), got -1")):
        ClassRegistry.numbered(-1, 2)
    with pytest.raises(ValueError, match=re.escape("n_novel must be finite and in [0, inf), got -3")):
        ClassRegistry.numbered(3, -3)


def test_named_intervals_hold_their_ends_and_no_non_finite_value():
    named = (POSITIVE_INT, NONNEG_INT, POSITIVE, NONNEG, UNIT, UNIT_BELOW_1)
    assert [str(b) for b in named] == ["[1, inf)", "[0, inf)", "(0, inf)", "[0, inf)",
                                       "[0, 1]", "[0, 1)"]
    inside = {POSITIVE_INT: [1, np.int64(7)], NONNEG_INT: [0], POSITIVE: [5e-324, 2],
              NONNEG: [0.0, np.float64(3.5)], UNIT: [0.0, 1.0], UNIT_BELOW_1: [0.0, 0.999]}
    outside = {POSITIVE_INT: [0, 1.0, 1.5], NONNEG_INT: [-1, 0.5],
               POSITIVE: [0.0, -1], NONNEG: [-5e-324], UNIT: [-0.1, 1.0000000000000002],
               UNIT_BELOW_1: [1.0, -0.1]}
    for bound in named:
        for value in inside[bound]:
            assert bound.check(value, "x") is value
        # a bool is an int to Python, and True == 1 would lie in [1, inf) and [0, 1]
        for value in outside[bound] + [math.nan, math.inf, -math.inf, None, "1", True, False]:
            with pytest.raises(ValueError, match=re.escape(
                    f"x must be finite and in {bound}, got {value}")):
                bound.check(value, "x")



def test_registry_tokens_for_uses_override_else_name():
    reg = ClassRegistry(base=("a",), novel=("b", "c", "d"), tokens={"c": ("sea",)})
    assert reg.tokens_for("c") == ("sea",)
    assert reg.tokens_for("d") == ("d",)
    # multi-word names split into tokens by default
    assert ClassRegistry(base=("tv monitor",)).tokens_for("tv monitor") == ("tv", "monitor")


def test_registry_json_round_trip(tmp_path):
    reg = ClassRegistry(base=("a", "b"), novel=("c",), tokens={"c": ("x", "y")})
    path = tmp_path / "registry.json"
    save_registry(reg, path)
    back = load_registry(path)
    assert back == reg
    (tmp_path / "bad.json").write_text('{"base": [], "unknown": 1}')
    with pytest.raises(ValueError, match="unknown"):
        load_registry(tmp_path / "bad.json")


def _w2v(lines):
    return io.StringIO("\n".join(lines) + "\n")


def test_parse_embedding_file_normalizes_and_averages_tokens():
    reg = ClassRegistry(base=("cat", "tv monitor"))
    stream = _w2v([
        "3 2",
        "cat 3.0 4.0",
        "tv 1.0 0.0",
        "monitor 0.0 1.0",
    ])
    we = parse_embedding_file(stream, reg)
    assert we.n == 3  # two classes + background
    np.testing.assert_allclose(we.matrix[0], [0.6, 0.8], atol=1e-15)
    # mean of tv and monitor is (0.5, 0.5), normalized to unit length
    np.testing.assert_allclose(we.matrix[1], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(we.matrix, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(we.matrix[2], compose_background_row(2, 0))


def test_parse_embedding_file_skips_blank_lines_without_counting_them():
    reg = ClassRegistry(base=("cat",))
    we = parse_embedding_file(_w2v(["2 2", "", "cat 3.0 4.0", "   ", "dog 1.0 0.0", ""]), reg)
    np.testing.assert_allclose(we.matrix[0], [0.6, 0.8], atol=1e-15)
    with pytest.raises(ValueError, match="header declares 3 tokens but stream has 2"):
        parse_embedding_file(_w2v(["3 2", "cat 3.0 4.0", "", "dog 1.0 0.0"]), reg)


def test_parse_embedding_file_errors():
    reg = ClassRegistry(base=("cat",))
    with pytest.raises(ValueError, match="empty"):
        parse_embedding_file(io.StringIO(""), reg)
    with pytest.raises(ValueError, match="header"):
        parse_embedding_file(_w2v(["just-one-field"]), reg)
    with pytest.raises(ValueError, match="line 1: non-integer header fields in 'one 2'"):
        parse_embedding_file(_w2v(["one 2", "cat 1.0 0.0"]), reg)
    with pytest.raises(ValueError, match="line 1: invalid header values '-1 2'"):
        parse_embedding_file(_w2v(["-1 2", "cat 1.0 0.0"]), reg)
    with pytest.raises(ValueError, match="line 2: non-numeric value for token 'cat'"):
        parse_embedding_file(_w2v(["1 2", "cat 1.0 x"]), reg)
    with pytest.raises(ValueError, match="declares"):
        parse_embedding_file(_w2v(["2 2", "cat 1.0 0.0"]), reg)
    with pytest.raises(ValueError, match="expected 2"):
        parse_embedding_file(_w2v(["1 2", "cat 1.0"]), reg)
    with pytest.raises(ValueError, match="cat"):
        parse_embedding_file(_w2v(["1 2", "dog 1.0 0.0"]), reg)
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="line 2: non-finite value for token 'cat'"):
            parse_embedding_file(_w2v(["1 3", f"cat {bad} 1 2"]), reg)


def test_load_embedding_file_names_the_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\ncat 1.0 0.0\ndog 0.0 NaN\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: non-finite value for token 'dog'")):
        load_embedding_file(path, ClassRegistry(base=("cat", "dog")))


def test_background_row_is_seeded_and_independent_of_classes():
    row = compose_background_row(8, seed=5)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(row, compose_background_row(8, seed=5))
    assert not np.array_equal(row, compose_background_row(8, seed=6))


def test_random_embeddings_are_unit_and_deterministic():
    reg = ClassRegistry(base=("a", "b"), novel=("c",))
    we1 = random_embeddings(reg, dim=16, seed=2)
    we2 = random_embeddings(reg, dim=16, seed=2)
    assert we1.content_hash() == we2.content_hash()
    np.testing.assert_allclose(np.linalg.norm(we1.matrix, axis=1), 1.0, atol=1e-12)
    assert we1.n == reg.n


def test_save_embedding_file_round_trips_exactly(tmp_path):
    reg = ClassRegistry(base=("a", "b"))
    we = random_embeddings(reg, dim=6, seed=9)
    path = tmp_path / "emb.txt"
    save_embedding_file(path, ("a", "b"), we.matrix[:2])
    back = load_embedding_file(path, reg, background_seed=0)
    # repr() round-trips the floats; the parser only renormalizes (a no-op
    # here up to one rounding step since the rows are already unit norm)
    np.testing.assert_allclose(back.matrix[:2], we.matrix[:2], rtol=0, atol=1e-15)


# one call per guard: the call (given a scratch directory) and its message
_MISFIT_CASES = {
    "matrix_1d": (lambda tmp: EmbeddingMatrix(np.ones(3)), "embedding matrix must be 2-D"),
    "saved_names_and_rows": (lambda tmp: save_embedding_file(tmp / "emb.txt", ("a", "b"),
                                                             np.ones((3, 2))),
                             "2 names for 3 rows"),
    "token_override_for_unknown_class": (
        lambda tmp: ClassRegistry(base=("a",), tokens={"zebra": ["z"]}),
        "token override for unknown class 'zebra'"),
    "token_override_without_tokens": (
        lambda tmp: ClassRegistry(base=("a",), tokens={"a": []}),
        "token override for class 'a' lists no token"),
    "tokens_averaging_to_zero": (
        lambda tmp: parse_embedding_file(["2 2\n", "x 1 2\n", "y -1 -2\n"], ClassRegistry(
            base=("x", "b"), tokens={"b": ["x", "y"]})),
        "cannot normalize zero rows ['b']"),
}


@pytest.mark.parametrize("name", list(_MISFIT_CASES))
def test_inputs_that_do_not_fit_are_rejected(tmp_path, name):
    call, message = _MISFIT_CASES[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing half written


def test_select_rows_copies_the_chosen_rows():
    reg = ClassRegistry(base=("a", "b"), novel=("c",))
    we = random_embeddings(reg, dim=4, seed=0)
    sub = we.select_rows([0, 3])
    np.testing.assert_array_equal(sub.matrix, we.matrix[[0, 3]])
    sub.matrix[0, 0] = 99.0
    assert we.matrix[0, 0] != 99.0


@st.composite
def _vocabularies(draw):
    """Unique lowercase tokens with finite, non-zero rows, and the subset of
    them a registry asks for."""
    tokens = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=5),
                           min_size=1, max_size=6, unique=True))
    dim = draw(st.integers(1, 5))
    rows = np.array(draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
        min_size=len(tokens), max_size=len(tokens),
    )))
    assume((np.linalg.norm(rows, axis=1) > 1e-6).all())
    classes = draw(st.lists(st.sampled_from(tokens), min_size=1, unique=True))
    return tokens, rows, classes


@pytest.fixture(scope="module")
def emb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vocab") / "emb.txt"


@settings(max_examples=60, deadline=None)
@given(vocab=_vocabularies())
def test_saved_vocabulary_parses_to_its_normalized_rows(emb_path, vocab):
    tokens, rows, classes = vocab
    save_embedding_file(emb_path, tokens, rows)
    we = load_embedding_file(emb_path, ClassRegistry(base=tuple(classes)))
    want = l2_normalize_rows(rows[[tokens.index(c) for c in classes]])
    np.testing.assert_array_equal(we.matrix[:-1], want)
    np.testing.assert_array_equal(we.matrix[-1], compose_background_row(rows.shape[1], 0))


@settings(max_examples=60, deadline=None)
@given(vocab=_vocabularies(), bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_non_finite_value_in_a_needed_token_names_its_line(emb_path, vocab, bad, data):
    tokens, rows, classes = vocab
    token = data.draw(st.sampled_from(classes))
    i = tokens.index(token)
    rows[i, data.draw(st.integers(0, rows.shape[1] - 1))] = bad
    save_embedding_file(emb_path, tokens, rows)
    line = i + 2  # the header is line 1
    want = f"{emb_path}: line {line}: non-finite value for token '{token}'"
    with pytest.raises(ValueError, match=re.escape(want)):
        load_embedding_file(emb_path, ClassRegistry(base=tuple(classes)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_save_json_refuses_a_non_finite_value_naming_its_file(tmp_path, bad):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float values")):
        save_json(path, {"ok": 1.0, "bad": [bad]})
    assert not path.exists()
