"""Synthetic corpus generator: prototype geometry and noise calibration."""

import numpy as np
import pytest

from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.synthgen import (
    REG_DIM,
    SynthConfig,
    class_prototypes,
    embedding_map,
    generate,
)


@pytest.fixture
def world():
    registry = ClassRegistry(base=("cat", "dog", "cow"), novel=("fox", "owl"))
    we = random_embeddings(registry, dim=8, seed=2)
    return registry, we


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        SynthConfig(alpha=1.5)
    with pytest.raises(ValueError, match="alpha"):
        SynthConfig(alpha=-0.1)
    with pytest.raises(ValueError, match="d_in"):
        SynthConfig(d_in=0)
    for field, value in (("train_per_class", 0), ("test_per_class", 0), ("noise_std", -1.0),
                         ("noise_std", float("nan")), ("margin_scale", float("inf")),
                         ("seed", -1), ("seed", True)):
        with pytest.raises(ValueError, match=f"{field} must be finite and in .*, got {value}"):
            SynthConfig(**{field: value})


def test_embedding_map_is_orthonormal_when_wide():
    m = embedding_map(d_in=12, d_e=8, seed=0)
    np.testing.assert_allclose(m.T @ m, np.eye(8), atol=1e-12)
    # orthonormal columns preserve inner products of embedded vectors
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    assert (m @ a) @ (m @ b) == pytest.approx(a @ b, rel=1e-12)
    narrow = embedding_map(d_in=4, d_e=8, seed=0)
    assert narrow.shape == (4, 8)


def test_prototype_formula(world):
    registry, we = world
    cfg = SynthConfig(d_in=12, alpha=0.7, seed=5)
    protos = class_prototypes(we, registry, cfg)
    assert protos.shape == (5, 12)
    np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)
    m = embedding_map(12, 8, 5)
    rng_u = np.random.default_rng([5, 2])
    u0 = rng_u.standard_normal(12)
    u0 /= np.linalg.norm(u0)
    want = 0.7 * (m @ we[0]) + 0.3 * u0
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(protos[0], want, atol=1e-12)


def test_alpha_extremes(world):
    registry, we = world
    pure = class_prototypes(we, registry, SynthConfig(d_in=12, alpha=1.0, seed=1))
    m = embedding_map(12, 8, 1)
    # at alpha=1 the prototype is the mapped embedding, renormalized
    for i in range(5):
        mapped = m @ we[i]
        np.testing.assert_allclose(pure[i], mapped / np.linalg.norm(mapped), atol=1e-12)
        # mapped unit embeddings through an orthonormal map keep cosines exactly
        assert pure[i] @ pure[i] == pytest.approx(1.0)
    free = class_prototypes(we, registry, SynthConfig(d_in=12, alpha=0.0, seed=1))
    # at alpha=0 prototypes ignore the embeddings entirely: regenerating with a
    # different embedding matrix gives identical prototypes
    other = random_embeddings(registry, dim=8, seed=99)
    free2 = class_prototypes(other, registry, SynthConfig(d_in=12, alpha=0.0, seed=1))
    np.testing.assert_array_equal(free, free2)
    assert not np.allclose(pure, free)


def test_sigma_follows_the_minimum_margin(world):
    registry, we = world
    cfg = SynthConfig(d_in=12, margin_scale=0.2, seed=3, train_per_class=2,
                      test_per_class=1)
    ds = generate(we, registry, cfg)
    protos = ds.prototypes
    dists = [
        np.linalg.norm(protos[i] - protos[j])
        for i in range(5) for j in range(5) if i != j
    ]
    assert ds.min_margin == pytest.approx(min(dists), rel=1e-12)
    assert ds.sigma == pytest.approx(0.2 * min(dists), rel=1e-12)
    fixed = generate(we, registry, SynthConfig(d_in=12, noise_std=0.05, seed=3,
                                               train_per_class=2, test_per_class=1))
    assert fixed.sigma == 0.05


def test_single_class_needs_explicit_noise():
    registry = ClassRegistry(base=("cat",))
    we = random_embeddings(registry, dim=8, seed=0)
    with pytest.raises(ValueError, match="single class"):
        generate(we, registry, SynthConfig(d_in=12, train_per_class=1, test_per_class=1))
    ds = generate(we, registry, SynthConfig(d_in=12, noise_std=0.1,
                                            train_per_class=1, test_per_class=1))
    assert (ds.sigma, ds.min_margin) == (0.1, None)


def test_corpus_counts_ids_and_reg_targets(world):
    registry, we = world
    cfg = SynthConfig(d_in=12, train_per_class=4, test_per_class=3, seed=7)
    ds = generate(we, registry, cfg)
    assert len(ds.train) == 5 * 4 and len(ds.test) == 5 * 3
    train_ids = set(ds.train.ids)
    test_ids = set(ds.test.ids)
    assert len(train_ids) == 20 and len(test_ids) == 15
    assert not (train_ids & test_ids)
    assert "train-cat-0000" in train_ids and "test-owl-0002" in test_ids
    for split in (ds.train, ds.test):
        assert split.feat.shape == (12, len(split))
        assert split.reg.shape == (REG_DIM, len(split))


def test_generation_is_deterministic(world):
    registry, we = world
    cfg = SynthConfig(d_in=12, train_per_class=2, test_per_class=2, seed=11)
    a = generate(we, registry, cfg)
    b = generate(we, registry, cfg)
    for ra, rb in ((a.train, b.train), (a.test, b.test)):
        assert ra.ids.tolist() == rb.ids.tolist()
        np.testing.assert_array_equal(ra.feat, rb.feat)
        np.testing.assert_array_equal(ra.reg, rb.reg)


def test_registry_size_must_match_embeddings(world):
    registry, we = world
    small = ClassRegistry(base=("cat", "dog"))
    with pytest.raises(ValueError, match="do not match"):
        class_prototypes(we, small, SynthConfig(d_in=12))


def test_a_zero_prototype_is_an_error_naming_its_class(world):
    # with full coupling a zero embedding row maps to a zero prototype
    registry, we = world
    rows = we.copy()
    rows[1] = 0.0
    with pytest.raises(ValueError, match=f"degenerate prototype for class {registry.base[1]!r}"):
        class_prototypes(rows, registry, SynthConfig(d_in=12, alpha=1.0))
