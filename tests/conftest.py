"""Shared fixtures: tiny registries, embeddings, and heads used across tests."""

import numpy as np
import pytest

from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.head import HeadConfig, HeadMode, build_head


@pytest.fixture
def registry():
    return ClassRegistry(base=("cat", "dog", "cow"), novel=("fox", "owl"))


@pytest.fixture
def base_registry():
    return ClassRegistry(base=("cat", "dog", "cow"))


@pytest.fixture
def embeddings(registry):
    return random_embeddings(registry, dim=12, seed=3)


def make_head(mode, registry, we=None, graph_mode=None, d_in=10, d=8, r=4,
              seed=0, **kw):
    cfg = HeadConfig(mode=mode, graph_mode=graph_mode, d_in=d_in, d=d, r=r, seed=seed, **kw)
    return build_head(cfg, registry, we if HeadMode(mode) is not HeadMode.BASELINE else None)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
