"""Synthetic feature corpus tied to the class embeddings.

Each class gets a prototype normalize(alpha * M e_c + (1 - alpha) * u_c) where
M is a map from embedding space to feature space drawn once per seed and u_c
is a per-class random unit vector.  ``alpha`` dials how much of the feature
geometry is explained by the embeddings: at alpha=1 prototypes are a pure
function of the embeddings, at alpha=0 they carry no embedding signal at all.
Records are prototypes plus isotropic Gaussian noise; train and test ids are
disjoint by construction.

When no noise level is given, sigma is derived from the minimum pairwise
prototype distance so the corpus stays learnable at any scale.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import NONNEG, NONNEG_INT, POSITIVE_INT, UNIT, ClassRegistry
from .records import REG_DIM, FeatureSet, concat

_STREAM_MAP = 1
_STREAM_UNIT = 2
_STREAM_NOISE = 3
_STREAM_REG = 4

# noise on the regression targets, around their linear map of the features
REG_NOISE_STD = 0.05


@dataclass
class SynthConfig:
    d_in: int = 32
    train_per_class: int = 30
    test_per_class: int = 12
    alpha: float = 0.9
    noise_std: float | None = None
    margin_scale: float = 0.35
    seed: int = 0

    def __post_init__(self):
        for name, bound in (("alpha", UNIT), ("d_in", POSITIVE_INT), ("margin_scale", NONNEG),
                            ("train_per_class", POSITIVE_INT), ("test_per_class", POSITIVE_INT),
                            ("seed", NONNEG_INT)):
            bound.check(getattr(self, name), name)
        if self.noise_std is not None:
            NONNEG.check(self.noise_std, "noise_std")


@dataclass
class SynthDataset:
    train: FeatureSet
    test: FeatureSet
    prototypes: np.ndarray
    sigma: float
    min_margin: float | None  # None: no pair of classes to measure


def embedding_map(d_in: int, d_e: int, seed: int) -> np.ndarray:
    """The fixed seeded map M from embedding space into feature space.

    With d_in >= d_e the columns are orthonormal, so M preserves inner
    products exactly; otherwise a scaled Gaussian map is used.
    """
    rng = np.random.default_rng([seed, _STREAM_MAP])
    a = rng.standard_normal((d_in, d_e))
    if d_in >= d_e:
        q, r = np.linalg.qr(a)
        return q * np.sign(np.diag(r))
    return a / np.sqrt(d_e)


def class_prototypes(we: np.ndarray, registry: ClassRegistry, cfg: SynthConfig) -> np.ndarray:
    """Unit prototypes for every non-background class, in registry order."""
    names = registry.base + registry.novel
    if len(we) != registry.n:
        raise ValueError(f"embedding rows ({len(we)}) do not match registry ({registry.n})")
    m = embedding_map(cfg.d_in, we.shape[1], cfg.seed)
    rng_u = np.random.default_rng([cfg.seed, _STREAM_UNIT])
    protos = np.empty((len(names), cfg.d_in))
    for i in range(len(names)):
        u = rng_u.standard_normal(cfg.d_in)
        u /= np.linalg.norm(u)
        vec = cfg.alpha * (m @ we[i]) + (1.0 - cfg.alpha) * u
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ValueError(f"degenerate prototype for class {names[i]!r}")
        protos[i] = vec / norm
    return protos


def generate(we: np.ndarray, registry: ClassRegistry, cfg: SynthConfig) -> SynthDataset:
    """Draw a full train/test corpus around the class prototypes."""
    names = registry.base + registry.novel
    protos = class_prototypes(we, registry, cfg)

    min_margin = None
    if len(names) > 1:
        diffs = protos[:, None, :] - protos[None, :, :]
        dist = np.sqrt((diffs * diffs).sum(axis=2))
        min_margin = float(dist[~np.eye(len(names), dtype=bool)].min())
    sigma = cfg.noise_std
    if sigma is None:
        if min_margin is None:
            raise ValueError("cannot derive a noise level for a single class; set noise_std")
        sigma = cfg.margin_scale * min_margin

    rng_noise = np.random.default_rng([cfg.seed, _STREAM_NOISE])
    rng_reg = np.random.default_rng([cfg.seed, _STREAM_REG])
    reg_map = rng_reg.standard_normal((REG_DIM, cfg.d_in)) / np.sqrt(cfg.d_in)

    blocks = {"train": [], "test": []}
    for i, name in enumerate(names):
        for split, count in (("train", cfg.train_per_class), ("test", cfg.test_per_class)):
            noise = rng_noise.standard_normal((count, cfg.d_in)) * sigma
            feats = protos[i] + noise
            reg_noise = rng_reg.standard_normal((count, REG_DIM)) * REG_NOISE_STD
            regs = (reg_map @ feats.T).T + reg_noise
            blocks[split].append(FeatureSet([f"{split}-{name}-{j:04d}" for j in range(count)],
                                            [name] * count, feats.T, regs.T))
    return SynthDataset(
        train=concat(*blocks["train"]), test=concat(*blocks["test"]),
        prototypes=protos, sigma=float(sigma), min_margin=min_margin,
    )
