"""Few-shot classification heads driven by class word embeddings.

The package trains small classification heads on precomputed feature vectors.
Class score rows can be learned per class (baseline), projected from fixed
word embeddings (semantic space projection), or projected from embeddings
refined by a dynamic relation graph learned over the classes.  Training
follows a two-phase protocol: base training on abundant classes, then a
balanced k-shot fine-tune after novel classes are registered.
"""

import os

# semshot's BLAS products are too small to gain from threads; a pool costs start-up time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .embeddings import BACKGROUND, ClassRegistry, EmbeddingMatrix
from .head import Head, HeadConfig, HeadMode, build_head
from .relation import GraphMode

__version__ = "0.1.0"

__all__ = [
    "BACKGROUND",
    "ClassRegistry",
    "EmbeddingMatrix",
    "GraphMode",
    "Head",
    "HeadConfig",
    "HeadMode",
    "build_head",
    "__version__",
]
