"""Class registries and the fixed word-embedding matrix behind the heads.

A registry orders classes as base, then novel, then a synthetic background
entry that always sits last.  The embedding matrix carries one unit-norm row
per registry entry in that order; the background row is composed from a seed
and never depends on any class vector.
"""

import hashlib
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .diffmath import l2_normalize_rows

BACKGROUND = "__background__"
DEFAULT_EMBED_DIM = 300

_BG_STREAM = 0xB6
_CLASS_STREAM = 0xC1


def _canon(name: str) -> str:
    return name.strip().lower()


@dataclass
class ClassRegistry:
    """Ordered class list: base + novel + background (implicit, always last)."""

    base: tuple = ()
    novel: tuple = ()
    tokens: dict = field(default_factory=dict)

    def __post_init__(self):
        self.base = tuple(str(n).strip() for n in self.base)
        self.novel = tuple(str(n).strip() for n in self.novel)
        seen = set()
        for name in self.base + self.novel:
            if not name:
                raise ValueError("empty class name")
            key = _canon(name)
            if key == BACKGROUND:
                raise ValueError(f"{BACKGROUND!r} is reserved for the background entry")
            if key in seen:
                raise ValueError(f"duplicate class name {name!r}")
            seen.add(key)
        self.tokens = {_canon(k): tuple(v) for k, v in dict(self.tokens).items()}
        for key, tokens in self.tokens.items():
            if key not in seen:
                raise ValueError(f"token override for unknown class {key!r}")
            if not tokens:
                raise ValueError(f"token override for class {key!r} lists no token")

    @property
    def names(self) -> tuple:
        return self.base + self.novel + (BACKGROUND,)

    @property
    def n(self) -> int:
        return len(self.base) + len(self.novel) + 1

    @property
    def background_index(self) -> int:
        return self.n - 1

    def index(self, name: str) -> int:
        key = _canon(name)
        for i, n in enumerate(self.names):
            if _canon(n) == key:
                return i
        raise KeyError(f"unknown class {name!r}")

    def base_indices(self):
        return list(range(len(self.base)))

    def novel_indices(self):
        return list(range(len(self.base), len(self.base) + len(self.novel)))

    def tokens_for(self, name: str) -> tuple:
        """Lookup tokens for a class: explicit override, else whitespace split."""
        key = _canon(name)
        if key in self.tokens:
            return self.tokens[key]
        return tuple(key.split())

    def to_json(self) -> dict:
        out = {"base": list(self.base), "novel": list(self.novel)}
        if self.tokens:
            out["tokens"] = {k: list(v) for k, v in self.tokens.items()}
        return out

    @classmethod
    def numbered(cls, n_base: int, n_novel: int) -> "ClassRegistry":
        """Classes ``base00``, ``base01``, ... then ``novel00``, ``novel01``, ..."""
        NONNEG_INT.check(n_base, "n_base")
        NONNEG_INT.check(n_novel, "n_novel")
        return cls(base=tuple(f"base{i:02d}" for i in range(n_base)),
                   novel=tuple(f"novel{i:02d}" for i in range(n_novel)))

    @classmethod
    def from_json(cls, obj: dict) -> "ClassRegistry":
        if not isinstance(obj, dict):
            raise ValueError("registry must be a JSON object")
        unknown = set(obj) - {"base", "novel", "tokens"}
        if unknown:
            raise ValueError(f"unknown registry keys: {sorted(unknown)}")
        for key in ("base", "novel"):
            names = obj.get(key, [])
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"registry {key!r} must be a list of class names")
        tokens = obj.get("tokens", {})
        if not isinstance(tokens, dict) or not all(
                isinstance(v, list) and all(isinstance(t, str) for t in v)
                for v in tokens.values()):
            raise ValueError("registry 'tokens' must map class names to lists of tokens")
        return cls(
            base=tuple(obj.get("base", ())),
            novel=tuple(obj.get("novel", ())),
            tokens=tokens,
        )


@dataclass(frozen=True)
class Interval:
    """The values a numeric setting may take: ``kind`` numbers from ``lo`` to
    ``hi``, each end closed (``[`` or ``]``) or open (``(`` or ``)``) as
    ``ends`` says.  The named intervals below leave every infinite end
    open, so NaN and +-inf lie in none of them."""

    kind: type
    lo: float
    hi: float = float("inf")
    ends: str = "[)"

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"

    def check(self, value, name: str):
        """``value`` if it lies in the interval; else a ValueError naming the
        setting ``name``, the interval and the value.  No bool lies in one."""
        kind = numbers.Integral if self.kind is int else numbers.Real
        if isinstance(value, bool) or not (isinstance(value, kind) and (
                self.lo < value if self.ends[0] == "(" else self.lo <= value) and (
                value < self.hi if self.ends[1] == ")" else value <= self.hi)):
            raise ValueError(f"{name} must be finite and in {self}, got {value}")
        return value


POSITIVE_INT = Interval(int, 1)
NONNEG_INT = Interval(int, 0)
POSITIVE = Interval(float, 0, ends="()")
NONNEG = Interval(float, 0)
UNIT = Interval(float, 0, 1, "[]")
UNIT_BELOW_1 = Interval(float, 0, 1)


def read_file(path, parse):
    """``parse`` of the open text file ``path``; a ValueError names ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_json(path, parse=lambda obj: obj):
    """``parse`` of the JSON document in ``path``; a ValueError names ``path``."""
    return read_file(path, lambda fh: parse(json.load(fh)))


def save_json(path, obj):
    """``obj`` as indented JSON with sorted keys and a final newline; a NaN or
    inf in ``obj`` is a ValueError naming ``path`` (JSON has no such value)."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_csv(path, header, rows):
    """A comma-separated file: ``header``, then one line per row; floats
    are written ``.9g`` and every other value with ``str``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def load_registry(path) -> ClassRegistry:
    return load_json(path, ClassRegistry.from_json)


def save_registry(registry: ClassRegistry, path):
    save_json(path, registry.to_json())


@dataclass(frozen=True)
class EmbeddingMatrix:
    """The read-only view of a head's embedding rows that ``Head.we`` gives:
    the rows and their sha256.  Everything else passes the rows as an array."""

    matrix: np.ndarray

    def content_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.matrix).tobytes()).hexdigest()


def compose_background_row(dim: int, seed: int = 0) -> np.ndarray:
    """Fixed random unit vector for the background entry.

    Drawn from its own seed stream, so it is independent of every class row.
    """
    rng = np.random.default_rng([seed, _BG_STREAM])
    row = rng.standard_normal(dim)
    return row / np.linalg.norm(row)


def parse_embedding_file(stream, registry: ClassRegistry, background_seed: int = 0):
    """Read a word2vec-style text stream into ``registry``'s (n, dim) rows.

    Format: a header line ``<vocab_count> <dim>``, then one line per token:
    the token followed by ``dim`` floats.  Multi-token class names average
    their token vectors; every class row is L2-normalized afterwards.  Tokens
    are matched case-insensitively; a class with no resolvable token is an
    error that names the class and the missing tokens.
    """
    lines = iter(enumerate(stream, start=1))
    try:
        _, header = next(lines)
    except StopIteration:
        raise ValueError("empty embedding stream") from None
    header = header.strip()  # the line's newline stays out of the messages below
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line 1: expected header '<count> <dim>', got {header!r}")
    try:
        declared_count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line 1: non-integer header fields in {header!r}") from None
    if dim <= 0 or declared_count < 0:
        raise ValueError(f"line 1: invalid header values {header!r}")

    needed = set()
    for name in registry.base + registry.novel:
        needed.update(registry.tokens_for(name))

    vocab = {}
    count = 0
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        count += 1
        fields = line.split()
        token = fields[0].lower()
        if len(fields) - 1 != dim:
            raise ValueError(
                f"line {lineno}: token {fields[0]!r} has {len(fields) - 1} values, expected {dim}"
            )
        if token in needed and token not in vocab:
            try:
                vocab[token] = np.array([float(v) for v in fields[1:]])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value for token {fields[0]!r}") from None
            if not np.isfinite(vocab[token]).all():
                raise ValueError(f"line {lineno}: non-finite value for token {fields[0]!r}")
    if count != declared_count:
        raise ValueError(f"header declares {declared_count} tokens but stream has {count}")

    rows = []
    for name in registry.base + registry.novel:
        tokens = registry.tokens_for(name)
        missing = [t for t in tokens if t not in vocab]
        if missing:
            raise ValueError(f"class {name!r}: tokens {missing} not found in embedding stream")
        rows.append(np.mean([vocab[t] for t in tokens], axis=0))
    rows.append(compose_background_row(dim, background_seed))

    matrix = np.vstack(rows)
    matrix[:-1] = l2_normalize_rows(matrix[:-1], registry.base + registry.novel)
    return matrix


def load_embedding_file(path, registry: ClassRegistry, background_seed: int = 0):
    return read_file(path, lambda fh: parse_embedding_file(fh, registry, background_seed))


def save_embedding_file(path, names, matrix):
    """Write tokens + vectors in the word2vec text layout (full precision)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape[0] != len(names):
        raise ValueError(f"{len(names)} names for {m.shape[0]} rows")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(names)} {m.shape[1]}\n")
        for name, row in zip(names, m):
            fh.write(name + " " + " ".join(repr(float(v)) for v in row) + "\n")


def random_embeddings(registry: ClassRegistry, dim: int = DEFAULT_EMBED_DIM, seed: int = 0):
    """Seeded random (n, dim) unit rows for every class, plus the background row."""
    rng = np.random.default_rng([seed, _CLASS_STREAM])
    n_classes = len(registry.base) + len(registry.novel)
    rows = l2_normalize_rows(rng.standard_normal((n_classes, dim)))
    return np.vstack([rows, compose_background_row(dim, seed)])
