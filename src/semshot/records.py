"""Precomputed feature records, held as columns, and their JSONL serialization.

One record per line: ``{"id": str, "label": str, "feat": [floats], "reg":
[floats]?}``.  ``feat`` is the raw input feature vector; ``reg`` is an
optional regression target (box-style, ``REG_DIM`` values) that a file gives
on every record or on none.
"""

import json
from dataclasses import dataclass

import numpy as np

REG_DIM = 4


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """Record ``j`` is ``ids[j]``, ``labels[j]``, ``feat[:, j]`` (``feat`` is
    d_in x n) and, in a set with regression targets, ``reg[:, j]``.  Ids and
    labels are object arrays of str: numpy string dtypes drop trailing NULs."""

    ids: np.ndarray
    labels: np.ndarray
    feat: np.ndarray
    reg: np.ndarray | None = None

    def __post_init__(self):
        put = object.__setattr__
        put(self, "ids", np.array([str(v) for v in self.ids], dtype=object))
        put(self, "labels", np.array([str(v) for v in self.labels], dtype=object))
        put(self, "feat", np.ascontiguousarray(self.feat, dtype=np.float64))
        if self.reg is not None:
            put(self, "reg", np.ascontiguousarray(self.reg, dtype=np.float64))
        n, reg_shape = len(self.ids), None if self.reg is None else self.reg.shape
        if len(self.labels) != n or self.feat.shape[1:] != (n,) or reg_shape not in (
                None, (REG_DIM, n)):
            raise ValueError(f"{n} ids, {len(self.labels)} labels, feat of shape "
                             f"{self.feat.shape} and reg of shape {reg_shape} do not "
                             "describe one record set")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, cols) -> "FeatureSet":
        return FeatureSet(self.ids[cols], self.labels[cols], self.feat.take(cols, axis=1),
                          None if self.reg is None else self.reg.take(cols, axis=1))

    def with_labels(self, names) -> "FeatureSet":
        """The records whose label is one of ``names``, in their order."""
        return self.take([j for j, label in enumerate(self.labels) if label in names])

    def label_columns(self) -> dict:
        """Each distinct label, in sorted order, to its columns in order."""
        return {label: np.flatnonzero(self.labels == label)
                for label in sorted(set(self.labels))}

    def label_indices(self, registry) -> np.ndarray:
        """Each record's class index; one ``registry.index`` call per distinct label."""
        distinct, inverse = np.unique(self.labels, return_inverse=True)
        return np.array([registry.index(label) for label in distinct],
                        dtype=np.intp)[inverse]


def concat(*sets) -> FeatureSet:
    """The records of ``sets`` one after another."""
    if len({s.reg is None for s in sets}) > 1:
        raise ValueError("cannot join records with and without 'reg'")
    return FeatureSet(
        np.concatenate([s.ids for s in sets]), np.concatenate([s.labels for s in sets]),
        np.hstack([s.feat for s in sets]),
        None if sets[0].reg is None else np.hstack([s.reg for s in sets]),
    )


def read_jsonl(path):
    """``(lineno, value)`` for each non-blank line of the JSONL file ``path``;
    a line that is not JSON raises, naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
                yield lineno, value


def _numbers(value, key: str, where: str) -> np.ndarray:
    """``value``, a non-empty flat list of finite JSON numbers, as float64;
    anything else raises, naming ``where`` and ``key``."""
    # int and float are the types json.loads gives a number; bool is neither
    if not (isinstance(value, list) and value and set(map(type, value)) <= {int, float}):
        raise ValueError(f"{where}: {key!r} must be a non-empty flat list of JSON numbers")
    try:
        values = np.array(value, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        values = np.array(np.inf)
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: non-finite value in {key!r}")
    return values


def load_records(path, registry=None) -> FeatureSet:
    """Read a JSONL feature file.  A malformed line, an ``id`` or ``label``
    that is not a string, a ``feat`` or ``reg`` that is not a non-empty flat
    list of JSON numbers, a non-finite value, a ``reg`` that is not
    ``REG_DIM`` long or present on only some records, a repeated id and,
    given ``registry``, a label that is not one of its classes each raise,
    naming ``path:line``; so does a file with no records, naming ``path``.
    Given ``registry``, a label is stored in the registry's spelling."""
    labels, feats, regs, first_line, label_line = [], [], [], {}, {}
    for lineno, obj in read_jsonl(path):
        where = f"{path}:{lineno}"
        missing = {"id", "label", "feat"} - set(obj if isinstance(obj, dict) else ())
        if missing:
            raise ValueError(f"{where}: missing fields {sorted(missing)}")
        for key in ("id", "label"):
            if not isinstance(obj[key], str):
                raise ValueError(f"{where}: {key!r} must be a JSON string, "
                                 f"got {json.dumps(obj[key])}")
        rid = obj["id"]
        feat = _numbers(obj["feat"], "feat", where)
        reg = None if obj.get("reg") is None else _numbers(obj["reg"], "reg", where)
        if reg is not None and reg.size != REG_DIM:
            raise ValueError(f"{where}: reg has {reg.size} values, expected {REG_DIM}")
        if rid in first_line:
            raise ValueError(f"{where}: duplicate id {rid!r} (first on line {first_line[rid]})")
        if feats and feat.size != feats[0].size:
            raise ValueError(f"{where}: feature dim {feat.size} differs from first "
                             f"record ({feats[0].size})")
        if regs and (reg is None) != (regs[0] is None):
            raise ValueError(f"{where}: {'has' if reg is not None else 'lacks'} 'reg' "
                             "unlike the first record; give it on every record or on none")
        first_line[rid] = lineno
        label_line.setdefault(obj["label"], lineno)
        labels.append(obj["label"])
        feats.append(feat)
        regs.append(reg)
    if not first_line:
        raise ValueError(f"{path}: no records")
    if registry is not None:
        spelling = {}
        for label, lineno in label_line.items():
            try:
                spelling[label] = registry.names[registry.index(label)]
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
        labels = [spelling[label] for label in labels]
    return FeatureSet(list(first_line), labels, np.stack(feats, axis=1),
                      None if regs[0] is None else np.stack(regs, axis=1))


def save_records(path, data: FeatureSet):
    regs = [None] * len(data) if data.reg is None else data.reg.T.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for rid, label, feat, reg in zip(data.ids, data.labels, data.feat.T.tolist(), regs):
            obj = {"id": rid, "label": label, "feat": feat} | ({} if reg is None else {"reg": reg})
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def batch_features(data: FeatureSet, cols=None) -> np.ndarray:
    """Features of columns ``cols`` (default: all) of ``data``: (d_in, batch)."""
    return data.feat if cols is None else data.feat.take(cols, axis=1)
