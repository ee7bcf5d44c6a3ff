"""Precomputed feature records and their JSONL serialization.

One record per line: ``{"id": str, "label": str, "feat": [floats], "reg":
[floats]?}``.  ``feat`` is the raw input feature vector; ``reg`` is an
optional regression target (box-style, ``REG_DIM`` values).
"""

import json
from dataclasses import dataclass

import numpy as np

REG_DIM = 4


@dataclass
class FeatureRecord:
    id: str
    label: str
    feat: np.ndarray
    reg: np.ndarray | None = None

    def __post_init__(self):
        self.feat = np.asarray(self.feat, dtype=np.float64).reshape(-1)
        if self.reg is not None:
            self.reg = np.asarray(self.reg, dtype=np.float64).reshape(-1)

    def to_json(self) -> dict:
        out = {"id": self.id, "label": self.label, "feat": self.feat.tolist()}
        if self.reg is not None:
            out["reg"] = self.reg.tolist()
        return out


def load_records(path) -> list:
    """Read a JSONL feature file.  A malformed line, a non-finite value, a
    ``reg`` that is not ``REG_DIM`` long and a repeated id each raise,
    naming ``path:line``."""
    out = []
    dim = None
    first_line = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            missing = {"id", "label", "feat"} - set(obj)
            if missing:
                raise ValueError(f"{path}:{lineno}: missing fields {sorted(missing)}")
            try:
                rec = FeatureRecord(
                    id=str(obj["id"]),
                    label=str(obj["label"]),
                    feat=obj["feat"],
                    reg=obj.get("reg"),
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric feat or reg ({exc})") from None
            for key, values in (("feat", rec.feat), ("reg", rec.reg)):
                if values is not None and not np.isfinite(values).all():
                    raise ValueError(f"{path}:{lineno}: non-finite value in {key!r}")
            if rec.reg is not None and rec.reg.size != REG_DIM:
                raise ValueError(
                    f"{path}:{lineno}: reg has {rec.reg.size} values, expected {REG_DIM}"
                )
            if rec.id in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate id {rec.id!r} (first on line {first_line[rec.id]})"
                )
            first_line[rec.id] = lineno
            if dim is None:
                dim = rec.feat.size
            elif rec.feat.size != dim:
                raise ValueError(
                    f"{path}:{lineno}: feature dim {rec.feat.size} differs from first record ({dim})"
                )
            out.append(rec)
    return out


def save_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


def feature_dim(records) -> int:
    if not records:
        raise ValueError("no records to infer feature dim from")
    return records[0].feat.size


def batch_features(records) -> np.ndarray:
    """Stack features as columns: (d_in, batch)."""
    return np.ascontiguousarray(np.stack([r.feat for r in records], axis=1))
