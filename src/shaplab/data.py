"""Immutable tabular datasets backing the empirical value functions.

CSV format (UTF-8 text): first line is a header of feature names, every
following line is a row of finite decimal reals, one per name (``nan``, ``inf``
and rows of the wrong length are rejected at load). An optional JSON sidecar
schema, a UTF-8 JSON object, maps feature names to a domain kind (``discrete`` or ``continuous``); columns
without an entry default to discrete when every value is integral, continuous
otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DISCRETE = "discrete"
CONTINUOUS = "continuous"


class DatasetError(ValueError):
    """Malformed dataset file or construction arguments."""


class TabularDataset:
    """Named feature columns over an immutable matrix of reals."""

    def __init__(self, feature_names, rows, domain_kinds=None):
        names = tuple(str(n) for n in feature_names)
        if len(set(names)) != len(names):
            raise DatasetError("feature names must be unique")
        matrix = np.array(rows, dtype=float)
        if matrix.ndim != 2:
            raise DatasetError("rows must form a 2-D matrix")
        if matrix.shape[0] < 1:
            raise DatasetError("dataset needs at least one row")
        if matrix.shape[1] != len(names):
            raise DatasetError(
                f"rows have {matrix.shape[1]} entries but {len(names)} feature names given"
            )
        if domain_kinds is None:
            domain_kinds = tuple(
                DISCRETE if np.all(matrix[:, j] == np.round(matrix[:, j])) else CONTINUOUS
                for j in range(matrix.shape[1])
            )
        else:
            domain_kinds = tuple(domain_kinds)
            if len(domain_kinds) != len(names):
                raise DatasetError("one domain kind per feature required")
            for kind in domain_kinds:
                if kind not in (DISCRETE, CONTINUOUS):
                    raise DatasetError(f"unknown domain kind {kind!r}")
        matrix.setflags(write=False)
        self.feature_names = names
        self.rows = matrix
        self.domain_kinds = domain_kinds

    @classmethod
    def from_csv(cls, path, schema_path=None) -> "TabularDataset":
        path = Path(path)
        try:
            names, rows = _read_csv(path)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text ({exc})") from None
        kinds = None
        if schema_path is None:
            candidate = path.with_name(path.name + ".schema.json")
            if candidate.exists():
                schema_path = candidate
        if schema_path is not None:
            try:
                declared = json.loads(Path(schema_path).read_text(encoding="utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise DatasetError(f"{schema_path}: {exc}") from None
            if not isinstance(declared, dict):
                raise DatasetError(f"{schema_path}: expected a JSON object of feature name to domain kind")
            unknown = set(declared) - set(names)
            if unknown:
                raise DatasetError(f"schema declares unknown features: {sorted(unknown)}")
            data = cls(names, rows)  # infer defaults first
            kinds = tuple(declared.get(n, k) for n, k in zip(names, data.domain_kinds))
            for kind in kinds:
                if kind not in (DISCRETE, CONTINUOUS):
                    raise DatasetError(f"unknown domain kind {kind!r} in schema")
        return cls(names, rows, kinds)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def row(self, index: int) -> np.ndarray:
        return self.rows[index]

    def column(self, name_or_index) -> np.ndarray:
        if isinstance(name_or_index, str):
            name_or_index = self.feature_names.index(name_or_index)
        return self.rows[:, name_or_index]

    def means(self) -> np.ndarray:
        return self.rows.mean(axis=0)

    @property
    def all_discrete(self) -> bool:
        return all(k == DISCRETE for k in self.domain_kinds)

    def continuous_features(self) -> tuple[str, ...]:
        return tuple(
            n for n, k in zip(self.feature_names, self.domain_kinds) if k == CONTINUOUS
        )

    def row_set(self) -> set[tuple[float, ...]]:
        """Exact row membership set (tuples of floats)."""
        return {tuple(r) for r in self.rows.tolist()}

    def __len__(self) -> int:
        return self.n_rows


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header names and rows of finite floats; faults name ``file:line``."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        rows = []
        for lineno, line in enumerate(reader, start=2):
            if not line or (len(line) == 1 and not line[0].strip()):
                continue
            try:
                values = [float(v) for v in line]
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise DatasetError(f"{path}:{lineno}: non-finite value in {line!r}")
            if len(values) != len(names):
                raise DatasetError(
                    f"{path}:{lineno}: {len(values)} values but {len(names)} columns in the header"
                )
            rows.append(values)
    return names, rows
