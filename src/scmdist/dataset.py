"""In-memory dataset: named real-valued columns of equal length."""

from __future__ import annotations

import hashlib
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError, _real

__all__ = ["Dataset"]


class Dataset:
    """N observations of d named real variables: complete, finite 1-D columns.

    Columns are aligned by name everywhere in the package, so the declaration
    order of ``variable_names`` never affects computed distances.  Columns are
    read-only copies of the caller's values; ``id`` is a label, and may repeat.
    """

    def __init__(self, columns: Mapping[str, Sequence[float]], id: str = "",
                 variable_names: Sequence[str] | None = None):
        names = list(variable_names) if variable_names is not None else list(columns)
        if len(set(names)) != len(names):
            raise ValidationError("duplicate variable names")
        if set(names) != set(columns):
            raise ValidationError("variable_names must match the column keys")
        if not names:
            raise ValidationError("dataset needs at least one variable")
        cols = {}
        n = None
        for name in names:
            try:
                col = np.asarray(columns[name])  # no copy of an array, so O(1)
                if col.dtype.kind == "c":  # a cast to float drops the imaginary parts
                    raise TypeError("complex samples")
                col = col.astype(float)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"column {name!r} is not real-valued: {exc}") from None
            if col.ndim != 1:
                raise ValidationError(
                    f"column {name!r} must be one-dimensional, got shape {col.shape}")
            if col.size == 0:
                raise ValidationError(f"column {name!r} is empty")
            if n is None:
                n = col.size
            elif col.size != n:
                raise ValidationError(
                    f"column {name!r} has length {col.size}, expected {n}")
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"column {name!r} contains non-finite values")
            col.setflags(write=False)
            cols[name] = col
        self._columns = cols
        self._digests: dict[str, bytes] = {}
        self._names = tuple(names)
        self.id = str(id)
        self.n = int(n)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self._names

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise ValidationError(f"unknown variable {name!r} in dataset {self.id!r}")
        return self._columns[name]

    def _digest(self, name: str) -> bytes:
        """SHA-256 of a column's samples, computed on first use: cache entries
        are keyed by it, so equal samples share them whatever their ids."""
        if name not in self._digests:
            self._digests[name] = hashlib.sha256(self.column(name)).digest()
        return self._digests[name]

    def _order_key(self) -> tuple:
        """The id, then the column digests in name order: the first part of a
        distance's side key (``distance._evaluate``) and the order in which
        ``mmd_vstat`` and ``cache._CallRows`` take datasets, so a swap leaves
        a distance unchanged bit for bit."""
        return (self.id, *(self._digest(v) for v in sorted(self._names)))

    def mean(self, name: str) -> float:
        return float(self.column(name).mean())

    def quantile(self, name: str, level: float) -> float:
        """np.quantile's default linear interpolation, bit for bit, without numpy.ma."""
        level = _real(level, "quantile level")
        if not 0.0 < level < 1.0:
            raise ValidationError(f"quantile level must be in (0, 1), got {level}")
        b, v = np.sort(self.column(name)), (self.n - 1) * level
        if v >= self.n - 1:
            return float(b[-1])
        lo = int(v)  # v >= 0, so this is floor(v)
        g, d = v - lo, b[lo + 1] - b[lo]
        return float(b[lo] + d * g if g < 0.5 else b[lo + 1] - d * (1 - g))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Dataset(id={self.id!r}, n={self.n}, variables={list(self._names)!r})"
