"""Named parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class ParamVector:
    """Immutable parameter vector with component names."""

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if values.ndim != 1:
            raise DimensionMismatch("parameter values must be a flat vector")
        if len(self.names) != values.size:
            raise DimensionMismatch(
                f"{values.size} values but {len(self.names)} names"
            )

    @property
    def p(self) -> int:
        return self.values.size

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def replace_values(self, values) -> "ParamVector":
        return ParamVector(np.asarray(values, dtype=float), self.names)

    def __repr__(self):
        inner = ", ".join(f"{n}={v:.6g}" for n, v in zip(self.names, self.values))
        return f"ParamVector({inner})"
