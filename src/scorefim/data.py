"""Datasets of per-individual observation records, plus CSV serialization.

CSV schema: ``individual, obs_index, time, dose, y`` with design columns left
empty where a model has no such notion; rows are individual-major.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainViolation

CSV_COLUMNS = ("individual", "obs_index", "time", "dose", "y")


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IndividualRecord:
    """Observations and design for one individual."""

    y: np.ndarray
    times: np.ndarray | None = None
    dose: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen(self.y))
        if self.y.ndim != 1 or self.y.size < 1:
            raise DimensionMismatch("y must be a nonempty vector")
        if self.times is not None:
            object.__setattr__(self, "times", _frozen(self.times))
            if self.times.shape != self.y.shape:
                raise DimensionMismatch("times must align with y")
            if np.any(np.diff(self.times) <= 0):
                raise DomainViolation("observation times must be strictly increasing")
        if self.dose is not None and not self.dose > 0:
            raise DomainViolation("dose must be positive", component="dose")

    @property
    def n_obs(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class Dataset:
    """Immutable sequence of individual records.

    ``latent_truth`` optionally retains the simulated latent values, one row
    per individual; estimators never read it.
    """

    records: tuple[IndividualRecord, ...]
    latent_truth: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.records) < 1:
            raise DimensionMismatch("dataset needs at least one individual")
        if self.latent_truth is not None:
            truth = _frozen(np.atleast_2d(self.latent_truth))
            if truth.shape[0] != len(self.records):
                raise DimensionMismatch("latent truth must have one row per individual")
            object.__setattr__(self, "latent_truth", truth)

    @property
    def n(self) -> int:
        return len(self.records)

    def n_obs(self) -> np.ndarray:
        """Observations per record; cached and read-only."""
        return self.memo("n_obs", lambda: _frozen([r.n_obs for r in self.records], dtype=int))

    def subset(self, indices) -> "Dataset":
        truth = None
        if self.latent_truth is not None:
            truth = self.latent_truth[list(indices)]
        return Dataset(tuple(self.records[i] for i in indices), latent_truth=truth)

    def memo(self, key: str, builder):
        """Cache a derived view on this immutable dataset (records never change)."""
        cache = self.__dict__.get("_memo")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_memo", cache)
        if key not in cache:
            cache[key] = builder()
        return cache[key]


@dataclass(frozen=True)
class Design:
    """Simulation design: individual count plus whatever the model consumes."""

    n: int
    n_obs: int | None = None
    times: np.ndarray | None = None
    dose: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainViolation("design needs n >= 1", component="n")
        if self.times is not None:
            object.__setattr__(self, "times", _frozen(self.times))


def write_dataset_csv(dataset: Dataset, path_or_buf) -> None:
    """Serialize individual-major with empty cells for absent design columns."""

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, rec in enumerate(dataset.records):
            for j in range(rec.n_obs):
                t = "" if rec.times is None else f"{rec.times[j]:.9g}"
                d = "" if rec.dose is None else f"{rec.dose:.9g}"
                writer.writerow([i, j, t, d, f"{rec.y[j]:.9g}"])

    if isinstance(path_or_buf, (str,)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_buf)


def read_dataset_csv(path_or_buf) -> Dataset:
    if isinstance(path_or_buf, (str,)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, newline="") as fh:
            return _read(fh)
    return _read(path_or_buf)


def _read(fh) -> Dataset:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise ConfigError(f"dataset CSV must start with header {','.join(CSV_COLUMNS)}")
    rows: dict[int, list[tuple[int, str, str, str]]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ConfigError(f"malformed dataset row: {row!r}")
        ind = int(row[0])
        rows.setdefault(ind, []).append((int(row[1]), row[2], row[3], row[4]))
    records = []
    for ind in sorted(rows):
        entries = sorted(rows[ind])
        y = np.array([float(e[3]) for e in entries])
        times_raw = [e[1] for e in entries]
        dose_raw = {e[2] for e in entries}
        times = None
        if any(t != "" for t in times_raw):
            times = np.array([float(t) for t in times_raw])
        dose = None
        if dose_raw - {""}:
            if len(dose_raw) != 1:
                raise ConfigError(f"individual {ind} has inconsistent dose entries")
            dose = float(dose_raw.pop())
        records.append(IndividualRecord(y=y, times=times, dose=dose))
    return Dataset(tuple(records))


def dataset_to_csv_string(dataset: Dataset) -> str:
    buf = io.StringIO()
    write_dataset_csv(dataset, buf)
    return buf.getvalue()
