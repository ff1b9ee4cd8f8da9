"""Columnar datasets of per-individual observations, plus CSV serialization.

A ``Dataset`` holds its n individuals as read-only columns: ``y`` (n, J)
with individual i's observations in its first ``n_obs()[i]`` slots and
zeros after them, J being the longest record; for designs with times and
doses, ``times`` (n, J) padded the same way with t = 0, and ``doses`` (n,).
Models read these arrays; ``records`` offers one ``IndividualRecord`` view
per individual, built on first use, for the few per-record consumers.

CSV schema: ``individual, obs_index, time, dose, y`` with design columns left
empty where a model has no such notion; rows are individual-major.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainViolation

CSV_COLUMNS = ("individual", "obs_index", "time", "dose", "y")


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _column(a, dtype=float):
    """``a`` as a read-only array: kept as it is when it already is one of
    ``dtype`` (a broadcast view, say), copied otherwise."""
    a = np.asarray(a)
    return a if a.dtype == dtype and not a.flags.writeable else _frozen(a, dtype)


def _columns(y, n_obs=None, times=None, doses=None):
    """(y, n_obs, times, doses) as read-only arrays, after the checks that
    every dataset's columns pass (see ``Dataset.from_arrays``)."""
    y = _column(y)
    if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
        raise DimensionMismatch("y must hold n >= 1 records of J >= 1 observations")
    n, J = y.shape
    n_obs = np.full(n, J) if n_obs is None else _column(n_obs, int)
    if n_obs.shape != (n,):
        raise DimensionMismatch("n_obs must hold one count per row of y")
    if n_obs.min() < 1 or n_obs.max() != J:
        raise DimensionMismatch("records need 1 to J observations, the longest all J")
    past_end = np.arange(J) >= n_obs[:, None]
    if times is not None:
        times = _column(times)
        if times.shape != y.shape:
            raise DimensionMismatch("times must align with y")
        if (np.diff(times, axis=1) <= 0)[~past_end[:, 1:]].any():
            raise DomainViolation("observation times must be strictly increasing")
    if past_end.any() and any(a is not None and a[past_end].any() for a in (y, times)):
        raise DimensionMismatch("slots past a record's end must hold 0")
    if doses is not None:
        doses = _column(doses)
        if doses.shape != (n,):
            raise DimensionMismatch("doses must hold one dose per row of y")
        if not (doses > 0).all():
            raise DomainViolation("dose must be positive", component="dose")
    return y, n_obs, times, doses


@dataclass(frozen=True)
class IndividualRecord:
    """Observations and design for one individual, checked as one row of a
    dataset's columns."""

    y: np.ndarray
    times: np.ndarray | None = None
    dose: float | None = None

    def __post_init__(self):
        y = _frozen(self.y)
        times = None if self.times is None else _frozen(self.times)
        _columns(
            y[None], times=None if times is None else times[None],
            doses=None if self.dose is None else [self.dose],
        )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "times", times)

    @property
    def n_obs(self) -> int:
        return self.y.size


def _record_view(y, times, dose) -> IndividualRecord:
    """A record over arrays a Dataset has already checked and made read-only."""
    rec = object.__new__(IndividualRecord)
    for name, value in (("y", y), ("times", times), ("dose", dose)):
        object.__setattr__(rec, name, value)
    return rec


class Dataset:
    """Immutable columnar observations of n >= 1 individuals (module docstring).

    ``Dataset(records)`` builds the columns from checked IndividualRecords,
    ``Dataset.from_arrays`` from arrays, and ``Dataset.replicate`` from one
    record repeated; ``rows`` views a range of rows.  ``latent_truth``
    optionally retains the simulated latent values, one row per individual;
    estimators never read it.
    """

    def __init__(self, records, latent_truth=None):
        records = tuple(records)
        if not records:
            raise DimensionMismatch("dataset needs at least one individual")
        n_obs = np.array([r.n_obs for r in records])
        y = np.zeros((len(records), n_obs.max()))
        times = None if records[0].times is None else np.zeros_like(y)
        with_dose = records[0].dose is not None
        for i, r in enumerate(records):
            if (r.times is not None) != (times is not None) or (r.dose is not None) != with_dose:
                raise DimensionMismatch("either every record has times (a dose) or none has")
            y[i, : r.n_obs] = r.y
            if times is not None:
                times[i, : r.n_obs] = r.times
        doses = np.array([r.dose for r in records], dtype=float) if with_dose else None
        self._set(y, n_obs, times, doses, latent_truth)
        self.memo("records", lambda: records)

    @classmethod
    def from_arrays(cls, y, n_obs=None, times=None, doses=None, latent_truth=None) -> "Dataset":
        """A dataset from its columns, after the checks IndividualRecord runs
        on each record.

        ``y`` is (n, J); ``n_obs`` (n,) defaults to J for every row, and the
        longest record must fill all J slots; slots past a record's end must
        hold 0 in ``y`` and ``times``.  ``times`` (n, J) and ``doses`` (n,)
        are optional.  Read-only float arrays, broadcast views included, are
        kept as given; any other input is copied.
        """
        self = cls.__new__(cls)
        self._set(*_columns(y, n_obs, times, doses), latent_truth)
        return self

    @classmethod
    def replicate(cls, record: IndividualRecord, n: int) -> "Dataset":
        """n copies of one record, every column a read-only broadcast view."""
        J = record.n_obs
        self = cls.__new__(cls)
        self._set(
            np.broadcast_to(record.y, (n, J)), np.broadcast_to(J, (n,)),
            None if record.times is None else np.broadcast_to(record.times, (n, J)),
            None if record.dose is None else np.broadcast_to(float(record.dose), (n,)),
            None,
        )
        return self

    def _set(self, y, n_obs, times, doses, latent_truth):
        for a in (y, n_obs, times, doses):
            if a is not None and a.flags.writeable:
                a.setflags(write=False)
        if latent_truth is not None:
            latent_truth = _frozen(np.atleast_2d(latent_truth))
            if latent_truth.shape[0] != y.shape[0]:
                raise DimensionMismatch("latent truth must have one row per individual")
        self.__dict__.update(
            y=y, times=times, doses=doses, latent_truth=latent_truth, _n_obs=n_obs
        )

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def n_obs(self) -> np.ndarray:
        """Observations per record, read-only."""
        return self._n_obs

    @property
    def records(self) -> tuple[IndividualRecord, ...]:
        """One IndividualRecord per individual, viewing the columns; built on
        first use and kept."""

        def build():
            out = []
            for i, k in enumerate(self._n_obs.tolist()):
                times = None if self.times is None else self.times[i, :k]
                dose = None if self.doses is None else float(self.doses[i])
                out.append(_record_view(self.y[i, :k], times, dose))
            return tuple(out)

        return self.memo("records", build)

    def subset(self, indices) -> "Dataset":
        truth = None
        if self.latent_truth is not None:
            truth = self.latent_truth[list(indices)]
        return Dataset(tuple(self.records[i] for i in indices), latent_truth=truth)

    def rows(self, start: int, stop: int) -> "Dataset":
        """Rows start:stop as a dataset viewing these columns, all J slots
        kept; it builds no records and runs no checks (the columns passed
        them)."""
        cut = slice(start, stop)
        out = Dataset.__new__(Dataset)
        out._set(
            self.y[cut], self._n_obs[cut],
            None if self.times is None else self.times[cut],
            None if self.doses is None else self.doses[cut],
            None if self.latent_truth is None else self.latent_truth[cut],
        )
        return out

    def memo(self, key: str, builder):
        """Cache a derived view on this immutable dataset (columns never change)."""
        cache = self.__dict__.setdefault("_memo", {})
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
