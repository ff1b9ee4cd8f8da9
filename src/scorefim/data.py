"""Columnar datasets of per-individual observations, plus CSV serialization.

A ``Dataset`` holds its n individuals as read-only columns: ``y`` (n, J)
with individual i's observations in its first ``n_obs()[i]`` slots and
zeros after them, J being the longest record; for designs with times and
doses, ``times`` (n, J) padded the same way with t = 0, and ``doses`` (n,).
Models read these arrays.

CSV schema: ``individual, obs_index, time, dose, y`` with design columns left
empty where a model has no such notion; rows are individual-major.
"""

from __future__ import annotations

import contextlib
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


class Dataset:
    """Immutable columnar observations of n >= 1 individuals (module docstring).

    ``from_arrays`` is the one constructor; ``subset``, ``replicate`` and
    ``rows`` derive datasets from a checked one.  ``latent_truth`` optionally
    retains the simulated latents, one row per individual; estimators never
    read it.
    """

    @classmethod
    def from_arrays(cls, y, n_obs=None, times=None, doses=None, latent_truth=None) -> "Dataset":
        """A dataset from its columns, after the checks every dataset passes.

        ``y`` is (n, J); ``n_obs`` (n,) defaults to J for every row.
        ``times`` (n, J) and ``doses`` (n,) are optional.  Read-only float
        arrays, broadcast views included, are kept as given; any other input
        is copied.
        """
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
        return cls._wrap(y, n_obs, times, doses, latent_truth)

    @classmethod
    def _wrap(cls, y, n_obs, times, doses, latent_truth) -> "Dataset":
        """A dataset over columns that passed the checks, made read-only."""
        for a in (y, n_obs, times, doses):
            if a is not None and a.flags.writeable:
                a.setflags(write=False)
        if latent_truth is not None:
            latent_truth = _frozen(np.atleast_2d(latent_truth))
            if latent_truth.shape[0] != y.shape[0]:
                raise DimensionMismatch("latent truth must have one row per individual")
        self = cls.__new__(cls)
        self.__dict__.update(y=y, times=times, doses=doses, latent_truth=latent_truth, _n_obs=n_obs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def n_obs(self) -> np.ndarray:
        """Observations per record, read-only."""
        return self._n_obs

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, in their order and repeats allowed, as a
        new dataset whose columns are cut to the longest of these records."""
        at = np.asarray(indices, dtype=int)
        cut = (at, slice(self._n_obs[at].max(initial=1)))
        return Dataset.from_arrays(
            self.y[cut], self._n_obs[at], None if self.times is None else self.times[cut],
            None if self.doses is None else self.doses[at],
            None if self.latent_truth is None else self.latent_truth[at],
        )

    def replicate(self, n: int) -> "Dataset":
        """n copies of this dataset's one individual, every column a read-only
        broadcast view of its one row."""
        if self.n != 1:
            raise DimensionMismatch("replicate repeats a dataset of one individual")
        return self._wrap(*(
            None if a is None else np.broadcast_to(a, (n, *a.shape[1:]))
            for a in (self.y, self._n_obs, self.times, self.doses)
        ), None)

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


@contextlib.contextmanager
def _opened(path_or_buf, mode):
    """A path opened for CSV in ``mode``, or an open buffer as given."""
    if isinstance(path_or_buf, str) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, mode, newline="") as fh:
            yield fh
    else:
        yield path_or_buf


def write_dataset_csv(dataset: Dataset, path_or_buf) -> None:
    """Serialize individual-major with empty cells for absent design columns."""
    times, doses = dataset.times, dataset.doses
    with _opened(path_or_buf, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, k in enumerate(dataset.n_obs().tolist()):
            d = "" if doses is None else f"{doses[i]:.9g}"
            for j in range(k):
                t = "" if times is None else f"{times[i, j]:.9g}"
                writer.writerow([i, j, t, d, f"{dataset.y[i, j]:.9g}"])


def read_dataset_csv(path_or_buf) -> Dataset:
    """A dataset from CSV (module docstring); rows may come in any order.

    Individual ids are integers, sorted into the dataset's rows.  Each
    individual's ``obs_index`` runs 0..k-1, once each; its times are all
    given or all blank, and its dose cells all hold the same text.  Every
    individual has times (a dose), or none has.  A missing file, a cell that
    is not a number and each breach above raise ConfigError.
    """
    try:
        with _opened(path_or_buf, "r") as fh:
            lines = list(csv.reader(fh))
    except FileNotFoundError as exc:
        raise ConfigError(f"dataset file not found: {path_or_buf}") from exc
    if not lines or tuple(h.strip() for h in lines[0]) != CSV_COLUMNS:
        raise ConfigError(f"dataset CSV must start with header {','.join(CSV_COLUMNS)}")
    cells: dict[int, dict[int, list[str]]] = {}
    for row in filter(None, lines[1:]):
        if len(row) != len(CSV_COLUMNS):
            raise ConfigError(f"malformed dataset row: {row!r}")
        try:
            ind, j = int(row[0]), int(row[1])
        except ValueError as exc:
            raise ConfigError(f"individual {row[0]!r}: {exc}") from None
        obs = cells.setdefault(ind, {})
        if j in obs:
            raise ConfigError(f"individual {ind} has two rows with obs_index {j}")
        obs[j] = row[2:]
    if not cells:
        raise ConfigError("dataset CSV holds no observations")
    ids = sorted(cells)
    n_obs = [len(cells[ind]) for ind in ids]
    y = np.zeros((len(ids), max(n_obs)))
    times, doses = np.zeros_like(y), np.zeros(len(ids))
    design = None
    for i, (ind, k) in enumerate(zip(ids, n_obs)):
        if sorted(cells[ind]) != list(range(k)):
            raise ConfigError(f"individual {ind}: obs_index must run 0..{k - 1}, once each")
        t, d, v = zip(*(cells[ind][j] for j in range(k)))
        if len({s == "" for s in t}) > 1:
            raise ConfigError(f"individual {ind} has a time on some rows only")
        if len(set(d)) > 1:
            raise ConfigError(f"individual {ind} has inconsistent dose entries")
        design = design or (t[0] != "", d[0] != "")
        if design != (t[0] != "", d[0] != ""):
            raise ConfigError(f"individual {ind}: all individuals or none have times (a dose)")
        try:
            y[i, :k] = [float(s) for s in v]
            if design[0]:
                times[i, :k] = [float(s) for s in t]
            if design[1]:
                doses[i] = float(d[0])
        except ValueError as exc:
            raise ConfigError(f"individual {ind}: {exc}") from None
    return Dataset.from_arrays(y, n_obs, times if design[0] else None, doses if design[1] else None)


def dataset_to_csv_string(dataset: Dataset) -> str:
    buf = io.StringIO()
    write_dataset_csv(dataset, buf)
    return buf.getvalue()
