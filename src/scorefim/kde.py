"""Gaussian kernel density estimation with Silverman's bandwidth rule."""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation

_GRID_SIZE = 512  # points of the density grid


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 min(sd, IQR/1.34) M^(-1/5), floored for degenerate samples."""
    s = np.asarray(samples, dtype=float)
    if s.size < 2:
        raise DomainViolation("bandwidth needs at least two samples")
    sd = float(s.std(ddof=1))
    q25, q75 = np.quantile(s, [0.25, 0.75])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0:
        spread = max(abs(float(s.mean())), 1.0) * 1e-8
    return 0.9 * spread * s.size ** (-0.2)


def gaussian_kde(samples: np.ndarray):
    """(grid, density) of the kernel estimate at Silverman's bandwidth on an
    equispaced grid of _GRID_SIZE points.

    The grid spans the sample range plus three bandwidths on each side.
    """
    s = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(s)
    grid = np.linspace(s.min() - 3.0 * h, s.max() + 3.0 * h, _GRID_SIZE)
    u = (grid[:, None] - s[None, :]) / h
    dens = np.exp(-0.5 * u**2).sum(axis=1) / (s.size * h * np.sqrt(2.0 * np.pi))
    return grid, dens


def sample_moments(samples: np.ndarray):
    """(skewness, excess kurtosis) of a sample."""
    s = np.asarray(samples, dtype=float)
    c = s - s.mean()
    m2 = float((c**2).mean())
    if m2 == 0:
        return 0.0, 0.0
    skew = float((c**3).mean()) / m2**1.5
    kurt = float((c**4).mean()) / m2**2 - 3.0
    return skew, kurt
