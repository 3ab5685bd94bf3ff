"""Shared low-level numerics: exponential quadrature weights and 1-D tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this |z| the closed forms for phi0/phi1 lose digits to cancellation;
# the truncated series is accurate to ~1e-16 there.
_SERIES_CUTOFF = 1e-4


def phi01(z):
    """phi0(z) = (1 - exp(-z)) / z and phi1(z) = (1 - (1 + z) exp(-z)) / z^2
    from one expm1, with a truncated series near z = 0 (phi0(0) = 1, phi1(0) = 1/2).

    Besides the two results it holds two arrays of ``z``'s size at a time.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    em = np.negative(zs)
    np.expm1(em, out=em)  # exp(-z) - 1
    p0 = em / zs
    np.negative(p0, out=p0)
    p1 = p0 - 1.0  # (phi0 - exp(-z)) / z
    p1 -= em
    p1 /= zs
    if small.any():
        zz = z[small]
        p0[small] = 1.0 - zz / 2.0 + zz * zz / 6.0
        p1[small] = 0.5 - zz / 3.0 + zz * zz / 8.0
    return p0, p1


def interp_weights(coords: np.ndarray, x):
    """Bracketing indices and left weights for clamped linear interpolation.

    Returns (ilo, wlo) so that a table ``v`` sampled on ``coords`` (at
    least two of them) is read as ``wlo * v[ilo] + (1 - wlo) * v[ilo + 1]``
    at each of the points ``x`` (an array).  Points outside the hull clamp
    to the nearest endpoint.  Besides the two results it holds two arrays of
    ``x``'s size at a time.
    """
    coords = np.asarray(coords, dtype=float)
    x = np.asarray(x, dtype=float)
    ilo = np.searchsorted(coords, x, side="right")
    ilo -= 1
    np.clip(ilo, 0, coords.size - 2, out=ilo)
    lo = coords.take(ilo)
    wlo = x - lo
    ilo += 1
    span = coords.take(ilo)
    ilo -= 1
    span -= lo
    wlo /= span
    np.clip(wlo, 0.0, 1.0, out=wlo)
    np.subtract(1.0, wlo, out=wlo)
    return ilo, wlo


@dataclass(frozen=True)
class Table1D:
    """A scalar function sampled on sorted 1-D coordinates.

    Evaluation is clamped linear interpolation, which is also the convention
    used by the quadrature engine, so limits toward the state-space hull agree
    with the nearest sample.  There are at least two coordinates.
    """

    coords: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.coords, self.values)
