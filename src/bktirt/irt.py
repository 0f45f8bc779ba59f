"""The four-parameter logistic response curve and the fit of its asymptotes.

Covers the overflow-safe logistic, the 4PL curve (with d = 1 it is the
3PL, with c = 0 as well the 2PL, and with a = 1 as well the 1PL), its
maximum slope, and a weighted least-squares fit of the asymptote pair
(c, d) at fixed discrimination.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFit, InsufficientData, OutOfRange
from .params import Irf4pl


def logistic(z):
    """Overflow-safe standard logistic, elementwise on arrays: one exp of
    -|z|, which never overflows, then e / (1 + e) where z < 0 and
    1 / (1 + e) elsewhere."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    # One of the two terms is 0, so the numerator is exact.
    out = (e * (z < 0) + (z >= 0)) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def irf_4pl(theta, item: Irf4pl):
    """P(correct | theta) = c + (d - c) * logistic(a * (theta - b)).

    Clamped to [c, d]: at saturation the affine form can overshoot an
    asymptote by one rounding ulp. A product a * (theta - b) past the float
    range becomes +-inf, whose logistic is the exact asymptote, so its
    overflow is not warned about.
    """
    with np.errstate(over="ignore"):
        z = item.a * (np.asarray(theta, dtype=float) - item.b)
    raw = item.c + (item.d - item.c) * logistic(z)
    clipped = np.clip(raw, item.c, item.d)
    return float(clipped) if np.ndim(clipped) == 0 else clipped


def irf_slope_max(item: Irf4pl) -> float:
    """Maximum slope of the response curve, attained at theta = b: a(d-c)/4."""
    return item.a * (item.d - item.c) / 4.0


def fit_irf_cd(
    binned: list[tuple[float, float, float]],
    a_fixed: float,
) -> tuple[float, float, float]:
    """Count-weighted least-squares (c, d) for p = c + (d-c)*logistic(a*x).

    ``binned`` holds (advantage x, observed proportion, count) rows; rows with
    zero count are ignored. The model is linear in (c, d) through the basis
    (1 - s, s) with s = logistic(a_fixed * x), so the loss is a convex
    quadratic in (c, d), minimized over the triangle 0 <= c <= d <= 1: the
    unconstrained optimum when it lies inside, else the best of the minima
    along the edges c = 0, d = 1 and c = d. On c = d (flat or inverted data)
    c and d are separated by one ulp to keep c < d. Returns (c, d, weighted
    RMSE of the fit).
    """
    if a_fixed <= 0:
        raise OutOfRange(f"a_fixed must be > 0, got {a_fixed}")
    rows = [(float(x), float(p), float(n)) for x, p, n in binned if n > 0]
    if len(rows) < 2:
        raise InsufficientData(
            f"need at least 2 bins with positive count, got {len(rows)}"
        )
    x = np.array([r[0] for r in rows])
    p = np.array([r[1] for r in rows])
    w = np.array([r[2] for r in rows])
    if np.all(x == x[0]):
        raise DegenerateFit("all advantage values equal; (c, d) not separable")

    s = logistic(a_fixed * x)
    basis = np.stack([1.0 - s, s], axis=1)
    normal = basis.T @ (w[:, None] * basis)
    rhs = basis.T @ (w * p)
    det = normal[0, 0] * normal[1, 1] - normal[0, 1] * normal[1, 0]
    if det <= 0 or not np.isfinite(det):
        raise DegenerateFit("weighted design is rank-deficient")
    c_hat = (normal[1, 1] * rhs[0] - normal[0, 1] * rhs[1]) / det
    d_hat = (normal[0, 0] * rhs[1] - normal[1, 0] * rhs[0]) / det

    def loss(cd) -> float:
        return float(np.sum(w * (p - cd[0] - (cd[1] - cd[0]) * s) ** 2) / np.sum(w))

    if not 0.0 <= c_hat < d_hat <= 1.0:
        # The minimum lies on an edge start + t * step, 0 <= t <= 1, where
        # the quadratic's own minimizer along the edge is clipped into range.
        edges = (((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)))
        candidates = []
        for start, step in map(np.array, edges):
            t = (rhs @ step - step @ normal @ start) / (step @ normal @ step)
            candidates.append(start + float(np.clip(t, 0.0, 1.0)) * step)
        c_hat, d_hat = min(candidates, key=loss)
    c_hat, d_hat = float(c_hat), float(d_hat)
    if c_hat >= d_hat:
        c_hat, d_hat = float(np.nextafter(c_hat, 0.0)), min(float(np.nextafter(d_hat, 2.0)), 1.0)
    return c_hat, d_hat, float(np.sqrt(loss((c_hat, d_hat))))
